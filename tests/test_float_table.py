"""The float shell table against the per-row, per-shell pipeline in
`reference_numerics`: the same shell values and members, the same verdicts
and deviations, the same spectrum and theorem-1 counts, bit for bit (-0.0
included), the same AmbiguousShellError message when a tolerance is
ambiguous, and the same StructuralError when two points coincide at it."""

import dataclasses
import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import reference_numerics as ref
from balanced import numerics
from balanced.constructors import (
    antipodal_union,
    c7_prime,
    cross_polytope,
    cube,
    figure1_adjacency,
    simplex,
    simplex_midpoints,
    srg_spectral_embedding,
)
from balanced.exact import StructuralError
from balanced.lattice import bundled_lattice, kissing_configuration
from balanced.numerics import (
    AmbiguousShellError,
    CoordinateSet,
    check_balanced_float,
    coordinates_from_gram,
    poles_and_ring_coordinates,
    spectrum_float,
    theorem1_check_float,
)

TOLS = [1e-12, 1e-9, 1e-6, 1e-3]
CAP = 6


def exact(x):
    """x with every float as its repr and every array as (dtype, items):
    two results are equal only when they are bit-identical."""
    if dataclasses.is_dataclass(x):
        return type(x).__name__, exact(dataclasses.astuple(x))
    if isinstance(x, np.ndarray):
        return x.dtype.str, exact(x.tolist())
    if isinstance(x, (tuple, list)):
        return tuple(exact(v) for v in x)
    if isinstance(x, float):
        return repr(x)
    return type(x).__name__, x


def outcome(fn):
    try:
        return exact(fn())
    except (AmbiguousShellError, StructuralError) as exc:
        return type(exc).__name__, str(exc)


PAIRS = [
    (lambda p, tol: check_balanced_float(p, tol), ref.check_balanced_float),
    (lambda p, tol: spectrum_float(p, tol), ref.spectrum_float),
    (lambda p, tol: theorem1_check_float(p, CAP, tol),
     lambda p, tol: ref.theorem1_check_float(p, CAP, tol)),
    (lambda p, tol: p.shells(tol), ref.shells),
]


def assert_matches_reference(make, tol):
    """Each function on a fresh set, and all of them in turn on one set (in
    the order `report` calls them), give the reference's result or error."""
    for new, old in PAIRS:
        assert outcome(lambda: new(make(), tol)) == outcome(lambda: old(make(), tol))
    p, q = make(), make()
    for new, old in PAIRS:
        assert outcome(lambda: new(p, tol)) == outcome(lambda: old(q, tol))


def from_points(points):
    return lambda: CoordinateSet(points=np.array(points, dtype=float))


def from_gram(gram, points=None):
    """A set whose Gram matrix is `gram` as given, signed zeros included, and
    whose unit vectors come from `points` (by default the standard basis)."""
    gram = np.array(gram, dtype=float)
    points = np.eye(len(gram)) if points is None else points

    def make():
        p = CoordinateSet(points=points)
        vars(p)["gram"] = gram
        return p

    return make


# --- random points on the sphere ----------------------------------------------


@st.composite
def point_sets(draw):
    n, r = draw(st.integers(1, 40)), draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        pts = rng.normal(size=(n, r))
    else:  # small integer vectors: many equal and nearly equal inner products
        pts = rng.integers(-2, 3, size=(n, r)).astype(float)
        pts[~pts.any(axis=1), 0] = 1.0
    return pts


@settings(max_examples=200, deadline=None)
@given(points=point_sets(), tol=st.sampled_from(TOLS))
def test_sphere_points(points, tol):
    assert_matches_reference(from_points(points), tol)


# --- noisy realizations of the bundled configurations ---------------------------

BUNDLED = {
    "c5": functools.partial(simplex_midpoints, 5),
    "c7p": c7_prime,
    "c7-union": lambda: antipodal_union(simplex_midpoints(7)),
    "cube": cube,
    "cross4": functools.partial(cross_polytope, 4),
    "simplex4": functools.partial(simplex, 4),
    "paulus_r": lambda: srg_spectral_embedding(figure1_adjacency(), "r"),
    "e8_kissing": lambda: kissing_configuration(bundled_lattice("e8")),
}


@functools.lru_cache(maxsize=None)
def realization(name):
    return coordinates_from_gram(BUNDLED[name]()).points


@pytest.mark.parametrize("tol", TOLS)
@pytest.mark.parametrize("noise", [0.0, 1e-11, 1e-8])
@pytest.mark.parametrize("name", sorted(BUNDLED))
def test_noisy_bundled(name, noise, tol):
    pts = realization(name)
    rng = np.random.default_rng(len(name))
    q, _ = np.linalg.qr(rng.normal(size=(pts.shape[1],) * 2))
    assert_matches_reference(from_points(pts @ q + noise * rng.normal(size=pts.shape)), tol)


# --- thresholds, degenerate sets, signed zeros ------------------------------------


def tilted_pole(k, tilt):
    """Poles and ring with the north pole tilted towards the first ring point:
    the south pole's shell {north} deviates by about `tilt`."""
    pts = poles_and_ring_coordinates(k).points.copy()
    pts[0, 0] = tilt
    return pts


@pytest.mark.parametrize("tol", TOLS)
@pytest.mark.parametrize("factor", [0.3, 0.999999, 1.000001, 3.0])
@pytest.mark.parametrize("k", [5, 7])
def test_tilted_poles_around_the_threshold(k, factor, tol):
    assert_matches_reference(from_points(tilted_pole(k, factor * tol)), tol)


@pytest.mark.parametrize("tol", TOLS)
@pytest.mark.parametrize(
    "points",
    [[[0.6, 0.0, 0.8]], [[1.0], [-1.0]], [[2.0], [-0.5]], [[1.0], [3.0], [-1.0]]],
    ids=["one-point", "S0", "S0-unnormalized", "S0-repeated"],
)
def test_one_point_and_s0(points, tol):
    assert_matches_reference(from_points(points), tol)


Z = -0.0
SIGNED_ZERO_GRAMS = {
    "all-negative-zero": [[1, Z, Z, Z], [Z, 1, Z, Z], [Z, Z, 1, Z], [Z, Z, Z, 1]],
    "mixed-zeros": [[1, 0, Z, Z], [Z, 1, 0, Z], [0, Z, 1, 0], [Z, 0, Z, 1]],
    "zeros-and-minus-one": [[1, Z, -1, Z], [Z, 1, Z, -1], [-1, Z, 1, Z], [Z, -1, Z, 1]],
    # ambiguous gaps next to a run of zeros: the message prints the zeros
    # the per-row sort puts at the run's ends
    "gap-above-zeros": [[1, Z, 0, 5e-9], [Z, 1, 0, 0], [0, 0, 1, 0], [5e-9, 0, 0, 1]],
    "gap-above-zeros-swapped": [[1, 0, Z, 5e-9], [0, 1, 0, 0], [Z, 0, 1, 0], [5e-9, 0, 0, 1]],
    "gap-below-zeros": [[1, -5e-9, Z, 0], [-5e-9, 1, 0, 0], [Z, 0, 1, 0], [0, 0, 0, 1]],
    "gap-below-zeros-swapped": [[1, -5e-9, 0, Z], [-5e-9, 1, 0, 0], [0, 0, 1, 0], [Z, 0, 0, 1]],
}


@pytest.mark.parametrize("tol", TOLS)
@pytest.mark.parametrize("name", sorted(SIGNED_ZERO_GRAMS))
def test_signed_zero_inner_products(name, tol):
    assert_matches_reference(from_gram(SIGNED_ZERO_GRAMS[name]), tol)


def test_a_run_of_negative_zeros_has_value_positive_zero():
    p = from_gram(SIGNED_ZERO_GRAMS["all-negative-zero"])()
    assert [math.copysign(1.0, u) for u in spectrum_float(p, 1e-9)] == [1.0]
    assert all(math.copysign(1.0, u) == 1.0 for row in p.shells(1e-9) for u, _ in row)


def test_gap_of_exactly_ten_tol_is_not_ambiguous():
    # the inner products are -1 and 0, and 10 * 0.1 == 1.0 exactly
    make = from_points([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]])
    assert spectrum_float(make(), 0.1) == (-1.0, 0.0)
    assert_matches_reference(make, 0.1)


@pytest.mark.parametrize(
    "name, message",
    [
        ("gap-above-zeros", "inner products 0.0 and 5e-09 are 5.000e-09 apart"),
        ("gap-above-zeros-swapped", "inner products -0.0 and 5e-09 are 5.000e-09 apart"),
        ("gap-below-zeros", "inner products -5e-09 and -0.0 are 5.000e-09 apart"),
        ("gap-below-zeros-swapped", "inner products -5e-09 and 0.0 are 5.000e-09 apart"),
    ],
)
def test_ambiguous_gap_next_to_zeros(name, message):
    """Row 0 fails first; of its equal zeros, the stable sort puts the first
    in row order at the low end of the run and the last at the high end."""
    with pytest.raises(AmbiguousShellError) as err:
        check_balanced_float(from_gram(SIGNED_ZERO_GRAMS[name])(), 1e-9)
    assert str(err.value).startswith(message)


def test_ambiguous_spread():
    chain = [[1, 0, 3e-9, 6e-9], [0, 1, 0, 0], [3e-9, 0, 1, 0], [6e-9, 0, 0, 1]]
    with pytest.raises(AmbiguousShellError) as err:
        check_balanced_float(from_gram(chain)(), 4e-9)
    assert str(err.value) == "shell of spread 6.000e-09 exceeds tolerance 4.000e-09"
    assert_matches_reference(from_gram(chain), 4e-9)


def turned_ring(k, seed):
    """Poles and ring(k), two ring points turned in the ring's plane by 1e-9
    to 1e-4 radians, the whole rotated; labelled by the Gram matrix of the
    unturned set, so that every shell is clean while the north pole's
    equatorial shell of k members deviates by about the turns.  Returns the
    set's maker and that shell's deviation, from the reference expressions."""
    rng = np.random.default_rng(seed)
    ang = 2 * np.pi * np.arange(k) / k
    ring = np.stack([np.cos(ang), np.sin(ang), 0 * ang], axis=1)
    poles = [[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]]
    gram = np.round(np.vstack([poles, ring]) @ np.vstack([poles, ring]).T, 12)
    for j in rng.choice(k, 2, replace=False):
        turned = ang[j] + 10 ** rng.uniform(-9, -4)
        ring[j] = [np.cos(turned), np.sin(turned), 0.0]
    make = from_gram(gram, np.vstack([poles, ring]) @ np.linalg.qr(rng.normal(size=(3, 3)))[0])
    p = make()
    (members,) = [m for u, m in ref.shells(p, 1e-9)[0] if abs(u) < 0.5]
    s = p.unit[members].sum(axis=0)
    return make, float(np.linalg.norm(s - float(s @ p.unit[0]) * p.unit[0]))


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("k", [6, 12, 60])
def test_many_member_shell_at_its_threshold(k, seed):
    """tol * k within a few ulps of the shell's deviation, on both sides:
    the verdict and every reported deviation are the reference's."""
    make, dev = turned_ring(k, seed)
    for f in (1 - 1e-15, 1 - 2e-16, 1.0, 1 + 2e-16, 1 + 1e-15, 1 + 1e-13):
        tol = dev / k * f
        expected = ref.check_balanced_float(make(), tol)
        assert exact(check_balanced_float(make(), tol)) == exact(expected)


# --- which shells are recomputed ------------------------------------------------


@pytest.fixture()
def recomputed(monkeypatch):
    """The (point, members) of every shell recomputed per shell."""
    calls = []
    original = numerics._deviation_norm

    def spy(unit, members, i):
        calls.append((i, tuple(members.tolist())))
        return original(unit, members, i)

    monkeypatch.setattr(numerics, "_deviation_norm", spy)
    return calls


def test_balanced_e8_recomputes_no_shell(recomputed):
    pts = realization("e8_kissing")
    q, _ = np.linalg.qr(np.random.default_rng(8).normal(size=(8, 8)))
    rep = check_balanced_float(CoordinateSet(points=pts @ q), 1e-9)
    assert rep.balanced
    assert recomputed == []


def test_shell_within_the_margin_is_recomputed(recomputed):
    """tol is set just above the deviation of each point's one-member shell:
    the fast test would pass it, but the margin sends it to the per-shell
    expressions, and their verdict (no violation) stands."""
    t = 1e-3
    make = from_points([[0.0, 1.0], [math.sin(t), -math.cos(t)]])
    dev = max(v.deviation_norm for v in ref.check_balanced_float(make(), 1e-12).violations)
    tol = dev * (1 + 1e-14)  # a few dozen ulps above both, far inside the margin 20 eps
    rep = check_balanced_float(make(), tol)
    assert sorted(recomputed) == [(0, (1,)), (1, (0,))]
    assert rep.balanced
    assert exact(rep) == exact(ref.check_balanced_float(make(), tol))


def test_violations_far_from_the_threshold_are_reported_exactly(recomputed):
    make = from_points(tilted_pole(5, 1e-3))
    rep = check_balanced_float(make(), 1e-9)
    assert not rep.balanced
    assert {v.point for v in rep.violations} <= {i for i, _ in recomputed}
    assert exact(rep) == exact(ref.check_balanced_float(make(), 1e-9))


# --- design moments on the Gegenbauer recurrence of exact mode -------------------


def moment_sets(dim):
    """Seeded point sets in dimension dim: random points, the cross-polytope
    (a 3-design, whose low moments cancel) and one point; on S^0 the two
    antipodes, an unnormalized pair and one point."""
    if dim == 1:
        return [np.array([[1.0], [-1.0]]), np.array([[2.0], [-0.5]]), np.array([[0.3]])]
    rng = np.random.default_rng(dim)
    cross = np.vstack([np.eye(dim), -np.eye(dim)])
    return [rng.normal(size=(n, dim)) for n in (2, 7, 30)] + [cross, rng.normal(size=(1, dim))]


@pytest.mark.parametrize("dim", range(1, 10))
def test_design_moments_match_the_float_recurrence_bit_for_bit(dim):
    for points in moment_sets(dim):
        p = CoordinateSet(points=points)
        gram = np.clip(p.gram, -1.0, 1.0)
        for cap in range(1, 13):
            want = ref.float_gegenbauer_moments(gram, dim, cap)
            strength, moments = numerics.design_strength_float(p, cap)
            assert list(moments) == list(range(1, cap + 1))
            assert [m.hex() for m in moments.values()] == [m.hex() for m in want]
            threshold = 1e-9 * p.size * p.size
            assert strength == next((k for k, m in enumerate(want) if abs(m) > threshold), cap)
