"""`report` and Theorem 1 decide balance and design strength without
witnesses: they stop at the first shell that is not radial and at the first
moment that does not vanish.  Their verdicts must be those of the witness
commands, `check balanced` and `check design`, which list everything; and
`energy`, which forms only the pairs it sums, must give the full-tensor
result bit for bit.  Also the two float boundaries those streams share: a gap
of exactly tol joins its shell, and a moment exactly at tol N^2 vanishes."""

import functools
import math
import random

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import reference_numerics as ref
from balanced import designs, numerics
from balanced.balance import check_balanced
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
from balanced.designs import design_strength, theorem1_check
from balanced.exact import Configuration, GramMatrix, Scaled
from balanced.lattice import bundled_lattice, kissing_configuration
from balanced.numerics import (
    AmbiguousShellError,
    CoordinateSet,
    check_balanced_float,
    design_strength_float,
    energy,
    spectrum_float,
    theorem1_check_float,
)
from balanced.report import build_report, build_report_float
from test_float_table import TOLS, BUNDLED, from_gram, outcome, point_sets, realization
from test_symmetry_engine import relabel, small_configurations

CAPS = (1, 3, 12)


def rotated(points, seed, noise=0.0):
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.normal(size=(points.shape[1],) * 2))
    return points @ q + noise * rng.normal(size=points.shape)


def random_sphere_points(n, d, seed):
    """Seeded points on the sphere: every shell is one point that is not
    antipodal, so every shell violates."""
    pts = np.random.default_rng(seed).normal(size=(n, d))
    return pts / np.linalg.norm(pts, axis=1, keepdims=True)


# --- float: report against check balanced and check design ---------------------


def float_verdicts(p, cap, tol):
    rep = build_report_float(p, cap, tol)
    return rep.balanced, rep.design_strength


def float_witnesses(p, cap, tol):
    spectrum_float(p, tol)  # the report's first step, and its first error
    return check_balanced_float(p, tol).balanced, design_strength_float(p, cap, tol).strength


def assert_float_verdicts(points, tol):
    """On fresh sets, the report's verdicts or error are the witnesses'."""
    for cap in CAPS:
        got = outcome(lambda: float_verdicts(CoordinateSet(points=points), cap, tol))
        assert got == outcome(lambda: float_witnesses(CoordinateSet(points=points), cap, tol))


@settings(max_examples=100, deadline=None)
@given(points=point_sets(), tol=st.sampled_from(TOLS))
def test_float_verdicts_on_sphere_points(points, tol):
    assert_float_verdicts(points, tol)


@pytest.mark.parametrize("noise", [0.0, 1e-11])
@pytest.mark.parametrize("name", sorted(BUNDLED))
def test_float_verdicts_on_rotated_bundled(name, noise):
    points = rotated(realization(name), len(name), noise)
    for tol in TOLS:
        assert_float_verdicts(points, tol)


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("n, d", [(16, 3), (24, 4), (32, 5), (60, 3)])
def test_float_verdicts_on_random_unbalanced_sets(n, d, seed):
    points = random_sphere_points(n, d, seed)
    assert not check_balanced_float(CoordinateSet(points=points), 1e-9).balanced
    assert_float_verdicts(points, 1e-9)


# --- exact: report against check balanced and check design ----------------------

EXACT = {
    "c5": functools.partial(simplex_midpoints, 5),
    "c7p": c7_prime,
    "c7-union": lambda: antipodal_union(simplex_midpoints(7)),
    "cube": cube,
    "cross4": functools.partial(cross_polytope, 4),
    "simplex4": functools.partial(simplex, 4),
    "paulus_r": lambda: srg_spectral_embedding(figure1_adjacency(), "r"),
    "paulus_s": lambda: srg_spectral_embedding(figure1_adjacency(), "s"),
    "d4_kissing": lambda: kissing_configuration(bundled_lattice("d4")),
}


@functools.lru_cache(maxsize=None)
def built(name):
    return EXACT[name]()


def subset(c, keep):
    return Configuration(gram=GramMatrix(Scaled(c.gram.den, c.gram.scaled[np.ix_(keep, keep)])))


def assert_exact_verdicts(c):
    for cap in CAPS:
        rep = build_report(c, cap)
        assert rep.balanced is check_balanced(c).balanced
        assert rep.design_strength == design_strength(c, cap).strength
        assert theorem1_check(c, cap).strength == rep.design_strength


@pytest.mark.parametrize("seed", range(2))
@pytest.mark.parametrize("name", sorted(EXACT))
def test_exact_verdicts_on_relabelled_and_thinned_bundled(name, seed):
    """Each configuration relabelled, and with one or two points deleted,
    which leaves it unbalanced."""
    c = built(name)
    keep = sorted(random.Random(f"{name}:{seed}").sample(range(c.size), c.size - 1 - seed))
    assert_exact_verdicts(c)
    assert_exact_verdicts(relabel(c, seed))
    thinned = subset(c, keep)
    assert not check_balanced(thinned).balanced
    assert_exact_verdicts(thinned)


@settings(max_examples=50, deadline=None)
@given(c=small_configurations())
def test_exact_verdicts_on_small_configurations(c):
    assert_exact_verdicts(c)


# --- the witnesses a verdict draws -------------------------------------------------


def drawing(items, gen):
    """The generator function gen, appending each item it yields to items."""
    def spy(*args):
        for item in gen(*args):
            items.append(item)
            yield item

    return spy


def test_float_report_draws_one_deviation_and_strength_plus_one_moments(monkeypatch):
    p = CoordinateSet(points=random_sphere_points(32, 5, 31))
    norms, series = [], []
    real = numerics._deviation_norm
    monkeypatch.setattr(numerics, "_deviation_norm", lambda *a: norms.append(a) or real(*a))
    monkeypatch.setattr(numerics, "_zonal_series", drawing(series, numerics._zonal_series))
    rep = build_report_float(p, 12, 1e-9)
    assert not rep.balanced and rep.design_strength < 12
    assert len(norms) == 1
    assert len(series) == 1 + rep.design_strength + 1  # G_0 is drawn and skipped
    del norms[:], series[:]
    check_balanced_float(p, 1e-9)
    design_strength_float(p, 12, 1e-9)
    assert len(norms) == 32 * 31  # every shell of a random set is one violating point
    assert len(series) == 1 + 12


def test_exact_report_builds_no_witness_and_draws_strength_plus_one_moments(monkeypatch):
    c = subset(cube(), list(range(7)))
    moments, witnesses = [], []
    monkeypatch.setattr(designs, "_moments", drawing(moments, designs._moments))
    monkeypatch.setattr("balanced.balance._violations", lambda *args: witnesses.append(args))
    rep = build_report(c, 12)
    assert not rep.balanced and rep.design_strength < 12
    assert witnesses == []
    assert len(moments) == rep.design_strength + 1


# --- energy from the pairs it sums --------------------------------------------------


@pytest.mark.parametrize("s", [0.5, 1.0, 2.0, 3.0, 7.3])
@pytest.mark.parametrize("name", sorted(BUNDLED))
def test_energy_matches_the_full_tensor_on_bundled(name, s):
    p = CoordinateSet(points=rotated(realization(name), len(name), 1e-11))
    assert energy(p, s).hex() == ref.full_tensor_energy(p, s).hex()


@pytest.mark.parametrize("r", [1, 2, 9, 17, 130])
def test_energy_matches_the_full_tensor_in_any_dimension(r):
    """Past 8 and 128 terms numpy's pairwise sum unrolls and splits its
    reduction: the same contiguous last-axis reduction must run on both."""
    p = CoordinateSet(points=np.random.default_rng(r).normal(size=(20, r)))
    for s in (1.0, 2.5):
        assert energy(p, s).hex() == ref.full_tensor_energy(p, s).hex()


@settings(max_examples=100, deadline=None)
@given(points=point_sets(), s=st.sampled_from([0.5, 1.0, 3.0]))
def test_energy_matches_the_full_tensor_on_sphere_points(points, s):
    assume(len(np.unique(points, axis=0)) == len(points))
    p = CoordinateSet(points=points)
    assert energy(p, s).hex() == ref.full_tensor_energy(p, s).hex()


# --- boundaries of the float streams ------------------------------------------------


def test_a_gap_of_exactly_tol_joins_its_shell():
    """0.25 - 0.0 is 0.25 exactly: at tol 0.25 each row's two values form
    one shell; one ulp of tol lower they are two shells 0.25 apart, which is
    less than 10 tol."""
    make = from_gram([[1, 0, 0.25], [0, 1, 0.25], [0.25, 0.25, 1]])
    assert [[m.tolist() for _, m in row] for row in make().shells(0.25)] == [
        [[1, 2]], [[0, 2]], [[0, 1]]]
    assert spectrum_float(make(), 0.25) == (1 / 6,)
    assert outcome(lambda: check_balanced_float(make(), 0.25)) == outcome(
        lambda: ref.check_balanced_float(make(), 0.25))
    with pytest.raises(AmbiguousShellError, match="between tol and 10"):
        make().shells(math.nextafter(0.25, 0.0))


def test_a_moment_exactly_at_tol_n_squared_vanishes():
    """The equilateral triangle on S^1 with its Gram matrix exact: moments
    3 and 6 are 9 = tol N^2 at tol 1, and the others are 0."""
    ang = 2 * np.pi * np.arange(3) / 3
    make = from_gram([[1, -0.5, -0.5], [-0.5, 1, -0.5], [-0.5, -0.5, 1]],
                     np.stack([np.cos(ang), np.sin(ang)], axis=1))
    moments = design_strength_float(make(), 6, 1.0).per_k_moment
    assert moments == {1: 0, 2: 0, 3: 9, 4: 0, 5: 0, 6: 9}
    for tol, strength in ((1.0, 6), (math.nextafter(1.0, 0.0), 2)):
        assert design_strength_float(make(), 6, tol).strength == strength
        assert theorem1_check_float(make(), 6, tol).strength == strength
        assert build_report_float(make(), 6, tol).design_strength == strength
