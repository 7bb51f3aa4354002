import math
import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import (
    balance_oracle,
    cross_vectors,
    cube_vectors,
    gram_entries,
    midpoint_vectors,
    perturbed_square,
)
from balanced.balance import check_balanced, check_balanced_euclidean
from balanced.constructors import antipodal_union
from balanced.exact import Configuration, StructuralError
from balanced.numerics import CoordinateSet, tangential_force
from reference_balance import shell_decomposition
import numpy as np


class TestShellDecomposition:
    def test_cube_vertex(self, cube_config):
        sizes = shell_decomposition(cube_config, 0).sizes()
        assert sizes == {Fraction(1, 3): 3, Fraction(-1, 3): 3, Fraction(-1): 1}

    def test_antipodal_pair(self):
        c = Configuration.from_gram([[1, -1], [-1, 1]])
        sd = shell_decomposition(c, 0)
        assert sd.shells == ((Fraction(-1), (1,)),)

    def test_c7_shell_sizes(self, c7):
        # 12 label pairs share a vertex (u = +1/3), 15 are disjoint (u = -1/3);
        # cross-checked by brute-force pair enumeration over the labels
        sizes = shell_decomposition(c7, 0).sizes()
        assert sizes == {Fraction(1, 3): 12, Fraction(-1, 3): 15}
        from itertools import combinations

        pairs = list(combinations(range(1, 9), 2))
        share = sum(
            1 for q in pairs[1:] if set(pairs[0]) & set(q)
        )
        assert share == 12 and len(pairs) - 1 - share == 15

    def test_index_out_of_range(self, cube_config):
        with pytest.raises(StructuralError):
            shell_decomposition(cube_config, 8)


class TestCheckBalanced:
    def test_cube(self, cube_config):
        assert check_balanced(cube_config).balanced

    def test_c7_prime(self, c7p):
        assert check_balanced(c7p).balanced

    def test_perturbed_square(self):
        rep = check_balanced(perturbed_square())
        assert not rep.balanced
        assert rep.violations
        v = rep.violations[0]
        assert any(x != 0 for x in v.deviation)
        # float cross-check: some force law leaves a tangential component
        pts = np.array([[1, 0], [-11 / 61, 60 / 61], [-1, 0], [0, -1]])
        force = tangential_force(CoordinateSet(points=pts), 2.0)
        assert force.max_tangential_norm > 1e-3

    def test_antipodal_shell_always_passes(self):
        # violations exist, but never on the u = -1 shell
        pts = [(Fraction(1), Fraction(0)), (Fraction(-11, 61), Fraction(60, 61)), (Fraction(0), Fraction(-1))]
        gram = [[a1 * b1 + a2 * b2 for (b1, b2) in pts] for (a1, a2) in pts]
        doubled = antipodal_union(Configuration.from_gram(gram))
        rep = check_balanced(doubled)
        assert not rep.balanced
        assert all(v.shell_value != Fraction(-1) for v in rep.violations)

    def test_relabeling_invariance(self, c7p):
        rng = random.Random(3)
        perm = list(range(c7p.size))
        rng.shuffle(perm)
        g = gram_entries(c7p.gram)
        shuffled = Configuration.from_gram(
            [[g[perm[i]][perm[j]] for j in range(len(perm))] for i in range(len(perm))]
        )
        assert check_balanced(shuffled).balanced == check_balanced(c7p).balanced

    def test_relabeling_invariance_unbalanced(self):
        base = perturbed_square()
        g = gram_entries(base.gram)
        perm = [2, 0, 3, 1]
        shuffled = Configuration.from_gram(
            [[g[perm[i]][perm[j]] for j in range(4)] for i in range(4)]
        )
        got = {(perm.index(v.point), v.shell_value) for v in check_balanced(base).violations}
        want = {(v.point, v.shell_value) for v in check_balanced(shuffled).violations}
        assert got == want

    def test_coordinate_oracle_agreement(self, paulus_r):
        cases = [
            (cube_vectors(), True),
            (cross_vectors(4), True),
            (midpoint_vectors(7), True),
            (midpoint_vectors(7, flip=(0, 13, 22, 27)), True),
        ]
        for vecs, expect in cases:
            ok, _ = balance_oracle(vecs)
            assert ok == expect
        # the perturbed square through the oracle, scaled to integer vectors
        pts = [(61, 0), (-11, 60), (-61, 0), (0, -61)]
        ok, bad = balance_oracle(pts)
        assert not ok and bad
        # Paulus embedding: rational model = rows of the projection itself
        g = gram_entries(paulus_r.gram)
        ok, _ = balance_oracle(g)
        assert ok == check_balanced(paulus_r).balanced

    def test_bigint_path_matches_numpy_path(self, c7p):
        import reference_balance as ref

        for config in (c7p, perturbed_square()):
            den, scaled = config.gram.den, config.gram.scaled
            vals = ref.off_values(config)
            assert sorted(ref.scan_int64(scaled, den, vals)) == sorted(
                ref.scan_bigint(scaled, den, vals)
            )
            got = [(v.point, v.shell_value) for v in check_balanced(config).violations]
            assert got == ref.violations(config)


class TestEuclidean:
    def test_single_point(self):
        assert check_balanced_euclidean([[0, 0, 0]]).balanced

    def test_two_points(self):
        rep = check_balanced_euclidean([[0, 0], [1, 0]])
        assert not rep.balanced
        assert len(rep.violations) == 2

    def test_three_collinear(self):
        rep = check_balanced_euclidean([["-1"], ["0"], ["1"]])
        assert not rep.balanced
        assert {v.point for v in rep.violations} == {0, 2}

    def test_z2_patch(self):
        rep = check_balanced_euclidean(
            [[0, 0]], period=[[1, 0], [0, 1]], cutoff=3
        )
        assert rep.balanced

    def test_z2_shell_counts(self):
        # shells at squared distances 1,2,4,5,8,9 inside radius 3
        from balanced.lattice import QuadraticForm, enumerate_quadratic

        hits = {}
        for v, q in enumerate_quadratic(QuadraticForm([[1, 0], [0, 1]]), [0, 0], 0, 9):
            if any(v):
                hits[q] = hits.get(q, 0) + 1
        assert hits[Fraction(1)] == 4 and hits[Fraction(2)] == 4
        assert hits[Fraction(5)] == 8 and hits[Fraction(9)] == 4

    def test_offset_sublattice_unbalanced(self):
        # one point off-center in a rectangular lattice cell fails
        rep = check_balanced_euclidean(
            [[0, 0], ["1/3", 0]], period=[[2, 0], [0, 2]], cutoff=1
        )
        assert not rep.balanced

    def test_cutoff_too_small(self):
        with pytest.raises(StructuralError, match="cutoff"):
            check_balanced_euclidean([[0, 0]], period=[[1, 0], [0, 1]], cutoff="1/2")

    def test_periodic_duplicates_rejected(self):
        with pytest.raises(StructuralError, match="coincide"):
            check_balanced_euclidean(
                [[0, 0], [1, 0]], period=[[1, 0], [0, 1]], cutoff=2
            )

    @pytest.mark.parametrize("points, period, where", [
        (["00", "10", "01", "11"], None, "points[0] must be a list of entries, not str"),
        ([[0, 0], 1], None, "points[1] must be a list of entries, not int"),
        ([[0, 0]], [[1, 0], "01"], "period[1] must be a list of entries, not str"),
    ])
    def test_a_row_is_a_list_tuple_or_array(self, points, period, where):
        """A string row would be read one character at a time and get a verdict."""
        with pytest.raises(StructuralError) as exc:
            check_balanced_euclidean(points, period=period, cutoff=1)
        assert str(exc.value) == where

    @pytest.mark.parametrize("points, period, where", [
        (5, None, "points must be a list of rows, not int"),
        ({0: [0, 0]}, None, "points must be a list of rows, not dict"),
        (None, None, "points must be a list of rows, not NoneType"),
        ([[0, 0]], 7, "period must be a list of rows, not int"),
    ])
    def test_the_matrix_is_a_list_tuple_or_array(self, points, period, where):
        with pytest.raises(StructuralError) as exc:
            check_balanced_euclidean(points, period=period, cutoff=1)
        assert str(exc.value) == where

    def test_periodic_requires_cutoff(self):
        with pytest.raises(StructuralError, match="cutoff"):
            check_balanced_euclidean([[0, 0]], period=[[1, 0], [0, 1]])


# --- the integer Euclidean check against the Fraction reference ---------------

coordinates = st.builds(Fraction, st.integers(-12, 12), st.sampled_from([1, 2, 3, 4, 5, 6]))


def rational_sqrt(q):
    """The rational square root of q >= 0, or None."""
    a, b = math.isqrt(q.numerator), math.isqrt(q.denominator)
    return Fraction(a, b) if a * a == q.numerator and b * b == q.denominator else None


@st.composite
def period_bases(draw, dim):
    """A rational basis of full rank: lower triangular with a nonzero
    diagonal of size >= 1, its rows then mixed by transvections."""
    diagonal = st.sampled_from([Fraction(1), Fraction(-1), Fraction(3, 2), Fraction(-4, 3),
                                Fraction(2), Fraction(5, 4)])
    rows = [[draw(diagonal) if j == i else draw(coordinates) / 4 if j < i else Fraction(0)
             for j in range(dim)] for i in range(dim)]
    for _ in range(draw(st.integers(0, dim))):
        i, j = draw(st.permutations(range(dim)))[:2] if dim > 1 else (0, 0)
        sign = draw(st.sampled_from([1, -1]))
        if i != j:
            rows[i] = [a + sign * b for a, b in zip(rows[i], rows[j])]
    return rows


def squared_distances(points, basis):
    """Squared distances between the points, over translates by combinations
    of the basis with coefficients in {-1, 0, 1}."""
    dim = len(points[0])
    shifts = [[sum(t * b[m] for t, b in zip(ts, basis)) for m in range(dim)]
              for ts in product((-1, 0, 1), repeat=len(basis))] if basis else [[0] * dim]
    return sorted({sum((y + s - x) ** 2 for x, y, s in zip(p, q, sh))
                   for p in points for q in points for sh in shifts} - {0})


def translates_estimate(points, basis, cutoff):
    """A rough count of the translates the periodic check enumerates: pairs
    times the cells that meet a ball of radius cutoff + half the basis."""
    dim = len(basis)
    det = abs(float(np.linalg.det(np.array(basis, dtype=float))))
    reach = float(cutoff) + sum(math.sqrt(sum(x * x for x in b)) for b in basis) / 2
    return len(points) ** 2 * (2, math.pi, 4 * math.pi / 3)[dim - 1] * reach ** dim / det


@st.composite
def euclidean_inputs(draw):
    """(points, period, cutoff) in 1-3 dimensions, finite or periodic, with
    mixed denominators, sometimes a coincident point, and a cutoff at, just
    above or just below a distance of the set, or anywhere in [0, 3]."""
    dim = draw(st.integers(1, 3))
    basis = draw(period_bases(dim)) if draw(st.booleans()) else None
    n = draw(st.integers(1, 3 if basis else 5))
    points = [[draw(coordinates) / 2 for _ in range(dim)] for _ in range(n)]
    if draw(st.integers(0, 5)) == 0:  # a coincident point, or one a period away
        p = draw(st.sampled_from(points))
        shift = draw(st.sampled_from(basis)) if basis else [0] * dim
        points.append([x + s for x, s in zip(p, shift)])
    exact = [r for r in map(rational_sqrt, squared_distances(points, basis)) if r is not None]
    choices = [st.builds(Fraction, st.integers(0, 30), st.just(10))]
    if exact:
        at = st.sampled_from(exact[:3])
        choices += [at, at.map(lambda r: r + Fraction(1, 7)),
                    at.map(lambda r: max(r - Fraction(1, 7), Fraction(0)))]
    if basis is None:
        choices.append(st.none())
    cutoff = draw(st.one_of(choices))
    if basis is not None:
        assume(translates_estimate(points, basis, cutoff) < 2000)
    if draw(st.booleans()):  # the parser takes strings too
        points = [[str(x) for x in p] for p in points]
    return points, basis, cutoff


def outcome(check, points, period, cutoff):
    try:
        return check(points, period=period, cutoff=cutoff)
    except StructuralError as exc:
        return type(exc), str(exc)


@settings(max_examples=300, deadline=None)
@given(euclidean_inputs())
def test_euclidean_check_matches_fraction_reference(case):
    """Same report (violation order, shell values, deviations) or the same
    error as the Fraction implementation."""
    import reference_balance as ref

    got = outcome(check_balanced_euclidean, *case)
    assert got == outcome(ref.check_balanced_euclidean, *case)
    if not isinstance(got, tuple):
        assert all(type(v.shell_value) is Fraction for v in got.violations)
        assert all(type(x) is Fraction for v in got.violations for x in v.deviation)


@pytest.mark.parametrize("points, period, cutoff", [
    ([[0, 0], ["1/3", 0]], [[2, 0], [0, 2]], 1),
    ([[0, 0, 0], ["1/2", "1/2", "1/2"]], [[1, 0, 0], [0, 1, 0], [0, 0, 1]], "3/2"),
    ([[0, 0], ["1/3", "1/3"]], [["1/2", 0], ["1/4", "2/3"]], "5/4"),
    ([["-1"], ["0"], ["1"]], None, None),
    ([["-1/2"], ["0"], ["1/3"], ["5/6"]], None, "1/2"),
    ([[0, 0], [1, 0], ["1/2", "1/2"]], None, 1),
])
def test_euclidean_examples_match_fraction_reference(points, period, cutoff):
    import reference_balance as ref

    got = outcome(check_balanced_euclidean, points, period, cutoff)
    assert got == outcome(ref.check_balanced_euclidean, points, period, cutoff)
