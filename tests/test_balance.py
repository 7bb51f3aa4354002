import random
from fractions import Fraction

import pytest

from conftest import (
    balance_oracle,
    cross_vectors,
    cube_vectors,
    gram_entries,
    midpoint_vectors,
    perturbed_square,
)
from balanced.balance import (
    check_balanced,
    check_balanced_euclidean,
    shell_decomposition,
)
from balanced.constructors import antipodal_union
from balanced.exact import Configuration, StructuralError
from balanced.numerics import CoordinateSet, tangential_force
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
        from balanced.lattice import enumerate_quadratic

        hits = {}
        for v, q in enumerate_quadratic([[1, 0], [0, 1]], [0, 0], 0, 9):
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

    def test_periodic_requires_cutoff(self):
        with pytest.raises(StructuralError, match="cutoff"):
            check_balanced_euclidean([[0, 0]], period=[[1, 0], [0, 1]])
