import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import (
    cross_vectors,
    cube_vectors,
    exact_monomial_design_strength,
    float_monomial_design_strength,
    stereographic_points,
)
from balanced.balance import check_balanced
from balanced.constructors import cross_polytope, simplex, simplex_midpoints
from balanced.designs import design_strength, theorem1_check
from balanced.exact import Configuration, StructuralError
from balanced.numerics import coordinates_from_gram
from reference_designs import gegenbauer_eval, sphere_monomial_average


class TestGegenbauer:
    def test_degree_zero(self):
        for n in (2, 3, 7):
            assert gegenbauer_eval(n, 0, Fraction(1, 3)) == 1

    def test_legendre_p2(self):
        for u in (Fraction(0), Fraction(1, 2), Fraction(-2, 3)):
            assert gegenbauer_eval(3, 2, u) == (3 * u * u - 1) / 2

    def test_chebyshev_t3(self):
        # at n = 2 the recurrence is 2 u G_{k-1} - G_{k-2}: cos(3 arccos u)
        assert gegenbauer_eval(2, 3, Fraction(1, 2)) == -1
        u = Fraction(1, 2)
        assert gegenbauer_eval(2, 4, u) == 8 * u**4 - 8 * u**2 + 1

    def test_unit_normalization(self):
        for n in (2, 3, 5, 9):
            for k in range(8):
                assert gegenbauer_eval(n, k, Fraction(1)) == 1

    def test_domain_error(self):
        with pytest.raises(StructuralError):
            gegenbauer_eval(1, 2, Fraction(0))

    @given(
        st.integers(2, 8),
        st.integers(0, 9),
        st.fractions(min_value=-1, max_value=1),
    )
    def test_bounded_on_interval(self, n, k, u):
        assert abs(gegenbauer_eval(n, k, u)) <= 1


class TestMonomialAverage:
    def test_odd_exponent(self):
        assert sphere_monomial_average(4, (2, 1, 0, 0)) == 0

    def test_square(self):
        for n in (1, 2, 3, 8):
            alpha = (2,) + (0,) * (n - 1)
            assert sphere_monomial_average(n, alpha) == Fraction(1, n)

    def test_fourth_power(self):
        assert sphere_monomial_average(3, (4, 0, 0)) == Fraction(1, 5)

    def test_quadrature_cross_check(self):
        # average of z^4 on S^2: the projection density is flat in z
        zs = np.linspace(-1.0, 1.0, 20001)
        vals = zs**4
        avg = np.trapezoid(vals, zs) / 2.0
        assert abs(avg - 0.2) < 1e-7
        # and a curved-density case on S^3: weight (1 - z^2)^(1/2)
        w = np.sqrt(np.clip(1 - zs**2, 0, None))
        avg4 = np.trapezoid(vals * w, zs) / np.trapezoid(w, zs)
        assert abs(avg4 - float(sphere_monomial_average(4, (4, 0, 0, 0)))) < 1e-6

    def test_mixed_even(self):
        # x^2 y^2 on S^2: 1!! * 1!! / (3 * 5)
        assert sphere_monomial_average(3, (2, 2, 0)) == Fraction(1, 15)


class TestDesignStrength:
    def test_cube(self, cube_config):
        v = design_strength(cube_config, 4)
        assert v.strength == 3
        assert v.per_k_moment[4] != 0

    def test_c7_prime(self, c7p):
        v = design_strength(c7p, 3)
        assert v.strength == 2
        assert v.per_k_moment[3] != 0

    def test_simplices(self):
        for n in (2, 3, 4):
            assert design_strength(simplex(n), 2).strength == 2
            # the monomial oracle needs span coordinates; use floats
            coords = coordinates_from_gram(simplex(n)).points
            assert float_monomial_design_strength(coords, 3) >= 2

    def test_cross_polytope_oracle(self):
        for n in (2, 3, 4):
            c = cross_polytope(n)
            got = design_strength(c, 4).strength
            assert got == 3
            assert exact_monomial_design_strength(cross_vectors(n), 4) == 3

    def test_cube_oracle(self, cube_config):
        assert exact_monomial_design_strength(cube_vectors(), 4) == 3

    def test_kissing_oracles(self, d4_kissing, e8_kissing):
        # independent Euclidean model of the D4 minimal vectors: +-e_i +- e_j
        d4_vecs = []
        for i in range(4):
            for j in range(i + 1, 4):
                for si in (1, -1):
                    for sj in (1, -1):
                        v = [0, 0, 0, 0]
                        v[i], v[j] = si, sj
                        d4_vecs.append(v)
        assert len(d4_vecs) == 24
        # D4 kissing configuration is the 24-cell: a 5-design
        assert design_strength(d4_kissing, 6).strength == 5
        assert exact_monomial_design_strength(d4_vecs, 6) == 5
        assert design_strength(e8_kissing, 8).strength == 7
        coords = coordinates_from_gram(e8_kissing).points
        assert float_monomial_design_strength(coords, 8) == 7

    def test_random_rational_configs_match_oracle(self):
        rng = random.Random(9)
        for _ in range(5):
            params = [
                (Fraction(rng.randint(-3, 3), rng.randint(1, 4)),
                 Fraction(rng.randint(-3, 3), rng.randint(1, 4)))
                for _ in range(5)
            ]
            pts = stereographic_points(3, params)
            gram = [
                [sum(a * b for a, b in zip(u, v)) for v in pts] for u in pts
            ]
            try:
                c = Configuration.from_gram(gram)
            except StructuralError:
                continue  # collision between sampled points
            if c.ambient_dim != 3:
                continue
            got = design_strength(c, 3).strength
            assert got == exact_monomial_design_strength(pts, 3)

    def test_float_oracle_on_bundled(self, c7, c7p, paulus_r):
        for c, cap in ((c7, 3), (c7p, 3), (paulus_r, 3)):
            coords = coordinates_from_gram(c).points
            assert design_strength(c, cap).strength == float_monomial_design_strength(
                coords, cap
            )

    def test_antipodal_odd_moments_vanish(self, c56):
        v = design_strength(c56, 7)
        assert all(v.per_k_moment[k] == 0 for k in (1, 3, 5, 7))
        assert v.strength == 5
        for n in (3, 5):
            vv = design_strength(cross_polytope(n), 5)
            assert all(vv.per_k_moment[k] == 0 for k in (1, 3, 5))

    def test_moments_nonnegative(self, cube_config, c7, c7p, paulus_r, c56):
        for c in (cube_config, c7, c7p, paulus_r, c56):
            v = design_strength(c, 8)
            assert all(m >= 0 for m in v.per_k_moment.values())

    def test_cap_validation(self, cube_config):
        with pytest.raises(StructuralError):
            design_strength(cube_config, 0)


class TestTheoremOne:
    def test_cube(self, cube_config):
        v = theorem1_check(cube_config, 3)
        assert set(v.per_point_k) == {2}
        assert v.strength == 3
        assert v.applies

    def test_paulus(self, paulus_r):
        v = theorem1_check(paulus_r, 2)
        assert set(v.per_point_k) == {2}
        assert v.strength == 2
        assert v.applies

    def test_applies_implies_balanced(self, cube_config, c7, c7p, paulus_r, c56, d4_kissing):
        for c in (cube_config, c7, c7p, paulus_r, c56, d4_kissing):
            v = theorem1_check(c, 7)
            if v.applies:
                assert check_balanced(c).balanced

    def test_antipode_exclusion(self):
        c = Configuration.from_gram([[1, -1], [-1, 1]])
        v = theorem1_check(c, 2)
        assert v.per_point_k == (0, 0)
        assert v.applies

    def test_octahedron(self):
        v = theorem1_check(simplex_midpoints(3), 3)
        assert set(v.per_point_k) == {1}
        assert v.strength == 3
        assert v.applies
