import math
from fractions import Fraction

import numpy as np
import pytest

from conftest import box_short_vectors, gram_entries
from balanced.exact import StructuralError, inner_product_spectrum
from balanced.lattice import (
    LatticeGram,
    QuadraticForm,
    ShortVectorSet,
    bundled_dimension,
    bundled_lattice,
    enumerate_quadratic,
    kissing_configuration,
    minimal_norm,
    short_vectors,
)


class TestLatticeGram:
    def test_validation(self):
        with pytest.raises(StructuralError, match="symmetric"):
            LatticeGram(entries=((1, 2), (0, 1)))
        with pytest.raises(StructuralError, match="definite"):
            LatticeGram(entries=((1, 2), (2, 1)))
        with pytest.raises(StructuralError, match="definite"):
            LatticeGram(entries=((0, 0), (0, 0)))

    @pytest.mark.parametrize("x", [2.7, 2.0, True, "3", Fraction(3)])
    def test_entries_must_be_integers(self, x):
        # once truncated: ((2.7, 1), (1, 2)) was A2, and "3" and True were 3 and 1
        with pytest.raises(StructuralError) as exc:
            LatticeGram(entries=((x, 1), (1, 2)))
        assert str(exc.value) == f"gram[0][0] = {x!r} is not an integer"

    def test_integer_check_comes_first_in_row_major_order(self):
        # not symmetric either, and not definite: the type is reported first
        with pytest.raises(StructuralError) as exc:
            LatticeGram(entries=((0, 1), (0.5, True)))
        assert str(exc.value) == "gram[1][0] = 0.5 is not an integer"

    def test_numpy_integers_are_integers(self):
        lat = LatticeGram(entries=tuple(tuple(np.int64(x) for x in row) for row in ((2, 1), (1, 2))))
        assert lat.entries == ((2, 1), (1, 2))
        assert all(type(x) is int for row in lat.entries for x in row)

    def test_bundled_names(self):
        """`bundled_dimension` reads N off a name z<N>, before any matrix is
        built; the other names are read from their files."""
        for name, dim in (("z5", 5), ("Z1", 1), ("d4", 4), ("e8", 8), ("k12", 12), ("leech", 24)):
            assert bundled_lattice(name).dim == dim
            assert bundled_dimension(name) == (dim if name[0] in "zZ" else None)
        assert bundled_dimension("niemeier") is None
        with pytest.raises(StructuralError, match="unknown bundled lattice"):
            bundled_lattice("niemeier")
        with pytest.raises(StructuralError, match="bad lattice dimension"):
            bundled_lattice("z0")


class TestMinimalNorm:
    def test_identity(self):
        for d in (1, 2, 5):
            assert minimal_norm(bundled_lattice(f"z{d}")) == 1

    def test_d4_e8(self):
        assert minimal_norm(bundled_lattice("d4")) == 2
        assert minimal_norm(bundled_lattice("e8")) == 2

    def test_k12(self):
        assert minimal_norm(bundled_lattice("k12")) == 4


class TestShortVectors:
    def test_z2(self):
        vs = short_vectors(bundled_lattice("z2"), 1)
        assert vs.vectors == ((-1, 0), (0, -1), (0, 1), (1, 0))

    def test_d4_count_and_box_oracle(self):
        lat = bundled_lattice("d4")
        vs = short_vectors(lat, 2)
        assert len(vs) == 24
        assert list(vs.vectors) == box_short_vectors(lat.entries, 2)

    def test_z3_box_oracle(self):
        lat = bundled_lattice("z3")
        for m in (1, 2, 3):
            assert list(short_vectors(lat, m).vectors) == box_short_vectors(
                lat.entries, m
            )

    def test_skew_gram_box_oracle(self):
        lat = LatticeGram(entries=((2, 1, 0), (1, 3, 1), (0, 1, 4)))
        for m in (2, 3, 4, 5):
            assert list(short_vectors(lat, m).vectors) == box_short_vectors(
                lat.entries, m
            )

    def test_box_oracle_up_to_dim_six(self):
        # A5-style tridiagonal form at d = 5 and the cubic lattice at d = 6
        a5 = [[2 if i == j else (-1 if abs(i - j) == 1 else 0) for j in range(5)] for i in range(5)]
        lat5 = LatticeGram(entries=tuple(tuple(r) for r in a5))
        assert list(short_vectors(lat5, 2).vectors) == box_short_vectors(a5, 2)
        z6 = bundled_lattice("z6")
        assert list(short_vectors(z6, 2).vectors) == box_short_vectors(z6.entries, 2)

    def test_e8_count(self):
        assert len(short_vectors(bundled_lattice("e8"), 2)) == 240

    def test_k12_count(self):
        assert len(short_vectors(bundled_lattice("k12"), 4)) == 756

    def test_negation_closure_enforced(self):
        with pytest.raises(StructuralError, match="negation"):
            ShortVectorSet(norm=2, vectors=((1, 0),))
        with pytest.raises(StructuralError, match="duplicate"):
            ShortVectorSet(norm=2, vectors=((1, 0), (1, 0), (-1, 0)))

    def test_lexicographic_order(self):
        vs = short_vectors(bundled_lattice("d4"), 2)
        assert list(vs.vectors) == sorted(vs.vectors)


class TestEnumerateQuadratic:
    def test_affine_against_brute_force(self):
        gram = [[2, 1], [1, 3]]
        lin = [Fraction(1, 2), Fraction(-1)]
        const = Fraction(3, 4)
        bound = Fraction(6)
        s = math.lcm(*(x.denominator for x in (*lin, const, bound)))  # 4
        form = QuadraticForm([[s * x for x in row] for row in gram])
        raw = list(enumerate_quadratic(
            form, [int(s * x) for x in lin], int(s * const), int(s * bound)))
        assert all(type(q) is int for _, q in raw)
        got = {v: Fraction(q, s) for v, q in raw}
        want = {}
        for a in range(-6, 7):
            for b in range(-6, 7):
                val = (
                    2 * a * a + 2 * a * b + 3 * b * b
                    + 2 * (lin[0] * a + lin[1] * b) + const
                )
                if val <= bound:
                    want[(a, b)] = val
        assert got == want

    def test_zero_dimensional(self):
        got = list(enumerate_quadratic(QuadraticForm([]), [], 1, 2))
        assert got == [((), 1)] and type(got[0][1]) is int

    def test_rejects_indefinite(self):
        with pytest.raises(StructuralError):
            QuadraticForm([[1, 2], [2, 1]])

    def test_rejects_a_form_that_is_not_integral(self):
        with pytest.raises(StructuralError, match="^quadratic form is not integral$"):
            QuadraticForm([["1/2"]])

    @pytest.mark.parametrize("x", [Fraction(1), True, 1.0, np.int64(1)],
                             ids=["fraction", "bool", "float", "numpy"])
    @pytest.mark.parametrize("where", ["lin", "const", "bound"])
    def test_refuses_terms_that_are_not_ints(self, x, where):
        terms = {"lin": [0, 0], "const": 0, "bound": 2}
        terms[where] = [0, x] if where == "lin" else x
        form = QuadraticForm([[2, 1], [1, 2]])
        with pytest.raises(StructuralError, match="^enumeration term .* is not an int$"):
            list(enumerate_quadratic(form, **terms))


class TestKissingConfiguration:
    def test_z2_square(self, z2_kissing):
        assert z2_kissing.size == 4
        assert inner_product_spectrum(z2_kissing) == (Fraction(-1), Fraction(0))

    def test_d4(self, d4_kissing):
        assert d4_kissing.size == 24
        assert d4_kissing.ambient_dim == 4
        assert inner_product_spectrum(d4_kissing) == (
            Fraction(-1),
            Fraction(-1, 2),
            Fraction(0),
            Fraction(1, 2),
        )

    def test_e8(self, e8_kissing):
        assert e8_kissing.size == 240
        assert e8_kissing.ambient_dim == 8
        assert inner_product_spectrum(e8_kissing) == (
            Fraction(-1),
            Fraction(-1, 2),
            Fraction(0),
            Fraction(1, 2),
        )

    def test_vector_labels(self, d4_kissing):
        assert d4_kissing.point_labels is not None
        assert len(d4_kissing.point_labels) == 24

    def test_products_past_int64(self):
        # entries near 2^60 push w G w^T past int64, so the products are
        # Python ints; the Gram must be A2's 6-point kissing configuration
        wide = kissing_configuration(LatticeGram(((2**60, 2**59), (2**59, 2**60))))
        a2 = kissing_configuration(LatticeGram(((2, 1), (1, 2))))
        assert wide.size == 6
        assert gram_entries(wide.gram) == gram_entries(a2.gram)
        assert inner_product_spectrum(wide) == (Fraction(-1), Fraction(-1, 2), Fraction(1, 2))
        # past 2^63 the entries themselves no longer fit an int64
        wider = kissing_configuration(LatticeGram(((2**65, 2**64), (2**64, 2**65))))
        assert gram_entries(wider.gram) == gram_entries(a2.gram)


@pytest.mark.slow
class TestLeech:
    def test_minimal_vector_count(self):
        lat = bundled_lattice("leech")
        assert minimal_norm(lat) == 4
        assert len(short_vectors(lat, 4)) == 196560
