import dataclasses
import random
import re
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import gram_entries, midpoint_vectors
from balanced.exact import (
    Configuration,
    DigitLimitError,
    GramMatrix,
    Scaled,
    StructuralError,
    _first_pair,
    gram_rank,
    inner_product_spectrum,
    ldl_decompose,
    rational,
)
from balanced.constructors import c7_prime, simplex_midpoints
from balanced.lattice import LatticeGram
from balanced.numerics import CoordinateSet
from reference_elimination import is_positive_semidefinite


@given(st.integers(0, 9).flatmap(
    lambda n: st.lists(st.booleans(), min_size=n * n, max_size=n * n).map(
        lambda bits: np.array(bits, dtype=bool).reshape(n, n))),
    st.booleans(), st.booleans())
def test_first_pair_is_the_first_upper_entry(mask, symmetric, diagonal):
    if symmetric:
        mask = mask | mask.T
    np.fill_diagonal(mask, diagonal)
    upper = np.argwhere(np.triu(mask, 1))
    assert _first_pair(mask) == (tuple(upper[0].tolist()) if len(upper) else None)


class TestRational:
    def test_parse_forms(self):
        assert rational("3/4") == Fraction(3, 4)
        assert rational("-2") == Fraction(-2)
        assert rational(" 5/10 ") == Fraction(1, 2)
        assert rational(7) == Fraction(7)

    def test_rejects_floats_and_garbage(self):
        with pytest.raises(StructuralError):
            rational(0.5)
        with pytest.raises(StructuralError):
            rational("1/0")
        with pytest.raises(StructuralError):
            rational("abc")

    def test_digit_limit_is_checked_before_parsing(self):
        """A string whose length plus decimal exponent passes the
        integer-string limit is refused at once, whatever Fraction would
        make of it: building 10^10000000 alone took 7 s."""
        limit = sys.get_int_max_str_digits()
        for text in ["1e10000000", "-1e-5000", "1e5000", "1" * (limit + 1),
                     "1e" + "9" * (limit + 1), "1e1_0000_000", f"1e{limit - 5}", f".5e-{limit - 7}",
                     f" 1e{limit - 5} ", "abc" * limit]:
            shown = repr(text) if len(text) <= 24 else repr(text[:24]) + "..."
            with pytest.raises(DigitLimitError,
                               match=f"^{re.escape(shown)} passes the integer-string limit "
                                     f"of {limit} digits$"):
                rational(text)

    def test_every_rational_parsed_prints(self):
        """At the limit itself the string is parsed, and its value prints
        under the limit: no numerator or denominator passes it."""
        limit = sys.get_int_max_str_digits()
        for text in [f"1e{limit - 6}", f"-9.9e{limit - 9}", f".5e-{limit - 8}", "7" * limit,
                     "-1/" + "3" * (limit - 3), "1" + "0" * (limit - 5) + "e2", "1_0e1"]:
            value = rational(text)
            assert max(len(str(value.numerator)), len(str(value.denominator))) <= limit
            assert rational(str(value)) == value

    @given(st.integers(-10**12, 10**12), st.integers(1, 10**12))
    def test_round_trip_idempotent(self, p, q):
        x = rational(f"{p}/{q}")
        assert x.denominator > 0
        once = str(x)
        assert str(rational(once)) == once
        assert rational(once) == x


class TestRank:
    def test_identity(self):
        assert gram_rank([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == 3

    def test_all_ones(self):
        assert gram_rank([[1, 1, 1], [1, 1, 1], [1, 1, 1]]) == 1

    def test_c7_prime_rank_against_row_reduction(self):
        # independent oracle: eliminate the explicit integer model in R^8
        vecs = midpoint_vectors(7, flip=(0, 13, 22, 27))
        rows = [[Fraction(x) for x in v] for v in vecs]
        rank = 0
        col = 0
        while col < 8 and rank < len(rows):
            piv = next((r for r in range(rank, len(rows)) if rows[r][col] != 0), None)
            if piv is None:
                col += 1
                continue
            rows[rank], rows[piv] = rows[piv], rows[rank]
            for r in range(rank + 1, len(rows)):
                if rows[r][col]:
                    f = rows[r][col] / rows[rank][col]
                    rows[r] = [a - f * b for a, b in zip(rows[r], rows[rank])]
            rank += 1
            col += 1
        assert rank == 7
        assert c7_prime().ambient_dim == 7

    def test_rejects_asymmetric(self):
        with pytest.raises(StructuralError):
            gram_rank([[1, 2], [3, 1]])


class TestLdl:
    def test_identity(self):
        L, D, perm = ldl_decompose([[1, 0], [0, 1]])
        assert D == (1, 1)
        assert L == ((1, 0), (0, 1))

    def test_two_by_two(self):
        _, D, _ = ldl_decompose([["1", "1/2"], ["1/2", "1"]])
        assert D == (Fraction(1), Fraction(3, 4))

    def test_indefinite_pivot(self):
        _, D, _ = ldl_decompose([[1, 2], [2, 1]])
        assert Fraction(-3) in D
        assert not is_positive_semidefinite([[1, 2], [2, 1]])

    def test_reconstruction_random(self):
        rng = random.Random(11)
        for _ in range(25):
            n = rng.randint(1, 5)
            m = [[Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n)] for _ in range(n)]
            for i in range(n):
                for j in range(i, n):
                    m[j][i] = m[i][j]
            try:
                L, D, perm = ldl_decompose(m)
            except StructuralError:
                continue  # the all-zero-diagonal indefinite corner
            for i in range(n):
                for j in range(n):
                    got = sum(L[i][k] * D[k] * L[j][k] for k in range(n))
                    assert got == m[perm[i]][perm[j]]

    def test_rank_matches_nonzero_pivots_on_random_psd(self):
        rng = random.Random(5)
        for _ in range(100):
            rows = rng.randint(1, 4)
            n = rng.randint(rows, 5)
            a = [[Fraction(rng.randint(-3, 3)) for _ in range(n)] for _ in range(rows)]
            g = [
                [sum(a[r][i] * a[r][j] for r in range(rows)) for j in range(n)]
                for i in range(n)
            ]
            _, D, _ = ldl_decompose(g)
            assert gram_rank(g) == sum(1 for d in D if d != 0)
            assert all(d >= 0 for d in D)


class TestConfiguration:
    def test_spectrum_c7(self):
        assert inner_product_spectrum(simplex_midpoints(7)) == (
            Fraction(-1, 3),
            Fraction(1, 3),
        )

    def test_spectrum_octahedron(self):
        assert inner_product_spectrum(simplex_midpoints(3)) == (Fraction(-1), Fraction(0))

    def test_spectrum_antipodal_pair(self):
        c = Configuration.from_gram([[1, -1], [-1, 1]])
        assert inner_product_spectrum(c) == (Fraction(-1),)
        assert c.ambient_dim == 1

    def test_rejects_duplicates(self):
        with pytest.raises(StructuralError, match="coincide"):
            Configuration.from_gram([[1, 1], [1, 1]])

    def test_rejects_non_unit_diagonal(self):
        with pytest.raises(StructuralError, match="diagonal"):
            GramMatrix([[2, 0], [0, 2]])

    def test_rejects_non_psd(self):
        with pytest.raises(StructuralError, match="semidefinite"):
            Configuration.from_gram([[1, "-5/4"], ["-5/4", 1]])

    def test_rejects_empty(self):
        with pytest.raises(StructuralError):
            Configuration.from_gram([])

    def test_equality_with_another_type_is_not_implemented(self):
        g = GramMatrix([[1, 0], [0, 1]])
        assert g.__eq__([[1, 0], [0, 1]]) is NotImplemented
        assert g != [[1, 0], [0, 1]] and g != "gram" and g == GramMatrix([["1", "0"], [0, 1]])

    @pytest.mark.parametrize("label", [7, True, ["C7"], b"C7"])
    def test_a_label_is_a_string(self, label):
        """Configuration, CoordinateSet and LatticeGram hold one label rule;
        LatticeGram names the label before its non-integer entries."""
        builds = [
            lambda: Configuration.from_gram([[1, 0], [0, 1]], label=label),
            lambda: CoordinateSet(points=[[1.0, 0.0], [0.0, 1.0]], label=label),
            lambda: LatticeGram(entries=(("2", "1"), ("1", "2")), label=label),
        ]
        for build in builds:
            with pytest.raises(StructuralError, match="^'label' must be a string$"):
                build()

    @pytest.mark.parametrize("labels", [(1, 2), ("a", None), ("a", ["b"])])
    def test_point_labels_are_strings(self, labels):
        with pytest.raises(StructuralError, match="^point labels must be strings$"):
            Configuration.from_gram([[1, 0], [0, 1]], point_labels=labels)

    def test_constructor_invariants_hold(self, c7p, paulus_r, e8_kissing):
        for c in (c7p, paulus_r, e8_kissing):
            g = gram_entries(c.gram)
            n = len(g)
            assert all(g[i][i] == 1 for i in range(n))
            assert all(g[i][j] == g[j][i] for i in range(n) for j in range(n))
            assert gram_rank(g) == c.ambient_dim


class TestEntryTypes:
    """The coder checks entry types on the distinct entries when they are all
    strings, and on every entry otherwise; either way the first bad entry in
    row-major order is named."""

    @pytest.mark.parametrize(
        "rows, where",
        [
            ([["1", "x"], ["x", "1"]], "gram[0][1]: not a rational: 'x'"),
            ([["1", "1/2"], ["1/2", 1.0]],
             "gram[1][1]: 1.0 is a float; exact input carries rationals as strings"),
            ([["1", 1], [True, "1"]], "gram[1][0]: not a rational: True"),
            ([[1, 0], [0, True]], "gram[1][1]: not a rational: True"),
            ([["1", ["0"]], [["0"], "1"]], "gram[0][1]: not a rational: ['0']"),
            ([["1", {}], ["0", "1"]], "gram[0][1]: not a rational: {}"),
        ],
    )
    def test_first_bad_entry_named(self, rows, where):
        with pytest.raises(StructuralError) as exc:
            Configuration.from_gram(rows)
        assert str(exc.value) == where

    @pytest.mark.parametrize("rows, where", [
        (["10", "01"], "gram[0] must be a list of entries, not str"),
        ([[1, 0], 5], "gram[1] must be a list of entries, not int"),
        ([(1, 0), {0: 0, 1: 1}], "gram[1] must be a list of entries, not dict"),
    ])
    def test_a_row_is_a_list_tuple_or_array(self, rows, where):
        """A string row would be read one character at a time: ["10", "01"]
        would pass as the 2 x 2 identity."""
        with pytest.raises(StructuralError) as exc:
            Configuration.from_gram(rows)
        assert str(exc.value) == where

    @pytest.mark.parametrize("rows, kind", [(5, "int"), ({0: [1]}, "dict"), (None, "NoneType")])
    def test_the_matrix_is_a_list_tuple_or_array(self, rows, kind):
        with pytest.raises(StructuralError) as exc:
            Configuration.from_gram(rows)
        assert str(exc.value) == f"gram must be a list of rows, not {kind}"

    def test_mixed_rational_types_accepted(self):
        c = Configuration.from_gram([["1", Fraction(1, 2)], [Fraction(1, 2), 1]])
        assert gram_entries(c.gram) == ((1, Fraction(1, 2)), (Fraction(1, 2), 1))


# (rows, dtype of the integer table): a table in int64, and one past it
SCALED_CASES = [
    ([[1, "-1/3", "1/2"], ["-1/3", 1, 0], ["1/2", 0, 1]], np.int64),
    ([[1, Fraction(1, 2**64 + 3), 0], [Fraction(1, 2**64 + 3), 1, Fraction(-2, 2**64 + 3)],
      [0, Fraction(-2, 2**64 + 3), 1]], object),
]


@pytest.mark.parametrize("rows, dtype", SCALED_CASES, ids=["int64", "object"])
def test_the_value_table_is_the_one_stored_form(rows, dtype):
    """A GramMatrix stores its matrix once, as the value table, and no n x n
    integer array: `scaled` is built on first read, read-only, in the table's
    dtype, with the entries den * G, and the same array on every read."""
    g = GramMatrix(rows)
    stored = [f.name for f in dataclasses.fields(g) if isinstance(getattr(g, f.name), np.ndarray)]
    assert stored == ["scaled_values", "colours"]
    assert "scaled" not in vars(g)
    expected = [[int(g.den * rational(x)) for x in row] for row in rows]
    assert g.scaled.dtype == g.scaled_values.dtype == dtype
    assert g.scaled.tolist() == expected
    assert g.scaled_values.tolist() == sorted(set(sum(expected, [])))
    assert [Fraction(v, g.den) for v in g.scaled_values.tolist()] == list(g.values)
    assert not g.scaled.flags.writeable and not g.scaled_values.flags.writeable
    assert g.scaled.flags.c_contiguous and g.scaled.flags.owndata
    assert g.scaled is g.scaled
    again = GramMatrix(Scaled(g.den, g.scaled))
    assert again == g and again.scaled.tolist() == expected and again.scaled.dtype == dtype
