"""The fraction-free elimination against a plain Fraction reference.

`reference_ldl` and `reference_rank` are the straightforward algorithms: an
LDL^T in Fraction arithmetic (first nonzero diagonal pivot, transposition
swap) and a cross-multiplying integer row elimination without division,
whose entries grow exponentially but stay exact.  The library's Bareiss
elimination must reproduce their output exactly.
"""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from conftest import gram_entries
from balanced.exact import (
    GramMatrix,
    IndefinitePivotError,
    StructuralError,
    gram_rank,
    ldl_decompose,
)
from balanced.symmetry import automorphism_group, colored_graph_from_config, fixed_subspace_dim
from reference_elimination import is_positive_semidefinite


class ReferenceIndefinite(Exception):
    pass


def reference_ldl(m):
    n = len(m)
    a = [[Fraction(x) for x in row] for row in m]
    perm = list(range(n))
    lower = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    diag = [Fraction(0)] * n
    for k in range(n):
        piv = next((q for q in range(k, n) if a[q][q] != 0), None)
        if piv is None:
            if any(a[i][j] != 0 for i in range(k, n) for j in range(k, n)):
                raise ReferenceIndefinite
            break
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            for row in a:
                row[k], row[piv] = row[piv], row[k]
            perm[k], perm[piv] = perm[piv], perm[k]
            for j in range(k):
                lower[k][j], lower[piv][j] = lower[piv][j], lower[k][j]
        d = a[k][k]
        diag[k] = d
        for i in range(k + 1, n):
            lower[i][k] = a[i][k] / d
        for i in range(k + 1, n):
            for j in range(k + 1, i + 1):
                a[i][j] -= lower[i][k] * a[k][j]
                a[j][i] = a[i][j]
    return tuple(map(tuple, lower)), tuple(diag), tuple(perm)


def reference_psd(m) -> bool:
    try:
        _, diag, _ = reference_ldl(m)
    except ReferenceIndefinite:
        return False
    return all(d >= 0 for d in diag)


def reference_rank(m) -> int:
    rows = []
    for row in m:
        den = 1
        for x in map(Fraction, row):
            den = den * x.denominator // gcd(den, x.denominator)
        rows.append([int(Fraction(x) * den) for x in row])
    n = len(rows)
    rank = 0
    col = 0
    while col < n and rank < n:
        piv = next((r for r in range(rank, n) if rows[r][col] != 0), None)
        if piv is None:
            col += 1
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        prow = rows[rank]
        for r in range(rank + 1, n):
            f = rows[r][col]
            if f:
                p = prow[col]
                rows[r] = [p * a - f * b for a, b in zip(rows[r], prow)]
        rank += 1
        col += 1
    return rank


denominators = st.one_of(st.integers(1, 6), st.integers(1, 2**70))
rationals = st.builds(Fraction, st.integers(-4, 4), denominators)


@st.composite
def low_rank_psd(draw):
    """A^T A for a random rational r x n matrix A (r <= n <= 7)."""
    n = draw(st.integers(1, 7))
    r = draw(st.integers(0, n))
    entries = st.one_of(st.sampled_from([Fraction(-1), Fraction(0), Fraction(1)]), rationals)
    a = [[draw(entries) for _ in range(n)] for _ in range(r)]
    return [[sum((row[i] * row[j] for row in a), Fraction(0)) for j in range(n)]
            for i in range(n)]


@st.composite
def symmetric(draw, zero_diagonal=False):
    n = draw(st.integers(1, 7))
    entries = st.one_of(st.just(Fraction(0)), rationals)
    m = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            m[i][j] = m[j][i] = draw(entries)
    if zero_diagonal:
        for i in range(n):
            m[i][i] = Fraction(0)
    return m


matrices = st.one_of(low_rank_psd(), symmetric(), symmetric(zero_diagonal=True))


@settings(max_examples=300, deadline=None)
@given(matrices)
def test_ldl_psd_and_rank_match_reference(m):
    try:
        expected = reference_ldl(m)
    except ReferenceIndefinite:
        with pytest.raises(IndefinitePivotError):
            ldl_decompose(m)
    else:
        assert ldl_decompose(m) == expected
    assert is_positive_semidefinite(m) == reference_psd(m)
    assert gram_rank(m) == reference_rank(m)


@settings(max_examples=200, deadline=None)
@given(symmetric())
def test_gram_matrix_validation_matches_reference(m):
    for i in range(len(m)):
        m[i][i] = Fraction(1)
    if not reference_psd(m):
        with pytest.raises(StructuralError, match="semidefinite"):
            GramMatrix(m)
        return
    gram = GramMatrix(m)
    assert gram.rank == reference_rank(m)
    assert gram.elimination.ldl() == reference_ldl(m)


@pytest.mark.parametrize("name", ["c7p", "paulus_r", "paulus_s", "c56"])
def test_bundled_configurations_match_reference(name, request):
    c = request.getfixturevalue(name)
    g = gram_entries(c.gram)
    assert c.gram.elimination.ldl() == reference_ldl(g)
    assert c.ambient_dim == reference_rank(g)


@pytest.mark.parametrize("name", ["c7p", "paulus_r", "paulus_s"])
def test_fixed_subspace_dim_matches_reference_rank(name, request):
    c = request.getfixturevalue(name)
    g = gram_entries(c.gram)
    group = automorphism_group(colored_graph_from_config(c))
    for point in range(c.size):
        stab = group.point_stabilizer(point)
        orbs = stab.orbits()
        orbit_sums = [[sum(g[i][j] for i in oa for j in ob) for ob in orbs] for oa in orbs]
        assert fixed_subspace_dim(c, stab) == reference_rank(orbit_sums)
