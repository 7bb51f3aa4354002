"""The list-based elimination and the Fraction enumerator, kept as references.

These are the earlier implementations of `balanced.exact`'s symmetric Bareiss
elimination (lower-triangle lists of Python ints, one row update at a time)
and of `balanced.lattice.enumerate_quadratic` (a recursive Fincke-Pohst whose
bounds are Fractions read off the rational LDL^T).  The array elimination
must reproduce their (perm, pivots, columns) exactly, and the integer
enumerator their (z, value) sequence, order included.
"""

import math
from fractions import Fraction

from balanced.exact import IndefinitePivotError, _eliminate


class ReferenceIndefinite(Exception):
    pass


def scaled(m):
    """Least common denominator den > 0 and the integer matrix den * m."""
    m = [[Fraction(x) for x in row] for row in m]
    den = math.lcm(*(x.denominator for row in m for x in row))
    return den, [[x.numerator * (den // x.denominator) for x in row] for row in m]


def _swap(a, k, q):
    """Symmetric transposition of indices k < q on lower-triangle storage."""
    rk, rq = a[k], a[q]
    rk[:k], rq[:k] = rq[:k], rk[:k]
    rk[k], rq[q] = rq[q], rk[k]
    for j in range(k + 1, q):
        a[j][k], rq[j] = rq[j], a[j][k]
    for row in a[q + 1:]:
        row[k], row[q] = row[q], row[k]


def bareiss(a):
    """Symmetric Bareiss elimination in place on lower-triangle rows; returns
    (perm, pivots).  Raises ReferenceIndefinite on a nonzero block under a
    vanished diagonal."""
    n = len(a)
    perm = list(range(n))
    pivots = []
    prev = 1
    for k in range(n):
        q = next((q for q in range(k, n) if a[q][q]), None)
        if q is None:
            if any(any(a[i][k:i]) for i in range(k + 1, n)):
                raise ReferenceIndefinite
            break
        if q != k:
            _swap(a, k, q)
            perm[k], perm[q] = perm[q], perm[k]
        p = a[k][k]
        col = [row[k] for row in a[k + 1:]]
        for i in range(k + 1, n):
            row = a[i]
            f = col[i - k - 1]
            row[k + 1:] = [(p * x - f * c) // prev for x, c in zip(row[k + 1:], col)]
        pivots.append(p)
        prev = p
    return perm, pivots


def elimination(integer_rows):
    """(perm, pivots, columns) of a symmetric integer matrix, as the library
    stores them: columns[i][k] = a[i][k] for k <= i, k < rank."""
    a = [list(row[: i + 1]) for i, row in enumerate(integer_rows)]
    perm, pivots = bareiss(a)
    r = len(pivots)
    return tuple(perm), tuple(pivots), tuple(tuple(row[:r]) for row in a)


def ldl(m):
    """(L, D, perm) of the rational LDL^T, read off the Bareiss minors."""
    den, rows = scaled(m)
    perm, pivots, columns = elimination(rows)
    n = len(perm)
    lower = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    diag = [Fraction(0)] * n
    prev = 1
    for k, p in enumerate(pivots):
        diag[k] = Fraction(p, prev * den)
        for i in range(k + 1, n):
            if columns[i][k]:
                lower[i][k] = Fraction(columns[i][k], p)
        prev = p
    return lower, diag, perm


def is_positive_semidefinite(m):
    """The library's PSD answer for any symmetric rational matrix: every
    pivot of its elimination positive, and no indefinite block."""
    try:
        return _eliminate(m).psd
    except IndefinitePivotError:
        return False


def _int_interval(center, q):
    """Integer z with (z + center)^2 <= q, as an inclusive (lo, hi) range."""
    if q < 0:
        return 1, 0
    root_hi = Fraction(math.isqrt(q.numerator * q.denominator) + 1, q.denominator)
    hi = math.floor(-center + root_hi)
    while (hi + center) > 0 and (hi + center) ** 2 > q:
        hi -= 1
    lo = math.ceil(-center - root_hi)
    while (lo + center) < 0 and (lo + center) ** 2 > q:
        lo += 1
    return lo, hi


def enumerate_quadratic(gram, lin, const, bound):
    """All integer z with z^T G z + 2 lin.z + const <= bound, with values, by
    a recursive Fincke-Pohst in Fractions; G must be positive definite."""
    d = len(gram)
    lin = [Fraction(x) for x in lin]
    const = Fraction(const)
    bound = Fraction(bound)
    lower, diag, perm = ldl(gram)
    assert all(p > 0 for p in diag) and list(perm) == list(range(d))
    k = [Fraction(0)] * d
    for i in range(d):
        k[i] = lin[i] - sum(lower[i][j] * k[j] for j in range(i))
    offset = const - sum(k[i] * k[i] / diag[i] for i in range(d))
    total = bound - offset
    if d == 0:
        if const <= bound:
            yield (), const
        return
    z = [0] * d

    def descend(level, budget):
        center = k[level] / diag[level] + sum(
            lower[j][level] * z[j] for j in range(level + 1, d)
        )
        lo, hi = _int_interval(center, budget / diag[level])
        for zi in range(lo, hi + 1):
            z[level] = zi
            used = diag[level] * (zi + center) ** 2
            if level == 0:
                yield tuple(z), bound - (budget - used)
            else:
                yield from descend(level - 1, budget - used)

    if total >= 0:
        yield from descend(d - 1, total)
