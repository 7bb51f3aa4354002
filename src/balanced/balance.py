"""Equilibrium-under-all-force-laws checks, on spheres and in Euclidean space.

A spherical configuration is balanced iff for every point x and every inner
product u, the sum of the shell {y : <x,y> = u} is a scalar multiple of x.
The test reads the integer coordinates that Gram validation built: the
Bareiss elimination gives the n x r integer matrix X of full column rank r
with den * gram = X W X^T, W a positive diagonal.  So the shell of point i
passes iff S_i = sum_{j in shell} X_j is parallel to X_i, that is iff
S_i[m] X_i[f] == S_i[f] X_i[m] for every m, f being the first nonzero
component of X_i.  A violation is reported in Gram form, as the deviation
sum_j gram[j] - <sum_j x_j, x_i> gram[i] over the shell.

The Euclidean analogue replaces shells by equal-distance sets and "multiple
of x" by "centroid x".  A finite point set is the periodic set over the zero
lattice, so one shell scan serves finite and periodic input alike.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from operator import add, mul
from typing import Optional, Sequence

import numpy as np

from . import lattice
from .exact import Configuration, StructuralError, int_dtype, int_product, rational, row_tuples


@dataclass(frozen=True)
class Violation:
    point: int
    shell_value: Fraction  # inner product u, or squared distance in Euclidean mode
    deviation: tuple[Fraction, ...]


@dataclass(frozen=True)
class BalanceReport:
    balanced: bool
    violations: tuple[Violation, ...]


def _violations(c: Configuration, bad: list[list[int]]) -> tuple[Violation, ...]:
    """The Gram-form witnesses of the (point, colour) pairs in `bad`, in order.

    With M = den * gram, point i's deviation over its shell S is
    (den sum_{j in S} M[j] - (sum_{j in S} M[j, i]) M[i]) / den^2.  One
    indicator-matrix product per colour sums the shells of all its violating
    points.
    """
    if not bad:
        return ()
    den, m, colours = c.gram.den, c.gram.scaled, c.gram.colours
    top = int(np.abs(m).max())
    deviations = int_dtype(len(m) * top * (den + top))  # bounds every deviation
    by_colour: dict[int, list[int]] = {}
    for i, k in bad:
        by_colour.setdefault(k, []).append(i)
    rows = {}
    for k, pts in by_colour.items():
        s = int_product(colours[pts] == k, m).astype(deviations, copy=False)
        d = den * s - s[np.arange(len(pts)), pts][:, None] * m[pts].astype(deviations, copy=False)
        rows.update(zip(((i, k) for i in pts), d.tolist()))
    den2 = den * den
    fractions = {v: Fraction(v, den2) for v in set().union(*rows.values())}
    values = c.gram.values
    return tuple(
        Violation(point=i, shell_value=values[k],
                  deviation=tuple(map(fractions.__getitem__, rows[i, k])))
        for i, k in bad
    )


def check_balanced(c: Configuration) -> BalanceReport:
    """Exact shell-sum test on the integer coordinates X of the elimination."""
    violations = _violations(c, _bad_shells(c))
    return BalanceReport(balanced=not violations, violations=violations)


def _bad_shells(c: Configuration) -> list[list[int]]:
    """The (point, colour) pairs of c, ascending, whose shell is not radial:
    c is balanced iff there are none."""
    # the largest value, 1, is the diagonal's and colours no shell
    return _not_radial(c.gram.colours, len(c.gram.values) - 1, c.gram.elimination.x)


def _not_radial(colours, shells, x) -> list[list[int]]:
    """The (point i, colour k < shells) pairs, ascending, whose shell sum
    S_i = sum of x[j] over colours[i, j] == k is not parallel to x[i]."""
    rows = np.arange(len(x))
    lead = (x != 0).argmax(axis=1)  # no row is zero: every point has norm 1
    xc = x.astype(int_dtype(len(x) * int(np.abs(x).max()) ** 2), copy=False)  # cross products
    x_lead = xc[rows, lead][:, None]
    bad = np.zeros((len(x), shells), dtype=bool)
    for k in range(shells):
        s = int_product(colours == k, x)  # int64 promotes to Python ints with xc
        bad[:, k] = (s * x_lead != s[rows, lead][:, None] * xc).any(axis=1)
    return np.argwhere(bad).tolist()


# --- Euclidean mode -------------------------------------------------------


def _rational_rows(rows, what: str, dim, empty: str, mixed: str) -> list[tuple[Fraction, ...]]:
    """The rows, each entry parsed once, all of length dim (the first row's
    when dim is None)."""
    parsed = [tuple(map(rational, row)) for row in row_tuples(rows, what)]
    if not parsed:
        raise StructuralError(empty)
    dim = len(parsed[0]) if dim is None else dim
    if any(len(row) != dim for row in parsed):
        raise StructuralError(mixed)
    return parsed


def check_balanced_euclidean(
    points: Sequence[Sequence],
    period: Optional[Sequence[Sequence]] = None,
    cutoff=None,
) -> BalanceReport:
    """Centroid test per distance shell, for finite or periodic point sets.

    For periodic input, `period` lists independent basis vectors and shells
    are gathered over all translates within the cutoff radius; one
    representative per translation class is checked.  A finite set is the
    periodic set over the zero lattice, with an empty basis: it takes the
    same shell scan, and without a cutoff its bound is the squared diagonal
    of the points' bounding box, which no pair exceeds.

    Points and period are scaled once by S, the lcm of their coordinate
    denominators, so every translate, squared distance and shell sum is a
    Python int and the cutoff becomes the integer bound floor(r^2 S^2); a
    Fraction is made only for a reported violation.
    """
    pts = _rational_rows(points, "points", None, "empty point list", "points of mixed dimension")
    r = None if cutoff is None else rational(cutoff)
    if r is not None and r < 0:
        raise StructuralError(f"cutoff radius {r} is negative")
    if period is not None and r is None:
        raise StructuralError("periodic input requires a cutoff radius")
    basis = [] if period is None else _rational_rows(
        period, "period", len(pts[0]), "period basis is empty",
        "period basis dimension does not match points")
    s = math.lcm(*(x.denominator for p in chain(pts, basis) for x in p))
    scaled = _scaled(pts, s)
    if r is None:
        bound = sum((max(col) - min(col)) ** 2 for col in zip(*scaled))
    else:
        bound = (r.numerator * s) ** 2 // r.denominator ** 2
    violations = []
    any_shell = False
    for i, buckets in enumerate(_shells(scaled, _scaled(basis, s), bound)):
        any_shell = any_shell or bool(buckets)
        violations += _centroid_violations(i, buckets, s)
    if r is not None and not any_shell and (period is not None or len(pts) > 1):
        raise StructuralError("cutoff is below the minimal inter-point distance")
    return BalanceReport(balanced=not violations, violations=tuple(violations))


def _scaled(rows, s: int) -> list[list[int]]:
    return [[x.numerator * (s // x.denominator) for x in row] for row in rows]


def _centroid_violations(i: int, buckets: dict, s: int) -> list[Violation]:
    """Distance shells {S^2 d2: sum of S (y - x)} of point i whose centroid
    is not x, ascending."""
    return [
        Violation(point=i, shell_value=Fraction(d2, s * s),
                  deviation=tuple(Fraction(v, s) for v in dev))
        for d2, dev in sorted(buckets.items()) if any(dev)
    ]


def _shells(pts, basis, bound):
    """Per point, its distance shells over all translates within the integer
    bound, as sums of the difference vectors y - x.  One QuadraticForm of the
    basis Gram B B^T serves every pair of points; the pair (a, b) adds
    lin = B (P_b - P_a) and const = |P_b - P_a|^2.  A finite set has the
    empty basis of the zero lattice: its 0 x 0 form has the one translate
    (), of value const, so each pair adds P_b - P_a when const <= bound, and
    a pair beyond the bound is skipped before any enumeration starts."""
    try:
        form = lattice.QuadraticForm([[sum(map(mul, u, v)) for v in basis] for u in basis])
    except StructuralError:  # B B^T is positive definite iff B has independent rows
        raise StructuralError("period basis is not linearly independent") from None
    modulo = " modulo the period lattice" if basis else ""
    for a, x in enumerate(pts):
        buckets: dict[int, list[int]] = {}
        for b, p in enumerate(pts):
            delta = [pb - xa for pb, xa in zip(p, x)]
            const = sum(map(mul, delta, delta))
            if const > bound and not basis:
                continue
            lin = [sum(map(mul, v, delta)) for v in basis]
            for t, d2 in lattice.enumerate_quadratic(form, lin, const, bound):
                if d2 == 0:
                    if b == a and not any(t):
                        continue
                    raise StructuralError(f"points {a} and {b} coincide{modulo}")
                diff = delta
                for tk, v in zip(t, basis):
                    if tk:
                        diff = [y + tk * w for y, w in zip(diff, v)]
                acc = buckets.get(d2)  # lists are replaced, never changed in place
                buckets[d2] = diff if acc is None else list(map(add, acc, diff))
        yield buckets
