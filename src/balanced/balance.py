"""Equilibrium-under-all-force-laws checks, on spheres and in Euclidean space.

A spherical configuration is balanced iff for every point x and every inner
product u, the sum of the shell {y : <x,y> = u} is a scalar multiple of x.
That sum lies in the span of the configuration, so the test can be run
entirely on the Gram matrix: with s_m = sum_{j in shell} gram[j][m] and
c = s_i, the shell passes iff s_m = c * gram[i][m] for every m.

The Euclidean analogue replaces shells by equal-distance sets and "multiple
of x" by "centroid x".
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .exact import Configuration, StructuralError, rational, scaled_integer_gram

_INT64_BUDGET = 2**62


@dataclass(frozen=True)
class ShellDecomposition:
    """Partition of the other points by exact inner product with a base point."""

    base_index: int
    shells: tuple[tuple[Fraction, tuple[int, ...]], ...]  # ascending shell value

    def sizes(self) -> dict[Fraction, int]:
        return {u: len(members) for u, members in self.shells}


@dataclass(frozen=True)
class Violation:
    point: int
    shell_value: Fraction  # inner product u, or squared distance in Euclidean mode
    deviation: tuple[Fraction, ...]


@dataclass(frozen=True)
class BalanceReport:
    balanced: bool
    violations: tuple[Violation, ...]


def shell_decomposition(c: Configuration, i: int) -> ShellDecomposition:
    n = c.size
    if not 0 <= i < n:
        raise StructuralError(f"point index {i} out of range for {n} points")
    return ShellDecomposition(base_index=i, shells=c.gram.shells(i))


def _exact_violation(c: Configuration, i: int, colour: int) -> Violation:
    den, scaled = scaled_integer_gram(c)
    # Python ints: a shell sum times den may pass int64
    sums = scaled[c.gram.colours[i] == colour].astype(object).sum(axis=0)
    deviation = (den * sums - sums[i] * scaled[i].astype(object)).tolist()
    return Violation(point=i, shell_value=c.gram.values[colour],
                     deviation=tuple(Fraction(x, den * den) for x in deviation))


def check_balanced(c: Configuration) -> BalanceReport:
    """Exact shell-sum proportionality test on the stored integer Gram."""
    den, scaled = scaled_integer_gram(c)
    n = len(scaled)
    # scaled off-diagonal values, ascending: the value table without its 1
    off_values = [u.numerator * (den // u.denominator) for u in c.gram.values[:-1]]
    if n * den * den < _INT64_BUDGET:
        bad = _scan_int64(scaled, den, off_values)
    else:
        bad = _scan_bigint(scaled, den, off_values)
    colour = {v: k for k, v in enumerate(off_values)}
    violations = tuple(_exact_violation(c, i, colour[v]) for i, v in sorted(bad))
    return BalanceReport(balanced=not violations, violations=violations)


def _scan_int64(scaled, den, off_values):
    """All (point, scaled shell value) pairs whose shell sum is not radial."""
    m = np.asarray(scaled, dtype=np.int64)
    bad = []
    for v in off_values:
        sel = (m == v).astype(np.int64)  # never selects the diagonal: v != den
        sums = sel @ m
        coeff = np.diagonal(sums)
        mismatch = (den * sums != coeff[:, None] * m).any(axis=1)
        occupied = sel.any(axis=1)
        for i in np.nonzero(mismatch & occupied)[0]:
            bad.append((int(i), v))
    return bad


def _scan_bigint(scaled, den, off_values):
    # Python ints throughout: numpy int64 scalars would wrap silently here
    scaled = np.asarray(scaled).tolist()
    den = int(den)
    n = len(scaled)
    bad = []
    for i in range(n):
        row = scaled[i]
        buckets: dict[int, list[int]] = {}
        for j in range(n):
            if j != i:
                buckets.setdefault(row[j], []).append(j)
        for v, members in buckets.items():
            sums = [0] * n
            for j in members:
                srow = scaled[j]
                sums = [a + b for a, b in zip(sums, srow)]
            coeff = sums[i]
            if any(den * s != coeff * r for s, r in zip(sums, row)):
                bad.append((i, v))
    return bad


# --- Euclidean mode -------------------------------------------------------


def _as_points(points) -> list[tuple[Fraction, ...]]:
    pts = [tuple(rational(x) for x in p) for p in points]
    if not pts:
        raise StructuralError("empty point list")
    dim = len(pts[0])
    if any(len(p) != dim for p in pts):
        raise StructuralError("points of mixed dimension")
    return pts


def check_balanced_euclidean(
    points: Sequence[Sequence],
    period: Optional[Sequence[Sequence]] = None,
    cutoff=None,
) -> BalanceReport:
    """Centroid test per distance shell, for finite or periodic point sets.

    For periodic input, `period` lists independent basis vectors and shells
    are gathered over all translates within the cutoff radius; one
    representative per translation class is checked.
    """
    pts = _as_points(points)
    r2 = None
    if cutoff is not None:
        r2 = rational(cutoff) ** 2
    if period is not None:
        if cutoff is None:
            raise StructuralError("periodic input requires a cutoff radius")
        return _check_periodic(pts, _as_points(period), r2)
    return _check_finite(pts, r2)


def _centroid_violations(i: int, x, buckets: dict) -> list[Violation]:
    """Distance shells {d2: member points} of point i whose centroid is not x."""
    out = []
    for d2 in sorted(buckets):
        members = buckets[d2]
        deviation = tuple(
            sum(y[m] for y in members) - len(members) * x[m] for m in range(len(x))
        )
        if any(deviation):
            out.append(Violation(point=i, shell_value=d2, deviation=deviation))
    return out


def _check_finite(pts, r2) -> BalanceReport:
    violations = []
    any_shell = False
    for i, x in enumerate(pts):
        buckets: dict[Fraction, list[tuple[Fraction, ...]]] = {}
        for j, y in enumerate(pts):
            if j == i:
                continue
            d2 = sum((a - b) ** 2 for a, b in zip(x, y))
            if d2 == 0:
                raise StructuralError(f"points {i} and {j} coincide")
            if r2 is not None and d2 > r2:
                continue
            buckets.setdefault(d2, []).append(y)
        if buckets:
            any_shell = True
        violations += _centroid_violations(i, x, buckets)
    if r2 is not None and not any_shell and len(pts) > 1:
        raise StructuralError("cutoff is below the minimal inter-point distance")
    return BalanceReport(balanced=not violations, violations=tuple(violations))


def _check_periodic(pts, basis, r2) -> BalanceReport:
    from .lattice import enumerate_quadratic  # shared Fincke-Pohst core

    dim = len(pts[0])
    if any(len(b) != dim for b in basis):
        raise StructuralError("period basis dimension does not match points")
    gram = [[sum(a * b for a, b in zip(u, v)) for v in basis] for u in basis]
    violations = []
    any_shell = False
    for a, x in enumerate(pts):
        buckets: dict[Fraction, list[tuple[Fraction, ...]]] = {}
        for b, p in enumerate(pts):
            delta = tuple(pb - xa for pb, xa in zip(p, x))
            lin = [sum(bv * dv for bv, dv in zip(bvec, delta)) for bvec in basis]
            const = sum(d * d for d in delta)
            for t, d2 in enumerate_quadratic(gram, lin, const, r2):
                if d2 == 0:
                    if b == a and all(v == 0 for v in t):
                        continue
                    raise StructuralError(
                        f"points {a} and {b} coincide modulo the period lattice"
                    )
                y = tuple(
                    p[m] + sum(tk * bk[m] for tk, bk in zip(t, basis))
                    for m in range(dim)
                )
                buckets.setdefault(d2, []).append(y)
        if buckets:
            any_shell = True
        violations += _centroid_violations(a, x, buckets)
    if not any_shell:
        raise StructuralError("cutoff is below the minimal inter-point distance")
    return BalanceReport(balanced=not violations, violations=tuple(violations))
