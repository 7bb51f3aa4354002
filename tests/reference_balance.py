"""The Gram-row shell scan and the Fraction Euclidean check, kept as
references for `balanced.balance`.

These are the earlier implementations of the spherical balance test.  They
read the scaled Gram matrix M = den * gram itself: the shell of point i with
value v passes iff s = sum_{j : M[i, j] = v} M[j] satisfies
den * s[m] == s[i] * M[i, m] for every m.  `scan_int64` forms one dense
n x n x n int64 product per shell value and is exact while n den^2 < 2^62;
`scan_bigint` runs the same test on Python ints one row at a time.  The
library's coordinate test must report the same (point, shell value) pairs.
`witnesses` builds each violation's deviation from its own shell's rows, the
way the library did before it summed all shells of a colour in one product.
`check_balanced_euclidean` is the Euclidean check in Fractions (see below).
`shell_decomposition` groups the other points by inner product with one
point, read off the Gram value table.
"""

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

import reference_elimination
from balanced.balance import BalanceReport, Violation, _rational_rows
from balanced.exact import StructuralError, rational

INT64_BUDGET = 2**62


def off_values(c):
    """The scaled off-diagonal values of a configuration, ascending."""
    den = c.gram.den
    return [u.numerator * (den // u.denominator) for u in c.gram.values[:-1]]


def scan_int64(scaled, den, off_values):
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


def scan_bigint(scaled, den, off_values):
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


def violations(c):
    """Sorted (point, shell value) pairs of every non-radial shell sum."""
    den, scaled = c.gram.den, c.gram.scaled
    vals = off_values(c)
    if len(scaled) * den * den < INT64_BUDGET:
        bad = scan_int64(scaled, den, vals)
    else:
        bad = scan_bigint(scaled, den, vals)
    return sorted((i, c.gram.values[vals.index(v)]) for i, v in bad)


def witnesses(c):
    """Every violation with its deviation (den s - s[i] M[i]) / den^2, s the
    Python-int sum of the shell's rows of M."""
    den, scaled = int(c.gram.den), np.asarray(c.gram.scaled)
    out = []
    for i, u in violations(c):
        v = u.numerator * (den // u.denominator)
        s = scaled[scaled[i] == v].astype(object).sum(axis=0)
        deviation = (den * s - s[i] * scaled[i].astype(object)).tolist()
        out.append(Violation(point=i, shell_value=u,
                             deviation=tuple(Fraction(x, den * den) for x in deviation)))
    return tuple(out)


# --- Euclidean mode -------------------------------------------------------
#
# The Fraction implementation of `balanced.balance.check_balanced_euclidean`:
# every translate, squared distance and shell sum is a Fraction, and each
# pair of motif points gets its own enumeration of the period Gram, here
# from the recursive Fraction enumerator of `reference_elimination`.  The
# library must return the same BalanceReport, or raise the same exception
# with the same message.


def _as_points(rows):
    return _rational_rows(rows, "points", None, "empty point list", "points of mixed dimension")


def check_balanced_euclidean(points, period=None, cutoff=None):
    pts = _as_points(points)
    if cutoff is not None and rational(cutoff) < 0:
        raise StructuralError(f"cutoff radius {cutoff} is negative")
    r2 = None if cutoff is None else rational(cutoff) ** 2
    if period is None:
        shells = _finite_shells(pts, r2)
    elif r2 is None:
        raise StructuralError("periodic input requires a cutoff radius")
    else:
        shells = _periodic_shells(pts, _as_points(period), r2)
    violations = []
    any_shell = False
    for i, buckets in enumerate(shells):
        any_shell = any_shell or bool(buckets)
        violations += _centroid_violations(i, pts[i], buckets)
    if r2 is not None and not any_shell and (period is not None or len(pts) > 1):
        raise StructuralError("cutoff is below the minimal inter-point distance")
    return BalanceReport(balanced=not violations, violations=tuple(violations))


def _centroid_violations(i, x, buckets):
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


def _finite_shells(pts, r2):
    """Per point, its distance shells {d2: member points} within the cutoff."""
    for i, x in enumerate(pts):
        buckets = {}
        for j, y in enumerate(pts):
            if j == i:
                continue
            d2 = sum((a - b) ** 2 for a, b in zip(x, y))
            if d2 == 0:
                raise StructuralError(f"points {i} and {j} coincide")
            if r2 is None or d2 <= r2:
                buckets.setdefault(d2, []).append(y)
        yield buckets


def _periodic_shells(pts, basis, r2):
    """Per point, its distance shells over all translates within the cutoff."""
    dim = len(pts[0])
    if any(len(b) != dim for b in basis):
        raise StructuralError("period basis dimension does not match points")
    gram = [[sum(a * b for a, b in zip(u, v)) for v in basis] for u in basis]
    for a, x in enumerate(pts):
        buckets = {}
        for b, p in enumerate(pts):
            delta = tuple(pb - xa for pb, xa in zip(p, x))
            lin = [sum(bv * dv for bv, dv in zip(bvec, delta)) for bvec in basis]
            const = sum(d * d for d in delta)
            for t, d2 in reference_elimination.enumerate_quadratic(gram, lin, const, r2):
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
        yield buckets


@dataclass(frozen=True)
class ShellDecomposition:
    """Partition of the other points by exact inner product with a base point."""

    base_index: int
    shells: tuple[tuple[Fraction, tuple[int, ...]], ...]  # ascending shell value

    def sizes(self) -> dict[Fraction, int]:
        return {u: len(members) for u, members in self.shells}


def shell_decomposition(c, i: int) -> ShellDecomposition:
    """The points other than i grouped by inner product with i, ascending:
    (value, members) pairs."""
    n = c.size
    if not 0 <= i < n:
        raise StructuralError(f"point index {i} out of range for {n} points")
    colours, values = c.gram.colours[i], c.gram.values
    order = np.argsort(colours, kind="stable")
    order = order[order != i]
    keys = colours[order]
    starts = np.flatnonzero(np.diff(keys, prepend=-1)).tolist()  # one per shell
    shells = tuple(
        (values[keys[a]], tuple(order[a:b].tolist()))
        for a, b in zip(starts, starts[1:] + [len(order)])
    )
    return ShellDecomposition(base_index=i, shells=shells)
