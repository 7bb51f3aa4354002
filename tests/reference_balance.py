"""The Gram-row shell scan, kept as a reference for `balanced.balance`.

These are the earlier implementations of the spherical balance test.  They
read the scaled Gram matrix M = den * gram itself: the shell of point i with
value v passes iff s = sum_{j : M[i, j] = v} M[j] satisfies
den * s[m] == s[i] * M[i, m] for every m.  `scan_int64` forms one dense
n x n x n int64 product per shell value and is exact while n den^2 < 2^62;
`scan_bigint` runs the same test on Python ints one row at a time.  The
library's coordinate test must report the same (point, shell value) pairs.
`witnesses` builds each violation's deviation from its own shell's rows, the
way the library did before it summed all shells of a colour in one product.
"""

from fractions import Fraction

import numpy as np

from balanced.balance import Violation

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
