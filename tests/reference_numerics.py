"""Per-row, per-shell float pipeline: the oracle for the shell table.

Each row of the Gram matrix is clustered on its own in pure Python and each
shell is tested with its own numpy expressions, as `balanced.numerics` did
before it cut every row at once.  Only the means differ in form: they are
explicit left-to-right loops from 0.0, because from CPython 3.12 on `sum()`
of floats is compensated.  Every function reads `p.gram` and `p.unit`, so a
test may replace the Gram matrix of a CoordinateSet and both sides see it.
`float_gegenbauer_moments` is the float recurrence `design_strength_float`
ran before it shared `designs._zonal_series` with exact mode.
`gradient_check` compares `tangential_force` with finite differences of
`energy`.  Like the library, the checks and the spectrum first reject two
points at an inner product within tol of 1, naming the first such pair.
"""

import numpy as np

from balanced.designs import TheoremOneVerdict
from balanced.exact import StructuralError
from balanced.numerics import (
    AmbiguousShellError,
    CoordinateSet,
    FloatBalanceReport,
    FloatViolation,
    _split,
    design_strength_float,
    energy,
    tangential_force,
)


def _mean(cluster):
    total = 0.0
    for v in cluster:
        total += v
    return total / len(cluster)


def cluster(values, tol):
    """Group sorted floats into shells separated by > tol, with a 10*tol
    ambiguity guard between shells."""
    if not values:  # a single point has no other points
        return []
    values = sorted(values)
    clusters = [[values[0]]]
    for v in values[1:]:
        if v - clusters[-1][-1] <= tol:
            clusters[-1].append(v)
        else:
            clusters.append([v])
    for cl in clusters:
        if cl[-1] - cl[0] > tol:
            raise AmbiguousShellError(
                f"shell of spread {cl[-1] - cl[0]:.3e} exceeds tolerance {tol:.3e}"
            )
    for prev, nxt in zip(clusters, clusters[1:]):
        gap = nxt[0] - prev[-1]
        if gap < 10 * tol:
            raise AmbiguousShellError(
                f"inner products {prev[-1]!r} and {nxt[0]!r} are {gap:.3e} apart: "
                f"between tol and 10*tol; choose a different tolerance"
            )
    return [_mean(cl) for cl in clusters]


def split_one_row(values, tol):
    """Shell representatives of one list of floats: the library's `_split` on
    one row."""
    row = np.array(values, dtype=float).reshape(1, -1)
    return _split(np.sort(row), row, tol)[0].tolist()


def row_shells(row, i, tol):
    others = np.delete(np.arange(len(row)), i)
    vals = row[others]
    return tuple((u, others[np.abs(vals - u) <= tol]) for u in cluster(vals.tolist(), tol))


def shells(p, tol):
    return tuple(row_shells(row, i, tol) for i, row in enumerate(p.gram))


def require_distinct(p, tol):
    for i in range(p.size):
        for j in range(i + 1, p.size):
            if p.gram[i, j] >= 1.0 - tol:
                raise StructuralError(
                    "points %d and %d coincide (inner product >= 1 - %g)" % (i, j, tol))


def check_balanced_float(p, tol):
    require_distinct(p, tol)
    unit = p.unit
    violations = []
    for i, row in enumerate(shells(p, tol)):
        for u, members in row:
            shell_sum = unit[members].sum(axis=0)
            coeff = float(shell_sum @ unit[i])
            dev = shell_sum - coeff * unit[i]
            dev_norm = float(np.linalg.norm(dev))
            if dev_norm > tol * max(1.0, float(len(members))):
                violations.append(
                    FloatViolation(point=i, shell_value=float(u), deviation_norm=dev_norm)
                )
    return FloatBalanceReport(balanced=not violations, violations=tuple(violations), tol=tol)


def spectrum_float(p, tol):
    require_distinct(p, tol)
    off = ~np.eye(p.size, dtype=bool)
    return tuple(cluster(p.gram[off].tolist(), tol))


def theorem1_check_float(p, cap, tol):
    require_distinct(p, tol)
    per_point = [
        sum(abs(u - 1.0) > tol and abs(u + 1.0) > tol for u, _ in row)
        for row in shells(p, tol)
    ]
    strength = design_strength_float(p, cap, tol).strength
    return TheoremOneVerdict(tuple(per_point), strength, max(per_point) <= strength)


def float_gegenbauer_moments(gram, n_dim, cap):
    moments = []
    prev = np.ones_like(gram)
    cur = gram.copy()
    for k in range(1, cap + 1 if n_dim > 1 else 2):  # on S^0 only G_1 = u is nontrivial
        if k > 1:
            prev, cur = cur, ((2 * k + n_dim - 4) * gram * cur - (k - 1) * prev) / (
                k + n_dim - 3
            )
        moments.append(float(cur.sum()))
    return moments + [0.0] * (cap - len(moments))


def reconstruction_residual(p, c):
    """max |<p_i, p_j> - gram[i][j]| against the exact Gram of configuration c."""
    gram = p.points @ p.points.T
    exact = np.array([float(u) for u in c.gram.values])[c.gram.colours]
    return float(np.abs(gram - exact).max())


def gradient_check(p: CoordinateSet, s: float, directions: int = 4, seed: int = 7) -> float:
    """Max relative error of tangential_force against central finite
    differences of the energy along random tangent directions (step 1e-6)."""
    rng = np.random.default_rng(seed)
    step = 1e-6
    pts = p.points
    radial = p.unit
    report = tangential_force(p, s)
    worst = 0.0
    for _ in range(directions):
        eta = rng.normal(size=pts.shape)
        eta -= (eta * radial).sum(axis=1, keepdims=True) * radial
        eta /= np.linalg.norm(eta)

        def retracted(t):
            moved = pts + t * eta
            moved = moved / np.linalg.norm(moved, axis=1, keepdims=True)
            return CoordinateSet(points=moved)

        fd = (energy(retracted(step), s) - energy(retracted(-step), s)) / (2 * step)
        analytic = -(report.tangential * eta).sum()
        err = abs(fd - analytic) / max(1.0, abs(fd), abs(analytic))
        worst = max(worst, err)
    return worst


def full_tensor_energy(p, s):
    """The pair energy from the full N x N x r difference tensor, as
    `energy` formed it before it took the differences of the pairs i < j
    alone."""
    diff = p.points[:, None, :] - p.points[None, :, :]
    d = np.sqrt((diff**2).sum(axis=2))
    return float((d[np.triu_indices(p.size, k=1)] ** -s).sum())
