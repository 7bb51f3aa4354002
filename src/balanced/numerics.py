"""Floating-point companion: coordinates from Gram matrices, inverse-power
energies and tangential forces, the cube facet-rotation saddle demo, and the
float fallback pipeline for configurations with irrational inner products.

Square roots happen only at the last step (pivot square roots); everything
upstream of a CoordinateSet is exact.

Float mode has the shape of exact mode: coordinates plus a shell labelling,
tested one shell slot at a time.  Per tolerance, a `CoordinateSet` argsorts
every row of its Gram matrix without the diagonal once (`_ShellTable`).  A
row's shells are the runs of its sorted values whose consecutive gaps are
<= tol; a run wider than tol, or two runs of a row less than 10*tol apart,
makes the tolerance ambiguous.  A shell's value is the left-to-right sum of
its sorted values, started from 0.0, divided by its size, and its members are
the points within tol of that value.  The radial test takes one
indicator-matrix product per slot k, the k-th shell of every row; a shell
whose deviation clears the threshold by the rounding margin of
`_near_threshold` passes, and every other shell is recomputed with the
per-shell expressions, whose result decides and is reported.  Values,
verdicts and deviations are thus those of a per-row, per-shell pass, bit for
bit.  The spectrum is the same split of one row that holds every
off-diagonal value.  The confirmed violations, like the design moments, are
a stream computed as it is drawn: `check_balanced_float` and
`design_strength_float` draw it all, a report only up to its first witness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import islice
from typing import Iterator, Optional

import numpy as np

from .designs import (DesignVerdict, TheoremOneVerdict, _design_verdict, _theorem1_verdict,
                      _zonal_series, check_cap)
from .exact import Configuration, StructuralError, _first_pair, check_labels

DEFAULT_TOL = 1e-9


class AmbiguousShellError(ValueError):
    """Shell clustering is ambiguous at the given tolerance; pick another."""


def _read_only(a: np.ndarray) -> np.ndarray:
    """a, with writes through it refused, so a cached array stays what it was."""
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class CoordinateSet:
    """N x r double-precision points, each finite and nonzero, kept as a
    read-only copy: no later write to the caller's array or to `points`
    reaches them.  Unit vectors, their Gram matrix and per-tolerance shells
    are computed once."""

    points: np.ndarray
    label: Optional[str] = None
    _tables: dict = field(default_factory=dict, init=False, repr=False)
    _distinct_at: set = field(default_factory=set, init=False, repr=False)

    def __post_init__(self):
        check_labels(self.label)
        points = np.array(self.points, dtype=float)
        if points.ndim != 2 or points.shape[0] == 0:
            raise StructuralError("coordinates must form a nonempty N x r array")
        finite, nonzero = np.isfinite(points).all(axis=1), points.any(axis=1)
        if not (finite & nonzero).all():
            i = int(np.argmin(finite & nonzero))  # the first bad point
            problem = "is the zero vector" if finite[i] else "is not finite"
            raise StructuralError(f"coords[{i}] {problem}")
        object.__setattr__(self, "points", _read_only(points))

    @cached_property
    def unit(self) -> np.ndarray:
        with np.errstate(over="ignore"):  # huge rows are caught below
            norms = np.linalg.norm(self.points, axis=1, keepdims=True)
        off = ((norms == 0) | np.isinf(norms))[:, 0]
        points = self.points
        if off.any():
            # the squares of these rows underflow to 0 or overflow to inf: scale
            # each by the power of two that brings its largest entry into [1/2, 1)
            points = points.copy()
            _, e = np.frexp(np.abs(points[off]).max(axis=1, keepdims=True))
            points[off] = np.ldexp(points[off], -e)
            norms[off] = np.linalg.norm(points[off], axis=1, keepdims=True)
        return _read_only(points / norms)

    @cached_property
    def gram(self) -> np.ndarray:
        """Inner products of the unit vectors, unclipped."""
        return _read_only(self.unit @ self.unit.T)

    @cached_property
    def off_diagonal(self) -> np.ndarray:
        """The Gram matrix without its diagonal: row i lists gram[i, j] for j != i."""
        n = self.size
        return _read_only(self.gram[~np.eye(n, dtype=bool)].reshape(n, n - 1))

    def shell_table(self, tol: float) -> "_ShellTable":
        """Every point's shells at tol, built once per tolerance."""
        if tol not in self._tables:
            self._tables[tol] = _ShellTable(self.off_diagonal, tol)
        return self._tables[tol]

    def shells(self, tol: float) -> tuple[tuple[tuple[float, np.ndarray], ...], ...]:
        """Per point, the other points grouped into shells of inner products
        within tol: ((representative, member indices), ...), ascending."""
        return self.shell_table(tol).shells

    @property
    def size(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]


def coordinates_from_gram(c: Configuration) -> CoordinateSet:
    """Realize the configuration in rank(gram) coordinates, read off the
    elimination that validated the Gram matrix: den * G = X W X^T with
    W[k] = 1 / (p_{k-1} p_k), so point j gets X[j][k] / p_k * sqrt(p_k / (p_{k-1} den)).
    Both quotients are Python-int true divisions, hence correctly rounded."""
    e = c.gram.elimination
    scale = [math.sqrt(p / (q * e.den)) for p, q in zip(e.pivots, (1,) + e.pivots)]
    pts = [[a / p * s for a, p, s in zip(row, e.pivots, scale)] for row in e.x.tolist()]
    return CoordinateSet(points=pts, label=c.label)


def _require_positive(what: str, x: float) -> None:
    """Tolerances and exponents must be positive and finite: a NaN compares
    false with everything, so it would pass every test it is used in."""
    if not (math.isfinite(x) and x > 0):
        raise StructuralError(f"{what} must be positive and finite, got {x}")


def _require_tolerance(p: CoordinateSet, tol: float) -> None:
    """tol must be positive and finite, and no two unit vectors may be within
    tol of inner product 1 (exact mode's coincidence), checked once per tol."""
    if tol in p._distinct_at:
        return
    _require_positive("tolerance", tol)
    pair = _first_pair(p.gram >= 1.0 - tol)
    if pair is not None:
        raise StructuralError("points %d and %d coincide (inner product >= 1 - %g)" % (*pair, tol))
    p._distinct_at.add(tol)


def _differences(p: CoordinateSet, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """p_i - p_j over the index arrays i and j, broadcast, which reach each
    pair i < j in row-major order before its twin (j, i); refused, naming the
    first such pair, when a difference overflows float64."""
    with np.errstate(over="ignore"):  # refused below
        diff = p.points[i] - p.points[j]
    if not np.isfinite(diff).all():  # one pass; the per-pair test only on failure
        far = ~np.isfinite(diff).all(axis=-1)
        a, b = (int(x[far][0]) for x in np.broadcast_arrays(i, j))
        raise StructuralError(f"points {a} and {b} are too far apart: "
                              "their difference overflows float64")
    return diff


def energy(p: CoordinateSet, s: float) -> float:
    """Inverse-power pair energy  sum_{i<j} |p_i - p_j|^-s, from the
    differences of the pairs i < j alone."""
    _require_positive("exponent s", s)
    diff = _differences(p, *np.triu_indices(p.size, k=1))
    pair = np.sqrt((diff**2).sum(axis=1))
    if (pair == 0).any():
        raise StructuralError("coincident points have infinite energy")
    return float((pair**-s).sum())


@dataclass(frozen=True, eq=False)
class ForceReport:
    exponent: float
    tangential: np.ndarray  # N x r tangential force vectors
    max_tangential_norm: float


def tangential_force(p: CoordinateSet, s: float) -> ForceReport:
    """Net repulsive force per point under the r^-s pair potential,
    with the radial component projected out.

    The net force on p_i is sum_{j != i} s |p_i-p_j|^-(s+2) (p_i - p_j),
    the negative gradient of the pair energy.
    """
    _require_positive("exponent s", s)
    diff = _differences(p, np.arange(p.size)[:, None], np.arange(p.size))
    dist = np.sqrt((diff**2).sum(axis=2))
    off = ~np.eye(p.size, dtype=bool)
    if (dist[off] == 0).any():
        raise StructuralError("coincident points")
    with np.errstate(divide="ignore"):
        w = np.where(off, s * dist ** -(s + 2.0), 0.0)
    force = (w[:, :, None] * diff).sum(axis=1)
    radial = p.unit
    tangential = force - (force * radial).sum(axis=1, keepdims=True) * radial
    norms = np.linalg.norm(tangential, axis=1)
    return ForceReport(
        exponent=s, tangential=_read_only(tangential), max_tangential_norm=float(norms.max())
    )


def cube_coordinates(theta: float = 0.0) -> CoordinateSet:
    """Unit cube vertices with the top facet rotated by theta about the axis."""
    a = 1.0 / math.sqrt(3.0)
    pts = []
    for sx, sy, sz in [(x, y, z) for z in (1, -1) for x in (1, -1) for y in (1, -1)]:
        x, y, z = sx * a, sy * a, sz * a
        if sz > 0:
            x, y = (
                x * math.cos(theta) - y * math.sin(theta),
                x * math.sin(theta) + y * math.cos(theta),
            )
        pts.append((x, y, z))
    return CoordinateSet(points=pts, label=f"cube(theta={theta:.6g})")


def cube_facet_rotation(theta: float, s: float) -> float:
    """Energy of the cube with one facet rotated; a square antiprism at pi/4."""
    if not 0 <= theta <= math.pi / 2:
        raise StructuralError(f"theta must be in [0, pi/2], got {theta}")
    return energy(cube_coordinates(theta), s)


def poles_and_ring_coordinates(k: int) -> CoordinateSet:
    """North and south poles plus k >= 2 equally spaced equatorial points.

    Ring inner products are irrational for general k, so these are float
    coordinates for the numerics pipeline rather than an exact configuration.
    """
    if k < 2:
        raise StructuralError(f"ring needs k >= 2 points, got {k}")
    pts = [(0.0, 0.0, 1.0), (0.0, 0.0, -1.0)]
    for j in range(k):
        ang = 2.0 * math.pi * j / k
        pts.append((math.cos(ang), math.sin(ang), 0.0))
    return CoordinateSet(points=pts, label=f"poles_and_ring({k})")


# --- float fallback pipeline ------------------------------------------------


_EPS = 2.0**-53  # unit roundoff of float64


def _split(s: np.ndarray, rows: np.ndarray, tol: float):
    """Cut each row of `rows`, sorted ascending in `s`, into shells: runs of
    consecutive gaps <= tol.  A run wider than tol, or two runs of a row less
    than 10*tol apart, raises AmbiguousShellError.  Returns the value, row
    and number of entries of each shell, row by row and ascending in a row."""
    n, w = s.shape
    if not s.size:  # one point: no other point, no shell
        return np.zeros(0), np.zeros(0, dtype=int), np.zeros(0, dtype=int)
    new = np.ones((n, w), dtype=bool)
    new[:, 1:] = ~(s[:, 1:] - s[:, :-1] <= tol)  # a NaN gap opens a shell too
    new = new.ravel()
    s = s.ravel()
    starts = np.flatnonzero(new)
    lens = np.concatenate((starts[1:], [s.size])) - starts
    row = starts // w
    first, last = s[starts], s[starts + lens - 1]
    wide = last - first > tol
    close = (first[1:] - last[:-1] < 10 * tol) & (row[1:] == row[:-1])
    if wide.any() or close.any():
        raise _ambiguity(rows, first, last, row, wide, close, tol)
    # each sum runs left to right: one accumulate along a block of equal-length runs
    sums = np.empty(len(starts))
    by_len = np.argsort(lens, kind="stable")
    sorted_lens = lens[by_len]
    cuts = [0, *(np.flatnonzero(sorted_lens[1:] != sorted_lens[:-1]) + 1).tolist(), len(lens)]
    for a, b in zip(cuts, cuts[1:]):
        q = by_len[a:b]
        block = s[starts[q, None] + np.arange(sorted_lens[a])]
        sums[q] = np.add.accumulate(block, axis=1)[:, -1]
    # the accumulation starts from the first value; + 0.0 gives the 0.0 a sum
    # from 0.0 gives for a run of -0.0, and changes no other sum
    return (sums + 0.0) / lens, row, lens


def _ambiguity(rows, first, last, row, wide, close, tol) -> AmbiguousShellError:
    """The error for the first failing row: its first shell wider than tol,
    else its first gap below 10*tol."""
    i = min(row[wide].min(initial=len(rows)), row[1:][close].min(initial=len(rows)))
    q = np.flatnonzero(wide & (row == i))
    if len(q):
        q = q[0]
        return AmbiguousShellError(
            f"shell of spread {float(last[q] - first[q]):.3e} exceeds tolerance {tol:.3e}"
        )
    q = np.flatnonzero(close & (row[1:] == i))[0]
    lo, hi = float(last[q]), float(first[q + 1])
    # a stable sort keeps equal zeros in row order; the argsort may not
    zeros = rows[i][rows[i] == 0]
    lo, hi = float(zeros[-1]) if lo == 0 else lo, float(zeros[0]) if hi == 0 else hi
    return AmbiguousShellError(
        f"inner products {lo!r} and {hi!r} are {hi - lo:.3e} apart: "
        f"between tol and 10*tol; choose a different tolerance"
    )


class _ShellTable:
    """Every point's shells at one tolerance, from one row-wise argsort of
    `off`, the Gram matrix without its diagonal.  Shell q lies in row
    `row[q]` at slot `slot[q]` (its rank in the row) with value `values[q]`
    and `counts[q]` members; `labels[i, j]` is the slot of point j in row i,
    or -1 on the diagonal and where |gram[i, j] - value| > tol."""

    def __init__(self, off: np.ndarray, tol: float):
        n = len(off)
        order = np.argsort(off, axis=1)
        s = np.take_along_axis(off, order, axis=1)
        self.values, self.row, lens = _split(s, off, tol)
        self.first = np.searchsorted(self.row, np.arange(n + 1))
        self.slot = np.arange(len(self.row)) - self.first[self.row]
        self._run = np.repeat(np.arange(len(self.row)), lens)  # shell of each sorted entry
        self._member = np.abs(s.ravel() - np.repeat(self.values, lens)) <= tol
        self._cols = (order + (order >= np.arange(n)[:, None])).ravel()  # row i skips i
        self.counts = lens - np.bincount(self._run[~self._member], minlength=len(lens))
        self.labels = np.full((n, n), -1)
        self.labels.ravel()[np.repeat(self.row * n, lens) + self._cols] = np.where(
            self._member, np.repeat(self.slot, lens), -1
        )

    def members(self, shells: np.ndarray) -> Iterator[np.ndarray]:
        """The ascending member indices of each of the given shells, which
        are in ascending order, each sliced out when drawn."""
        pick = np.zeros(len(self.row), dtype=bool)
        pick[shells] = True
        pick = pick[self._run] & self._member
        run, cols = self._run[pick], self._cols[pick]
        cols = cols[np.lexsort((cols, run))]
        ends = np.cumsum(self.counts[shells]).tolist()
        return (cols[a:b] for a, b in zip([0] + ends, ends))

    @cached_property
    def shells(self) -> tuple[tuple[tuple[float, np.ndarray], ...], ...]:
        shells = list(zip(self.values.tolist(), self.members(np.arange(len(self.row)))))
        first = self.first.tolist()
        return tuple(tuple(shells[a:b]) for a, b in zip(first, first[1:]))


def _deviation_norm(unit: np.ndarray, members: np.ndarray, i: int) -> float:
    """|S - (S . x) x| for the shell sum S of `members` around point x = unit[i],
    in the per-shell summation order: S = unit[members].sum(axis=0), the
    norm np.linalg.norm(dev), each called here without its Python wrapper
    (np.add.reduce is what ndarray.sum calls, sqrt(dev.dot(dev)) what
    np.linalg.norm computes for a 1-D float array).  The sum of one member
    is that member up to the sign of a zero component, and no later step
    sees that sign: a zero term changes no nonzero partial sum of the dot
    product, and dev is squared."""
    x = unit[i]
    shell_sum = unit[members[0]] if len(members) == 1 else np.add.reduce(unit[members], axis=0)
    dev = shell_sum - float(shell_sum @ x) * x
    return math.sqrt(dev.dot(dev))


def _near_threshold(t: _ShellTable, unit: np.ndarray, tol: float) -> np.ndarray:
    """The shells, ascending, that do not pass the radial test by a clear
    margin.

    One product per slot gives every row's shell sum S = sum of unit[j] over
    the members, in BLAS order; the coefficient, deviation and norm follow
    as arrays.  `_deviation_norm` sums in another order, so the two results
    differ.  Bound (Higham, Accuracy and Stability of Numerical Algorithms,
    2nd ed., ch. 3-4): let eps = 2^-53, m the members, r the dimension and
    mu >= 1 a bound on every |unit[j]|.  Any summation order of m vectors
    (exact zero terms add no error) gives |S^ - S| <= gamma_{m-1} m mu with
    gamma_k = k eps / (1 - k eps).  The map P = I - x x^T has norm at most
    mu^2, so the exact |P S^| moves by at most mu^2 gamma_{m-1} m mu.  The
    rounded coefficient moves the deviation by gamma_r mu^2 |S^|, the rounded
    product and difference by 3 eps mu^2 |S^| between them, and the norm by
    (r/2 + 1) eps mu^2 |S^|, with |S^| <= m mu (1 + gamma_{m-1}).  So each
    computed norm lies within m mu^3 eps (m + 3r/2 + 3)(1 + eta) of the exact
    |P S|, with eta = O((m + r) eps); two of them, plus the rounding of the
    threshold, differ by less than B = 4 m (m + r + 2) mu^3 eps.  A shell
    with deviation <= tol max(1, m) - B thus passes under either order;
    every other shell, a NaN included, is returned for `_deviation_norm`.
    """
    n, r = unit.shape
    mu = max(1.0, float(np.sqrt(np.einsum("ij,ij->i", unit, unit).max())))
    m = t.counts
    bar = np.full((n, int(t.slot.max(initial=-1)) + 1), np.inf)
    bar[t.row, t.slot] = tol * np.maximum(1.0, m) - 4 * m * (m + r + 2) * mu**3 * _EPS
    square = np.empty(bar.shape)
    for k in range(bar.shape[1]):
        s = (t.labels == k).astype(float) @ unit
        d = s - np.einsum("ij,ij->i", s, unit)[:, None] * unit
        square[:, k] = np.einsum("ij,ij->i", d, d)
    i, k = np.nonzero(~(np.sqrt(square) <= bar))
    return t.first[i] + k


@dataclass(frozen=True)
class FloatViolation:
    point: int
    shell_value: float
    deviation_norm: float


@dataclass(frozen=True)
class FloatBalanceReport:
    balanced: bool
    violations: tuple[FloatViolation, ...]
    tol: float


def _float_violations(p: CoordinateSet, tol: float) -> Iterator[FloatViolation]:
    """The confirmed violations of the radial test in order of point and
    shell, each computed when drawn: a verdict needs only the first."""
    _require_tolerance(p, tol)
    t = p.shell_table(tol)
    unit = p.unit
    near = _near_threshold(t, unit, tol)
    shells = zip(t.row[near].tolist(), t.values[near].tolist(), t.members(near),
                 (tol * np.maximum(1.0, t.counts[near])).tolist())
    for i, u, members, threshold in shells:
        dev_norm = _deviation_norm(unit, members, i)
        if dev_norm > threshold:
            yield FloatViolation(point=i, shell_value=u, deviation_norm=dev_norm)


def check_balanced_float(p: CoordinateSet, tol: float = DEFAULT_TOL) -> FloatBalanceReport:
    """Shell-sum proportionality with tolerance-based shell grouping."""
    violations = tuple(_float_violations(p, tol))
    return FloatBalanceReport(balanced=not violations, violations=violations, tol=tol)


def spectrum_float(p: CoordinateSet, tol: float = DEFAULT_TOL) -> tuple[float, ...]:
    """Clustered distinct off-diagonal inner products."""
    _require_tolerance(p, tol)
    row = p.off_diagonal.reshape(1, -1)
    return tuple(_split(np.sort(row), row, tol)[0].tolist())


def _float_moments(p: CoordinateSet, cap: int, tol: float) -> Iterator[float]:
    """The moment sums for k = 1..cap, each computed when drawn."""
    check_cap(cap)
    _require_tolerance(p, tol)
    gram = np.clip(p.gram, -1.0, 1.0)
    return (float(g.sum()) for g in islice(_zonal_series(p.dim, cap, gram), 1, None))


def design_strength_float(p: CoordinateSet, cap: int, tol: float = DEFAULT_TOL) -> DesignVerdict:
    """The design verdict in float mode; zero test scaled by N^2."""
    return _design_verdict(_float_moments(p, cap, tol), cap, tol * p.size * p.size)


def theorem1_check_float(p: CoordinateSet, cap: int, tol: float = DEFAULT_TOL) -> TheoremOneVerdict:
    """The Theorem 1 verdict in float mode.  Distances at inner product 1 and
    -1 (the point itself and its antipode) are excluded, as in the exact check."""
    _require_tolerance(p, tol)
    t = p.shell_table(tol)
    counted = (np.abs(t.values - 1.0) > tol) & (np.abs(t.values + 1.0) > tol)
    per_point = np.bincount(t.row[counted], minlength=p.size).tolist()
    return _theorem1_verdict(per_point, _float_moments(p, cap, tol), cap, tol * p.size * p.size)
