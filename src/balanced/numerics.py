"""Floating-point companion: coordinates from Gram matrices, inverse-power
energies and tangential forces, the cube facet-rotation saddle demo, and the
float fallback pipeline for configurations with irrational inner products.

Square roots happen only at the last step (pivot square roots); everything
upstream of a CoordinateSet is exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

import numpy as np

from .exact import Configuration, StructuralError


class AmbiguousShellError(ValueError):
    """Shell clustering is ambiguous at the given tolerance; pick another."""


@dataclass(eq=False)
class CoordinateSet:
    """N x r double-precision points, optionally tied to an exact source.
    Unit vectors, their Gram matrix and per-tolerance shells are computed once."""

    points: np.ndarray
    label: Optional[str] = None
    source: Optional[Configuration] = None
    _shells: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=float)
        if self.points.ndim != 2 or self.points.shape[0] == 0:
            raise StructuralError("coordinates must form a nonempty N x r array")

    @cached_property
    def unit(self) -> np.ndarray:
        return self.points / np.linalg.norm(self.points, axis=1, keepdims=True)

    @cached_property
    def gram(self) -> np.ndarray:
        """Inner products of the unit vectors, unclipped."""
        return self.unit @ self.unit.T

    def shells(self, tol: float) -> tuple[tuple[tuple[float, np.ndarray], ...], ...]:
        """Per point, the other points grouped into shells of inner products
        within tol: ((representative, member indices), ...), ascending.

        Each row is clustered on its own, once per tolerance.
        """
        if tol not in self._shells:
            self._shells[tol] = tuple(_row_shells(row, i, tol) for i, row in enumerate(self.gram))
        return self._shells[tol]

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
    return CoordinateSet(points=np.array(pts, dtype=float), label=c.label, source=c)


def reconstruction_residual(p: CoordinateSet) -> float:
    """max |<p_i, p_j> - gram[i][j]| against the exact source Gram."""
    if p.source is None:
        raise StructuralError("coordinate set has no exact source to compare against")
    gram = p.points @ p.points.T
    exact = np.array([float(u) for u in p.source.gram.values])[p.source.gram.colours]
    return float(np.abs(gram - exact).max())


def _require_positive(what: str, x: float) -> None:
    """Tolerances and exponents must be positive and finite: a NaN compares
    false with everything, so it would pass every test it is used in."""
    if not (math.isfinite(x) and x > 0):
        raise StructuralError(f"{what} must be positive and finite, got {x}")


def _pairwise_distances(points: np.ndarray) -> np.ndarray:
    diff = points[:, None, :] - points[None, :, :]
    return np.sqrt((diff**2).sum(axis=2))


def energy(p: CoordinateSet, s: float) -> float:
    """Inverse-power pair energy  sum_{i<j} |p_i - p_j|^-s."""
    _require_positive("exponent s", s)
    d = _pairwise_distances(p.points)
    iu = np.triu_indices(p.size, k=1)
    pair = d[iu]
    if (pair == 0).any():
        raise StructuralError("coincident points have infinite energy")
    return float((pair**-s).sum())


@dataclass(eq=False)
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
    pts = p.points
    n = p.size
    diff = pts[:, None, :] - pts[None, :, :]
    dist = np.sqrt((diff**2).sum(axis=2))
    off = ~np.eye(n, dtype=bool)
    if (dist[off] == 0).any():
        raise StructuralError("coincident points")
    with np.errstate(divide="ignore"):
        w = np.where(off, s * dist ** -(s + 2.0), 0.0)
    force = (w[:, :, None] * diff).sum(axis=1)
    radial = p.unit
    tangential = force - (force * radial).sum(axis=1, keepdims=True) * radial
    norms = np.linalg.norm(tangential, axis=1)
    return ForceReport(
        exponent=s, tangential=tangential, max_tangential_norm=float(norms.max())
    )


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
    return CoordinateSet(points=np.array(pts), label=f"cube(theta={theta:.6g})")


def cube_facet_rotation(theta: float, s: float) -> float:
    """Energy of the cube with one facet rotated; a square antiprism at pi/4."""
    if not 0 <= theta <= math.pi / 2:
        raise StructuralError(f"theta must be in [0, pi/2], got {theta}")
    return energy(cube_coordinates(theta), s)


def poles_and_ring_coordinates(k: int) -> CoordinateSet:
    pts = [(0.0, 0.0, 1.0), (0.0, 0.0, -1.0)]
    for j in range(k):
        ang = 2.0 * math.pi * j / k
        pts.append((math.cos(ang), math.sin(ang), 0.0))
    return CoordinateSet(points=np.array(pts), label=f"poles_and_ring({k})")


# --- float fallback pipeline ------------------------------------------------


def _cluster(values, tol: float):
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
    return [sum(cl) / len(cl) for cl in clusters]


def _row_shells(row: np.ndarray, i: int, tol: float):
    others = np.delete(np.arange(len(row)), i)
    vals = row[others]
    return tuple((u, others[np.abs(vals - u) <= tol]) for u in _cluster(vals.tolist(), tol))


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


def check_balanced_float(p: CoordinateSet, tol: float = 1e-9) -> FloatBalanceReport:
    """Shell-sum proportionality with tolerance-based shell grouping."""
    _require_positive("tolerance", tol)
    unit = p.unit
    violations = []
    for i, shells in enumerate(p.shells(tol)):
        for u, members in shells:
            shell_sum = unit[members].sum(axis=0)
            coeff = float(shell_sum @ unit[i])
            dev = shell_sum - coeff * unit[i]
            dev_norm = float(np.linalg.norm(dev))
            if dev_norm > tol * max(1.0, float(len(members))):
                violations.append(
                    FloatViolation(point=i, shell_value=float(u), deviation_norm=dev_norm)
                )
    return FloatBalanceReport(
        balanced=not violations, violations=tuple(violations), tol=tol
    )


def spectrum_float(p: CoordinateSet, tol: float = 1e-9) -> tuple[float, ...]:
    """Clustered distinct off-diagonal inner products."""
    _require_positive("tolerance", tol)
    off = ~np.eye(p.size, dtype=bool)
    return tuple(_cluster(p.gram[off].tolist(), tol))


def _float_gegenbauer_moments(gram: np.ndarray, n_dim: int, cap: int) -> list[float]:
    moments = []
    prev = np.ones_like(gram)
    cur = gram.copy()
    for k in range(1, cap + 1):
        if k > 1:
            prev, cur = cur, ((2 * k + n_dim - 4) * gram * cur - (k - 1) * prev) / (
                k + n_dim - 3
            )
        moments.append(float(cur.sum()))
    return moments


def design_strength_float(p: CoordinateSet, cap: int, tol: float = 1e-9):
    """(strength, moments) in float mode; zero test scaled by N^2."""
    if cap < 1:
        raise StructuralError(f"cap {cap} < 1")
    _require_positive("tolerance", tol)
    gram = np.clip(p.gram, -1.0, 1.0)
    moments = _float_gegenbauer_moments(gram, p.dim, cap)
    threshold = tol * p.size * p.size
    strength = next((k for k, m in enumerate(moments) if abs(m) > threshold), cap)
    return strength, {k: m for k, m in enumerate(moments, start=1)}


def theorem1_check_float(p: CoordinateSet, cap: int, tol: float = 1e-9):
    """(per_point_k, strength, applies) in float mode.

    Distances at inner product 1 and -1 (the point itself and its antipode)
    are excluded, as in the exact check.
    """
    _require_positive("tolerance", tol)
    per_point = [
        sum(abs(u - 1.0) > tol and abs(u + 1.0) > tol for u, _ in shells)
        for shells in p.shells(tol)
    ]
    strength, _ = design_strength_float(p, cap, tol)
    applies = max(per_point) <= strength
    return tuple(per_point), strength, applies
