"""Builders for every named configuration: SRG spectral embeddings, simplex
edge-midpoint families, the inverted-tetrahedron modification, antipodal
unions, and small standard polytopes."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources
from itertools import combinations, product
from typing import Optional, Sequence

import numpy as np

from .exact import Configuration, Scaled, StructuralError, _first_pair, require
from .files import read_graph
from .numerics import poles_and_ring_coordinates
from .symmetry import adjacency_matrix


class ConstructionError(StructuralError):
    """Constructor preconditions violated (not an SRG, bad indices, ...)."""


@dataclass(frozen=True)
class SrgParams:
    n: int
    k: int
    lam: int
    mu: int

    def __post_init__(self):
        lhs = self.k * (self.k - self.lam - 1)
        rhs = (self.n - self.k - 1) * self.mu
        if lhs != rhs:
            raise ConstructionError(
                f"infeasible SRG parameters ({self.n},{self.k},{self.lam},{self.mu})"
            )

    @property
    def degenerate(self) -> bool:
        # complete multipartite graphs (mu = k) and their complements (mu = 0)
        return self.mu == 0 or self.mu == self.k

    def eigenvalues(self) -> tuple[int, int]:
        """Non-principal adjacency eigenvalues r > s, required integral."""
        disc = (self.lam - self.mu) ** 2 + 4 * (self.k - self.mu)
        root = math.isqrt(disc)
        if root * root != disc or (self.lam - self.mu + root) % 2 != 0:
            raise ConstructionError(
                f"irrational eigenvalues for parameters "
                f"({self.n},{self.k},{self.lam},{self.mu})"
            )
        r = (self.lam - self.mu + root) // 2
        s = (self.lam - self.mu - root) // 2
        return r, s

    def multiplicity(self, eig: int) -> int:
        r, s = self.eigenvalues()
        other = s if eig == r else r
        num = -(self.n - 1) * other - self.k
        den = eig - other
        if num % den != 0:
            raise ConstructionError("non-integral eigenvalue multiplicity")
        return num // den


def srg_params(adjacency: Sequence[Sequence[int]]) -> SrgParams:
    """Verify strong regularity and return (N, k, lambda, mu): lambda and mu
    are the common neighbours, read off A^2, of the first adjacent and the
    first non-adjacent pair i < j in row-major order."""
    return _srg_params(adjacency_matrix(adjacency))


def _srg_params(a: np.ndarray) -> SrgParams:
    """srg_params of an array `adjacency_matrix` has checked."""
    n = len(a)
    if n == 0:
        raise ConstructionError("empty graph")
    deg = a.sum(axis=1)
    k = int(deg[0])
    i = int(np.argmax(deg != k))  # the first vertex of another degree, else 0
    if deg[i] != k:
        raise ConstructionError(f"not regular: vertex {i} has degree {deg[i]}, vertex 0 has {k}")
    if k == 0 or k == n - 1:
        raise ConstructionError(f"degenerate graph (k = {k}): no two eigenvalue classes")
    common = a @ a
    # 0 < k < n - 1, so both kinds of pair occur
    lam, mu = int(common[_first_pair(a == 1)]), int(common[_first_pair(a == 0)])
    expected = np.where(a == 1, lam, mu)
    pair = _first_pair(common != expected)
    if pair is not None:
        kind = "adjacent" if a[pair] else "non-adjacent"
        raise ConstructionError(f"not strongly regular: {kind} pair ({pair[0]},{pair[1]}) has "
                                f"{common[pair]} common neighbors, expected {expected[pair]}")
    return SrgParams(n=n, k=k, lam=lam, mu=mu)


def srg_spectral_embedding(
    adjacency: Sequence[Sequence[int]], eigen_choice: str = "r"
) -> Configuration:
    """Project the standard basis onto a nontrivial eigenspace, exactly.

    The projection onto the theta-eigenspace (theta in {r, s}) is
    P = (A - phi I - ((k - phi)/N) J) / (theta - phi); the configuration Gram
    is P rescaled to unit diagonal, and its rank is the eigenvalue
    multiplicity.
    """
    if eigen_choice not in ("r", "s"):
        raise ConstructionError(f"eigen_choice must be 'r' or 's', got {eigen_choice!r}")
    a = adjacency_matrix(adjacency)
    params = _srg_params(a)
    if params.degenerate:
        raise ConstructionError(
            f"degenerate strongly regular graph ({params.n},{params.k},"
            f"{params.lam},{params.mu}); no spherical embedding"
        )
    r, s = params.eigenvalues()
    theta, phi = (r, s) if eigen_choice == "r" else (s, r)
    mult = params.multiplicity(theta)
    if mult < 2:
        raise ConstructionError(f"eigenvalue {theta} has multiplicity {mult} < 2")
    n = params.n
    # N (theta - phi) P = N (A - phi I) - (k - phi) J, whose diagonal is constant
    m = n * (a - phi * np.eye(n, dtype=np.int64))
    m -= params.k - phi
    sign = 1 if m[0, 0] > 0 else -1
    config = Configuration.from_gram(
        Scaled(sign * int(m[0, 0]), sign * m),
        label=f"srg({params.n},{params.k},{params.lam},{params.mu})/{eigen_choice}",
        point_labels=tuple(str(i) for i in range(n)),
    )
    # the projection onto the theta-eigenspace has rank mult(theta) for every SRG
    require(config.ambient_dim == mult,
            f"embedding rank {config.ambient_dim} != multiplicity {mult}")
    return config


def _pair_label(i: int, j: int, n_vertices: int) -> str:
    return f"{i}{j}" if n_vertices <= 9 else f"{i}-{j}"


def simplex_midpoints(n: int) -> Configuration:
    """Edge midpoints of a regular n-simplex, rescaled to the unit sphere.

    Inner products: (n-3)/(2n-2) for label pairs sharing a vertex, -2/(n-1)
    for disjoint pairs.
    """
    if n < 3:
        raise ConstructionError(f"simplex midpoints need n >= 3, got {n}")
    pairs = list(combinations(range(1, n + 2), 2))
    # b b^T counts shared vertices: 2 on the diagonal, 1 or 0 off it
    b = np.array([[v in p for v in range(1, n + 2)] for p in pairs], dtype=np.int64)
    rows = Scaled(2 * n - 2, (n + 1) * (b @ b.T) - 4)
    labels = tuple(_pair_label(i, j, n + 1) for i, j in pairs)
    return Configuration.from_gram(rows, label=f"C{n}", point_labels=labels)


def invert_tetrahedron(c: Configuration, tetra: Sequence[int]) -> Configuration:
    """Replace a regular tetrahedron (pairwise inner product -1/3) by its antipode."""
    tetra = tuple(int(i) for i in tetra)
    n = c.size
    if len(set(tetra)) != 4:
        raise ConstructionError(f"need 4 distinct indices, got {tetra}")
    if any(not 0 <= i < n for i in tetra):
        raise ConstructionError(f"tetrahedron index out of range: {tetra}")
    g = c.gram
    for a, b in combinations(tetra, 2):
        if g[a, b] != Fraction(-1, 3):
            raise ConstructionError(
                f"points {a},{b} have inner product {g[a, b]}, expected -1/3"
            )
    flip = np.where(np.isin(np.arange(n), tetra), -1, 1)
    rows = Scaled(g.den, g.scaled * np.outer(flip, flip))
    labels = None
    if c.point_labels:
        labels = tuple(
            f"-{lab}" if i in tetra else lab for i, lab in enumerate(c.point_labels)
        )
    label = f"{c.label}'" if c.label else None
    return Configuration.from_gram(rows, label=label, point_labels=labels)


def default_distinguished_tetrahedron() -> tuple[int, int, int, int]:
    """Indices of the edge pairs 12, 34, 56, 78 in the C7 labeling."""
    pairs = list(combinations(range(1, 9), 2))
    return tuple(pairs.index(p) for p in [(1, 2), (3, 4), (5, 6), (7, 8)])


def c7_prime(tetra: Optional[Sequence[int]] = None) -> Configuration:
    if tetra is None:
        tetra = default_distinguished_tetrahedron()
    return invert_tetrahedron(simplex_midpoints(7), tetra)


def antipodal_union(c: Configuration) -> Configuration:
    """Union with the antipodal copy; Gram is the block matrix [[G,-G],[-G,G]]."""
    if c.gram.values[0] == -1:  # the smallest value, when present
        antipodes = _first_pair(c.gram.colours == 0)
        if antipodes is not None:
            raise ConstructionError(
                "points %d and %d are already antipodal; union would duplicate" % antipodes
            )
    m = c.gram.scaled
    rows = Scaled(c.gram.den, np.block([[m, -m], [-m, m]]))
    base_labels = c.point_labels or tuple(str(i) for i in range(c.size))
    labels = tuple(base_labels) + tuple(f"-{lab}" for lab in base_labels)
    label = f"{c.label} u -{c.label}" if c.label else None
    return Configuration.from_gram(rows, label=label, point_labels=labels)


def cube() -> Configuration:
    verts = list(product((1, -1), repeat=3))
    rows = Scaled(3, np.array(verts) @ np.array(verts).T)
    labels = tuple("".join("+" if x > 0 else "-" for x in v) for v in verts)
    return Configuration.from_gram(rows, label="cube", point_labels=labels)


def cross_polytope(n: int) -> Configuration:
    if n < 1:
        raise ConstructionError(f"cross polytope needs n >= 1, got {n}")
    points = [(i, 1) for i in range(n)] + [(i, -1) for i in range(n)]
    eye = np.eye(n, dtype=np.int64)
    rows = Scaled(1, np.block([[eye, -eye], [-eye, eye]]))
    labels = tuple(f"{'+' if s > 0 else '-'}e{i + 1}" for i, s in points)
    return Configuration.from_gram(rows, label=f"cross_polytope({n})", point_labels=labels)


def simplex(n: int) -> Configuration:
    if n < 1:
        raise ConstructionError(f"simplex needs n >= 1, got {n}")
    rows = Scaled(n, (n + 1) * np.eye(n + 1, dtype=np.int64) - 1)
    labels = tuple(f"v{i + 1}" for i in range(n + 1))
    return Configuration.from_gram(rows, label=f"simplex({n})", point_labels=labels)


_OPTIONS = {"n": "dimension (-n)", "k": "ring size (-k)"}


def standard_polytope(name: str, n: Optional[int] = None, k: Optional[int] = None):
    """The named polytope, built from the one option it takes, if any: the
    dimension n of a cross-polytope or simplex, the ring size k of
    poles-and-ring.  An option it does not take is refused."""
    key = name.lower().replace("_", "-")
    key = "poles-and-ring" if key == "poles-ring" else key
    builders = {"cube": (cube, None), "cross-polytope": (cross_polytope, "n"),
                "simplex": (simplex, "n"), "poles-and-ring": (poles_and_ring_coordinates, "k")}
    if key not in builders:
        raise ConstructionError(f"unknown polytope {name!r}")
    build, takes = builders[key]
    given = {"n": n, "k": k}
    for option, value in given.items():
        if option != takes and value is not None:
            raise ConstructionError(f"{key} takes no {_OPTIONS[option]}")
    if takes is None:
        return build()
    if given[takes] is None:
        raise ConstructionError(f"{key} requires a {_OPTIONS[takes]}")
    return build(given[takes])


def figure1_adjacency() -> tuple[tuple[int, ...], ...]:
    """The bundled 25-vertex (25,12,5,6) adjacency matrix."""
    return read_graph(resources.files("balanced") / "data/graphs/srg_25_12_5_6.txt")
