"""Exact short-vector enumeration and kissing configurations.

The enumerator is a rational Fincke-Pohst: bounds come from the exact LDL^T
of the Gram matrix, so completeness never depends on floating point.  The
affine variant (linear + constant term) is shared with the periodic
Euclidean balance check.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources
from typing import Iterator, Optional, Sequence

import numpy as np

from .exact import (
    Configuration,
    InvariantError,
    StructuralError,
    as_matrix,
    ldl_decompose,
    rational,
    require,
)


@dataclass(frozen=True)
class LatticeGram:
    """Positive definite symmetric integer Gram matrix of a lattice basis."""

    entries: tuple[tuple[int, ...], ...]
    label: Optional[str] = None

    def __post_init__(self):
        rows = tuple(tuple(int(x) for x in row) for row in self.entries)
        n = len(rows)
        for i, row in enumerate(rows):
            if len(row) != n:
                raise StructuralError(f"row {i} has length {len(row)}, expected {n}")
            for j in range(n):
                if rows[i][j] != rows[j][i]:
                    raise StructuralError(f"not symmetric at entry [{i}][{j}]")
        object.__setattr__(self, "entries", rows)
        _, diag, _ = ldl_decompose(as_matrix(rows))
        if not all(d > 0 for d in diag):
            raise StructuralError("lattice Gram matrix is not positive definite")

    @property
    def dim(self) -> int:
        return len(self.entries)


def _int_interval(center: Fraction, q: Fraction) -> tuple[int, int]:
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


def enumerate_quadratic(
    gram: Sequence[Sequence],
    lin: Sequence,
    const,
    bound,
) -> Iterator[tuple[tuple[int, ...], Fraction]]:
    """All integer z with z^T G z + 2 lin.z + const <= bound, with values.

    G must be positive definite.  Yields (z, value) pairs; the order follows
    the enumeration tree (last coordinate outermost, ascending).
    """
    g = as_matrix(gram)
    d = len(g)
    lin = [rational(x) for x in lin]
    const = rational(const)
    bound = rational(bound)
    if len(lin) != d:
        raise StructuralError("linear term has wrong dimension")
    lower, diag, perm = ldl_decompose(g)
    if not all(p > 0 for p in diag):
        raise StructuralError("quadratic form is not positive definite")
    # positive definiteness keeps the pivot order natural
    require(list(perm) == list(range(d)), "positive definite form needed a pivot swap")
    # forward substitution: k = L^-1 lin, so 2 lin.z = 2 k.(L^T z)
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

    def descend(level: int, budget: Fraction):
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


@dataclass(frozen=True)
class ShortVectorSet:
    norm: int
    vectors: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        vecs = tuple(tuple(int(x) for x in v) for v in self.vectors)
        object.__setattr__(self, "vectors", vecs)
        if len(set(vecs)) != len(vecs):
            raise StructuralError("duplicate vectors")
        have = set(vecs)
        for v in vecs:
            if tuple(-x for x in v) not in have:
                raise StructuralError(f"vector set not closed under negation: {v}")

    def __len__(self) -> int:
        return len(self.vectors)


def minimal_norm(g: LatticeGram) -> int:
    """Smallest nonzero value of v^T G v, by enumeration below min diagonal."""
    bound = min(g.entries[i][i] for i in range(g.dim))
    best = None
    for vec, value in enumerate_quadratic(g.entries, [0] * g.dim, 0, bound):
        if any(vec) and (best is None or value < best):
            best = value
    require(best is not None, "enumeration missed the basis vectors")  # e_i attains the bound
    require(best.denominator == 1, "integer form has a non-integer minimal norm")
    return int(best)


def short_vectors(g: LatticeGram, m: int) -> ShortVectorSet:
    """Exactly the vectors of Gram norm m, in lexicographic order."""
    if m < 1:
        raise StructuralError(f"norm {m} < 1")
    found = []
    for vec, value in enumerate_quadratic(g.entries, [0] * g.dim, 0, m):
        if value == m:
            found.append(vec)
    found.sort()
    # integer-arithmetic confirmation, independent of the rational search
    rows = g.entries
    for v in found:
        gv = [sum(rows[i][j] * v[j] for j in range(g.dim)) for i in range(g.dim)]
        if sum(v[i] * gv[i] for i in range(g.dim)) != m:
            raise InvariantError(f"enumerated vector {v} does not have norm {m}")
    return ShortVectorSet(norm=m, vectors=tuple(found))


def kissing_configuration(g: LatticeGram) -> Configuration:
    """Minimal vectors rescaled to the unit sphere, as an exact Gram matrix."""
    m = minimal_norm(g)
    vecs = short_vectors(g, m)
    # |w G w^T| entries stay below peak; past int64, numpy multiplies Python ints
    peak = max(abs(x) for v in vecs.vectors for x in v) ** 2 * g.dim * g.dim
    peak *= max(abs(x) for row in g.entries for x in row)
    dtype = np.int64 if peak < 2**62 else object
    w = np.array(vecs.vectors, dtype=dtype)
    prods = (w @ np.array(g.entries, dtype=dtype) @ w.T).tolist()
    fractions = {v: Fraction(v, m) for v in set().union(*prods)}  # one per distinct value
    gram_rows = [[fractions[v] for v in row] for row in prods]
    labels = tuple(",".join(str(x) for x in v) for v in vecs.vectors)
    name = g.label or "lattice"
    return Configuration.from_gram(gram_rows, label=f"kissing({name})", point_labels=labels)


_BUNDLED = ("z2", "z3", "d4", "e8", "k12", "leech")


def bundled_lattice(name: str) -> LatticeGram:
    """Load a bundled Gram matrix: z<N>, d4, e8, k12 or leech."""
    key = name.lower()
    if key.startswith("z") and key[1:].isdigit():
        n = int(key[1:])
        if n < 1:
            raise StructuralError(f"bad lattice dimension in {name!r}")
        rows = tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))
        return LatticeGram(entries=rows, label=f"Z^{n}")
    if key in ("d4", "e8", "k12", "leech"):
        text = resources.files("balanced").joinpath(f"data/lattices/{key}.json").read_text()
        doc = json.loads(text)
        return LatticeGram(entries=tuple(tuple(row) for row in doc["gram"]), label=doc["label"])
    raise StructuralError(f"unknown bundled lattice {name!r} (try one of {_BUNDLED})")
