"""Exact short-vector enumeration and kissing configurations.

The enumerator is an integer Fincke-Pohst: its bounds come from the Bareiss
pivots and minors of the scaled Gram matrix and are compared exactly with
math.isqrt, so completeness never depends on floating point.  The affine
variant (linear + constant term) is shared with the periodic Euclidean
balance check.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import InitVar, dataclass, field
from fractions import Fraction
from importlib import resources
from operator import mul
from typing import Iterator, Optional, Sequence

import numpy as np

from .exact import (
    Configuration,
    InvariantError,
    Scaled,
    StructuralError,
    _psd_elimination,
    _tabulate,
    check_labels,
    int_dtype,
    int_product,
    rational,
    require,
)


@dataclass(frozen=True, eq=False)
class QuadraticForm:
    """A positive definite rational Gram matrix G, validated and eliminated once.

    A = den * G is coded and eliminated as a GramMatrix is: `pivots` holds its
    Bareiss pivots p_k and `below[k]` the minors a_jk (j > k) under pivot k,
    as Python ints.  Full rank with every pivot positive makes A positive
    definite, so no pivot was moved.
    """

    rows: InitVar[object]
    den: int = field(init=False)
    pivots: tuple[int, ...] = field(init=False)
    below: tuple[tuple[int, ...], ...] = field(init=False)

    def __post_init__(self, rows):
        den, _, _, scaled = _tabulate(rows)
        elim = _psd_elimination(den, scaled)
        if elim is None or elim.rank < len(scaled):
            raise StructuralError("quadratic form is not positive definite")
        columns = elim.x.T.tolist()
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "pivots", elim.pivots)
        object.__setattr__(self, "below", tuple(tuple(c[k + 1:]) for k, c in enumerate(columns)))

    @property
    def dim(self) -> int:
        return len(self.pivots)


@dataclass(frozen=True)
class LatticeGram:
    """Positive definite symmetric integer Gram matrix of a lattice basis,
    with the QuadraticForm `form` that every enumeration on it reads."""

    entries: tuple[tuple[int, ...], ...]
    label: Optional[str] = None
    form: QuadraticForm = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        check_labels(self.label)
        for i, row in enumerate(self.entries):
            for j, x in enumerate(row):
                if isinstance(x, bool) or not isinstance(x, numbers.Integral):
                    raise StructuralError(f"gram[{i}][{j}] = {x!r} is not an integer")
        rows = tuple(tuple(int(x) for x in row) for row in self.entries)
        if not rows:
            raise StructuralError("lattice Gram matrix is empty")
        object.__setattr__(self, "form", QuadraticForm(rows))
        object.__setattr__(self, "entries", rows)

    @property
    def dim(self) -> int:
        return len(self.entries)


def _exact(x):
    """An int as it is, anything else as a Fraction: both have a numerator
    and a denominator, and ints need no parsing."""
    return x if type(x) is int else rational(x)


def enumerate_quadratic(
    form: QuadraticForm,
    lin: Sequence,
    const,
    bound,
) -> Iterator[tuple[tuple[int, ...], Fraction]]:
    """All integer z with z^T G z + 2 lin.z + const <= bound, with values.

    G is given as its QuadraticForm, so many affine terms share one
    elimination.  Yields (z, value) pairs; the order follows the enumeration
    tree (last coordinate outermost, ascending).

    Everything is scaled by the common denominator s to integers A, b, c and
    B.  The symmetric Bareiss elimination of [[A, b], [b^T, c]] gives the
    pivots p_k of A (p_{-1} = 1), the minors a_jk below them, beta_k = the
    eliminated b_k, and e = the eliminated c = p_{d-1} (c - b^T A^-1 b).  The
    first d steps never touch the border, so A's pivots and minors come from
    the QuadraticForm (scaled by m^(k+1) at step k when s = m * den) and only
    the last row is finished per call: beta_k is that row's entry k after k
    steps, step k replacing each later entry r_j by
    (p_k r_j - beta_k a_jk) / p_{k-1} (with a_dk = beta_k), and e is its last
    entry after d steps.  With t_k = p_k z_k + beta_k + sum_{j>k} a_jk z_j
    the form equals sum_k t_k^2 / (p_k p_{k-1}) + e / p_{d-1}, so after
    multiplying by a common multiple D of the p_k p_{k-1} every level tests
    an integer w_k t_k^2 against an integer budget, and the interval of z_k
    follows from math.isqrt.
    """
    lin = [_exact(x) for x in lin]
    const, bound = _exact(const), _exact(bound)
    d = form.dim
    if len(lin) != d:
        raise StructuralError("linear term has wrong dimension")
    if d == 0:
        if const <= bound:
            yield (), rational(const)
        return
    s = math.lcm(form.den, *(x.denominator for x in (*lin, const, bound)))

    def scale(x) -> int:
        return x.numerator * (s // x.denominator)

    pivots, below = list(form.pivots), form.below
    m = s // form.den
    if m > 1:  # the minors of order k + 1 of m * A
        pivots = [p * m ** (k + 1) for k, p in enumerate(pivots)]
        below = [[a * m ** (k + 1) for a in col] for k, col in enumerate(below)]
    prev = [1] + pivots[:-1]
    row = [scale(x) for x in lin] + [scale(const)]  # the border, finished in place
    beta = []
    for k, (p, q, col) in enumerate(zip(pivots, prev, below)):
        f = row[k]
        beta.append(f)
        row[k + 1:] = [(p * r - f * a) // q for r, a in zip(row[k + 1:], (*col, f))]
    delta = math.lcm(*(p * q for p, q in zip(pivots, prev)))
    weight = [delta // (p * q) for p, q in zip(pivots, prev)]
    top = delta * scale(bound)
    budget = top - delta // pivots[-1] * row[d]
    if budget < 0:
        return
    z = [0] * d
    hi = [0] * d
    shift = [0] * d
    rem = [0] * d + [budget]  # rem[k]: budget left after levels d-1 .. k

    def enter(k: int) -> None:
        shift[k] = sk = beta[k] + sum(map(mul, below[k], z[k + 1:]))
        r = math.isqrt(rem[k + 1] // weight[k])
        z[k] = -((r + sk) // pivots[k])
        hi[k] = (r - sk) // pivots[k]

    k = d - 1
    enter(k)
    while True:
        if z[k] > hi[k]:
            k += 1
            if k == d:
                return
            z[k] += 1
            continue
        t = pivots[k] * z[k] + shift[k]
        rem[k] = rem[k + 1] - weight[k] * t * t
        if k:
            k -= 1
            enter(k)
        else:
            yield tuple(z), Fraction(top - rem[0], delta * s)
            z[0] += 1


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


def _confirmed(g: LatticeGram, vectors, m: int) -> tuple[np.ndarray, np.ndarray]:
    """W and G W^T as arrays, once integer arithmetic independent of the
    enumeration has confirmed that every vector has norm m."""
    peak = max((abs(x) for v in vectors for x in v), default=0) ** 2 * g.dim * g.dim
    peak *= max(abs(x) for row in g.entries for x in row)
    dtype = int_dtype(2 * peak)  # peak bounds every entry of W G W^T
    w = np.array(vectors, dtype=dtype).reshape(len(vectors), g.dim)
    gw = int_product(np.array(g.entries, dtype=dtype), w.T)
    wrong = np.flatnonzero((w * gw.T).sum(axis=1) != m)
    if wrong.size:
        raise InvariantError(f"enumerated vector {vectors[wrong[0]]} does not have norm {m}")
    return w, gw


def _minimal_vectors(g: LatticeGram) -> tuple[int, list[tuple[int, ...]]]:
    """The minimal nonzero norm and its vectors in lexicographic order, from
    one enumeration below the smallest diagonal entry."""
    bound = min(g.entries[i][i] for i in range(g.dim))
    best, found = None, []
    for vec, value in enumerate_quadratic(g.form, [0] * g.dim, 0, bound):
        if any(vec) and (best is None or value <= best):
            if best is None or value < best:
                best, found = value, []
            found.append(vec)
    require(best is not None, "enumeration missed the basis vectors")  # e_i attains the bound
    require(best.denominator == 1, "integer form has a non-integer minimal norm")
    found.sort()
    return int(best), found


def minimal_norm(g: LatticeGram) -> int:
    """Smallest nonzero value of v^T G v, by enumeration below min diagonal."""
    return _minimal_vectors(g)[0]


def short_vectors(g: LatticeGram, m: int) -> ShortVectorSet:
    """Exactly the vectors of Gram norm m, in lexicographic order."""
    if m < 1:
        raise StructuralError(f"norm {m} < 1")
    found = sorted(
        vec for vec, value in enumerate_quadratic(g.form, [0] * g.dim, 0, m) if value == m
    )
    _confirmed(g, found, m)
    return ShortVectorSet(norm=m, vectors=tuple(found))


def kissing_configuration(g: LatticeGram) -> Configuration:
    """Minimal vectors rescaled to the unit sphere, as an exact Gram matrix.

    One enumeration finds the minimal norm m and its vectors W; the Gram
    matrix is handed over as the integer pair (m, W G W^T)."""
    m, found = _minimal_vectors(g)
    vecs = ShortVectorSet(norm=m, vectors=tuple(found))
    w, gw = _confirmed(g, vecs.vectors, m)
    labels = tuple(",".join(str(x) for x in v) for v in vecs.vectors)
    name = g.label or "lattice"
    gram = Scaled(m, int_product(w, gw))
    return Configuration.from_gram(gram, label=f"kissing({name})", point_labels=labels)


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
