"""Exact short-vector enumeration and kissing configurations.

The enumerator is an integer Fincke-Pohst: integers in, integers out.  Its
bounds come from the Bareiss pivots and minors of an integer Gram matrix and
are compared exactly with math.isqrt, so completeness never depends on
floating point.  The affine variant (linear + constant term) is shared with
every Euclidean balance check, finite or periodic, whose points are scaled to
integers before they get here.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import InitVar, dataclass, field
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
    require,
)


@dataclass(frozen=True, eq=False)
class QuadraticForm:
    """A positive definite integer Gram matrix A, validated and eliminated once.

    A is coded and eliminated as a GramMatrix is: `pivots` holds its Bareiss
    pivots p_k and `below[k]` the minors a_jk (j > k) under pivot k, as
    Python ints.  Full rank with every pivot positive makes A positive
    definite, so no pivot was moved.
    """

    rows: InitVar[object]
    pivots: tuple[int, ...] = field(init=False)
    below: tuple[tuple[int, ...], ...] = field(init=False)

    def __post_init__(self, rows):
        den, _, _, scaled = _tabulate(rows)
        if den != 1:
            raise StructuralError("quadratic form is not integral")
        elim = _psd_elimination(1, scaled)
        if elim is None or elim.rank < len(scaled):
            raise StructuralError("quadratic form is not positive definite")
        columns = elim.x.T.tolist()
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


def enumerate_quadratic(
    form: QuadraticForm,
    lin: Sequence[int],
    const: int,
    bound: int,
) -> Iterator[tuple[tuple[int, ...], int]]:
    """All integer z with z^T A z + 2 b.z + c <= B, with values.

    A is given as its QuadraticForm, so many affine terms share one
    elimination; b = lin, c = const and B = bound must be Python ints, and
    every value yielded is one.  Yields (z, value) pairs; the order follows
    the enumeration tree (last coordinate outermost, ascending).

    The symmetric Bareiss elimination of [[A, b], [b^T, c]] gives the pivots
    p_k of A (p_{-1} = 1), the minors a_jk below them, beta_k = the
    eliminated b_k, and e = the eliminated c = p_{d-1} (c - b^T A^-1 b).  The
    first d steps never touch the border, so A's pivots and minors come from
    the QuadraticForm and only the last row is finished per call: beta_k is
    that row's entry k after k steps, step k replacing each later entry r_j
    by (p_k r_j - beta_k a_jk) / p_{k-1} (with a_dk = beta_k), and e is its
    last entry after d steps.  With t_k = p_k z_k + beta_k + sum_{j>k} a_jk z_j
    the form equals sum_k t_k^2 / (p_k p_{k-1}) + e / p_{d-1}, so after
    multiplying by a common multiple D of the p_k p_{k-1} every level tests
    an integer w_k t_k^2 against an integer budget, and the interval of z_k
    follows from math.isqrt.
    """
    for x in (*lin, const, bound):
        if type(x) is not int:
            raise StructuralError(f"enumeration term {x!r} is not an int")
    d = form.dim
    if len(lin) != d:
        raise StructuralError("linear term has wrong dimension")
    if d == 0:
        if const <= bound:
            yield (), const
        return
    pivots, below = form.pivots, form.below
    prev = (1,) + pivots[:-1]
    row = [*lin, const]  # the border, finished in place
    beta = []
    for k, (p, q, col) in enumerate(zip(pivots, prev, below)):
        f = row[k]
        beta.append(f)
        row[k + 1:] = [(p * r - f * a) // q for r, a in zip(row[k + 1:], (*col, f))]
    delta = math.lcm(*(p * q for p, q in zip(pivots, prev)))
    weight = [delta // (p * q) for p, q in zip(pivots, prev)]
    top = delta * bound
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
            yield tuple(z), (top - rem[0]) // delta
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
    found.sort()
    return best, found


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


def bundled_dimension(name: str) -> Optional[int]:
    """N for a name z<N>, read off the name before any matrix is built; None
    for every other name."""
    key = name.lower()
    return int(key[1:]) if key.startswith("z") and key[1:].isdigit() else None


def bundled_lattice(name: str) -> LatticeGram:
    """Load a bundled Gram matrix: z<N>, d4, e8, k12 or leech."""
    key = name.lower()
    n = bundled_dimension(key)
    if n is not None:
        if n < 1:
            raise StructuralError(f"bad lattice dimension in {name!r}")
        rows = tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))
        return LatticeGram(entries=rows, label=f"Z^{n}")
    if key in ("d4", "e8", "k12", "leech"):
        text = resources.files("balanced").joinpath(f"data/lattices/{key}.json").read_text()
        doc = json.loads(text)
        return LatticeGram(entries=tuple(tuple(row) for row in doc["gram"]), label=doc["label"])
    raise StructuralError(f"unknown bundled lattice {name!r} (try one of {_BUNDLED})")
