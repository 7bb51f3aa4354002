"""Exact rational core: scalars, symmetric matrix elimination, configurations.

Everything here is exact. Matrices are tuples of tuples of Fraction at the
interface; eliminations run on the integer matrix den * m in Python ints, so
no floating point and no Fraction arithmetic enters their inner loops.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Optional, Sequence

import numpy as np

Matrix = tuple[tuple[Fraction, ...], ...]

_ZERO = Fraction(0)
_ONE = Fraction(1)


class StructuralError(ValueError):
    """Input violates a structural precondition (shape, symmetry, diagonal)."""


class IndefinitePivotError(StructuralError):
    """No diagonal pivot exists; the matrix is certified not PSD."""


class InvariantError(RuntimeError):
    """An internal soundness check failed, so no verdict can be trusted.

    Not a StructuralError: it signals a defect in this library, never
    malformed input.  The CLI reports it with exit code 4.
    """


def require(condition: bool, message: str) -> None:
    """Soundness check that, unlike `assert`, survives `python -O`."""
    if not condition:
        raise InvariantError(message)


def rational(value) -> Fraction:
    """Coerce an int, Fraction or 'p/q'/'k' string to an exact rational.

    Floats are rejected: the exact pipeline never launders binary
    approximations into rationals.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise StructuralError(f"not a rational: {value!r}") from exc
    raise StructuralError(f"not a rational: {value!r}")


def as_matrix(rows: Iterable[Iterable]) -> Matrix:
    """Build a square rational matrix, validating shape.

    Entries that already are Fractions are kept as they are.
    """
    m = tuple(
        tuple(x if type(x) is Fraction else rational(x) for x in row) for row in rows
    )
    n = len(m)
    for i, row in enumerate(m):
        if len(row) != n:
            raise StructuralError(f"row {i} has length {len(row)}, expected {n}")
    return m


def check_symmetric(m: Sequence[Sequence]) -> None:
    if tuple(zip(*m)) == tuple(map(tuple, m)):
        return
    n = len(m)
    for i in range(n):
        for j in range(i + 1, n):
            if m[i][j] != m[j][i]:
                raise StructuralError(f"not symmetric at entry [{i}][{j}]")


def _scaled(m: Matrix) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """Least common denominator den > 0 and the integer matrix den * m."""
    dens = {x.denominator for row in m for x in row}
    den = math.lcm(*dens)
    mult = {d: den // d for d in dens}
    return den, tuple(tuple(x.numerator * mult[x.denominator] for x in row) for row in m)


def _bareiss(a: list[list[int]]) -> tuple[list[int], list[int]]:
    """Symmetric fraction-free (Bareiss) elimination, in place.

    `a` holds the lower triangle of a symmetric integer matrix, row i being
    entries 0..i.  Pivots are diagonal, in the order of the rational LDL^T:
    at step k the first nonzero remaining diagonal entry, moved to k by a
    transposition.  Each update divides exactly by the previous pivot, so
    every entry stays a minor of the input and grows linearly in bit length.
    The loop stops once the remaining diagonal vanishes; the remaining block
    must then be zero, else IndefinitePivotError.

    Returns (perm, pivots): pivots[k] is the determinant of the leading
    (k+1)-block of the permuted matrix, and on return a[i][k] (k < i,
    k < len(pivots)) is entry (i, k) at step k, so L[i][k] = a[i][k] / pivots[k].
    """
    n = len(a)
    perm = list(range(n))
    pivots: list[int] = []
    prev = 1
    for k in range(n):
        q = next((q for q in range(k, n) if a[q][q]), None)
        if q is None:
            # PSD => zero diagonal forces a zero block; anything else is indefinite
            if any(any(a[i][k:i]) for i in range(k + 1, n)):
                raise IndefinitePivotError(
                    "zero diagonal with nonzero off-diagonal entries; not PSD"
                )
            break
        if q != k:
            _swap(a, k, q)
            perm[k], perm[q] = perm[q], perm[k]
        p = a[k][k]
        col = [row[k] for row in a[k + 1:]]
        for i in range(k + 1, n):
            row = a[i]
            f = col[i - k - 1]
            row[k + 1:] = [(p * x - f * c) // prev for x, c in zip(row[k + 1:], col)]
        pivots.append(p)
        prev = p
    return perm, pivots


def _swap(a: list[list[int]], k: int, q: int) -> None:
    """Symmetric transposition of indices k < q on lower-triangle storage."""
    rk, rq = a[k], a[q]
    rk[:k], rq[:k] = rq[:k], rk[:k]
    rk[k], rq[q] = rq[q], rk[k]
    for j in range(k + 1, q):
        a[j][k], rq[j] = rq[j], a[j][k]
    for row in a[q + 1:]:
        row[k], row[q] = row[q], row[k]


@dataclass(frozen=True)
class _Elimination:
    """The Bareiss elimination of den * m, kept for LDL^T read-outs."""

    den: int
    perm: tuple[int, ...]
    pivots: tuple[int, ...]
    columns: tuple[tuple[int, ...], ...]  # columns[i][k] = a[i][k] for k < rank

    @classmethod
    def of(cls, den: int, scaled: Sequence[Sequence[int]]) -> "_Elimination":
        a = [list(row[: i + 1]) for i, row in enumerate(scaled)]
        perm, pivots = _bareiss(a)
        r = len(pivots)
        return cls(den, tuple(perm), tuple(pivots), tuple(tuple(row[:r]) for row in a))

    @property
    def rank(self) -> int:
        return len(self.pivots)

    @property
    def psd(self) -> bool:
        # D[k] = pivots[k] / (pivots[k-1] den): all D >= 0 iff all pivots > 0
        return all(p > 0 for p in self.pivots)

    def ldl(self):
        """(L, D, perm) of the rational LDL^T, read off the Bareiss minors."""
        n = len(self.perm)
        lower = [[_ONE if i == j else _ZERO for j in range(n)] for i in range(n)]
        diag = [_ZERO] * n
        prev = 1
        for k, p in enumerate(self.pivots):
            diag[k] = Fraction(p, prev * self.den)
            for i in range(k + 1, n):
                if self.columns[i][k]:
                    lower[i][k] = Fraction(self.columns[i][k], p)
            prev = p
        return tuple(map(tuple, lower)), tuple(diag), self.perm


def _eliminate(m) -> _Elimination:
    m = as_matrix(m)
    den, scaled = _scaled(m)
    check_symmetric(scaled)
    return _Elimination.of(den, scaled)


def gram_rank(m: Sequence[Sequence[Fraction]]) -> int:
    """Rank over the rationals, by fraction-free (Bareiss) Gaussian elimination.

    Works on any symmetric rational matrix.  Rows are scaled to integers
    once; each row update divides exactly by the previous pivot, so entries
    stay minors of the scaled matrix instead of doubling in size per pivot.
    """
    m = as_matrix(m)
    check_symmetric(m)
    n = len(m)
    rows = []
    for row in m:
        den = math.lcm(*(x.denominator for x in row))
        rows.append([x.numerator * (den // x.denominator) for x in row])
    rank = 0
    col = 0
    prev = 1
    while col < n and rank < n:
        piv = next((r for r in range(rank, n) if rows[r][col] != 0), None)
        if piv is None:
            col += 1
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        prow = rows[rank][col + 1:]
        p = rows[rank][col]
        for r in range(rank + 1, n):
            row = rows[r]
            f = row[col]
            row[col + 1:] = [(p * a - f * b) // prev for a, b in zip(row[col + 1:], prow)]
        prev = p
        rank += 1
        col += 1
    return rank


def ldl_decompose(m: Sequence[Sequence[Fraction]]):
    """Symmetrically pivoted LDL^T: P m P^T = L D L^T exactly.

    Returns (L, D, perm) with L unit lower-triangular, D the pivot tuple and
    perm the row order, i.e. m[perm[i]][perm[j]] == sum_k L[i][k] D[k] L[j][k].
    The matrix is PSD iff every entry of D is >= 0.  Raises
    IndefinitePivotError when all remaining diagonal entries vanish but the
    block does not (which already certifies the matrix is not PSD).
    """
    return _eliminate(m).ldl()


def is_positive_semidefinite(m: Sequence[Sequence[Fraction]]) -> bool:
    try:
        return _eliminate(m).psd
    except IndefinitePivotError:
        return False


@dataclass(frozen=True)
class GramMatrix:
    """Symmetric unit-diagonal PSD rational matrix of pairwise inner products.

    Validation scales the matrix to integers once (den, scaled) and runs one
    Bareiss elimination on it, which certifies PSD and gives the rank and
    the LDL^T factors.  It also builds the value table that every shell,
    spectrum, histogram and colouring reads: `values` holds the distinct
    entries in ascending order, and the read-only integer array `colours`
    satisfies values[colours[i][j]] == entries[i][j].
    """

    entries: Matrix
    den: int = field(init=False, repr=False, compare=False)
    scaled: tuple[tuple[int, ...], ...] = field(init=False, repr=False, compare=False)
    values: tuple[Fraction, ...] = field(init=False, repr=False, compare=False)
    colours: np.ndarray = field(init=False, repr=False, compare=False)
    _elimination: _Elimination = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        m = as_matrix(self.entries)
        object.__setattr__(self, "entries", m)
        den, scaled = _scaled(m)
        check_symmetric(scaled)
        for i in range(len(m)):
            if scaled[i][i] != den:
                raise StructuralError(f"diagonal entry [{i}][{i}] = {m[i][i]}, expected 1")
        try:
            elim = _Elimination.of(den, scaled)
        except IndefinitePivotError:
            elim = None
        if elim is None or not elim.psd:
            raise StructuralError("matrix is not positive semidefinite")
        # a PSD unit-diagonal matrix has |entries| <= 1, so den bounds every
        # scaled entry; past int64 they stay Python ints (left to itself,
        # numpy stores entries in [2^63, 2^64) as float64)
        dtype = np.int64 if den < 2**63 else object
        distinct, colours = np.unique(np.array(scaled, dtype=dtype), return_inverse=True)
        colours = colours.reshape(len(m), len(m))
        colours.setflags(write=False)
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "scaled", scaled)
        object.__setattr__(self, "values", tuple(Fraction(v, den) for v in distinct.tolist()))
        object.__setattr__(self, "colours", colours)
        object.__setattr__(self, "_elimination", elim)

    @property
    def size(self) -> int:
        return len(self.entries)

    @property
    def rank(self) -> int:
        return self._elimination.rank

    def ldl(self):
        """(L, D, perm) exactly as ldl_decompose(self.entries), without re-eliminating."""
        return self._elimination.ldl()

    def shells(self, i: int) -> tuple[tuple[Fraction, tuple[int, ...]], ...]:
        """The points other than i grouped by inner product with i, ascending:
        (value, members) pairs."""
        order = np.argsort(self.colours[i], kind="stable")
        order = order[order != i]
        keys = self.colours[i][order]
        starts = np.flatnonzero(np.diff(keys, prepend=-1)).tolist()  # one per shell
        return tuple(
            (self.values[keys[a]], tuple(order[a:b].tolist()))
            for a, b in zip(starts, starts[1:] + [len(order)])
        )

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]


@dataclass(frozen=True)
class Configuration:
    """A finite unit-sphere point set, represented by its rational Gram matrix.

    The ambient dimension is the rank of the Gram matrix: the configuration
    lives inside the span of its points.
    """

    gram: GramMatrix
    ambient_dim: int = field(init=False)
    label: Optional[str] = None
    point_labels: Optional[tuple[str, ...]] = None

    def __post_init__(self):
        s = self.gram.scaled
        n = len(s)
        if n == 0:
            raise StructuralError("empty configuration")
        den = self.gram.den
        for i, row in enumerate(s):
            if den in row[i + 1:]:
                j = row.index(den, i + 1)
                raise StructuralError(f"points {i} and {j} coincide (inner product 1)")
        if self.point_labels is not None:
            labels = tuple(str(x) for x in self.point_labels)
            if len(labels) != n:
                raise StructuralError(f"{len(labels)} labels for {n} points")
            object.__setattr__(self, "point_labels", labels)
        object.__setattr__(self, "ambient_dim", self.gram.rank)

    @classmethod
    def from_gram(cls, rows, label=None, point_labels=None) -> "Configuration":
        return cls(gram=GramMatrix(rows), label=label, point_labels=point_labels)

    @property
    def size(self) -> int:
        return self.gram.size


def inner_product_spectrum(c: Configuration) -> tuple[Fraction, ...]:
    """Sorted distinct off-diagonal Gram values (includes -1 for antipodes).

    Distinct points have inner product below 1, so the largest value, 1,
    sits on the diagonal only.
    """
    return c.gram.values[:-1]


def scaled_integer_gram(c: Configuration) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """Common denominator L and the integer matrix L*gram.

    Shared by the balance and design modules so shell sums and moment
    histograms run in integer arithmetic.  Built once, by validation.
    """
    return c.gram.den, c.gram.scaled
