"""Exact rational core: scalars, symmetric matrix elimination, configurations.

Everything here is exact.  A matrix is stored as (den, M): a positive common
denominator and the symmetric integer numpy array M = den * m.  Eliminations
run on M, so no floating point and no Fraction arithmetic enters their inner
loops; Fractions appear in the value table and at the interface only.

One rule, in this module alone, picks the arithmetic of every integer array
from a bound its site proves on every |entry|: `int_dtype` gives int64 below
2^63, Python ints (object dtype) past it; `int_product` bounds a @ b by
k max|a| max|b| (k the inner dimension) and runs in float64 BLAS below 2^53,
every partial sum an exact integer, else in `int_dtype`.  The other sites:

    exact._tabulate                 max(den, max|M|)
    exact._bareiss, each step       2 b^2, b >= max|panel|, measured past 2^31
    exact._bareiss, each block      (max|S| + 1)(|p| + e max|W|), W S[:e] by int_product
    balance._not_radial             n max|X|^2, the cross products
    balance._violations             n max|M| (den + max|M|), the deviations
    lattice._confirmed              2 d^2 max|G| max|W|^2
    symmetry._signature_table       n^k, for k edge colours
    symmetry._orbit_rank            n max|X|, the orbit sums
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import InitVar, dataclass, field
from fractions import Fraction
from itertools import chain
from typing import NamedTuple, Optional, Sequence

import numpy as np

_ZERO = Fraction(0)
_ONE = Fraction(1)
_INT64 = 2**63  # int64 holds every integer of absolute value below this
_FLOAT_EXACT = 2**53  # float64 holds every integer of absolute value up to this
# entry types the coder accepts; a float or bool would share a code with an
# equal int and so slip past rational()
_RATIONAL_TYPES = frozenset((str, int, Fraction))
_PANEL = 16  # the pivot columns one block of the elimination carries


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

    Floats and booleans are rejected: the exact pipeline never launders
    binary approximations into rationals, and a JSON true is not 1.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise StructuralError(f"not a rational: {value!r}") from exc
    if isinstance(value, float):
        raise StructuralError(f"{value!r} is a float; exact input carries rationals as strings")
    raise StructuralError(f"not a rational: {value!r}")


def _is_integer(x) -> bool:
    """A Python or numpy integer, not a bool: a float or string would be
    truncated or parsed into a value it was never given."""
    return type(x) is not bool and isinstance(x, (int, np.integer))


def check_labels(label, point_labels=None) -> None:
    """A label is a string or None, and point labels are strings."""
    if label is not None and not isinstance(label, str):
        raise StructuralError("'label' must be a string")
    if point_labels is not None and not all(isinstance(s, str) for s in point_labels):
        raise StructuralError("point labels must be strings")


def row_tuples(rows, what: str) -> list[tuple]:
    """The rows of a matrix input, as tuples.  The matrix and each row must
    be a list, tuple or array: a string would be read one character at a
    time, a dict by its keys."""
    if not isinstance(rows, (list, tuple, np.ndarray)):
        raise StructuralError(f"{what} must be a list of rows, not {type(rows).__name__}")
    out = []
    for i, row in enumerate(rows):
        if not isinstance(row, (list, tuple, np.ndarray)):
            raise StructuralError(
                f"{what}[{i}] must be a list of entries, not {type(row).__name__}")
        out.append(tuple(row))
    return out


def int_dtype(bound: int) -> type:
    """int64 for integers of absolute value at most bound < 2^63, else object."""
    return np.int64 if bound < _INT64 else object


def int_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The exact product a @ b of integer or boolean arrays: int64, or Python
    ints when k max|a| max|b| reaches 2^63.  Below 2^53 it runs in float64."""
    bound = a.shape[-1]
    for x in (a, b):  # a boolean array's max is 1, by its dtype
        bound *= 1 if x.dtype == bool else int(np.abs(x).max(initial=0))
    if bound < _FLOAT_EXACT:
        return (a.astype(np.float64) @ b.astype(np.float64)).astype(np.int64)
    dtype = int_dtype(bound)
    return a.astype(dtype, copy=False) @ b.astype(dtype, copy=False)


def _first_pair(mask: np.ndarray) -> Optional[tuple[int, int]]:
    """The first (i, j) with i < j in row-major order where the square mask is
    true, or None."""
    upper = np.triu(mask, 1).ravel()
    if not upper.any():
        return None
    return divmod(int(upper.argmax()), len(mask))


class Scaled(NamedTuple):
    """An integer matrix over a positive denominator: entry [i][j] is
    matrix[i][j] / den.  GramMatrix accepts it in place of rational rows."""

    den: int
    matrix: np.ndarray


class Coded(NamedTuple):
    """A square matrix given by its distinct entries: entry [i][j] is
    tokens[codes[i, j]], a rational as `rational` takes it, and every token is
    used.  GramMatrix accepts it in place of rational rows, so a reader that
    has coded the entries parses each distinct one once."""

    tokens: Sequence
    codes: np.ndarray


# (den, table, codes): a square rational matrix coded by its distinct entries,
# entry [i][j] being table[codes[i, j]] / den with integers in the table
_Encoded = tuple[int, list[int], np.ndarray]


def _distinct(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct entries of m ascending, and the intp array of the index of
    each entry of m among them: one sort, then a binary search per entry."""
    distinct = np.sort(m, axis=None)
    first = np.ones(distinct.size, dtype=bool)  # of each run of equal entries
    first[1:] = distinct[1:] != distinct[:-1]
    distinct = distinct[first]
    return distinct, np.searchsorted(distinct, m)


def _coding(m: np.ndarray) -> Optional[int]:
    """k, when m is an intp array whose entries are 0, 1, ..., k-1, each of
    them present; else None."""
    if m.dtype != np.intp or m.min(initial=0) != 0 or m.max(initial=0) >= m.size:
        return None
    counts = np.bincount(m.ravel())
    return len(counts) if np.count_nonzero(counts) == len(counts) else None


def _parse_tokens(tokens, codes: np.ndarray) -> _Encoded:
    """Parse and scale each token once.  A token that is not a rational is
    named at its first entry in row-major order."""
    values, errors = [], {}
    for k, x in enumerate(tokens):
        try:
            values.append(rational(x))
        except StructuralError as exc:
            errors[k] = exc
    if errors:
        i, j = np.argwhere(np.isin(codes, list(errors)))[0].tolist()
        exc = errors[int(codes[i, j])]
        raise StructuralError(f"gram[{i}][{j}]: {exc}") from exc
    den = math.lcm(*(v.denominator for v in values))
    return den, [v.numerator * (den // v.denominator) for v in values], codes


def _encode(rows) -> _Encoded:
    """Code a square matrix of ints, Fractions and 'p/q' strings, parsing and
    scaling each distinct entry once.  The first entry in row-major order that
    is not a rational is named in the error."""
    rows = row_tuples(rows, "gram")
    n = len(rows)
    for i, row in enumerate(rows):
        if len(row) != n:
            raise StructuralError(f"row {i} has length {len(row)}, expected {n}")
    index: defaultdict = defaultdict()
    index.default_factory = index.__len__  # a new entry gets the next code
    try:
        codes = np.fromiter(map(index.__getitem__, chain.from_iterable(rows)), np.intp, n * n)
    except TypeError:  # an unhashable entry, named by the scan below
        codes = None
    # a float or bool never shares a key with a str, so string keys alone
    # mean string entries alone; otherwise every entry's type is checked
    if codes is None or not all(type(x) is str for x in index):
        if not _RATIONAL_TYPES.issuperset(map(type, chain.from_iterable(rows))):
            for i, row in enumerate(rows):
                for j, x in enumerate(row):
                    try:
                        rational(x)
                    except StructuralError as exc:
                        raise StructuralError(f"gram[{i}][{j}]: {exc}") from exc
    return _parse_tokens(list(index), codes.reshape(n, n))  # in order of first occurrence


def _encode_coded(tokens, codes) -> _Encoded:
    """Check a Coded pair and parse and scale each token once."""
    codes = np.asarray(codes)
    if codes.ndim != 2 or codes.shape[0] != codes.shape[1] or _coding(codes) != len(tokens):
        raise StructuralError("expected a square intp code matrix that uses each of its tokens")
    return _parse_tokens(tokens, codes)


def _encode_scaled(den: int, m) -> _Encoded:
    """Code an integer matrix over den, reduced by the gcd of den and its
    entries.  An intp matrix whose entries are 0, 1, ..., k-1 already, each
    of them present, is its own codes: it is kept, not copied."""
    m = np.asarray(m)
    if den <= 0 or m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise StructuralError("expected a square integer matrix over a positive denominator")
    k = _coding(m)
    if k is not None:
        table, codes = list(range(k)), m
    else:
        distinct, codes = _distinct(m)
        table = distinct.tolist()
    g = math.gcd(den, *table)
    return den // g, [v // g for v in table], codes


def _tabulate(rows) -> tuple[int, np.ndarray, np.ndarray, np.ndarray]:
    """(den, distinct, colours, M) of a symmetric matrix given as rational rows
    or a Scaled or Coded pair, the one way a square matrix comes in: its common
    denominator, its distinct scaled entries ascending, the read-only colour of
    every entry and the read-only integer matrix M = distinct[colours], in
    `int_dtype`: left to itself numpy stores integers in [2^63, 2^64) as
    uint64, larger as float64."""
    if isinstance(rows, Scaled):
        den, table, codes = _encode_scaled(*rows)
    elif isinstance(rows, Coded):
        den, table, codes = _encode_coded(*rows)
    else:
        den, table, codes = _encode(rows)
    dtype = int_dtype(max(max(map(abs, table), default=0), den))
    distinct, inverse = np.unique(np.array(table, dtype=dtype), return_inverse=True)
    colours = inverse.reshape(-1)[codes]
    if not (colours == colours.T).all():
        raise StructuralError("not symmetric at entry [%d][%d]" % _first_pair(colours != colours.T))
    m = distinct[colours]
    colours.setflags(write=False)
    m.setflags(write=False)
    return den, distinct, colours, m


def _swap_rows(a: np.ndarray, i: int, j: int) -> None:
    row = a[i].copy()
    a[i] = a[j]
    a[j] = row


def _transpose(a: np.ndarray, i: int, j: int) -> None:
    """Exchange rows i and j, then columns i and j, of a in place."""
    _swap_rows(a, i, j)
    _swap_rows(a.T, i, j)


def _bareiss(a: np.ndarray) -> tuple[list[int], list[int], np.ndarray]:
    """Symmetric fraction-free (Bareiss) elimination of a full symmetric
    integer matrix, overwriting it.

    Pivots are diagonal, in the order of the rational LDL^T: at step k the
    first nonzero remaining diagonal entry, moved to k by a symmetric
    transposition.  Each step multiplies by its pivot and divides exactly by
    the previous one, so every entry stays a minor of the input and grows
    linearly in bit length; once past int64 it stays in Python ints.

    The steps run in blocks, Bareiss's multistep form.  A block's panel is
    the next _PANEL columns of the remaining block S, or all of S when S is
    at most 2 _PANEL wide.  Each step takes its pivot from the panel and
    updates the panel alone.  A panel narrower than S also reduces its
    pivoted columns (Gauss-Jordan), so that after e steps they hold
    W = p X X_e^-1: p the last pivot, X the block's pivot columns and X_e
    their first e rows.  By Sylvester's identity one exact rank-e product
    then brings the rest of S up to date, S' = (p S - W S[:e]) / q with q
    the pivot before the block.  A block ends when its panel has no nonzero
    diagonal entry left, so a pivot from outside the panel starts the next
    block.  The elimination ends when no remaining diagonal entry is
    nonzero; the remaining block must then be zero, else
    IndefinitePivotError.

    Returns (perm, pivots, a): pivots[k] is the determinant of the leading
    (k+1)-block of the permuted matrix, and a[i][k] (k < i, k < len(pivots))
    is entry (i, k) at step k, so L[i][k] = a[i][k] / pivots[k].
    """
    n = len(a)
    perm = list(range(n))
    pivots: list[int] = []

    def exchange(i: int, j: int) -> None:
        _transpose(a, i, j)
        perm[i], perm[j] = perm[j], perm[i]

    k = 0
    while k < n:
        nonzero = np.flatnonzero(a.diagonal()[k:])
        if not nonzero.size:
            # PSD => zero diagonal forces a zero block; anything else is indefinite
            if a[k:, k:].any():
                raise IndefinitePivotError(
                    "zero diagonal with nonzero off-diagonal entries; not PSD"
                )
            break
        if nonzero[0]:
            exchange(k, k + int(nonzero[0]))
        m = n - k
        width = m if m <= 2 * _PANEL else _PANEL
        z = a[k:, k:k + width].copy()
        top = max(int(a[k:, k:].max()), -int(a[k:, k:].min())) if a.dtype != object else 0
        bound = top  # of every |z[i:]|, rising as 2 bound^2 / |previous pivot| per step
        for i in range(width):
            if not z[i, i]:  # the panel's positions come first, so the first of all
                nonzero = np.flatnonzero(z.diagonal()[i:])
                if not nonzero.size:
                    break
                q = i + int(nonzero[0])
                _transpose(z, i, q)
                exchange(k + i, k + q)
            lo = 0 if width < m else i  # a partial panel reduces its pivot columns
            p, prev = int(z[i, i]), pivots[-1] if pivots else 1
            if z.dtype != object and int_dtype(2 * bound**2) is object:  # |p z - c r| <= 2 bound^2
                bound = int(np.abs(z[i:, lo:]).max())
                z = z.astype(int_dtype(2 * bound**2), copy=False)
                a = a.astype(z.dtype, copy=False)
            a[k + i:, k + i] = z[i:, i]
            col = a[k + i + 1:, k + i]
            below = z[i + 1:, lo:]
            below *= p
            below -= col[:, None] * z[i, lo:]
            if prev != 1:
                below //= prev
            below[:, i - lo] = col
            pivots.append(p)
            if z.dtype != object:  # Python ints need no bound, and squaring it grows without end
                bound = max(bound, 2 * bound**2 // abs(prev))
        e = len(pivots) - k
        if width == m:
            a[k + e:, k + e:] = z[e:, e:]
        else:
            w = z[e:, :e]
            product = int_product(w, a[k:k + e, k + e:])
            last = pivots[-1]
            if a.dtype != object:  # |a[k:, k + e:]| <= top: the block left it as it was
                a = a.astype(int_dtype((top + 1) * (abs(last) + e * int(np.abs(w).max()))),
                             copy=False)
            rest = a[k + e:, k + e:]
            rest *= last
            rest -= product
            if k:
                rest //= pivots[k - 1]
        k += e
    return perm, pivots, a


@dataclass(frozen=True)
class _Elimination:
    """The Bareiss elimination of den * m, run in panel blocks by `_bareiss`,
    whose output does not depend on the blocks.  x is the read-only n x r integer
    array of its columns in the input's labelling, x[perm[i], k] = a[i][k] for
    k <= i and 0 for k > i, so den * m = x diag(1 / (p_{k-1} p_k)) x^T with
    p_k = pivots[k], p_{-1} = 1: x has full column rank r."""

    den: int
    perm: tuple[int, ...]
    pivots: tuple[int, ...]
    x: np.ndarray

    @classmethod
    def of(cls, den: int, scaled: np.ndarray) -> "_Elimination":
        perm, pivots, a = _bareiss(scaled.copy())
        x = np.empty_like(a[:, :len(pivots)])
        x[perm] = np.tril(a[:, :len(pivots)])
        x.setflags(write=False)
        return cls(den, tuple(perm), tuple(pivots), x)

    @property
    def rank(self) -> int:
        return len(self.pivots)

    @property
    def psd(self) -> bool:
        # D[k] = pivots[k] / (pivots[k-1] den): all D >= 0 iff all pivots > 0
        return all(p > 0 for p in self.pivots)

    def ldl(self):
        """(L, D, perm) of the rational LDL^T, read off the Bareiss minors."""
        n, r, pivots = len(self.perm), self.rank, self.pivots
        lower = tuple(
            tuple(_ONE if k == i else Fraction(row[k], pivots[k]) if k < r and row[k] else _ZERO
                  for k in range(n))
            for i, row in enumerate(self.x[list(self.perm)].tolist()))
        diag = tuple(Fraction(p, q * self.den) for p, q in zip(pivots, (1,) + pivots))
        return lower, diag + (_ZERO,) * (n - r), self.perm


def _eliminate(m) -> _Elimination:
    den, _, _, scaled = _tabulate(m)
    return _Elimination.of(den, scaled)


def _psd_elimination(den: int, scaled: np.ndarray) -> Optional[_Elimination]:
    """The elimination of den * m, or None when m is not PSD."""
    try:
        elim = _Elimination.of(den, scaled)
    except IndefinitePivotError:
        return None
    return elim if elim.psd else None


def integer_rank(a: np.ndarray) -> int:
    """Rank over the rationals of an integer matrix A.

    A A^T and A^T A are PSD with the rank of A, so the symmetric Bareiss
    elimination of the smaller one never meets an indefinite block and its
    pivot count is the rank.
    """
    if len(a) > a.shape[1]:
        a = a.T
    return len(_bareiss(int_product(a, a.T))[1])


def gram_rank(m: Sequence[Sequence[Fraction]]) -> int:
    """Rank over the rationals of any symmetric rational matrix."""
    return integer_rank(_tabulate(m)[3])


def ldl_decompose(m: Sequence[Sequence[Fraction]]):
    """Symmetrically pivoted LDL^T: P m P^T = L D L^T exactly.

    Returns (L, D, perm) with L unit lower-triangular, D the pivot tuple and
    perm the row order, i.e. m[perm[i]][perm[j]] == sum_k L[i][k] D[k] L[j][k].
    The matrix is PSD iff every entry of D is >= 0.  Raises
    IndefinitePivotError when all remaining diagonal entries vanish but the
    block does not (which already certifies the matrix is not PSD).
    """
    return _eliminate(m).ldl()


@dataclass(frozen=True, eq=False)
class GramMatrix:
    """Symmetric unit-diagonal PSD rational matrix of pairwise inner products.

    Built from rows of rationals (ints, Fractions or 'p/q' strings), from a
    Scaled(den, matrix) integer pair or from a Coded(tokens, codes) pair.
    Validation codes the entries, parsing
    and scaling each distinct entry once, and keeps (den, scaled): the common
    denominator and the read-only integer array den * m.  One Bareiss
    elimination of `scaled` certifies PSD and gives the rank, the LDL^T
    factors and the integer coordinates `elimination.x` that the balance,
    fixed-subspace and coordinate read-outs use.  The same pass builds the
    value table that every shell, spectrum, histogram and colouring reads:
    `values` holds the distinct entries in ascending order, and the read-only
    integer array `colours` satisfies values[colours[i][j]] == G[i][j].
    """

    rows: InitVar[object]
    den: int = field(init=False, repr=False)
    scaled: np.ndarray = field(init=False, repr=False)
    values: tuple[Fraction, ...] = field(init=False)
    colours: np.ndarray = field(init=False, repr=False)
    elimination: _Elimination = field(init=False, repr=False)

    def __post_init__(self, rows):
        den, distinct, colours, scaled = _tabulate(rows)
        wrong = np.flatnonzero(scaled.diagonal() != den)
        if wrong.size:
            i = int(wrong[0])
            value = Fraction(int(scaled[i, i]), den)
            raise StructuralError(f"diagonal entry [{i}][{i}] = {value}, expected 1")
        elim = _psd_elimination(den, scaled)
        if elim is None:
            raise StructuralError("matrix is not positive semidefinite")
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "scaled", scaled)
        object.__setattr__(self, "values", tuple(Fraction(v, den) for v in distinct.tolist()))
        object.__setattr__(self, "colours", colours)
        object.__setattr__(self, "elimination", elim)

    def __eq__(self, other):
        if not isinstance(other, GramMatrix):
            return NotImplemented
        return self.values == other.values and np.array_equal(self.colours, other.colours)

    def __hash__(self):
        return hash((self.values, self.colours.tobytes()))

    @property
    def size(self) -> int:
        return len(self.colours)

    @property
    def rank(self) -> int:
        return self.elimination.rank

    def __getitem__(self, ij):
        i, j = ij
        return self.values[self.colours[i, j]]


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
        check_labels(self.label, self.point_labels)
        n = self.gram.size
        if n == 0:
            raise StructuralError("empty configuration")
        # the largest value of a unit-diagonal PSD matrix is 1, on the diagonal
        ones = self.gram.colours == len(self.gram.values) - 1
        if np.count_nonzero(ones) > n:
            raise StructuralError("points %d and %d coincide (inner product 1)" % _first_pair(ones))
        if self.point_labels is not None:
            labels = tuple(self.point_labels)
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
