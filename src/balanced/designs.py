"""Spherical design strength and the design-plus-few-distances balance test.

A configuration is a t-design iff the ultraspherical moment sums
sum_{x,y} G_k(<x,y>) vanish for k = 1..t.  The moments are computed exactly
from the Gram value histogram, so no coordinates are ever needed.

They run on integers.  With u = a/den and D_k = prod_{m=2..k} (m+n-3), the
scaled polynomial H_k(a) = D_k den^k G_k(a/den) satisfies H_0 = 1, H_1 = a and
H_k = (2k+n-4) a H_{k-1} - (k-1) f_k den^2 H_{k-2}, f_2 = 1, f_k = k+n-4,
so each moment is one Fraction sum_a mult_a H_k(a) / (D_k den^k).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from operator import mul
from typing import Iterator

import numpy as np

from .exact import Configuration, StructuralError


def _zonal_series(n: int, cap: int, u):
    """G_0(u), ..., G_cap(u) for dimension n, yielded in one pass of the
    recurrence, which holds two terms at a time.  u is a Fraction, or a float
    array evaluated entrywise."""
    prev, cur = u ** 0, u
    yield from (prev, cur)[: cap + 1]
    for m in range(2, cap + 1):
        # on S^0 (n = 1) the only nontrivial harmonic is u itself
        prev, cur = cur, 0 * u if n == 1 else (
            (2 * m + n - 4) * u * cur - (m - 1) * prev) / (m + n - 3)
        yield cur


def check_cap(cap: int) -> None:
    """The design-strength cap, exact or float, must be at least 1."""
    if cap < 1:
        raise StructuralError(f"cap {cap} < 1")


@dataclass(frozen=True)
class DesignVerdict:
    strength: int
    per_k_moment: dict[int, Fraction]  # floats in float mode


def gram_value_counts(c: Configuration) -> Counter:
    """Histogram of Gram values over all ordered pairs, diagonal included."""
    values = c.gram.values
    counts = np.bincount(c.gram.colours.ravel(), minlength=len(values))
    return Counter(dict(zip(values, counts.tolist())))


def design_strength(c: Configuration, cap: int) -> DesignVerdict:
    """Largest verified design strength t* <= cap, with all moment sums."""
    return _design_verdict(_exact_moments(c, cap), cap)


def _strength(moments, cap: int, threshold) -> int:
    """The number of leading moments with |m| <= threshold, at most cap.
    Moments are drawn up to the first that does not vanish."""
    return next((k for k, m in enumerate(moments) if abs(m) > threshold), cap)


def _design_verdict(moments, cap: int, threshold=0) -> DesignVerdict:
    """The verdict of both modes: all cap moments, and the strength they give
    when a moment vanishes if |m| <= threshold (0 in exact mode)."""
    moments = list(moments)
    return DesignVerdict(strength=_strength(moments, cap, threshold),
                         per_k_moment=dict(enumerate(moments, start=1)))


def _exact_moments(c: Configuration, cap: int) -> Iterator[Fraction]:
    """The moment sums of c for k = 1..cap, each computed when drawn."""
    check_cap(cap)
    mults = list(gram_value_counts(c).values())
    return _moments(c.ambient_dim, cap, c.gram.den, c.gram.scaled_values.tolist(), mults)


def _moments(n: int, cap: int, den: int, scaled: list, mults: list) -> Iterator[Fraction]:
    """sum_a mult_a G_k(a/den) for k = 1..cap, by the integer recurrence for
    H_k(a) = D_k den^k G_k(a/den) (module docstring), each computed when drawn."""
    yield Fraction(sum(map(mul, mults, scaled)), den)
    if n == 1:  # on S^0 only G_1 = u is nontrivial
        yield from repeat(Fraction(0), cap - 1)
        return
    prev, h, d = [1] * len(scaled), scaled, 1
    for k in range(2, cap + 1):
        drop = (k - 1) * (1 if k == 2 else k + n - 4) * den * den
        prev, h = h, [(2 * k + n - 4) * a * x - drop * y for a, x, y in zip(scaled, h, prev)]
        d *= k + n - 3
        yield Fraction(sum(map(mul, mults, h)), d * den**k)


@dataclass(frozen=True)
class TheoremOneVerdict:
    per_point_k: tuple[int, ...]
    strength: int
    applies: bool


def theorem1_check(c: Configuration, cap: int) -> TheoremOneVerdict:
    """Balancedness via design strength vs per-point distance counts.

    k_i counts the distinct inner products from point i to the others,
    excluding u = 1 always and u = -1 (on the unit sphere the only point at
    inner product -1 is the antipode).  The sufficient condition applies when
    every k_i is at most the verified strength, that of `design_strength`.
    """
    n, values = c.size, c.gram.values
    present = np.zeros((n, len(values)), dtype=bool)
    present[np.arange(n)[:, None], c.gram.colours] = True
    # the last value, 1, is the diagonal's; -1, if present, is the first
    per_point = present[:, 1 if values[0] == -1 else 0:-1].sum(axis=1).tolist()
    return _theorem1_verdict(per_point, _exact_moments(c, cap), cap)


def _theorem1_verdict(per_point: list, moments, cap: int, threshold=0) -> TheoremOneVerdict:
    """The verdict of both modes: the strength is drawn from the moments only
    up to the first with |m| > threshold, and the condition applies when no
    point sees more distances than that."""
    strength = _strength(moments, cap, threshold)
    return TheoremOneVerdict(per_point_k=tuple(per_point), strength=strength,
                             applies=max(per_point) <= strength)
