"""Spherical design strength and the design-plus-few-distances balance test.

A configuration is a t-design iff the ultraspherical moment sums
sum_{x,y} G_k(<x,y>) vanish for k = 1..t.  The moments are computed exactly
from the Gram value histogram, so no coordinates are ever needed.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .exact import Configuration, StructuralError


def gegenbauer_eval(n: int, k: int, u: Fraction) -> Fraction:
    """Degree-k ultraspherical polynomial for dimension n, with G_k(1) = 1.

    Three-term recurrence: G_0 = 1, G_1 = u,
    G_k = ((2k+n-4) u G_{k-1} - (k-1) G_{k-2}) / (k+n-3).
    """
    if n < 2:
        raise StructuralError(f"dimension {n} < 2")
    if k < 0:
        raise StructuralError(f"negative degree {k}")
    return _zonal_series(n, k, Fraction(u))[k]


def _zonal_series(n: int, cap: int, u: Fraction) -> list[Fraction]:
    """[G_0(u), ..., G_cap(u)] for dimension n, in one pass of the recurrence."""
    series = [Fraction(1), u]
    for m in range(2, cap + 1):
        # on S^0 (n = 1) the only nontrivial harmonic is u itself
        series.append(Fraction(0) if n == 1 else (
            (2 * m + n - 4) * u * series[-1] - (m - 1) * series[-2]) / (m + n - 3))
    return series[: cap + 1]


@dataclass(frozen=True)
class DesignVerdict:
    strength: int
    per_k_moment: dict[int, Fraction]


def gram_value_counts(c: Configuration) -> Counter:
    """Histogram of Gram values over all ordered pairs, diagonal included."""
    values = c.gram.values
    counts = np.bincount(c.gram.colours.ravel(), minlength=len(values))
    return Counter(dict(zip(values, counts.tolist())))


def design_strength(c: Configuration, cap: int) -> DesignVerdict:
    """Largest verified design strength t* <= cap, with all moment sums."""
    if cap < 1:
        raise StructuralError(f"cap {cap} < 1")
    n = c.ambient_dim
    moments = dict.fromkeys(range(1, cap + 1), Fraction(0))
    for u, mult in gram_value_counts(c).items():
        for k, zonal in enumerate(_zonal_series(n, cap, u)[1:], start=1):
            moments[k] += mult * zonal
    strength = 0
    for k in range(1, cap + 1):
        if moments[k] != 0:
            break
        strength = k
    return DesignVerdict(strength=strength, per_k_moment=moments)


def sphere_monomial_average(n: int, alpha) -> Fraction:
    """Average of the monomial x^alpha over the unit sphere in R^n.

    Zero when any exponent is odd; otherwise
    prod_i (alpha_i - 1)!!  /  (n (n+2) ... (n + |alpha| - 2)).
    """
    if n < 1:
        raise StructuralError(f"dimension {n} < 1")
    alpha = tuple(int(a) for a in alpha)
    if any(a < 0 for a in alpha):
        raise StructuralError("negative exponent")
    if any(a % 2 for a in alpha):
        return Fraction(0)
    total = sum(alpha)
    num = 1
    for a in alpha:
        for odd in range(1, a, 2):
            num *= odd
    den = 1
    for k in range(n, n + total - 1, 2):
        den *= k
    return Fraction(num, den)


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
    every k_i is at most the verified strength.
    """
    per_point = [
        sum(abs(u) != 1 for u, _ in c.gram.shells(i)) for i in range(c.size)
    ]
    verdict = design_strength(c, cap)
    applies = max(per_point) <= verdict.strength
    return TheoremOneVerdict(
        per_point_k=tuple(per_point), strength=verdict.strength, applies=applies
    )
