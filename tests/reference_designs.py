"""Single-value design helpers, kept as references for `balanced.designs`.

`gegenbauer_eval` evaluates one ultraspherical polynomial with the library's
recurrence; the tests check it against closed forms and use it to restart the
moment sums per degree.  `sphere_monomial_average` is the closed-form sphere
moment behind the monomial design oracles in `conftest`.
"""

from fractions import Fraction

from balanced.designs import _zonal_series
from balanced.exact import StructuralError


def gegenbauer_eval(n: int, k: int, u: Fraction) -> Fraction:
    """Degree-k ultraspherical polynomial for dimension n, with G_k(1) = 1.

    Three-term recurrence: G_0 = 1, G_1 = u,
    G_k = ((2k+n-4) u G_{k-1} - (k-1) G_{k-2}) / (k+n-3).
    """
    if n < 2:
        raise StructuralError(f"dimension {n} < 2")
    if k < 0:
        raise StructuralError(f"negative degree {k}")
    return list(_zonal_series(n, k, Fraction(u)))[k]


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
