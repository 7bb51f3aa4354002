"""Shared fixtures and independent oracles.

The oracles here deliberately avoid the library's code paths: balance is
re-checked from literal coordinate vectors, design strength from monomial
averages, and short vectors from a plain coefficient box.
"""

import sys
from fractions import Fraction
from itertools import combinations, product
from typing import Optional

import numpy as np
import pytest

from balanced.constructors import (
    ConstructionError,
    SrgParams,
    antipodal_union,
    c7_prime,
    cube,
    figure1_adjacency,
    simplex_midpoints,
    srg_spectral_embedding,
)
from balanced.exact import Configuration, StructuralError
from balanced.lattice import bundled_lattice, kissing_configuration


@pytest.fixture(scope="session")
def cube_config():
    return cube()


@pytest.fixture(scope="session")
def c7():
    return simplex_midpoints(7)


@pytest.fixture(scope="session")
def c7p():
    return c7_prime()


@pytest.fixture(scope="session")
def figure1():
    return figure1_adjacency()


@pytest.fixture(scope="session")
def paulus_r(figure1):
    return srg_spectral_embedding(figure1, "r")


@pytest.fixture(scope="session")
def paulus_s(figure1):
    return srg_spectral_embedding(figure1, "s")


@pytest.fixture(scope="session")
def c56(c7):
    return antipodal_union(c7)


@pytest.fixture(scope="session")
def z2_kissing():
    return kissing_configuration(bundled_lattice("z2"))


@pytest.fixture(scope="session")
def d4_kissing():
    return kissing_configuration(bundled_lattice("d4"))


@pytest.fixture(scope="session")
def e8_kissing():
    return kissing_configuration(bundled_lattice("e8"))


def recorded(b: np.ndarray, stages: list) -> np.ndarray:
    """A view of b that appends to `stages` the dtype of every matrix product
    it, or an array cast from it, enters."""

    class Recorded(np.ndarray):
        def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
            inputs = tuple(np.asarray(x) for x in inputs)
            if ufunc is np.matmul:
                stages.append(inputs[0].dtype)
            return getattr(ufunc, method)(*inputs, **kwargs)

    return b.view(Recorded)


def spy_arithmetic(monkeypatch, module, sites: Optional[dict] = None) -> tuple[list, list]:
    """Spy on the arithmetic `module` takes from `balanced.exact`: returns
    (stages, dtypes), in call order the dtype each `int_product` call
    multiplied in (float64, int64 or object) and each dtype `int_dtype`
    returned.  Given `sites`, it also maps every function that made such a
    call, as "module.function", to the set of those dtypes it got."""
    stages, dtypes = [], []
    product, dtype = getattr(module, "int_product", None), module.int_dtype
    name = module.__name__.rpartition(".")[2]

    def at_site(chosen):
        if sites is not None:  # frame 1 is the spy, frame 2 its caller
            site = f"{name}.{sys._getframe(2).f_code.co_name}"
            sites.setdefault(site, set()).add(np.dtype(chosen))
        return chosen

    def multiplied(a, b):
        out = product(a, recorded(b, stages))
        at_site(stages[-1])
        return out

    def chosen(bound):
        dtypes.append(dtype(bound))
        return at_site(dtypes[-1])

    if product is not None:
        monkeypatch.setattr(module, "int_product", multiplied)
    monkeypatch.setattr(module, "int_dtype", chosen)
    return stages, dtypes


def gram_entries(gram) -> tuple[tuple[Fraction, ...], ...]:
    """A Gram matrix as rows of Fractions, read off its value table."""
    return tuple(map(tuple, np.array(gram.values, dtype=object)[gram.colours].tolist()))


def perturbed_square() -> Configuration:
    """Unit square with one vertex slid to a nearby rational circle point
    (Pythagorean parametrization of roughly 100 degrees)."""
    pts = [
        (Fraction(1), Fraction(0)),
        (Fraction(-11, 61), Fraction(60, 61)),
        (Fraction(-1), Fraction(0)),
        (Fraction(0), Fraction(-1)),
    ]
    gram = [[a1 * b1 + a2 * b2 for (b1, b2) in pts] for (a1, a2) in pts]
    return Configuration.from_gram(gram, label="perturbed square")


def count_tetrahedra(c: Configuration, i: int) -> int:
    """Number of 4-subsets through point i with all inner products -1/3."""
    n = c.size
    if not 0 <= i < n:
        raise StructuralError(f"point index {i} out of range")
    if Fraction(-1, 3) not in c.gram.values:
        return 0
    third = c.gram.colours == c.gram.values.index(Fraction(-1, 3))
    nbrs = np.flatnonzero(third[i])
    # the 4-subsets through i are the triangles among its -1/3 neighbours
    sub = third[np.ix_(nbrs, nbrs)].astype(np.int64)
    return int(np.trace(sub @ sub @ sub)) // 6


def srg_params_loop(adjacency) -> SrgParams:
    """The library's former `srg_params`: strong regularity by a triple loop
    over pairs and their common neighbours."""
    n = len(adjacency)
    a = [tuple(int(x) for x in row) for row in adjacency]
    for i, row in enumerate(a):
        if len(row) != n:
            raise ConstructionError(f"adjacency row {i} has length {len(row)}")
        if row[i] != 0:
            raise ConstructionError(f"nonzero diagonal at vertex {i}")
        for j in range(n):
            if row[j] not in (0, 1):
                raise ConstructionError(f"entry [{i}][{j}] not 0/1")
            if a[j][i] != row[j]:
                raise ConstructionError(f"adjacency not symmetric at [{i}][{j}]")
    if n == 0:
        raise ConstructionError("empty graph")
    k = sum(a[0])
    for i in range(n):
        d = sum(a[i])
        if d != k:
            raise ConstructionError(f"not regular: vertex {i} has degree {d}, vertex 0 has {k}")
    if k == 0 or k == n - 1:
        raise ConstructionError(f"degenerate graph (k = {k}): no two eigenvalue classes")
    lam = mu = None
    for i in range(n):
        for j in range(i + 1, n):
            common = sum(a[i][m] & a[j][m] for m in range(n))
            if a[i][j]:
                if lam is None:
                    lam = common
                elif common != lam:
                    raise ConstructionError(
                        f"not strongly regular: adjacent pair ({i},{j}) has "
                        f"{common} common neighbors, expected {lam}"
                    )
            else:
                if mu is None:
                    mu = common
                elif common != mu:
                    raise ConstructionError(
                        f"not strongly regular: non-adjacent pair ({i},{j}) has "
                        f"{common} common neighbors, expected {mu}"
                    )
    return SrgParams(n=n, k=k, lam=lam, mu=mu)


# --- exact rational coordinate models ---------------------------------------


def cube_vectors():
    return [list(v) for v in product((1, -1), repeat=3)]


def cross_vectors(n):
    out = []
    for i in range(n):
        for s in (1, -1):
            v = [0] * n
            v[i] = s
            out.append(v)
    return out


def simplex_vectors(n):
    # (n+1) e_i - all-ones, inside the sum-zero hyperplane of R^(n+1)
    return [
        [(n + 1) * (1 if j == i else 0) - 1 for j in range(n + 1)]
        for i in range(n + 1)
    ]


def midpoint_vectors(n, flip=()):
    """Integer model of the simplex-midpoint family in R^(n+1)."""
    out = []
    for idx, (i, j) in enumerate(combinations(range(1, n + 2), 2)):
        v = [4 * (1 if m + 1 in (i, j) else 0) - 1 for m in range(n + 1)]
        if idx in flip:
            v = [-x for x in v]
        out.append(v)
    return out


def balance_oracle(vectors) -> tuple[bool, list]:
    """Literal shell-sum oracle on exact coordinate vectors.

    Vectors must share one squared norm M.  Shells are grouped by the exact
    dot product; a shell sum S passes iff S * M == (S.v) v componentwise,
    which is proportionality to v without any normalization.
    """
    vecs = [[Fraction(x) for x in v] for v in vectors]
    n = len(vecs)
    dim = len(vecs[0])
    norm2 = sum(x * x for x in vecs[0])
    assert all(sum(x * x for x in v) == norm2 for v in vecs)
    bad = []
    for i, v in enumerate(vecs):
        shells = {}
        for j, w in enumerate(vecs):
            if j != i:
                shells.setdefault(sum(a * b for a, b in zip(v, w)), []).append(j)
        for u, members in shells.items():
            s = [sum(vecs[j][m] for j in members) for m in range(dim)]
            sv = sum(a * b for a, b in zip(s, v))
            if any(s[m] * norm2 != sv * v[m] for m in range(dim)):
                bad.append((i, u))
    return (not bad), bad


def exact_monomial_design_strength(vectors, cap) -> int:
    """Monomial-average design oracle for full-span rational models.

    For a common squared norm M, the configuration average of x^alpha is
    S_alpha / (N * M^{|alpha|/2}); odd-degree monomials must sum to zero and
    even-degree ones must match the closed-form sphere moment.
    """
    from reference_designs import sphere_monomial_average

    vecs = [[Fraction(x) for x in v] for v in vectors]
    n_pts = len(vecs)
    dim = len(vecs[0])
    norm2 = sum(x * x for x in vecs[0])
    assert all(sum(x * x for x in v) == norm2 for v in vecs)
    strength = 0
    for t in range(1, cap + 1):
        ok = True
        for alpha in _exponents(dim, t):
            s = sum(_monomial(v, alpha) for v in vecs)
            if t % 2 == 1:
                if s != 0:
                    ok = False
                    break
            else:
                if Fraction(s, n_pts) != sphere_monomial_average(dim, alpha) * norm2 ** (
                    t // 2
                ):
                    ok = False
                    break
        if not ok:
            break
        strength = t
    return strength


def float_monomial_design_strength(coords: np.ndarray, cap, tol=1e-9) -> int:
    """Same oracle in floats, for span-dimension unit coordinates."""
    from reference_designs import sphere_monomial_average

    n_pts, dim = coords.shape
    strength = 0
    for t in range(1, cap + 1):
        ok = True
        for alpha in _exponents(dim, t):
            avg = float(np.prod(coords ** np.array(alpha), axis=1).mean())
            want = float(sphere_monomial_average(dim, alpha))
            if abs(avg - want) > tol * 100:
                ok = False
                break
        if not ok:
            break
        strength = t
    return strength


def _exponents(dim, total):
    if dim == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _exponents(dim - 1, total - head):
            yield (head,) + rest


def _monomial(v, alpha):
    out = Fraction(1)
    for x, a in zip(v, alpha):
        if a:
            out *= x**a
    return out


def box_short_vectors(gram, m):
    """Brute-force short vectors over the integer box from the dual bound."""
    g = [[Fraction(x) for x in row] for row in gram]
    d = len(g)
    inv = _invert_matrix(g)
    bounds = []
    for i in range(d):
        q = Fraction(m) * inv[i][i]
        b = 0
        while (b + 1) * (b + 1) <= q:
            b += 1
        bounds.append(b)
    hits = []
    for v in product(*(range(-b, b + 1) for b in bounds)):
        val = sum(v[i] * g[i][j] * v[j] for i in range(d) for j in range(d))
        if val == m:
            hits.append(tuple(v))
    return sorted(hits)


def _invert_matrix(g):
    d = len(g)
    a = [[Fraction(x) for x in row] + [Fraction(1 if i == j else 0) for j in range(d)]
         for i, row in enumerate(g)]
    for col in range(d):
        piv = next(r for r in range(col, d) if a[r][col] != 0)
        a[col], a[piv] = a[piv], a[col]
        p = a[col][col]
        a[col] = [x / p for x in a[col]]
        for r in range(d):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return [row[d:] for row in a]


def stereographic_points(n, params):
    """Rational points on S^(n-1) from rational parameter vectors."""
    pts = []
    for t in params:
        t = [Fraction(x) for x in t]
        assert len(t) == n - 1
        norm2 = sum(x * x for x in t)
        denom = 1 + norm2
        pts.append([2 * x / denom for x in t] + [(1 - norm2) / denom])
    return pts
