#!/usr/bin/env python3
"""Generate the bundled lattice Gram matrices (D4, E8, K12, Leech) from code
constructions and verify them against catalogue invariants before writing
JSON assets into src/balanced/data/lattices/.

  D4    {x in Z^4 : sum even}
  E8    D8 plus the half-integer glue vector, scaled by 2
  K12   {v in Z[w]^6 : v mod 2 in hexacode}, w a primitive cube root of unity
  Leech even/odd classes over the binary Golay code, scaled by sqrt(8)

Verification: determinants, evenness, minimal norms and kissing numbers
(24 / 240 / 756; Leech gets the norm-2 emptiness check that, with det 1 and
evenness, pins it uniquely; --full also counts the 196560 minimal vectors).
Every check raises InvariantError, so `python -O` keeps them all.
`asset_text(name, gram)` verifies a Gram matrix and returns the asset's JSON
text without writing it; `main` builds, verifies and writes all four.

  python3 tools/make_lattice_assets.py [--full]
"""

import argparse
import json
import math
import sys
import time
from collections import Counter
from fractions import Fraction
from functools import reduce
from itertools import combinations, product
from operator import xor
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np

from balanced.exact import InvariantError, int_product, require
from balanced.lattice import LatticeGram, enumerate_quadratic, minimal_norm, short_vectors

OUT = Path(__file__).resolve().parents[1] / "src" / "balanced" / "data" / "lattices"


def hnf_basis(rows, n):
    """Row-reduce an integer generator stack to a full-rank triangular basis."""
    rows = [list(r) for r in rows if any(r)]
    pivrow = 0
    for col in range(n):
        while True:
            nz = [i for i in range(pivrow, len(rows)) if rows[i][col] != 0]
            if not nz:
                break
            i0 = min(nz, key=lambda i: abs(rows[i][col]))
            rows[pivrow], rows[i0] = rows[i0], rows[pivrow]
            p = rows[pivrow][col]
            reduced = True
            for i in range(pivrow + 1, len(rows)):
                q = rows[i][col] // p
                if q:
                    rows[i] = [a - q * b for a, b in zip(rows[i], rows[pivrow])]
                if rows[i][col] != 0:
                    reduced = False
            if reduced:
                break
        if pivrow < len(rows) and rows[pivrow][col] != 0:
            if rows[pivrow][col] < 0:
                rows[pivrow] = [-x for x in rows[pivrow]]
            pivrow += 1
    require(pivrow == n, f"generator stack has rank {pivrow}, expected {n}")
    return rows[:n]


def lll_reduce(basis, form=None, delta=None):
    """Exact rational LLL (delta = 3/4) so the committed Grams give
    well-behaved enumeration trees.  Tool-side preprocessing only: the
    package itself performs no basis reduction."""
    delta = delta or Fraction(3, 4)
    b = [list(v) for v in basis]
    n = len(b)

    def ip(u, v):
        if form is None:
            return Fraction(sum(a * c for a, c in zip(u, v)))
        return Fraction(
            sum(u[i] * form[i][j] * v[j] for i in range(len(u)) for j in range(len(v)))
        )

    def gso():
        mu = [[Fraction(0)] * n for _ in range(n)]
        norms = [Fraction(0)] * n
        star = [[Fraction(x) for x in v] for v in b]
        for i in range(n):
            for j in range(i):
                mu[i][j] = ip(b[i], star[j]) / norms[j] if norms[j] else Fraction(0)
                star[i] = [x - mu[i][j] * y for x, y in zip(star[i], star[j])]
            norms[i] = ip(star[i], star[i])
        return mu, norms

    def size_reduce(mu, k):
        for j in range(k - 1, -1, -1):
            q = round(mu[k][j])
            if q:
                b[k] = [x - q * y for x, y in zip(b[k], b[j])]
                for jj in range(j):
                    mu[k][jj] -= q * mu[j][jj]
                mu[k][j] -= q

    k = 1
    mu, norms = gso()
    while k < n:
        size_reduce(mu, k)
        if norms[k] >= (delta - mu[k][k - 1] ** 2) * norms[k - 1]:
            k += 1
        else:
            b[k], b[k - 1] = b[k - 1], b[k]
            mu, norms = gso()
            k = max(k - 1, 1)
    return b


def gram_matrix(basis, den, form=None):
    """The Gram matrix B F B^T / den of the basis rows B under the form F
    (the identity when None), refused unless den divides every entry."""
    b = np.array(basis)
    gram = int_product(b if form is None else int_product(b, np.array(form)), b.T)
    quotient, remainder = np.divmod(gram, den)
    require(not remainder.any(), f"Gram entry not divisible by {den}")
    return quotient.tolist()


def sum_even_generators(n):
    """e_i + e_j and e_i - e_j for i < j, which span D_n."""
    return [[1 if k == i else sj if k == j else 0 for k in range(n)]
            for i, j in combinations(range(n), 2) for sj in (1, -1)]


def build_d4():
    basis = lll_reduce(hnf_basis(sum_even_generators(4), 4))
    return gram_matrix(basis, 1)


def build_e8():
    gens = [[2 * x for x in v] for v in sum_even_generators(8)]
    gens.append([1] * 8)
    basis = lll_reduce(hnf_basis(gens, 8))
    return gram_matrix(basis, 4)


# --- K12 via the hexacode ----------------------------------------------------

# GF(4) encoded 0,1,2,3 with 2 = w, 3 = w^2 = w+1; addition is xor
_MUL = [[0, 0, 0, 0], [0, 1, 2, 3], [0, 2, 3, 1], [0, 3, 1, 2]]
_CONJ = [0, 1, 3, 2]


def find_hexacode():
    """Lexicographically first hermitian self-dual [6,3,4] code [I|A] over GF(4)."""
    rows = list(product(range(4), repeat=3))
    # the hermitian inner product of every pair of candidate rows of A
    dot = {(u, v): reduce(xor, (_MUL[x][_CONJ[y]] for x, y in zip(u, v)))
           for u in rows for v in rows}
    for a in product(rows, repeat=3):
        if any(dot[a[i], a[j]] != (i == j) for i in range(3) for j in range(3)):
            continue
        gens = [[1 if c == i else 0 for c in range(3)] + list(a[i]) for i in range(3)]
        if weights(span(gens, 4)) == {0: 1, 4: 45, 6: 18}:
            return gens
    raise InvariantError("no hexacode found")


def span(gens, q):
    """Every combination of the rows gens with coefficients in GF(q), q = 2 or 4."""
    words = [(0,) * len(gens[0])]
    for g in gens:
        words = [tuple(a ^ _MUL[c][b] for a, b in zip(w, g)) for w in words for c in range(q)]
    return words


def weights(words):
    """How many words have each number of nonzero entries."""
    return Counter(len(w) - w.count(0) for w in words)


def _lift_gf4(x):
    # exact algebraic lifts: w^2 = -1 - w
    return {0: (0, 0), 1: (1, 0), 2: (0, 1), 3: (-1, -1)}[x]


def _times_omega(a, b):
    # (a + bw) w = -b + (a - b) w
    return -b, a - b


def build_k12():
    gens_f4 = find_hexacode()
    real_gens = []
    for g in gens_f4:
        lifted = [_lift_gf4(x) for x in g]
        twisted = [_times_omega(a, b) for a, b in lifted]
        real_gens.append([x for ab in lifted for x in ab])
        real_gens.append([x for ab in twisted for x in ab])
    real_gens += [[2 if k == m else 0 for k in range(12)] for m in range(12)]
    # the norm form of Z[w]^6: 2 on the diagonal, -1 within each coordinate pair
    form = [[2 if k == m else -1 if k // 2 == m // 2 else 0 for k in range(12)] for m in range(12)]
    basis = lll_reduce(hnf_basis(real_gens, 12), form=form)
    return gram_matrix(basis, 2, form)


# --- Leech via the binary Golay code -----------------------------------------


def golay_basis():
    """Extended [24,12,8] Golay generator rows, verified by weight enumerator."""
    for coeffs in (
        (11, 9, 7, 6, 5, 1, 0),
        (11, 10, 6, 5, 4, 2, 0),  # reciprocal, in case of convention mismatch
    ):
        rows = []
        for i in range(12):
            row = [1 if k - i in coeffs else 0 for k in range(23)]
            rows.append(row + [sum(row) % 2])
        if weights(span(rows, 2)) == {0: 1, 8: 759, 12: 2576, 16: 759, 24: 1}:
            return rows
    raise InvariantError("Golay construction failed its weight enumerator check")


def build_leech():
    rows = golay_basis()
    gens = [[2 * b for b in r] for r in rows]
    gens += [[4] + [4 if k == j else 0 for k in range(1, 24)] for j in range(1, 24)]
    gens += [[8] + [0] * 23, [-3] + [1] * 23]
    basis = hnf_basis(gens, 24)
    covolume = math.prod(row[i] for i, row in enumerate(basis))
    require(covolume == 8**12, f"Leech covolume {covolume} != 8^12")
    return gram_matrix(lll_reduce(basis), 8)


# name: label, construction, determinant, minimal norm, kissing number
LATTICES = {
    "d4": ("D4", build_d4, 4, 2, 24),
    "e8": ("E8", build_e8, 1, 2, 240),
    "k12": ("K12", build_k12, 729, 4, 756),
    "leech": ("Leech", build_leech, 1, 4, 196560),
}


def asset_text(name, gram, full=False):
    """The JSON text of the named asset, once gram has the catalogue's
    determinant (the last Bareiss pivot of its positive definite form), is
    even, and has its minimal norm and kissing number."""
    label, _, expect_det, expect_min, expect_kissing = LATTICES[name]
    lat = LatticeGram(entries=tuple(tuple(r) for r in gram), label=label)
    d = lat.form.pivots[-1]
    require(d == expect_det, f"{name}: det {d} != {expect_det}")
    require(all(row[i] % 2 == 0 for i, row in enumerate(gram)), f"{name}: not even")
    t0 = time.time()
    if name == "leech" and not full:
        hits = [v for v, q in enumerate_quadratic(lat.form, [0] * 24, 0, 2) if any(v)]
        require(not hits, f"{name}: found vectors of norm <= 2")
        print(f"  {name}: det {d}, even, no roots of norm <= 2 "
              f"({time.time() - t0:.1f}s); kissing check skipped (use --full)")
    else:
        m = minimal_norm(lat)
        require(m == expect_min, f"{name}: min norm {m} != {expect_min}")
        count = len(short_vectors(lat, m))
        require(count == expect_kissing, f"{name}: kissing {count} != {expect_kissing}")
        print(f"  {name}: det {d}, min {m}, kissing {count} ({time.time() - t0:.1f}s)")
    return json.dumps({"label": label, "gram": gram}, indent=1) + "\n"


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--full", action="store_true", help="also enumerate the Leech kissing number")
    args = ap.parse_args()
    OUT.mkdir(parents=True, exist_ok=True)
    for name, (label, build, *_) in LATTICES.items():
        print(label)
        path = OUT / f"{name}.json"
        path.write_text(asset_text(name, build(), args.full))
        print(f"  wrote {path}")


if __name__ == "__main__":
    main()
