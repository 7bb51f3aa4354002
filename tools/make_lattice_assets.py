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
"""

import argparse
import json
import sys
import time
from itertools import combinations
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from balanced.lattice import LatticeGram, enumerate_quadratic, minimal_norm, short_vectors

OUT = Path(__file__).resolve().parents[1] / "src" / "balanced" / "data" / "lattices"


def hnf_basis(rows, n):
    """Row-reduce an integer generator stack to a full-rank triangular basis."""
    rows = [list(r) for r in rows if any(r)]
    basis = []
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
    assert pivrow == n, f"generator stack has rank {pivrow}, expected {n}"
    return rows[:n]


def lll_reduce(basis, form=None, delta=None):
    """Exact rational LLL (delta = 3/4) so the committed Grams give
    well-behaved enumeration trees.  Tool-side preprocessing only: the
    package itself performs no basis reduction."""
    from fractions import Fraction

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


def gram_of(basis, form=None):
    n = len(basis)
    if form is None:
        return [[sum(a * b for a, b in zip(u, v)) for v in basis] for u in basis]
    fv = [[sum(form[i][j] * v[j] for j in range(len(v))) for i in range(len(v))] for v in basis]
    return [[sum(u[i] * w[i] for i in range(len(u))) for w in fv] for u in basis]


def exact_divide(mat, d):
    out = []
    for row in mat:
        assert all(x % d == 0 for x in row), f"entry not divisible by {d}"
        out.append([x // d for x in row])
    return out


def det_int(mat):
    """Fraction-free determinant (Bareiss)."""
    a = [list(r) for r in mat]
    n = len(a)
    prev = 1
    sign = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def sum_even_generators(n):
    gens = []
    for i, j in combinations(range(n), 2):
        for sj in (1, -1):
            v = [0] * n
            v[i] = 1
            v[j] = sj
            gens.append(v)
    return gens


def build_d4():
    basis = lll_reduce(hnf_basis(sum_even_generators(4), 4))
    return gram_of(basis)


def build_e8():
    gens = [[2 * x for x in v] for v in sum_even_generators(8)]
    gens.append([1] * 8)
    basis = lll_reduce(hnf_basis(gens, 8))
    return exact_divide(gram_of(basis), 4)


# --- K12 via the hexacode ----------------------------------------------------

# GF(4) encoded 0,1,2,3 with 2 = w, 3 = w^2 = w+1; addition is xor
_MUL = [[0, 0, 0, 0], [0, 1, 2, 3], [0, 2, 3, 1], [0, 3, 1, 2]]
_CONJ = [0, 1, 3, 2]


def find_hexacode():
    """Lexicographically first hermitian self-dual [6,3,4] code [I|A] over GF(4)."""
    from itertools import product

    for flat in product(range(4), repeat=9):
        a = [list(flat[0:3]), list(flat[3:6]), list(flat[6:9])]
        ok = True
        for i in range(3):
            for j in range(3):
                acc = 0
                for k in range(3):
                    acc ^= _MUL[a[i][k]][_CONJ[a[j][k]]]
                if acc != (1 if i == j else 0):
                    ok = False
                    break
            if not ok:
                break
        if not ok:
            continue
        gens = [[1 if c == i else 0 for c in range(3)] + a[i] for i in range(3)]
        words = enumerate_gf4_code(gens)
        dist = weight_distribution(words)
        if dist == {0: 1, 4: 45, 6: 18}:
            return gens
    raise AssertionError("no hexacode found")


def enumerate_gf4_code(gens):
    words = []
    n = len(gens[0])
    for l0 in range(4):
        for l1 in range(4):
            for l2 in range(4):
                lam = (l0, l1, l2)
                w = [0] * n
                for li, g in zip(lam, gens):
                    for c in range(n):
                        w[c] ^= _MUL[li][g[c]]
                words.append(tuple(w))
    return words


def weight_distribution(words):
    dist = {}
    for w in words:
        k = sum(1 for x in w if x)
        dist[k] = dist.get(k, 0) + 1
    return dist


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
    for i in range(6):
        for unit in ((2, 0), (0, 2)):
            v = [0] * 12
            v[2 * i], v[2 * i + 1] = unit
            real_gens.append(v)
    form = [[0] * 12 for _ in range(12)]
    for i in range(6):
        form[2 * i][2 * i] = form[2 * i + 1][2 * i + 1] = 2
        form[2 * i][2 * i + 1] = form[2 * i + 1][2 * i] = -1
    basis = lll_reduce(hnf_basis(real_gens, 12), form=form)
    return exact_divide(gram_of(basis, form), 2)


# --- Leech via the binary Golay code -----------------------------------------


def golay_basis():
    """Extended [24,12,8] Golay generator rows, verified by weight enumerator."""
    for coeffs in (
        (11, 9, 7, 6, 5, 1, 0),
        (11, 10, 6, 5, 4, 2, 0),  # reciprocal, in case of convention mismatch
    ):
        g = [0] * 24
        for e in coeffs:
            g[e] = 1
        rows = []
        for i in range(12):
            row = [0] * 23
            for e in coeffs:
                row[i + e] = 1
            row.append(sum(row) % 2)
            rows.append(row)
        dist = _binary_weight_distribution(rows)
        if dist == {0: 1, 8: 759, 12: 2576, 16: 759, 24: 1}:
            return rows
    raise AssertionError("Golay construction failed its weight enumerator check")


def _binary_weight_distribution(rows):
    words = {0: 1}
    dist = {}
    n = len(rows)
    packed = [int("".join(str(b) for b in r), 2) for r in rows]
    for mask in range(1 << n):
        w = 0
        m = mask
        i = 0
        while m:
            if m & 1:
                w ^= packed[i]
            m >>= 1
            i += 1
        k = bin(w).count("1")
        dist[k] = dist.get(k, 0) + 1
    return dist


def build_leech():
    rows = golay_basis()
    gens = [[2 * b for b in r] for r in rows]
    for j in range(1, 24):
        v = [0] * 24
        v[0] = 4
        v[j] = 4
        gens.append(v)
    v = [0] * 24
    v[0] = 8
    gens.append(v)
    gens.append([-3] + [1] * 23)
    basis = hnf_basis(gens, 24)
    diag_prod = 1
    for i, row in enumerate(basis):
        diag_prod *= row[i]
    assert diag_prod == 8**12, f"Leech covolume {diag_prod} != 8^12"
    return exact_divide(gram_of(lll_reduce(basis)), 8)


def verify_and_write(name, label, gram, expect_det, expect_min, expect_kissing, full):
    lat = LatticeGram(entries=tuple(tuple(r) for r in gram), label=label)
    d = det_int(gram)
    assert d == expect_det, f"{name}: det {d} != {expect_det}"
    assert all(gram[i][i] % 2 == 0 for i in range(len(gram))), f"{name}: not even"
    t0 = time.time()
    if name == "leech" and not full:
        hits = [v for v, q in enumerate_quadratic(lat.form, [0] * 24, 0, 2) if any(v)]
        assert not hits, f"{name}: found vectors of norm <= 2"
        print(f"  {name}: det {d}, even, no roots of norm <= 2 "
              f"({time.time() - t0:.1f}s); kissing check skipped (use --full)")
    else:
        m = minimal_norm(lat)
        assert m == expect_min, f"{name}: min norm {m} != {expect_min}"
        count = len(short_vectors(lat, m))
        assert count == expect_kissing, f"{name}: kissing {count} != {expect_kissing}"
        print(f"  {name}: det {d}, min {m}, kissing {count} ({time.time() - t0:.1f}s)")
    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / f"{name}.json"
    path.write_text(json.dumps({"label": label, "gram": gram}, indent=1) + "\n")
    print(f"  wrote {path}")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--full", action="store_true", help="also enumerate the Leech kissing number")
    args = ap.parse_args()
    print("D4")
    verify_and_write("d4", "D4", build_d4(), 4, 2, 24, args.full)
    print("E8")
    verify_and_write("e8", "E8", build_e8(), 1, 2, 240, args.full)
    print("K12 (Coxeter-Todd)")
    verify_and_write("k12", "K12", build_k12(), 729, 4, 756, args.full)
    print("Leech")
    verify_and_write("leech", "Leech", build_leech(), 1, 4, 196560, args.full)


if __name__ == "__main__":
    main()
