"""Seeded inputs and op lists for the three benchmark workloads.

Every input file is written here, by the benchmark, from the seed alone; the
library under test only ever receives these files.  Expected exit codes and
verdict fields come from sources independent of the library: the paper's
values, classical facts (kissing numbers, group orders, design strengths of
root systems), the benchmark's own exact and float arithmetic, and fields that
a relabelling cannot change (checked against the unrelabelled copy in the same
pass).

An op is a dict:
  argv          balanced CLI arguments, with paths relative to the work dir
  exit          expected exit code
  fields        stdout JSON fields that must equal the given values
  group/role    "ref" or "copy": copies must match the ref on `invariant`
  invariant     fields compared with the group's ref
  check         extra named check run by the worker (see worker.CHECKS)
  outfile       file the command writes with -o (digested with stdout)
  canonical     True when the inputs do not depend on the seed
  known_defect  reason the op is expected to mismatch at present, or absent

Ops are grouped into units that run in order (a lattice construct before the
checks that read its output); the seed shuffles the units.
"""

from __future__ import annotations

import json
import math
import os
import random
from fractions import Fraction
from itertools import combinations, product

import numpy as np

WORKLOADS = ("atlas", "lattice", "coords")

GRAPH_FILE = os.path.join("src", "balanced", "data", "graphs", "srg_25_12_5_6.txt")

E8_ORDER = "696729600"
RELABELLINGS = 2
REBASES = 2


class Inputs:
    """Writes input files into the work dir and collects op units."""

    def __init__(self, workdir: str):
        self.workdir = workdir
        self.units: list[list[dict]] = []

    def write(self, name: str, doc) -> str:
        with open(os.path.join(self.workdir, name), "w") as fh:
            json.dump(doc, fh, indent=1)
        return name

    def write_text(self, name: str, text: str) -> str:
        with open(os.path.join(self.workdir, name), "w") as fh:
            fh.write(text)
        return name

    def add(self, *ops: dict) -> None:
        self.units.append(list(ops))


def op(argv, exit=0, **extra) -> dict:
    return {"argv": [str(a) for a in argv], "exit": exit, **extra}


# --- exact configurations, built without the library ------------------------


def gram_doc(label: str, rows) -> dict:
    return {"label": label, "gram": [[str(x) for x in row] for row in rows]}


def relabel(rows, perm):
    """Row/column permutation: new[a][b] = old[perm[a]][perm[b]]."""
    return [[rows[pa][pb] for pb in perm] for pa in perm]


def spectrum(rows) -> list[str]:
    n = len(rows)
    return [str(u) for u in sorted({rows[i][j] for i in range(n) for j in range(n) if i != j})]


def paulus(root: str, eigen: str):
    """Unit-diagonal Gram of the spectral embedding of the figure-1 graph.

    For an srg(v, k, lambda, mu) with eigenvalue theta of the chosen class,
    the normalized projection has inner product theta/k between adjacent and
    -(1 + theta)/(v - k - 1) between non-adjacent vertices.
    """
    with open(os.path.join(root, GRAPH_FILE)) as fh:
        adj = [[int(t) for t in line.split()] for line in fh.read().split("\n") if line.strip()]
    v = len(adj)
    k = sum(adj[0])
    lam = sum(a & b for a, b in zip(adj[0], adj[adj[0].index(1)]))
    mu = sum(a & b for a, b in zip(adj[0], adj[adj[0].index(0, 1)]))
    disc = math.isqrt((lam - mu) ** 2 + 4 * (k - mu))
    theta = ((lam - mu) + disc) // 2 if eigen == "r" else ((lam - mu) - disc) // 2
    near, far = Fraction(theta, k), Fraction(-(1 + theta), v - k - 1)
    return [[Fraction(1) if i == j else (near if adj[i][j] else far) for j in range(v)] for i in range(v)]


def simplex_midpoints(n: int):
    """Normalized edge midpoints of the regular n-simplex (C_n)."""
    pairs = list(combinations(range(1, n + 2), 2))
    share, apart = Fraction(n - 3, 2 * (n - 1)), Fraction(-2, n - 1)
    return [
        [Fraction(1) if p == q else (share if set(p) & set(q) else apart) for q in pairs]
        for p in pairs
    ]


def perfect_matching(rng: random.Random) -> tuple[int, ...]:
    """Indices (in C7's pair order) of a perfect matching of {1..8}: a regular
    tetrahedron of C7, all pairwise inner products -1/3."""
    pairs = list(combinations(range(1, 9), 2))
    verts = list(range(1, 9))
    rng.shuffle(verts)
    chosen = [tuple(sorted(verts[i : i + 2])) for i in range(0, 8, 2)]
    return tuple(sorted(pairs.index(p) for p in chosen))


DEFAULT_TETRA = (0, 13, 22, 27)  # pairs 12, 34, 56, 78


def c7_prime(tetra):
    rows = simplex_midpoints(7)
    flip = [-1 if i in tetra else 1 for i in range(len(rows))]
    return [[x * flip[i] * flip[j] for j, x in enumerate(row)] for i, row in enumerate(rows)]


def antipodal_union(rows):
    n = len(rows)
    return [
        [rows[i % n][j % n] * (1 if (i < n) == (j < n) else -1) for j in range(2 * n)]
        for i in range(2 * n)
    ]


def cube():
    verts = list(product((1, -1), repeat=3))
    return [[Fraction(sum(a * b for a, b in zip(u, v)), 3) for v in verts] for u in verts]


def cross_polytope(n: int):
    points = [(i, 1) for i in range(n)] + [(i, -1) for i in range(n)]
    return [[Fraction(si * sj) if i == j else Fraction(0) for (j, sj) in points] for (i, si) in points]


def e8_roots():
    """The 240 E8 roots, doubled to integers: 2(+-e_i +- e_j) and (+-1)^8 with
    an even number of minus signs."""
    roots = []
    for i, j in combinations(range(8), 2):
        for si, sj in product((2, -2), repeat=2):
            v = [0] * 8
            v[i], v[j] = si, sj
            roots.append(v)
    for signs in product((1, -1), repeat=8):
        if signs.count(-1) % 2 == 0:
            roots.append(list(signs))
    return roots


def e8_kissing():
    roots = e8_roots()
    # doubled roots have norm 8; unit Gram entries are <r, s> / 8
    return [[Fraction(sum(a * b for a, b in zip(r, s)), 8) for s in roots] for r in roots]


def atlas_bases(root: str):
    """(name, Gram rows, rank, known fields, construct argv)."""
    bases = [
        ("paulus_r", paulus(root, "r"), 12,
         {"balanced": True, "symmetry_order": "1", "group_balanced": False},
         ["construct", "srg-embedding", "figure1"]),
        ("paulus_s", paulus(root, "s"), 12,
         {"balanced": True, "symmetry_order": "1", "group_balanced": False},
         ["construct", "srg-embedding", "figure1", "--eigen", "s"]),
        ("c7prime", c7_prime(DEFAULT_TETRA), 7, {}, ["construct", "c7prime"]),
    ]
    for n in range(5, 10):
        bases.append((f"c{n}", simplex_midpoints(n), n,
                      {"symmetry_order": str(math.factorial(n + 1))},
                      ["construct", "simplex-midpoints", n]))
    # antipodal-union reads the unrelabelled C7 file written for the c7 base
    bases.append(("c7u", antipodal_union(simplex_midpoints(7)), 7, {},
                  ["construct", "antipodal-union", "c7.json"]))
    bases.append(("cube", cube(), 3, {"symmetry_order": "48"},
                  ["construct", "polytope", "cube"]))
    for n in (4, 5, 6):
        bases.append((f"cross{n}", cross_polytope(n), n,
                      {"symmetry_order": str(2**n * math.factorial(n))},
                      ["construct", "polytope", "cross-polytope", "-n", n]))
    return bases


REPORT_INVARIANTS = ["balanced", "spectrum", "design_strength", "symmetry_order",
                     "sorted_orbit_sizes", "group_balanced"]
SYMMETRY_INVARIANTS = ["order", "sorted_orbit_sizes"]
GROUP_BALANCED_INVARIANTS = ["group_balanced", "witness_count"]


def atlas_commands(ins: Inputs, rng: random.Random, group: str, name: str, rows,
                   known: dict, role: str, canonical: bool) -> list[dict]:
    """report / symmetry / check group-balanced on one copy of a configuration."""
    n = len(rows)
    path = ins.write(f"{name}.json", gram_doc(group, rows))
    shared = {"group": group, "role": role, "canonical": canonical}
    gb_exit = {True: 0, False: 1}.get(known.get("group_balanced"))
    report_fields = {"n_points": n, "spectrum": spectrum(rows), "mode": "exact", **known}
    ops = [
        op(["report", path, "--cap", 12], fields=report_fields,
           invariant=REPORT_INVARIANTS, **shared),
        # the ref's stabilizer point is fixed so that its inputs, and its
        # recorded stdout digest, do not depend on the seed
        op(["symmetry", path, "--orbits", "--stabilizer",
            n - 1 if role == "ref" else rng.randrange(n)],
           fields={"order": known["symmetry_order"]} if "symmetry_order" in known else {},
           invariant=SYMMETRY_INVARIANTS, check="orbit_stabilizer", **shared),
    ]
    gb = op(["check", "group-balanced", path], invariant=GROUP_BALANCED_INVARIANTS,
            fields={k: v for k, v in known.items() if k == "group_balanced"}, **shared)
    # the ref's exit code follows its own verdict; copies must match the ref
    gb["exit"] = gb_exit if gb_exit is not None else "verdict:group_balanced"
    ops.append(gb)
    return ops


def build_atlas(ins: Inputs, rng: random.Random, root: str, light: bool) -> None:
    bases = atlas_bases(root)
    if light:
        bases = [b for b in bases if b[0] in ("c5", "c7prime", "cube", "cross4")]
    for name, rows, rank, known, construct in bases:
        known = {"ambient_dim": rank, **known}
        expected_file = ins.write(f"{name}.expected.json", gram_doc(name, rows))
        ins.add(op(construct + ["-o", f"{name}.built.json"], outfile=f"{name}.built.json",
                   check="same_gram", expected_file=expected_file, canonical=True))
        ins.add(*atlas_commands(ins, rng, name, name, rows, known, "ref", True))
        for r in range(0 if light else RELABELLINGS):
            perm = list(range(len(rows)))
            rng.shuffle(perm)
            ins.add(*atlas_commands(ins, rng, name, f"{name}.r{r}", relabel(rows, perm),
                                    known, "copy", False))
    # seeded alternatives to the distinguished tetrahedron: isometric to C7'
    for a in range(0 if light else 2):
        tetra = perfect_matching(rng)
        while tetra == DEFAULT_TETRA:
            tetra = perfect_matching(rng)
        rows = c7_prime(tetra)
        known = {"ambient_dim": 7}
        tag = f"c7prime.t{a}"
        expected_file = ins.write(f"{tag}.expected.json", gram_doc(tag, rows))
        ins.add(op(["construct", "c7prime", "--tetra", ",".join(map(str, tetra)),
                    "-o", f"{tag}.built.json"], outfile=f"{tag}.built.json",
                   check="same_gram", expected_file=expected_file, canonical=False))
        ins.add(*atlas_commands(ins, rng, "c7prime", tag, rows, known, "copy", False))
    if not light:
        # one E8 kissing configuration per run, report only: its three
        # commands together would take most of the pass.  It is not
        # relabelled: its cost varies from 5.2 to 8.2 s with the labelling,
        # which alone would set the run-to-run spread of the workload.
        rows = e8_kissing()
        path = ins.write("e8.json", gram_doc("e8", rows))
        ins.add(op(["report", path, "--cap", 12], canonical=True, fields={
            "n_points": 240, "ambient_dim": 8, "spectrum": spectrum(rows), "balanced": True,
            "design_strength": 7, "symmetry_order": E8_ORDER, "sorted_orbit_sizes": [240],
            "group_balanced": True, "theorem1_applies": True}))


# --- root lattices, re-based -------------------------------------------------


def cartan(kind: str, n: int):
    c = [[2 if i == j else 0 for j in range(n)] for i in range(n)]

    def bond(i, j):
        c[i][j] = c[j][i] = -1

    chain = n - 1 if kind in ("D", "E") else n
    for i in range(chain - 1):
        bond(i, i + 1)
    if kind == "D":
        bond(n - 3, n - 1)
    if kind == "E":
        bond(2, n - 1)
    return c


# kissing number and design strength of each root system
LATTICES = (
    [(f"A{n}", "A", n, n * (n + 1), 5 if n == 2 else 3) for n in range(2, 9)]
    + [(f"D{n}", "D", n, 2 * n * (n - 1), 5 if n == 4 else 3) for n in range(4, 9)]
    + [("E6", "E", 6, 72, 5), ("E7", "E", 7, 126, 5), ("E8", "E", 8, 240, 7)]
)


def unimodular(rng: random.Random, n: int):
    """Product of n random column transvections e_i += +-e_j that never
    touch column 0, so the re-based form keeps a norm-2 basis vector."""
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(n):
        i = rng.randrange(1, n)
        j = rng.choice([x for x in range(n) if x != i])
        s = rng.choice((1, -1))
        for row in u:
            row[i] += s * row[j]
    return u


def rebase(gram, u):
    n = len(gram)
    gu = [[sum(gram[i][k] * u[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
    return [[sum(u[k][i] * gu[k][j] for k in range(n)) for j in range(n)] for i in range(n)]


def build_lattice(ins: Inputs, rng: random.Random, root: str, light: bool) -> None:
    lattices = [x for x in LATTICES if not light or x[0] in ("A2", "A3", "D4")]
    for name, kind, n, kissing, strength in lattices:
        base = cartan(kind, n)
        # E8 is re-based once and never run canonical: it alone costs a third
        # of the pass
        copies = [] if name == "E8" else [("", base, True)]
        for b in range(1 if name == "E8" or light else REBASES):
            copies.append((f".b{b}", rebase(base, unimodular(rng, n)), False))
        for tag, gram, canonical in copies:
            src = ins.write(f"{name}{tag}.json", {"label": name, "gram": gram})
            out = f"{name}{tag}.kissing.json"
            per_point = 2 if name == "A2" else 3
            ins.add(
                op(["construct", "kissing", src, "-o", out], outfile=out,
                   check="kissing", points=kissing, canonical=canonical),
                op(["check", "balanced", out], fields={"mode": "exact", "balanced": True},
                   canonical=canonical),
                op(["check", "theorem1", out, "--cap", 12], canonical=canonical,
                   fields={"strength": strength, "applies": True,
                           "per_point_k": [per_point] * kissing}),
                op(["check", "design", out, "--cap", 12], canonical=canonical,
                   fields={"mode": "exact", "strength": strength}),
            )


# --- coordinates, float mode and Euclidean sets ------------------------------


def realize(rows, rank: int, rng: np.random.Generator) -> np.ndarray:
    """Unit vectors with the given Gram, by eigendecomposition, then a random
    rotation."""
    g = np.array([[float(x) for x in row] for row in rows])
    vals, vecs = np.linalg.eigh(g)
    top = np.argsort(vals)[::-1][:rank]
    pts = vecs[:, top] * np.sqrt(np.clip(vals[top], 0.0, None))
    q, _ = np.linalg.qr(rng.normal(size=(rank, rank)))
    pts = pts @ q
    return pts / np.linalg.norm(pts, axis=1, keepdims=True)


def float_energy(pts: np.ndarray, s: float) -> float:
    iu = np.triu_indices(len(pts), k=1)
    d = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2))[iu]
    return float((d ** -s).sum())


def gram_energy(rows, s: float) -> float:
    """Energy from exact Gram values: |x - y|^2 = 2 - 2<x, y>."""
    n = len(rows)
    return sum((2.0 - 2.0 * float(rows[i][j])) ** (-s / 2) for i in range(n) for j in range(i + 1, n))


def float_force(pts: np.ndarray, s: float) -> float:
    diff = pts[:, None, :] - pts[None, :, :]
    dist = np.sqrt((diff**2).sum(axis=2))
    np.fill_diagonal(dist, np.inf)
    force = ((s * dist ** -(s + 2.0))[:, :, None] * diff).sum(axis=1)
    radial = pts / np.linalg.norm(pts, axis=1, keepdims=True)
    tangential = force - (force * radial).sum(axis=1, keepdims=True) * radial
    return float(np.linalg.norm(tangential, axis=1).max())


def coords_doc(label: str, pts: np.ndarray) -> dict:
    return {"label": label, "coords": [[float(x) for x in row] for row in pts]}


def float_commands(ins: Inputs, slot: int, name: str, pts: np.ndarray,
                   balanced: bool, strength) -> list[dict]:
    """report / energy / force on a coordinates file.  The exponents follow
    the slot, not the seed, so that the seed changes data but not work."""
    path = ins.write(f"{name}.coords.json", coords_doc(name, pts))
    s_energy, s_force = 1 + slot % 3, 1 + (slot + 1) % 3
    fields = {"mode": "float", "balanced": balanced, "n_points": len(pts),
              "ambient_dim": pts.shape[1]}
    if strength is not None:
        fields["design_strength"] = strength
    return [
        op(["report", path, "--cap", 12], fields=fields),
        op(["energy", path, "-s", s_energy], check="close", field="energy",
           value=float_energy(pts, s_energy)),
        op(["force", path, "-s", s_force], check="close", field="max_tangential_norm",
           value=float_force(pts, s_force)),
    ]


# (name, exact rows, rank, design strength); strengths are classical values
def coords_bases(root: str):
    out = [("paulus_r", paulus(root, "r"), 12, 2), ("c7prime", c7_prime(DEFAULT_TETRA), 7, 2)]
    out += [(f"c{n}", simplex_midpoints(n), n, 2) for n in range(5, 10)]
    out += [("c7u", antipodal_union(simplex_midpoints(7)), 7, 5), ("cube", cube(), 3, 3)]
    out += [(f"cross{n}", cross_polytope(n), n, 3) for n in (4, 5, 6)]
    out += [("e8", e8_kissing(), 8, 7)]
    return out


def poles_and_ring(k: int) -> np.ndarray:
    ang = 2.0 * np.pi * np.arange(k) / k
    ring = np.stack([np.cos(ang), np.sin(ang), np.zeros(k)], axis=1)
    return np.vstack([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0], ring])


def rat_rows(rows) -> list[list[str]]:
    return [[str(Fraction(x)) for x in row] for row in rows]


def euclidean_sets(rng: random.Random, light: bool):
    """(name, points, period, cutoffs, balanced).  The seed picks the motif
    vectors; dimension and cutoff are fixed per slot.

    Lattices and lattice pairs L u (L + v) with 2v in L are centrosymmetric
    about every point, hence balanced.  For v with every coordinate strictly
    inside (-1/2, 1/2) and v not in L, v is the unique nearest point of L + v
    to the origin and no point of L is as near, so the origin's nearest shell
    is {v} and the set is unbalanced.
    """
    h = Fraction(1, 2)
    eye2 = [[1, 0], [0, 1]]
    eye3 = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    hexagonal = [[1, -1, 0], [0, 1, -1]]  # A2 inside x + y + z = 0
    sets = [
        ("z2", [[0, 0]], eye2, ["1", "2", "3"], True),
        ("z3", [[0, 0, 0]], eye3, ["1", "2"], True),
        ("bcc", [[0, 0, 0], [h, h, h]], eye3, ["1", "3/2"], True),
        ("hexagonal", [[0, 0, 0]], hexagonal, ["2", "3"], True),
        ("honeycomb", [[0, 0, 0], [Fraction(1, 3), Fraction(1, 3), Fraction(-2, 3)]],
         hexagonal, ["1", "2"], True),
    ]
    if light:
        return sets[:2]
    for m, (d, cutoff) in enumerate([(2, "2"), (3, "1"), (2, "3/2"), (3, "3/2")]):
        v = [h * rng.randrange(2) for _ in range(d)]
        if not any(v):
            v[rng.randrange(d)] = h
        sets.append((f"motif{m}", [[0] * d, v], eye2 if d == 2 else eye3, [cutoff], True))
    for m, (d, q, cutoff) in enumerate([(2, 5, "1"), (3, 7, "1"), (2, 7, "3/2"), (3, 5, "3/2")]):
        v = [Fraction(rng.randrange(-(q // 2), q // 2 + 1), q) for _ in range(d)]
        if not any(v):
            v[0] = Fraction(1, q)
        sets.append((f"skew{m}", [[0] * d, v], eye2 if d == 2 else eye3, [cutoff], False))
    return sets


MALFORMED = [
    ("not_json", "{gram: oops", ["check", "balanced"]),
    ("no_field", {"label": "empty"}, ["report"]),
    ("ragged", {"gram": [["1", "0"], ["0"]]}, ["check", "balanced"]),
    ("float_entry", {"gram": [[1.0, 0.5], [0.5, 1.0]]}, ["report"]),
    ("asymmetric", {"gram": [["1", "1/2"], ["0", "1"]]}, ["check", "design"]),
    ("not_psd", {"gram": [["1", "-1", "-1"], ["-1", "1", "-1"], ["-1", "-1", "1"]]},
     ["check", "balanced"]),
    ("bad_coords", {"coords": [["a", "b"], ["c", "d"]]}, ["energy", "-s", "1"]),
    ("no_cutoff", {"points": [["0", "0"]], "period": [["1", "0"], ["0", "1"]]},
     ["check", "euclidean"]),
    ("bad_lattice", {"gram": [[2, 0.5], [0.5, 2]]}, ["construct", "kissing"]),
    ("coords_for_group", {"coords": [[1, 0], [0, 1]]}, ["check", "group-balanced"]),
]

# Inputs that must be rejected with exit 2 but are accepted at present
# (ROADMAP item 5): they stay in the workload so the defect is counted.
KNOWN_DEFECTS = [
    ("zero_vector", '{"coords": [[0, 0, 0], [1, 0, 0]]}',
     "zero-norm point is not rejected in float mode"),
    ("nan_coordinate", '{"coords": [[NaN, 0, 1], [1, 0, 0], [0, 1, 0]]}',
     "NaN coordinate is not rejected in float mode"),
]


def build_coords(ins: Inputs, rng: random.Random, root: str, light: bool) -> None:
    nrng = np.random.default_rng(rng.randrange(2**32))
    bases = coords_bases(root)
    if light:
        bases = [b for b in bases if b[0] in ("cube", "c5")]
    slot = 0
    for name, rows, rank, strength in bases:
        # two random rotations of each configuration, one of E8
        for r in range(1 if name == "e8" or light else 2):
            ins.add(*float_commands(ins, slot, f"{name}.rot{r}", realize(rows, rank, nrng),
                                    True, strength))
            slot += 1
    for m, k in enumerate((6,) if light else (6, 9, 12)):
        pts = poles_and_ring(k) @ np.linalg.qr(nrng.normal(size=(3, 3)))[0]
        ins.add(*float_commands(ins, slot, f"ring{m}", pts, True, None))
        slot += 1
    # seeded random points on the sphere: unbalanced, since every shell is a
    # single point that is not antipodal
    for m, (n, d) in enumerate([(16, 3)] if light else [(16, 3), (24, 4), (32, 5)]):
        pts = nrng.normal(size=(n, d))
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        ins.add(*float_commands(ins, slot, f"random{m}", pts, False, None))
        slot += 1
    # exact Gram files through the exact LDL^T -> coordinates path
    exact = [("cube", cube()), ("cross4", cross_polytope(4)), ("c5", simplex_midpoints(5))]
    if not light:
        exact += [("c7prime", c7_prime(DEFAULT_TETRA)), ("paulus_r", paulus(root, "r"))]
    for name, rows in exact:
        path = ins.write(f"{name}.exact.json", gram_doc(name, rows))
        s = 1 + len(name) % 3
        ins.add(op(["energy", path, "-s", s], check="close", field="energy",
                   value=gram_energy(rows, s), canonical=True),
                op(["force", path, "-s", s], check="close", field="max_tangential_norm",
                   value=0.0, canonical=True))
    for name, points, period, cutoffs, balanced in euclidean_sets(rng, light):
        for cutoff in cutoffs:
            path = ins.write(f"{name}.cut{cutoff.replace('/', '_')}.json", {
                "points": rat_rows(points), "period": rat_rows(period), "cutoff": cutoff})
            ins.add(op(["check", "euclidean", path], exit=0 if balanced else 1,
                       fields={"mode": "exact", "balanced": balanced},
                       canonical=not name.startswith(("motif", "skew"))))
    for name, doc, argv in MALFORMED:
        path = (ins.write_text(f"{name}.bad.json", doc) if isinstance(doc, str)
                else ins.write(f"{name}.bad.json", doc))
        ins.add(op(argv + [path], exit=2, canonical=True))
    for name, text, reason in KNOWN_DEFECTS:
        path = ins.write_text(f"{name}.bad.json", text)
        ins.add(op(["check", "balanced", path], exit=2, canonical=True, known_defect=reason))


BUILDERS = {"atlas": build_atlas, "lattice": build_lattice, "coords": build_coords}


def build(workload: str, seed: int, root: str, workdir: str, light: bool = False) -> list[dict]:
    """Write the inputs for one seed into workdir and return the op list."""
    rng = random.Random(f"{workload}:{seed}")
    ins = Inputs(workdir)
    BUILDERS[workload](ins, rng, root, light)
    rng.shuffle(ins.units)
    ops = [o for unit in ins.units for o in unit]
    for i, o in enumerate(ops):
        o["id"] = i
    return ops
