"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines live.
"""

import math
import time
from fractions import Fraction

import pytest

from balanced.balance import check_balanced, check_balanced_euclidean
from balanced.constructors import (
    antipodal_union,
    c7_prime,
    cross_polytope,
    cube,
    figure1_adjacency,
    simplex,
    simplex_midpoints,
    srg_params,
    srg_spectral_embedding,
)
from balanced.designs import design_strength, theorem1_check
from balanced.exact import inner_product_spectrum
from balanced.lattice import bundled_lattice, kissing_configuration, short_vectors
from balanced.numerics import (
    check_balanced_float,
    coordinates_from_gram,
    cube_facet_rotation,
    poles_and_ring_coordinates,
    tangential_force,
    theorem1_check_float,
)
from balanced.symmetry import (
    automorphism_group,
    adjacency_complement,
    check_group_balanced,
    colored_graph_from_config,
    fixed_subspace_dim,
)
from conftest import box_short_vectors, count_tetrahedra, gram_entries
from reference_numerics import gradient_check


def _verdict(name: str, ok: bool) -> bool:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}")
    return ok


def test_criterion_1_paulus_pipeline():
    t0 = time.monotonic()
    ok = True
    adjacency = figure1_adjacency()
    p = srg_params(adjacency)
    ok &= _verdict("1a srg params (25,12,5,6)", (p.n, p.k, p.lam, p.mu) == (25, 12, 5, 6))
    for name, adj in (("graph", adjacency), ("complement", adjacency_complement(adjacency))):
        c = srg_spectral_embedding(adj, "r")
        ok &= _verdict(f"1b {name}: 25 points in dim 12", c.size == 25 and c.ambient_dim == 12)
        v = design_strength(c, 3)
        ok &= _verdict(f"1c {name}: design strength exactly 2 at cap 3", v.strength == 2)
        ok &= _verdict(f"1d {name}: 2-distance set", len(inner_product_spectrum(c)) == 2)
        ok &= _verdict(f"1e {name}: balanced", check_balanced(c).balanced)
        group = automorphism_group(colored_graph_from_config(c))
        ok &= _verdict(f"1f {name}: automorphism order 1", group.order() == 1)
        gb = check_group_balanced(c, group=group)
        ok &= _verdict(f"1g {name}: not group-balanced", not gb.group_balanced)
    elapsed = time.monotonic() - t0
    ok &= _verdict(f"1h runtime {elapsed:.1f}s < 30s", elapsed < 30)
    assert ok


def test_criterion_2_c7_prime_suite():
    t0 = time.monotonic()
    ok = True
    c = c7_prime()
    ok &= _verdict("2a 28 points", c.size == 28)
    ok &= _verdict(
        "2b spectrum {+-1/3}",
        inner_product_spectrum(c) == (Fraction(-1, 3), Fraction(1, 3)),
    )
    ok &= _verdict("2c balanced", check_balanced(c).balanced)
    ok &= _verdict("2d design strength 2", design_strength(c, 3).strength == 2)
    group = automorphism_group(colored_graph_from_config(c))
    ok &= _verdict("2e symmetry order 384", group.order() == 384)
    orbits = group.orbits()
    sizes = sorted(len(o) for o in orbits)
    ok &= _verdict("2f orbit sizes {4, 24}", sizes == [4, 24])
    small = next(o for o in orbits if len(o) == 4)
    large = next(o for o in orbits if len(o) == 24)
    ok &= _verdict(
        "2g tetrahedron counts 7 / 11",
        all(count_tetrahedra(c, i) == 7 for i in small)
        and all(count_tetrahedra(c, i) == 11 for i in large),
    )
    gb = check_group_balanced(c, group=group)
    dims = {
        len(o): fixed_subspace_dim(c, group.point_stabilizer(o[0])) for o in orbits
    }
    ok &= _verdict(
        "2h not group-balanced; fixed dims 1 on 4-orbit, 2 on 24-orbit",
        not gb.group_balanced and dims == {4: 1, 24: 2},
    )
    elapsed = time.monotonic() - t0
    ok &= _verdict(f"2i runtime {elapsed:.1f}s < 10s", elapsed < 10)
    assert ok


def test_criterion_3_cn_suite():
    t0 = time.monotonic()
    ok = True
    for n in range(4, 9):
        c = simplex_midpoints(n)
        want_spec = tuple(sorted((Fraction(n - 3, 2 * n - 2), Fraction(-2, n - 1))))
        ok &= _verdict(f"3a C{n}: {n*(n+1)//2} points", c.size == n * (n + 1) // 2)
        ok &= _verdict(f"3b C{n}: spectrum", inner_product_spectrum(c) == want_spec)
        ok &= _verdict(f"3c C{n}: balanced", check_balanced(c).balanced)
        group = automorphism_group(colored_graph_from_config(c))
        ok &= _verdict(
            f"3d C{n}: symmetry order (n+1)! = {math.factorial(n + 1)}",
            group.order() == math.factorial(n + 1),
        )
        ok &= _verdict(
            f"3e C{n}: group-balanced",
            check_group_balanced(c, group=group).group_balanced,
        )
    c3 = simplex_midpoints(3)
    g3 = automorphism_group(colored_graph_from_config(c3))
    ok &= _verdict("3f C3 octahedron: order 48 > 4!", g3.order() == 48)
    elapsed = time.monotonic() - t0
    ok &= _verdict(f"3g runtime {elapsed:.1f}s < 60s", elapsed < 60)
    assert ok


def test_criterion_4_theorem1_checker():
    ok = True
    cb = cube()
    v = theorem1_check(cb, 3)
    ok &= _verdict(
        "4a cube: 3-design, 2 inner products, applies, balanced",
        v.strength == 3
        and set(v.per_point_k) == {2}
        and v.applies
        and check_balanced(cb).balanced,
    )
    pr = poles_and_ring_coordinates(5)
    bal = check_balanced_float(pr, 1e-9)
    per_point, strength, applies = theorem1_check_float(pr, 3, 1e-9)
    ok &= _verdict(
        "4b poles+ring(5): balanced but theorem inapplicable at strength 1",
        bal.balanced and not applies and strength == 1,
    )
    c56 = antipodal_union(simplex_midpoints(7))
    spec = inner_product_spectrum(c56)
    verdict = design_strength(c56, 7)
    odd_vanish = all(verdict.per_k_moment[k] == 0 for k in (1, 3, 5, 7))
    ok &= _verdict(
        "4c C7 u -C7: 3-distance set with vanishing odd moments",
        len(spec) == 3 and odd_vanish,
    )
    assert ok


def test_criterion_5_lattice_pipeline():
    ok = True
    z2 = bundled_lattice("z2")
    d4 = bundled_lattice("d4")
    e8 = bundled_lattice("e8")
    counts = (len(short_vectors(z2, 1)), len(short_vectors(d4, 2)), len(short_vectors(e8, 2)))
    ok &= _verdict("5a short-vector counts 4 / 24 / 240", counts == (4, 24, 240))
    box_ok = list(short_vectors(z2, 1).vectors) == box_short_vectors(z2.entries, 1) and list(
        short_vectors(d4, 2).vectors
    ) == box_short_vectors(d4.entries, 2)
    ok &= _verdict("5b box brute-force cross-check at d <= 4", box_ok)
    ck = kissing_configuration(e8)
    t1 = theorem1_check(ck, 7)
    ok &= _verdict(
        "5c E8 kissing configuration balanced, theorem applies at cap 7",
        check_balanced(ck).balanced and t1.applies,
    )
    # Leech (196560) runs behind --allow-slow / -m slow; runtime documented in README
    ok &= _verdict("5d Leech gated behind --allow-slow", bundled_lattice("leech").dim == 24)
    assert ok


def test_criterion_6_numerics_properties():
    ok = True
    bundled = [cube(), cross_polytope(4), simplex(3), simplex_midpoints(4), c7_prime()]
    worst = 0.0
    for c in bundled:
        p = coordinates_from_gram(c)
        for s in (1.0, 2.0, 3.0):
            worst = max(worst, gradient_check(p, s))
    ok &= _verdict(f"6a gradient check {worst:.2e} < 1e-5", worst < 1e-5)
    force_ok = True
    for c in bundled:
        if not check_balanced(c).balanced:
            continue
        p = coordinates_from_gram(c)
        for s in (1.0, 2.0, 3.0, 12.0):
            force_ok &= tangential_force(p, s).max_tangential_norm < 1e-9 * c.size
    ok &= _verdict("6b tangential force < 1e-9 N on balanced configs", force_ok)
    e0 = cube_facet_rotation(0.0, 1.0)
    h = 1e-6
    slope = (cube_facet_rotation(h, 1.0) - e0) / h
    best = min(cube_facet_rotation(math.pi / 4 * i / 64, 1.0) for i in range(1, 65))
    ok &= _verdict(
        f"6c facet rotation: slope {slope:.1e} < 1e-6 and drop {e0 - best:.4f} > 1e-3",
        abs(slope) < 1e-6 and best < e0 - 1e-3,
    )
    assert ok


def test_criterion_7_cross_module_soundness():
    ok = True
    bundled = {
        "cube": cube(),
        "cross3": cross_polytope(3),
        "cross4": cross_polytope(4),
        "simplex3": simplex(3),
        "simplex4": simplex(4),
        "C3": simplex_midpoints(3),
        "C4": simplex_midpoints(4),
        "C5": simplex_midpoints(5),
        "C6": simplex_midpoints(6),
        "C7": simplex_midpoints(7),
        "C8": simplex_midpoints(8),
        "C7'": c7_prime(),
        "C7u-C7": antipodal_union(simplex_midpoints(7)),
        "paulus/r": srg_spectral_embedding(figure1_adjacency(), "r"),
        "paulus/s": srg_spectral_embedding(figure1_adjacency(), "s"),
        "kissing(Z2)": kissing_configuration(bundled_lattice("z2")),
        "kissing(D4)": kissing_configuration(bundled_lattice("d4")),
        "kissing(E8)": kissing_configuration(bundled_lattice("e8")),
    }
    for name, c in bundled.items():
        balanced = check_balanced(c).balanced
        t1 = theorem1_check(c, 7)
        group = automorphism_group(colored_graph_from_config(c))
        gb = check_group_balanced(c, group=group)
        g = gram_entries(c.gram)
        preserves = all(
            g[p[i]][p[j]] == g[i][j]
            for p in group.generators
            for i in range(c.size)
            for j in range(c.size)
        )
        order = group.order()
        orbit_reps = group.orbits()
        orbit_stab = all(
            order == len(o) * group.point_stabilizer(o[0]).order() for o in orbit_reps
        )
        dims_constant = all(
            len(
                {
                    fixed_subspace_dim(c, group.point_stabilizer(i))
                    for i in (o if len(o) <= 8 else o[:4] + o[-4:])
                }
            )
            == 1
            for o in orbit_reps
        )
        good = (
            (not gb.group_balanced or balanced)
            and (not t1.applies or balanced)
            and preserves
            and orbit_stab
            and dims_constant
        )
        ok &= _verdict(f"7 soundness on {name}", good)
    assert ok


def test_criterion_8_euclidean_checker():
    ok = True
    rep = check_balanced_euclidean([[0, 0]], period=[[1, 0], [0, 1]], cutoff=3)
    ok &= _verdict("8a Z^2 patch (cutoff 3) balanced", rep.balanced)
    two = check_balanced_euclidean([[0, 0], [1, 0]])
    collinear = check_balanced_euclidean([["-1"], ["0"], ["1"]])
    ok &= _verdict(
        "8b two points and three collinear points unbalanced",
        not two.balanced and not collinear.balanced,
    )
    assert ok


@pytest.mark.slow
def test_criterion_5_leech_slow():
    lat = bundled_lattice("leech")
    count = len(short_vectors(lat, 4))
    assert _verdict("5e Leech minimal vector count 196560", count == 196560)
