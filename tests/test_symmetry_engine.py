"""The array symmetry engine against the tuple engine and brute force.

`reference_symmetry` holds the tuple engine the array engine replaced.  On
the configurations the paper and the benchmark use, and on seeded
relabellings of them, both must print the same generators, orders, orbits
and stabilizer generators.  Small hypothesis configurations are checked
against all N! permutations.
"""

import hashlib
import math
import random
from itertools import combinations, permutations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import reference_symmetry as ref
from balanced.constructors import (
    antipodal_union,
    c7_prime,
    cross_polytope,
    cube,
    simplex_midpoints,
)
from balanced.exact import Configuration, InvariantError, StructuralError
from balanced.lattice import bundled_lattice, kissing_configuration
from balanced.symmetry import (
    ColoredGraph,
    PermutationGroup,
    _StabilizerChain,
    _initial_cells,
    _refine,
    _signature_table,
    automorphism_group,
    check_group_balanced,
    colored_graph_from_config,
    fixed_subspace_dim,
)


def chain_levels(chain):
    """Base and every level's generators, in the order they were added."""
    return chain.base, [[tuple(map(int, g)) for g in gens] for gens in chain.gens]


def relabel(c, seed):
    perm = list(range(c.size))
    random.Random(seed).shuffle(perm)
    g = c.gram.entries
    return Configuration.from_gram([[g[a][b] for b in perm] for a in perm])


# --- reference-engine equality ----------------------------------------------

ENGINE_CASES = {
    "paulus_r": lambda request: request.getfixturevalue("paulus_r"),
    "paulus_s": lambda request: request.getfixturevalue("paulus_s"),
    "c7p": lambda request: c7_prime(),
    "c5": lambda request: simplex_midpoints(5),
    "c6": lambda request: simplex_midpoints(6),
    "c7": lambda request: simplex_midpoints(7),
    "c8": lambda request: simplex_midpoints(8),
    "c7-union-minus-c7": lambda request: antipodal_union(simplex_midpoints(7)),
    "cube": lambda request: cube(),
    "cross4": lambda request: cross_polytope(4),
    "cross5": lambda request: cross_polytope(5),
    "cross6": lambda request: cross_polytope(6),
    "d4_kissing": lambda request: request.getfixturevalue("d4_kissing"),
}


@pytest.mark.parametrize("relabelled", [False, True], ids=["as-built", "relabelled"])
@pytest.mark.parametrize("name", sorted(ENGINE_CASES))
def test_engine_matches_tuple_reference(name, relabelled, request):
    c = ENGINE_CASES[name](request)
    if relabelled:
        c = relabel(c, seed=sum(map(ord, name)))
    graph = colored_graph_from_config(c)
    group = automorphism_group(graph)
    want = ref.automorphism_generators(graph)
    assert group.generators == want
    assert group.order() == ref.group_order(c.size, want)
    for prefix in [(), (c.size - 1,)]:
        chain = _StabilizerChain(c.size, want, base_prefix=prefix)
        assert chain_levels(chain) == chain_levels(ref.StabilizerChain(c.size, want, prefix))
    assert group.orbits() == ref.orbits(c.size, want)
    for i in range(c.size):
        assert group.point_stabilizer(i).generators == ref.stabilizer_generators(c.size, want, i)


def test_engine_matches_tuple_reference_on_e8(e8_kissing):
    graph = colored_graph_from_config(e8_kissing)
    group = automorphism_group(graph)
    want = ref.automorphism_generators(graph)
    assert group.generators == want
    assert group.order() == ref.group_order(e8_kissing.size, want) == 696729600


@pytest.mark.parametrize("name", ["paulus_r", "c7p", "c7-union-minus-c7", "cube", "cross5"])
def test_child_refinement_queues_only_the_individualized_vertex(name, request):
    """Refining a child against its individualized vertex alone gives the
    same cells and invariant as re-queueing every cell, at every node the
    search visits."""
    graph = colored_graph_from_config(ENGINE_CASES[name](request))
    n, k = graph.size, graph.n_edge_colors
    weights, rows = _signature_table(np.array(graph.edge_colors), k)
    refinements = []
    ref.automorphism_generators(graph, refinements)
    assert any(new is not None for _, new, _ in refinements)
    for cells, new, want in refinements:
        splitters = cells if new is None else new[:1]
        got = _refine(weights, rows, cells, splitters)
        assert got == ref.base_n_signatures(want, n, k)


def test_root_refinement_matches_reference(paulus_r):
    graph = colored_graph_from_config(paulus_r)
    cells = _initial_cells(graph)
    n, k = graph.size, graph.n_edge_colors
    weights, rows = _signature_table(np.array(graph.edge_colors), k)
    want = ref.base_n_signatures(ref.refine(graph, cells), n, k)
    assert _refine(weights, rows, cells, cells) == want


@pytest.mark.parametrize("name", ["c9", "e8"])
def test_last_subcell_rule_matches_full_queue_on_larger_searches(name, request):
    """The refinement queues every subcell but the last; at every node of the
    C9 and E8 kissing searches it still gives the cells and invariant of the
    reference refinement, which queues every subcell."""
    c = simplex_midpoints(9) if name == "c9" else request.getfixturevalue("e8_kissing")
    graph = colored_graph_from_config(c)
    n, k = graph.size, graph.n_edge_colors
    weights, rows = _signature_table(np.array(graph.edge_colors), k)
    refinements = []
    ref.automorphism_generators(graph, refinements)
    assert sum(new is not None for _, new, _ in refinements) > 10
    for cells, new, want in refinements:
        splitters = cells if new is None else new[:1]
        assert _refine(weights, rows, cells, splitters) == ref.base_n_signatures(want, n, k)


# --- known-order chains -------------------------------------------------------

KNOWN_ORDER_CASES = {
    **ENGINE_CASES,
    "c9": lambda request: simplex_midpoints(9),
    "z2_kissing": lambda request: request.getfixturevalue("z2_kissing"),
    "e8_kissing": lambda request: request.getfixturevalue("e8_kissing"),
}


def transversal_points(chain):
    return [sorted(t) for t in chain.trans]


def known_order_params():
    """Every case as built and under two relabellings; the relabelled E8
    cases take 15 s each and run with the slow tests."""
    for name in sorted(KNOWN_ORDER_CASES):
        for seed, label in [(None, "as-built"), (1, "relabelled-1"), (2, "relabelled-2")]:
            marks = pytest.mark.slow if name == "e8_kissing" and seed else ()
            yield pytest.param(name, seed, id=f"{name}-{label}", marks=marks)


@pytest.mark.parametrize("name, seed", known_order_params())
def test_known_order_chain_matches_full_chain(name, seed, request):
    """A chain told the group's order stops early, yet has the base, the
    generators of every level (in order, repeats included) and the orbits of
    the full chain, for every point as forced first base point."""
    c = KNOWN_ORDER_CASES[name](request)
    if seed is not None:
        c = relabel(c, seed=seed * 1000 + sum(map(ord, name)))
    group = automorphism_group(colored_graph_from_config(c))
    order = group.order()
    for prefix in [()] + [(i,) for i in range(c.size)]:
        full = _StabilizerChain(c.size, group.generators, base_prefix=prefix)
        known = _StabilizerChain(c.size, group.generators, base_prefix=prefix, order=order)
        assert full.order() == known.order() == order
        assert chain_levels(known) == chain_levels(full)
        assert transversal_points(known) == transversal_points(full)
        for level in range(len(full.base) + 1):
            assert known.level_generators(level) == full.level_generators(level)
        if prefix:
            stab = group.point_stabilizer(prefix[0])
            assert stab.generators == PermutationGroup(c.size, full.level_generators(1)).generators
            assert stab.order() == math.prod(len(t) for t in full.trans[1:])


@pytest.mark.parametrize("relabelled", [False, True], ids=["as-built", "relabelled"])
@pytest.mark.parametrize("name", sorted(ENGINE_CASES))
def test_group_balanced_matches_least_point_representatives(name, relabelled, request):
    """The search's first individualized vertex stands for its orbit;
    verdict and witnesses are those of the loop over each orbit's least
    point."""
    c = ENGINE_CASES[name](request)
    if relabelled:
        c = relabel(c, seed=sum(map(ord, name)))
    group = automorphism_group(colored_graph_from_config(c))
    want = ref.group_balance_witnesses(
        c.size, group.generators,
        lambda gens: fixed_subspace_dim(c, PermutationGroup(c.size, gens)),
    )
    verdict = check_group_balanced(c, group)
    assert verdict.witnesses == want
    assert verdict.group_balanced is (not want)


def test_group_balanced_matches_least_point_representatives_on_e8(e8_kissing):
    group = automorphism_group(colored_graph_from_config(e8_kissing))
    want = ref.group_balance_witnesses(
        e8_kissing.size, group.generators,
        lambda gens: fixed_subspace_dim(e8_kissing, PermutationGroup(e8_kissing.size, gens)),
    )
    assert check_group_balanced(e8_kissing, group).witnesses == want == ()


@pytest.mark.parametrize("prefix", [(), (0,), (5,)])
def test_chain_given_too_large_an_order_raises(c7p, prefix):
    group = automorphism_group(colored_graph_from_config(c7p))
    assert group.order() == 384
    for wrong in (385, 768):
        with pytest.raises(InvariantError, match="stabilizer chain has order 384"):
            _StabilizerChain(c7p.size, group.generators, base_prefix=prefix, order=wrong)
    _StabilizerChain(c7p.size, group.generators, base_prefix=prefix, order=384)


def test_trivial_group_stabilizer_knows_its_order(paulus_r):
    group = automorphism_group(colored_graph_from_config(paulus_r))
    assert group.order() == 1
    stab = group.point_stabilizer(3)
    assert stab.generators == () and stab.order() == 1


# --- the splitter signature table ---------------------------------------------


def folded_orbit_graph(n, n_colours, seed):
    """A complete graph on n vertices with exactly n_colours edge colours,
    constant on the orbits of the transposition (0 1) on pairs (so it has a
    non-trivial automorphism), then relabelled."""
    swap = {0: 1, 1: 0}
    orbits = {}
    for a, b in combinations(range(n), 2):
        image = tuple(sorted((swap.get(a, a), swap.get(b, b))))
        orbits.setdefault(min((a, b), image), []).append((a, b))
    assert len(orbits) >= n_colours
    colours = [[-1] * n for _ in range(n)]
    for k, pairs in enumerate(orbits.values()):
        for a, b in pairs:
            colours[a][b] = colours[b][a] = k % n_colours
    rng = random.Random(seed)
    perm = list(range(n))
    rng.shuffle(perm)
    rows = tuple(tuple(colours[perm[a]][perm[b]] for b in range(n)) for a in range(n))
    graph = ColoredGraph(size=n, edge_colors=rows, vertex_colors=(0,) * n)
    assert graph.n_edge_colors == n_colours
    return graph


# (n, k) on either side of n**k = 2**63: 10**18 < 2**63 < 10**19, 8**21 = 2**63
SIGNATURE_DTYPES = [(10, 18, np.int64), (10, 19, object), (8, 20, np.int64), (8, 21, object)]


@pytest.mark.parametrize("n, k, dtype", SIGNATURE_DTYPES)
def test_signature_table_dtype_and_exact_sums(n, k, dtype):
    graph = folded_orbit_graph(n, k, seed=n * k)
    weights, rows = _signature_table(np.array(graph.edge_colors), k)
    assert weights.dtype == dtype
    assert rows == weights.tolist()
    # the whole vertex set as splitter: the largest sums the search can form
    sums = weights.take(range(n), axis=0).sum(axis=0).tolist()
    for v in range(n):
        counts = [0] * k
        for u in range(n):
            if u != v:
                counts[graph.edge_colors[v][u]] += 1
        assert sums[v] == sum(c * n ** (k - 1 - i) for i, c in enumerate(counts)) < n**k


@pytest.mark.parametrize("n, k, dtype", SIGNATURE_DTYPES)
@pytest.mark.parametrize("seed", range(3))
def test_search_matches_reference_past_int64_signatures(n, k, dtype, seed):
    graph = folded_orbit_graph(n, k, seed=seed)
    group = automorphism_group(graph)
    want = ref.automorphism_generators(graph)
    assert want
    assert group.generators == want
    assert group.order() == ref.group_order(n, want)


def test_k12_kissing_generators_pinned():
    """Order and generators of the K12 kissing configuration, as printed
    before the splitter signatures became base-n integers."""
    group = automorphism_group(colored_graph_from_config(
        kissing_configuration(bundled_lattice("k12"))))
    assert group.order() == 78382080
    digest = hashlib.sha256(repr(group.generators).encode()).hexdigest()
    assert digest == "a03bc6be1fc8a89b2905dd69a41235fcf14be41a80f5f80d01f864eff5048156"


def test_contains_and_level_generators_match_reference():
    # S5 on 0..4 times S2 on 5, 6
    gens = ((1, 2, 3, 4, 0, 5, 6), (1, 0, 2, 3, 4, 5, 6), (0, 1, 2, 3, 4, 6, 5))
    group = PermutationGroup(7, gens)
    assert group.order() == ref.group_order(7, gens) == 240
    assert group.contains((4, 3, 2, 1, 0, 6, 5))
    assert not group.contains((5, 0, 1, 2, 3, 4, 6))
    for i in range(7):
        assert group.point_stabilizer(i).generators == ref.stabilizer_generators(7, gens, i)


# --- brute force --------------------------------------------------------------

small_rationals = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@st.composite
def small_configurations(draw):
    """At most 7 rational unit vectors by inverse stereographic projection,
    some joined by their antipodes."""
    d = draw(st.integers(2, 4))
    ts = draw(st.lists(st.tuples(*[small_rationals] * (d - 1)), min_size=1, max_size=7))
    points = []
    for t in ts:
        q = sum(x * x for x in t)
        points.append(tuple(2 * x / (q + 1) for x in t) + ((q - 1) / (q + 1),))
    flips = draw(st.lists(st.booleans(), min_size=len(points), max_size=len(points)))
    points += [tuple(-x for x in p) for p, f in zip(points, flips) if f]
    points = list(dict.fromkeys(points))[:7]
    gram = [[sum(a * b for a, b in zip(p, q)) for q in points] for p in points]
    return Configuration.from_gram(gram, label="stereographic")


def brute_force_automorphisms(c):
    g = c.gram.entries
    n = c.size
    return [
        p for p in permutations(range(n))
        if all(g[p[i]][p[j]] == g[i][j] for i in range(n) for j in range(i + 1, n))
    ]


def orbits_of(n, perms):
    out = {}
    for a in range(n):
        orbit = tuple(sorted({p[a] for p in perms}))
        out.setdefault(orbit, None)
    return tuple(sorted(out))


@settings(max_examples=120, deadline=None)
@given(small_configurations())
def test_group_matches_brute_force(c):
    autos = brute_force_automorphisms(c)
    group = automorphism_group(colored_graph_from_config(c))
    assert group.order() == len(autos)
    assert group.orbits() == orbits_of(c.size, autos)
    assert set(group.generators) <= set(autos)


BUNDLED = ["c7", "c7p", "c56", "paulus_r", "paulus_s", "cube_config", "z2_kissing", "d4_kissing"]


@pytest.mark.parametrize("name", BUNDLED)
def test_order_and_orbit_sizes_invariant_under_relabelling(name, request):
    c = request.getfixturevalue(name)
    group = automorphism_group(colored_graph_from_config(c))
    want = (group.order(), sorted(map(len, group.orbits())))
    for seed in (11, 12):
        shuffled = automorphism_group(colored_graph_from_config(relabel(c, seed)))
        assert (shuffled.order(), sorted(map(len, shuffled.orbits()))) == want


# --- the Gram check on the colour array -------------------------------------


def reference_check_preserves_gram(c, group):
    g = c.gram.scaled
    n = len(g)
    for p in group.generators:
        for i in range(n):
            for j in range(i + 1, n):
                if g[p[i]][p[j]] != g[i][j]:
                    return f"permutation does not preserve the Gram matrix at ({i},{j})"
    return None


def test_gram_check_names_first_failing_pair(c7p):
    swap = list(range(c7p.size))
    swap[3], swap[5] = swap[5], swap[3]
    group = PermutationGroup(c7p.size, [swap])
    want = "permutation does not preserve the Gram matrix at (3,9)"
    assert reference_check_preserves_gram(c7p, group) == want
    with pytest.raises(StructuralError) as exc:
        fixed_subspace_dim(c7p, group)
    assert str(exc.value) == want


@pytest.mark.parametrize("seed", range(6))
def test_gram_check_matches_reference_on_random_permutations(seed):
    c = simplex_midpoints(5)
    perm = list(range(c.size))
    random.Random(seed).shuffle(perm)
    group = PermutationGroup(c.size, [perm])
    want = reference_check_preserves_gram(c, group)
    if want is None:
        fixed_subspace_dim(c, group)
        return
    with pytest.raises(StructuralError) as exc:
        fixed_subspace_dim(c, group)
    assert str(exc.value) == want


def test_gram_check_rejects_wrong_degree(c7p):
    with pytest.raises(StructuralError, match="degree"):
        fixed_subspace_dim(c7p, PermutationGroup(3, [(1, 2, 0)]))
