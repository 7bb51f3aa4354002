"""The array symmetry engine against the tuple engine and brute force.

`reference_symmetry` holds the tuple engine the array engine replaced.  On
the configurations the paper and the benchmark use, and on seeded
relabellings of them, both must print the same generators, orders, orbits
and stabilizer generators.  Small hypothesis configurations are checked
against all N! permutations.
"""

import hashlib
import json
import math
import random
import sys
from itertools import combinations, permutations

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

import reference_symmetry as ref
from conftest import gram_entries
from balanced.constructors import (
    antipodal_union,
    c7_prime,
    cross_polytope,
    cube,
    simplex_midpoints,
)
from balanced import symmetry
from balanced.cli import main
from balanced.files import write_configuration
from balanced.exact import Configuration, InvariantError, StructuralError
from balanced.lattice import bundled_lattice, kissing_configuration
from balanced.report import build_report
from balanced.symmetry import (
    ColoredGraph,
    PermutationGroup,
    _StabilizerChain,
    _moved_pair,
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
    g = gram_entries(c.gram)
    return Configuration.from_gram([[g[a][b] for b in perm] for a in perm])


# --- reference-engine equality ----------------------------------------------

ENGINE_CASES = {
    "paulus_r": lambda request: request.getfixturevalue("paulus_r"),
    "paulus_s": lambda request: request.getfixturevalue("paulus_s"),
    "c7p": lambda request: c7_prime(),
    # two other tetrahedra, 12 38 47 56 and 12 38 46 57, on which sibling keys
    # save 40 of 71 refinements (23 of 50 on the default one)
    "c7p-t0-17-20-22": lambda request: c7_prime((0, 17, 20, 22)),
    "c7p-t0-17-19-23": lambda request: c7_prime((0, 17, 19, 23)),
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
    weights = _signature_table(np.array(graph.edge_colors), k)
    refinements = []
    ref.automorphism_generators(graph, refinements)
    assert any(new is not None for _, new, _ in refinements)
    for cells, new, want in refinements:
        splitters = cells if new is None else new[:1]
        got = _refine(weights, cells, splitters)
        assert got == ref.base_n_signatures(want, n, k)


def test_root_refinement_matches_reference(paulus_r):
    graph = colored_graph_from_config(paulus_r)
    cells = [tuple(range(graph.size))]
    n, k = graph.size, graph.n_edge_colors
    weights = _signature_table(np.array(graph.edge_colors), k)
    want = ref.base_n_signatures(ref.refine(graph, cells), n, k)
    assert _refine(weights, cells, cells) == want


@pytest.mark.parametrize("name", ["c9", "e8"])
def test_last_subcell_rule_matches_full_queue_on_larger_searches(name, request):
    """The refinement queues every subcell but the last; at every node of the
    C9 and E8 kissing searches it still gives the cells and invariant of the
    reference refinement, which queues every subcell."""
    c = simplex_midpoints(9) if name == "c9" else request.getfixturevalue("e8_kissing")
    graph = colored_graph_from_config(c)
    n, k = graph.size, graph.n_edge_colors
    weights = _signature_table(np.array(graph.edge_colors), k)
    refinements = []
    ref.automorphism_generators(graph, refinements)
    assert sum(new is not None for _, new, _ in refinements) > 10
    for cells, new, want in refinements:
        splitters = cells if new is None else new[:1]
        assert _refine(weights, cells, splitters) == ref.base_n_signatures(want, n, k)


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


def test_a_chain_told_its_order_adds_no_generator_past_it(monkeypatch):
    """A 3-cycle fills the chain of the cyclic group of order 3, so a chain
    told that order never adds the generators after it, while the full chain
    sifts them all; both chains are the same."""
    added = []
    add = _StabilizerChain._add_element
    monkeypatch.setattr(_StabilizerChain, "_add_element",
                        lambda chain, g: added.append(g.tolist()) or add(chain, g))
    gens = [(1, 2, 0), (2, 0, 1), (1, 2, 0)]
    full = _StabilizerChain(3, gens)
    assert added == [list(g) for g in gens]
    added.clear()
    known = _StabilizerChain(3, gens, order=3)
    assert added == [[1, 2, 0]]
    assert full.order() == known.order() == 3
    assert chain_levels(known) == chain_levels(full)
    assert transversal_points(known) == transversal_points(full)


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
    graph = ColoredGraph(size=n, edge_colors=rows)
    assert graph.n_edge_colors == n_colours
    return graph


# (n, k) on either side of n**k = 2**63: 10**18 < 2**63 < 10**19, 8**21 = 2**63
SIGNATURE_DTYPES = [(10, 18, np.int64), (10, 19, object), (8, 20, np.int64), (8, 21, object)]


@pytest.mark.parametrize("n, k, dtype", SIGNATURE_DTYPES)
def test_signature_table_dtype_and_exact_sums(n, k, dtype):
    graph = folded_orbit_graph(n, k, seed=n * k)
    weights = _signature_table(np.array(graph.edge_colors), k)
    assert weights.dtype == dtype
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
    assert ref.contains(group, (4, 3, 2, 1, 0, 6, 5))
    assert not ref.contains(group, (5, 0, 1, 2, 3, 4, 6))
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
    g = gram_entries(c.gram)
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


@settings(max_examples=100, deadline=None)
@given(small_configurations(), st.randoms(use_true_random=False))
def test_moved_pair_is_one_check_on_both_colour_arrays(c, rnd):
    """The search's colours (-1 on the diagonal) and the Gram colours (the
    top colour there) give the same first moved pair, and it agrees with the
    search's leaf test and the Gram check it replaced."""
    n = c.size
    graph = colored_graph_from_config(c)
    search_colours = np.array(graph.edge_colors, dtype=np.intp)
    autos = automorphism_group(graph).generators
    for perm in [rnd.sample(range(n), n) for _ in range(5)] + list(autos):
        p = np.array(perm, dtype=np.intp)
        pair = _moved_pair(c.gram.colours, p)
        assert _moved_pair(search_colours, p) == pair
        assert ref.preserves_colors(search_colours, np.zeros(n, dtype=np.intp), p) is (pair is None)
        try:
            ref.check_preserves_gram(c, PermutationGroup(n, [perm]))
            old = None
        except StructuralError as exc:
            old = str(exc)
        assert old == (None if pair is None else
                       f"permutation does not preserve the Gram matrix at ({pair[0]},{pair[1]})")


@settings(max_examples=100, deadline=None)
@given(small_configurations())
def test_search_reads_tuple_and_array_graphs_alike(c):
    """A ColoredGraph built from nested tuples holds the same array as one
    built from the Gram colours, so the search returns the same generators."""
    graph = colored_graph_from_config(c)
    rows = tuple(map(tuple, graph.edge_colors.tolist()))
    from_tuples = ColoredGraph(c.size, rows)
    assert from_tuples.edge_colors.dtype == graph.edge_colors.dtype == np.intp
    assert np.array_equal(from_tuples.edge_colors, graph.edge_colors)
    assert automorphism_group(from_tuples).generators == automorphism_group(graph).generators


def test_gram_check_rejects_wrong_degree(c7p):
    with pytest.raises(StructuralError, match="degree"):
        fixed_subspace_dim(c7p, PermutationGroup(3, [(1, 2, 0)]))


# --- sibling keys and the Gram check the search has done ----------------------


def random_regular_edges(n, d, rnd):
    """The edges of a random d-regular simple graph on n vertices (n d even),
    from the configuration model by rejection."""
    while True:
        stubs = [v for v in range(n) for _ in range(d)]
        rnd.shuffle(stubs)
        edges = {(min(a, b), max(a, b)) for a, b in zip(stubs[::2], stubs[1::2]) if a != b}
        if len(edges) * 2 == n * d:
            return edges


@st.composite
def coloured_complete_graphs(draw):
    """K_n for n <= 9 with every edge drawn from 2 or 3 colours: either
    arbitrary colours, whose groups are mostly trivial and whose root
    partitions are mostly discrete, or colour classes drawn as random regular
    graphs, where refinement stalls and many siblings fail."""
    n = draw(st.integers(1, 9))
    k = draw(st.integers(2, 3))
    colours = np.zeros((n, n), dtype=np.intp)
    if draw(st.booleans()):
        upper = np.triu_indices(n, 1)
        edges = draw(st.lists(st.integers(0, k - 1), min_size=len(upper[0]),
                              max_size=len(upper[0])))
        colours[upper] = edges
        colours.T[upper] = edges
    else:
        rnd = draw(st.randoms(use_true_random=False))
        for colour in range(1, k):
            d = draw(st.sampled_from([d for d in range(1, min(n, 5)) if n * d % 2 == 0] or [0]))
            for a, b in random_regular_edges(n, d, rnd):
                colours[a, b] = colours[b, a] = colour
    return ColoredGraph(n, colours)


@settings(max_examples=200, deadline=None)
@given(coloured_complete_graphs())
def test_search_matches_reference_on_coloured_complete_graphs(graph):
    """Skipped siblings count as failed refinements and cut nodes as failed
    nodes: the search returns what the reference search, with no keys, does."""
    check_search_against_reference(graph)


def counted_refinements(monkeypatch) -> list:
    calls = []
    refine = symmetry._refine
    monkeypatch.setattr(symmetry, "_refine", lambda *args: calls.append(1) or refine(*args))
    return calls


@pytest.mark.parametrize("seed", [None, 1], ids=["as-built", "relabelled"])
@pytest.mark.parametrize("name", ["paulus_r", "paulus_s"])
def test_sibling_keys_cut_the_paulus_refinements(name, seed, request, monkeypatch):
    """Without sibling keys the Paulus searches refine 350 and 326 times,
    almost all for siblings that fail; the keys skip most of those.  The
    relabelled copies refine 113 and 116 times when only children are
    skipped: their off-spine nodes at depth 1 pass the trace check, and only
    the node check cuts them before their children."""
    c = request.getfixturevalue(name)
    if seed is not None:
        c = relabel(c, seed)
    calls = counted_refinements(monkeypatch)
    group = automorphism_group(colored_graph_from_config(c))
    assert group.order() == 1
    assert len(calls) <= 60


@pytest.mark.parametrize("seed", [None, 1], ids=["as-built", "relabelled"])
@pytest.mark.parametrize("name", ["paulus_r", "paulus_s"])
def test_each_vertex_keyed_once_per_partition(name, seed, request, monkeypatch):
    """A search keys a vertex at most once under one partition: a node keys
    its target cell once, and the spine node's rows serve every off-spine
    node at its depth."""
    c = request.getfixturevalue(name)
    if seed is not None:
        c = relabel(c, seed)
    keyed = []
    sibling_keys = symmetry._sibling_keys

    def spy(a, colours, k, cell_of, vertices):
        keyed.extend((cell_of.tobytes(), v) for v in vertices)
        return sibling_keys(a, colours, k, cell_of, vertices)

    monkeypatch.setattr(symmetry, "_sibling_keys", spy)
    automorphism_group(colored_graph_from_config(c))
    rekeyed = len(keyed) - len(set(keyed))
    assert keyed and rekeyed == 0


def test_refine_fails_a_trace_it_ends_short_of(paulus_r):
    """Matched step by step, a trace one step short of the expected one
    still fails.  A refinement stops once it has matched the expected trace:
    an empty one leaves the cells as given, while a split past the last
    expected step in the same splitter's pass still fails."""
    graph = colored_graph_from_config(paulus_r)
    weights = _signature_table(graph.edge_colors, graph.n_edge_colors)
    rest = tuple(range(1, graph.size))
    cells, trace = _refine(weights, [(0,), rest], [(0,)])
    assert trace
    assert _refine(weights, [(0,), rest], [(0,)], trace) == (cells, trace)
    assert _refine(weights, [(0,), rest], [(0,)], trace + trace[-1:]) is None
    assert _refine(weights, [(0,), rest], [(0,)], ()) == ([(0,), rest], ())
    # vertex 1's pass splits both cells that vertex 0's split off: steps 2 and 3
    start = [(0,), (1,), tuple(range(2, graph.size))]
    _, trace = _refine(weights, start, [(0,), (1,)])
    assert _refine(weights, start, [(0,), (1,)], trace[:3])[1] == trace[:3]
    assert _refine(weights, start, [(0,), (1,)], trace[:2]) is None


@pytest.mark.parametrize("relabelled", [False, True], ids=["as-built", "relabelled"])
@pytest.mark.parametrize("name", sorted(ENGINE_CASES))
def test_the_trace_fixes_the_cell_sizes(name, relabelled, request, monkeypatch):
    """Every off-spine refinement that keeps the spine's trace at its depth
    ends with the spine node's cell sizes, so the trace alone is the node
    invariant."""
    c = ENGINE_CASES[name](request)
    if relabelled:
        c = relabel(c, seed=sum(map(ord, name)))
    spine_sizes, survivors = {}, []
    refine = symmetry._refine

    def spy(weights, cells, splitters, expected=None):
        out = refine(weights, cells, splitters, expected)
        depth = sys._getframe(1).f_locals["depth"]  # the calling search node's
        if out is not None:
            sizes = [len(cell) for cell in out[0]]
            if expected is None:
                spine_sizes[depth] = sizes
            else:
                survivors.append(sizes == spine_sizes[depth])
        return out

    monkeypatch.setattr(symmetry, "_refine", spy)
    automorphism_group(colored_graph_from_config(c))
    assert survivors and all(survivors)


@pytest.mark.parametrize("relabelled", [False, True], ids=["as-built", "relabelled"])
@pytest.mark.parametrize("name", sorted(ENGINE_CASES))
def test_a_stopped_refinement_is_the_full_one_when_the_traces_match(
        name, relabelled, request, monkeypatch):
    """Whenever an off-spine node's full refinement yields the spine's trace,
    the refinement that stops once it has matched that trace returns the
    same cells and trace; any other off-spine refinement fails or returns
    the spine's trace."""
    c = ENGINE_CASES[name](request)
    if relabelled:
        c = relabel(c, seed=sum(map(ord, name)))
    matched = []
    refine = symmetry._refine

    def spy(weights, cells, splitters, expected=None):
        out = refine(weights, cells, splitters, expected)
        if expected is not None:
            full = refine(weights, cells, splitters)
            if full[1] == expected:
                assert out == full
                matched.append(cells)
            else:
                assert out is None or out[1] == expected
        return out

    monkeypatch.setattr(symmetry, "_refine", spy)
    automorphism_group(colored_graph_from_config(c))
    assert matched


def check_search_against_reference(graph):
    """Generators, order, orbits and first stabilizer of the search equal
    the reference search's, which has no keys."""
    n = graph.size
    group = automorphism_group(graph)
    want = ref.automorphism_generators(graph)
    assert group.generators == want
    assert group.order() == ref.group_order(n, want)
    assert group.orbits() == ref.orbits(n, want)
    if group._first_stabilizer is None:  # a discrete root partition
        assert group.order() == 1
        return
    v0, stab = group._first_stabilizer
    assert stab.generators == tuple(g for g in want if g[v0] == v0)
    assert stab.order() == ref.group_order(n, ref.stabilizer_generators(n, want, v0))


PRUNED_CASES = ["paulus_r", "paulus_s", "c7p"]


@pytest.mark.parametrize("seed", [11, 12, 13])
@pytest.mark.parametrize("name", PRUNED_CASES)
def test_node_keys_keep_the_reference_search(name, seed, request):
    """Off-spine nodes whose target cell's key multiset is not the spine's
    are cut whole; on seeded relabellings nothing the search returns moves."""
    check_search_against_reference(colored_graph_from_config(
        relabel(ENGINE_CASES[name](request), seed)))


@pytest.mark.parametrize("name", PRUNED_CASES)
def test_colliding_keys_change_nothing(name, request, monkeypatch):
    """With every key row equal, no node is cut and no sibling skipped: the
    search refines as it would without keys and returns the same group."""
    graph = colored_graph_from_config(relabel(ENGINE_CASES[name](request), 11))
    calls = counted_refinements(monkeypatch)
    automorphism_group(graph)
    keyed = len(calls)
    monkeypatch.setattr(symmetry, "_sibling_keys",
                        lambda a, colours, k, cell_of, vertices:
                        np.zeros((len(vertices), len(colours)), dtype=np.uint64))
    calls.clear()
    check_search_against_reference(graph)
    assert len(calls) > keyed


@pytest.mark.parametrize("wide", [False, True], ids=["exact", "wrapped"])
def test_sibling_keys_depend_on_colours_and_cells_only(c7p, wide):
    """Relabelling the graph and its partition permutes the rows of a key
    computation and changes no key, also when the packed codes wrap mod
    2**64 (an edge colour count of 2**40 stands in for a huge input)."""
    graph = colored_graph_from_config(c7p)
    n, k = graph.size, 2**40 if wide else graph.n_edge_colors
    perm = list(range(n))
    random.Random(4).shuffle(perm)
    p = np.array(perm)
    inv = np.argsort(p)  # vertex u of the copy is vertex p[u] of graph
    copy = ColoredGraph(n, graph.edge_colors[np.ix_(p, p)])
    cell_of = np.array([u % 3 for u in range(n)])
    assert (2 * (k + 1) * ((n << 20) + 1) >= 2**64) == wide  # cell 2's codes wrap
    vertices = [0, 5, 11, 27]
    a = symmetry._KEY_WEIGHTS[graph.edge_colors + 1]
    keys = symmetry._sibling_keys(a, graph.edge_colors, k, np.tile(cell_of, (4, 1)), vertices)
    a_copy = symmetry._KEY_WEIGHTS[copy.edge_colors + 1]
    keys_copy = symmetry._sibling_keys(a_copy, copy.edge_colors, k,
                                       np.tile(cell_of[p], (4, 1)), inv[vertices].tolist())
    assert np.array_equal(keys, keys_copy)
    assert len({row.tobytes() for row in keys}) > 1


def test_gram_check_runs_where_a_group_enters(c7p, monkeypatch, tmp_path):
    """A group from the search is trusted: `build_report`,
    `check_group_balanced(c)` and `symmetry --stabilizer`, which takes a
    subgroup of it, run the Gram check only in the search's leaf test.  A
    group a caller passes in, a stabilizer of the search's own group and the
    same group on an equal table of another configuration included, is
    checked once per generator; the fixed dimensions do not change."""
    group = automorphism_group(colored_graph_from_config(c7p))
    v0, first = group._first_stabilizer
    stab = group.point_stabilizer(v0)
    twin = Configuration.from_gram(gram_entries(c7p.gram))
    searching, calls = [], []  # calls: per check, whether the search was running
    search, moved_pair = symmetry.automorphism_group, symmetry._moved_pair

    def spied_search(graph):
        searching.append(graph)
        try:
            return search(graph)
        finally:
            searching.pop()

    monkeypatch.setattr(symmetry, "automorphism_group", spied_search)
    monkeypatch.setattr(symmetry, "_moved_pair",
                        lambda *args: calls.append(bool(searching)) or moved_pair(*args))

    def checks(run):
        calls.clear()
        run()
        return calls.count(True), calls.count(False)

    searched, _ = checks(lambda: build_report(c7p))
    assert searched > 0 and checks(lambda: build_report(c7p)) == (searched, 0)
    assert checks(lambda: check_group_balanced(c7p)) == (searched, 0)
    assert checks(lambda: check_group_balanced(c7p, group)) == (0, len(group.generators))
    dims = []
    for c, g in ((c7p, group), (c7p, first), (c7p, stab), (twin, group), (twin, stab)):
        assert checks(lambda: dims.append(fixed_subspace_dim(c, g))) == (0, len(g.generators))
    assert len(stab.generators) > 0
    assert dims == [0, 1, 1, 0, 1]
    checked = [fixed_subspace_dim(c7p, group.point_stabilizer(i)) for i in range(c7p.size)]
    path = tmp_path / "c7p.json"
    write_configuration(c7p, path)
    for i in range(c7p.size):
        args = ["symmetry", "--orbits", "--stabilizer", str(i), str(path)]
        res = []
        assert checks(lambda: res.append(CliRunner().invoke(main, args))) == (searched, 0)
        assert res[0].exit_code == 0
        assert json.loads(res[0].output)["stabilizer"]["fixed_subspace_dim"] == checked[i]


@pytest.mark.parametrize("group, message", [
    # regular: every point stabilizer is trivial, so no stabilizer has a generator
    (PermutationGroup(28, [tuple(range(1, 28)) + (0,)]),
     r"permutation does not preserve the Gram matrix at \(0,1\)"),
    (PermutationGroup(5), "group degree 5 does not match 28 points"),  # no generator
    (PermutationGroup(40), "group degree 40 does not match 28 points"),
], ids=["regular", "trivial-degree-5", "trivial-degree-40"])
def test_a_given_group_is_checked_by_both_functions(c7p, group, message):
    for check in (fixed_subspace_dim, check_group_balanced):
        with pytest.raises(StructuralError, match=f"^{message}$"):
            check(c7p, group)


def test_hand_built_non_automorphism_still_raises(c7p):
    """A non-automorphism next to the search's generators, or the search's
    group of another labelling, fails the Gram check with its message."""
    group = automorphism_group(colored_graph_from_config(c7p))
    swap = list(range(c7p.size))
    swap[3], swap[5] = swap[5], swap[3]
    with pytest.raises(StructuralError) as exc:
        fixed_subspace_dim(c7p, PermutationGroup(c7p.size, group.generators + (tuple(swap),)))
    assert str(exc.value) == "permutation does not preserve the Gram matrix at (3,9)"
    other = automorphism_group(colored_graph_from_config(relabel(c7p, seed=3)))
    with pytest.raises(StructuralError, match="does not preserve the Gram matrix at"):
        fixed_subspace_dim(c7p, other)
