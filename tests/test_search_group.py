"""The group order and the first point stabilizer read off the search.

`automorphism_group` multiplies the orbit sizes along the leftmost path and
keeps the generators found below depth 0 as the stabilizer of the first
individualized vertex.  These tests hold both against chains built from the
generators alone, and check that `report`, `check group-balanced` and
`symmetry --stabilizer` build no chain the search has answered.
"""

import json
import random
from itertools import combinations

import pytest
from click.testing import CliRunner
from hypothesis import given, settings

import reference_symmetry as ref
from balanced.cli import main
from balanced.constructors import (
    antipodal_union,
    c7_prime,
    cross_polytope,
    cube,
    default_distinguished_tetrahedron,
    simplex_midpoints,
)
from balanced.files import write_configuration
from balanced.symmetry import (
    PermutationGroup,
    _StabilizerChain,
    automorphism_group,
    check_group_balanced,
    colored_graph_from_config,
)
from test_symmetry_engine import brute_force_automorphisms, relabel, small_configurations


def c7_prime_tetrahedra():
    """The default tetrahedron of C7 and two seeded others: perfect matchings
    of {1..8}, as pair indices in C7's labelling."""
    pairs = list(combinations(range(1, 9), 2))
    out = [default_distinguished_tetrahedron()]
    rng = random.Random(5)
    while len(out) < 3:
        labels = list(range(1, 9))
        rng.shuffle(labels)
        tetra = tuple(sorted(pairs.index(tuple(sorted(labels[i:i + 2]))) for i in (0, 2, 4, 6)))
        if tetra not in out:
            out.append(tetra)
    return out


ATLAS = {
    "paulus_r": lambda request: request.getfixturevalue("paulus_r"),
    "paulus_s": lambda request: request.getfixturevalue("paulus_s"),
    **{f"c7p-t{a}": (lambda request, t=t: c7_prime(t))
       for a, t in enumerate(c7_prime_tetrahedra())},
    **{f"c{k}": (lambda request, k=k: simplex_midpoints(k)) for k in range(5, 10)},
    "c7-union-minus-c7": lambda request: antipodal_union(simplex_midpoints(7)),
    "cube": lambda request: cube(),
    **{f"cross{k}": (lambda request, k=k: cross_polytope(k)) for k in (4, 5, 6)},
    "e8_kissing": lambda request: request.getfixturevalue("e8_kissing"),
}


def atlas_params():
    """Every atlas configuration as built and relabelled; E8 kissing as built
    only, as in the benchmark's atlas."""
    for name in sorted(ATLAS):
        for seed in (None, 1) if name != "e8_kissing" else (None,):
            yield pytest.param(name, seed, id=f"{name}-{'relabelled' if seed else 'as-built'}")


def atlas_config(name, seed, request):
    c = ATLAS[name](request)
    return c if seed is None else relabel(c, seed=seed * 1000 + sum(map(ord, name)))


def search_group(c):
    return automorphism_group(colored_graph_from_config(c))


def assert_search_answers_match_chains(c, group):
    n = c.size
    assert group.order() == ref.group_order(n, group.generators)
    if group._first_stabilizer is None:
        assert group.order() == 1
        return
    v0, stab = group._first_stabilizer
    assert all(g[v0] == v0 for g in stab.generators)
    assert set(stab.generators) <= set(group.generators)
    want = group.point_stabilizer(v0)
    prefix = _StabilizerChain(n, group.generators, base_prefix=(v0,))
    assert stab.order() == want.order() == prefix.order() // len(prefix.trans[0])
    assert stab.orbits() == want.orbits()
    assert stab.order() == ref.group_order(n, stab.generators)
    # the orbit-stabilizer theorem ties the two answers together
    orbit = next(o for o in group.orbits() if v0 in o)
    assert stab.order() * len(orbit) == group.order()


@pytest.mark.parametrize("name, seed", atlas_params())
def test_order_and_first_stabilizer_on_the_atlas(name, seed, request):
    c = atlas_config(name, seed, request)
    assert_search_answers_match_chains(c, search_group(c))


@settings(max_examples=80, deadline=None)
@given(small_configurations())
def test_order_and_first_stabilizer_match_brute_force(c):
    group = search_group(c)
    assert_search_answers_match_chains(c, group)
    autos = brute_force_automorphisms(c)
    assert group.order() == len(autos)
    if group._first_stabilizer is not None:
        v0, stab = group._first_stabilizer
        assert stab.order() == sum(p[v0] == v0 for p in autos)


def test_trivial_group_and_hand_built_group(paulus_r):
    """Paulus/r has a trivial group, yet its root partition is not discrete:
    the search individualizes a vertex, whose stabilizer is trivial too.  A
    group built by hand has no stabilizer from the search."""
    group = search_group(paulus_r)
    v0, stab = group._first_stabilizer
    assert group.order() == stab.order() == 1 and stab.generators == ()
    assert PermutationGroup(4, [(1, 0, 2, 3)])._first_stabilizer is None


@pytest.mark.parametrize("name, seed", atlas_params())
def test_hand_built_group_gives_the_same_verdict(name, seed, request):
    """A group built by hand knows no stabilizer from the search and takes
    every orbit's least point; verdict and witnesses do not change."""
    c = atlas_config(name, seed, request)
    group = search_group(c)
    by_hand = PermutationGroup(c.size, group.generators)
    assert check_group_balanced(c, by_hand) == check_group_balanced(c, group)


# --- which commands build a chain ----------------------------------------------


@pytest.fixture()
def chains(monkeypatch):
    """(base prefix, told order) of every Schreier-Sims chain built while the
    test runs."""
    built = []
    init = _StabilizerChain.__init__

    def spy(self, degree, generators, base_prefix=(), order=None):
        built.append((tuple(base_prefix), order))
        init(self, degree, generators, base_prefix, order)

    monkeypatch.setattr(_StabilizerChain, "__init__", spy)
    return built


def run_cli(args):
    res = CliRunner().invoke(main, args, catch_exceptions=False)
    return res.exit_code, json.loads(res.stdout)


@pytest.mark.parametrize("name", ["c9", "e8_kissing"])
def test_report_and_group_balanced_build_no_chain(name, request, tmp_path, chains):
    c = ATLAS[name](request)
    f = tmp_path / f"{name}.json"
    write_configuration(c, f)
    code, doc = run_cli(["report", str(f), "--cap", "3"])
    assert code == 0 and doc["group_balanced"] is True
    assert doc["symmetry_order"] == str(search_group(c).order())
    code, doc = run_cli(["check", "group-balanced", str(f)])
    assert code == 0 and doc["group_balanced"] is True
    assert chains == []


def first_base_point(group):
    g = group.generators[0]
    return next(a for a in range(group.degree) if g[a] != a)


@pytest.mark.parametrize("name", ["c7p-t0", "cube", "c7-union-minus-c7"])
def test_stabilizer_command_builds_one_chain(name, request, tmp_path, chains):
    c = ATLAS[name](request)
    f = tmp_path / f"{name}.json"
    write_configuration(c, f)
    group = search_group(c)
    b0 = first_base_point(group)
    for i in sorted({0, b0, (b0 + 1) % c.size, c.size - 1}):
        chains.clear()
        code, doc = run_cli(["symmetry", str(f), "--stabilizer", str(i)])
        assert code == 0
        assert doc["order"] == str(group.order())
        assert chains == [((i,), group.order())]
        want = _StabilizerChain(c.size, group.generators, base_prefix=(i,))
        assert doc["stabilizer"]["generators"] == [list(g) for g in want.level_generators(1)]


def test_group_balanced_builds_chains_only_off_the_first_orbit(c7p, chains):
    """C7' has two orbits: the search's stabilizer serves the orbit of v_0,
    and the other orbit's least point, the first base point of the group's
    own chain, takes one prefix chain told the order."""
    group = search_group(c7p)
    v0, _ = group._first_stabilizer
    assert not check_group_balanced(c7p, group).group_balanced
    (other,) = [o for o in group.orbits() if v0 not in o]
    assert other[0] == first_base_point(group)
    assert chains == [((other[0],), 384)]


@pytest.mark.parametrize("seed", [None, 1], ids=["as-built", "relabelled"])
@pytest.mark.parametrize("name", ["paulus_r", "paulus_s"])
def test_group_balanced_builds_no_chain_for_regular_orbits(name, seed, request, tmp_path,
                                                           chains):
    """A Paulus group is trivial, so each of its 25 orbits is regular and
    every point stabilizer is trivial: it fixes all of span(C), more than a
    line, and takes no chain, in the library or in `check group-balanced`."""
    c = atlas_config(name, seed, request)
    verdict = check_group_balanced(c)
    assert verdict.witnesses == tuple(range(c.size)) and c.ambient_dim > 1
    f = tmp_path / f"{name}.json"
    write_configuration(c, f)
    code, doc = run_cli(["check", "group-balanced", str(f)])
    assert code == 1 and doc["group_balanced"] is False
    assert chains == []


def test_group_balanced_with_a_hand_built_group_builds_prefix_chains(c7p, chains):
    """Without the search's stabilizer every orbit takes a chain: the group's
    own (untold, for the order) and one prefix chain per orbit, told the
    order."""
    group = search_group(c7p)
    by_hand = PermutationGroup(c7p.size, group.generators)
    check_group_balanced(c7p, by_hand)
    b0 = first_base_point(group)
    reps = [o[0] for o in group.orbits()]
    assert b0 in reps and len(reps) > 1
    assert chains == [((), None)] + [((r,), 384) for r in reps]


# --- float mode: extreme scales and S^0 ------------------------------------------

DIRECTIONS = {
    "cube": [[sx, sy, sz] for sx in (1, -1) for sy in (1, -1) for sz in (1, -1)],
    "cross3": [[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1], [0, 0, -1]],
    "unbalanced": [[1, 0, 0], [0, 1, 0], [0, 0, 1], [3, 4, 0]],
}
SCALES = {
    "tiny": lambda i: 1e-200,
    "huge": lambda i: 1e200,
    "mixed": lambda i: (1e-200, 1.0, 1e200, 2.0**-1070)[i % 4],
}


def float_file(tmp_path, rows):
    f = tmp_path / "coords.json"
    f.write_text(json.dumps({"coords": rows}))
    return str(f)


@pytest.mark.filterwarnings("error")  # a numpy RuntimeWarning would go to stderr
@pytest.mark.parametrize("scale", sorted(SCALES))
@pytest.mark.parametrize("name", sorted(DIRECTIONS))
def test_extreme_scales_give_the_unit_scale_verdict(name, scale, tmp_path):
    rows = DIRECTIONS[name]
    scaled = [[x * SCALES[scale](i) for x in row] for i, row in enumerate(rows)]
    runner = CliRunner()
    for cmd in (["check", "balanced"], ["report", "--cap", "3"]):
        want = runner.invoke(main, cmd + [float_file(tmp_path, rows)], catch_exceptions=False)
        got = runner.invoke(main, cmd + [float_file(tmp_path, scaled)], catch_exceptions=False)
        assert got.stderr == ""
        assert got.exit_code == want.exit_code
        assert json.loads(got.stdout)["balanced"] == json.loads(want.stdout)["balanced"]


def no_constant(name):
    raise ValueError(f"{name} in JSON output")


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("cap", [1, 3, 6])
def test_s0_design_strength_agrees_with_exact_mode(cap, tmp_path):
    coords = tmp_path / "s0_coords.json"
    coords.write_text('{"coords": [[1.0], [-1.0]]}')
    gram = tmp_path / "s0_gram.json"
    gram.write_text('{"gram": [["1", "-1"], ["-1", "1"]]}')
    runner = CliRunner()
    out = {}
    for mode, f in [("float", coords), ("exact", gram)]:
        res = runner.invoke(main, ["check", "design", "--cap", str(cap), str(f)],
                            catch_exceptions=False)
        assert res.stderr == ""
        out[mode] = json.loads(res.stdout, parse_constant=no_constant)
        assert out[mode]["strength"] == cap
    res = runner.invoke(main, ["report", "--cap", str(cap), str(coords)], catch_exceptions=False)
    assert res.stderr == ""
    assert json.loads(res.stdout, parse_constant=no_constant)["design_strength"] == cap
