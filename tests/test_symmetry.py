import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from conftest import gram_entries
from balanced.constructors import (
    cross_polytope,
    default_distinguished_tetrahedron,
    simplex,
    simplex_midpoints,
)
from balanced import symmetry
from balanced.exact import Configuration, StructuralError, _encode_scaled
from balanced.symmetry import (
    ColoredGraph,
    PermutationGroup,
    adjacency_complement,
    automorphism_group,
    check_group_balanced,
    colored_graph_from_adjacency,
    colored_graph_from_config,
    fixed_subspace_dim,
)
from reference_symmetry import contains


def square_cycle_adjacency():
    return (
        (0, 1, 0, 1),
        (1, 0, 1, 0),
        (0, 1, 0, 1),
        (1, 0, 1, 0),
    )


class TestColoredGraph:
    def test_edge_colours_are_a_read_only_array(self, c7):
        g = colored_graph_from_config(c7)
        assert g.edge_colors.shape == (28, 28) and g.edge_colors.dtype == np.intp
        assert not g.edge_colors.flags.writeable
        assert (g.edge_colors.diagonal() == -1).all()
        assert not np.shares_memory(g.edge_colors, c7.gram.colours)
        assert (c7.gram.colours.diagonal() == len(c7.gram.values) - 1).all()

    @pytest.mark.parametrize("rows", [
        ((-1, 0), (0,)),  # ragged, which numpy stacks as a 1-d array of rows
        ((-1, 0, 1), (0, -1, 1)),  # 2 x 3
        ((-1, 0), (0, -1), (1, 1)),  # 3 x 2
        (np.zeros((2, 2), dtype=np.int64), np.zeros((2, 3), dtype=np.int64)),  # numpy refuses
    ])
    def test_ragged_or_non_square_colours_rejected(self, rows):
        with pytest.raises(StructuralError, match=f"^edge colours must form a {len(rows)} x "
                                                  f"{len(rows)} array$"):
            ColoredGraph(len(rows), rows)

    def test_non_integer_colours_rejected(self):
        # 1.5 and 1.2 both truncated to 1 would give the triangle order 6, not 2
        rows = [[0, 1.5, 1.2], [1.5, 0, 1.2], [1.2, 1.2, 0]]
        with pytest.raises(StructuralError, match=r"colour \[0\]\[1\] = 1.5 is not an integer"):
            ColoredGraph(3, rows)
        for rows, bad in ((((0, True), (True, 0)), "[0][1] = True"),
                          ((("0", "1"), ("1", "0")), "[0][0] = '0'"),
                          (np.ones((2, 2), dtype=bool), "[0][0] = True")):
            with pytest.raises(StructuralError, match=f"edge colour {re.escape(bad)} "):
                ColoredGraph(2, rows)

    def test_negative_colours_are_coded(self):
        graph = ColoredGraph(3, [[0, -2, -2], [-2, 0, -2], [-2, -2, 0]])
        assert graph.n_edge_colors == 1
        assert automorphism_group(graph).order() == 6

    def test_sparse_colours_are_coded_densely(self):
        twin = np.array([[0, 2, 1, 1], [2, 0, 1, 1], [1, 1, 0, 2], [1, 1, 2, 0]])
        graph = ColoredGraph(4, np.choose(twin, [0, 7, 40]))
        assert graph.n_edge_colors == 3  # 7 and 40 rank 1 and 2 after 0
        assert np.array_equal(graph.edge_colors, ColoredGraph(4, twin).edge_colors)

    def test_huge_colour_ids_give_the_dense_twins_generators(self):
        twin = np.array([[0, 1, 0, 0, 1], [1, 0, 1, 0, 0], [0, 1, 0, 1, 0],
                         [0, 0, 1, 0, 1], [1, 0, 0, 1, 0]])
        graph = ColoredGraph(5, twin * 10**9)
        assert np.array_equal(graph.edge_colors, ColoredGraph(5, twin).edge_colors)
        assert automorphism_group(graph).generators == automorphism_group(
            ColoredGraph(5, twin)).generators

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_colours_are_coded_as_the_reference_codes_them(self, data):
        n = data.draw(st.integers(1, 7), label="n")
        group = data.draw(st.sampled_from(["dense", "sparse", "negative", "past int64"]))
        if group == "dense":  # 0, 1, ..., k-1 off the diagonal, each present
            ids = data.draw(arrays(np.intp, (n, n), elements=st.integers(0, 5)))
            np.fill_diagonal(ids, 0)
            ids = np.unique(ids, return_inverse=True)[1].reshape(n, n)
            np.fill_diagonal(ids, data.draw(st.integers(-9, 9)))
        elif group == "sparse":
            ids = data.draw(arrays(np.intp, (n, n), elements=st.sampled_from([0, 3, 7, 40, 10**9])))
        elif group == "negative":
            ids = data.draw(arrays(np.intp, (n, n), elements=st.integers(-6, 2)))
        else:  # Python ints, past what an intp holds
            values = st.sampled_from([0, 5, -(2**63) - 9, 2**63, 2**64 + 1, 3**50])
            ids = np.array(data.draw(st.lists(values, min_size=n * n, max_size=n * n)),
                           dtype=object).reshape(n, n)
        expected = np.array(ids, dtype=object)
        np.fill_diagonal(expected, 0)
        expected = np.unique(expected, return_inverse=True)[1].reshape(n, n)
        np.fill_diagonal(expected, -1)
        graph = ColoredGraph(n, ids)
        assert graph.edge_colors.dtype == np.intp
        assert np.array_equal(graph.edge_colors, expected)
        assert graph.n_edge_colors == expected.max() + 1

    def test_dense_ids_are_their_own_codes(self):
        ids = np.array([[0, 2, 1], [2, 0, 1], [1, 1, 0]])
        assert _encode_scaled(1, ids)[2] is ids
        shifted = ids + 1  # no 0: coded by rank, into a new array
        codes = _encode_scaled(1, shifted)[2]
        assert np.array_equal(codes, ids) and not np.shares_memory(codes, shifted)

    def test_color_counts(self, c7, c56):
        assert colored_graph_from_config(c7).n_edge_colors == 2
        assert colored_graph_from_config(c56).n_edge_colors == 3
        assert colored_graph_from_config(simplex(4)).n_edge_colors == 1

    def test_colors_sorted_by_value(self, c7):
        g = colored_graph_from_config(c7)
        i, j = 0, 1  # labels 12 and 13 share a vertex: inner product +1/3
        assert g.edge_colors[i][j] == 1

    def test_adjacency_validation(self):
        with pytest.raises(StructuralError):
            colored_graph_from_adjacency(((0, 2), (2, 0)))
        with pytest.raises(StructuralError):
            colored_graph_from_adjacency(((1, 0), (0, 0)))
        with pytest.raises(StructuralError):
            colored_graph_from_adjacency(((0, 1), (0, 0)))


class TestAutomorphismGroup:
    def test_figure1_trivial(self, figure1):
        group = automorphism_group(colored_graph_from_adjacency(figure1))
        assert group.order() == 1

    def test_complement_matches(self, figure1):
        comp = adjacency_complement(figure1)
        group = automorphism_group(colored_graph_from_adjacency(comp))
        assert group.order() == 1

    def test_c7_prime_384(self, c7p):
        group = automorphism_group(colored_graph_from_config(c7p))
        assert group.order() == 384

    @pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
    def test_cn_symmetric_group(self, n):
        c = simplex_midpoints(n)
        group = automorphism_group(colored_graph_from_config(c))
        assert group.order() == math.factorial(n + 1)

    def test_c3_octahedron_exception(self):
        group = automorphism_group(colored_graph_from_config(simplex_midpoints(3)))
        assert group.order() == 48
        assert group.order() > math.factorial(4)

    def test_square_dihedral(self):
        group = automorphism_group(colored_graph_from_adjacency(square_cycle_adjacency()))
        assert group.order() == 8

    def test_single_vertex(self):
        c = Configuration.from_gram([[1]])
        group = automorphism_group(colored_graph_from_config(c))
        assert group.order() == 1

    def test_generators_preserve_gram(self, c7p, paulus_r, d4_kissing):
        for c in (c7p, paulus_r, d4_kissing):
            g = gram_entries(c.gram)
            group = automorphism_group(colored_graph_from_config(c))
            for p in group.generators:
                for i in range(len(g)):
                    for j in range(len(g)):
                        assert g[p[i]][p[j]] == g[i][j]


class TestOrbitsAndStabilizers:
    def test_c7p_orbits(self, c7p):
        group = automorphism_group(colored_graph_from_config(c7p))
        sizes = sorted(len(o) for o in group.orbits())
        assert sizes == [4, 24]
        tetra = set(default_distinguished_tetrahedron())
        small = next(o for o in group.orbits() if len(o) == 4)
        assert set(small) == tetra

    def test_trivial_group_singletons(self, paulus_r):
        group = automorphism_group(colored_graph_from_config(paulus_r))
        assert all(len(o) == 1 for o in group.orbits())

    def test_cn_transitive(self):
        c = simplex_midpoints(5)
        group = automorphism_group(colored_graph_from_config(c))
        assert len(group.orbits()) == 1

    def test_c7p_stabilizer_orders(self, c7p):
        group = automorphism_group(colored_graph_from_config(c7p))
        tetra = default_distinguished_tetrahedron()
        assert group.point_stabilizer(tetra[0]).order() == 96
        other = next(i for i in range(28) if i not in tetra)
        assert group.point_stabilizer(other).order() == 16

    def test_orbit_stabilizer_identity(self, c7p, cube_config, d4_kissing):
        for c in (c7p, cube_config, d4_kissing):
            group = automorphism_group(colored_graph_from_config(c))
            order = group.order()
            orbit_of = {}
            for o in group.orbits():
                for i in o:
                    orbit_of[i] = len(o)
            for i in range(c.size):
                assert order == orbit_of[i] * group.point_stabilizer(i).order()

    @pytest.mark.parametrize("point", [-1, 28])
    def test_stabilizer_point_out_of_range(self, c7p, point):
        group = automorphism_group(colored_graph_from_config(c7p))
        with pytest.raises(StructuralError, match=f"^point index {point} out of range$"):
            group.point_stabilizer(point)

    def test_trivial_stabilizer_of_trivial_group(self):
        group = PermutationGroup(5, ())
        assert group.order() == 1
        assert group.point_stabilizer(2).order() == 1

    def test_known_group_sanity(self):
        s4 = PermutationGroup(4, [(1, 0, 2, 3), (1, 2, 3, 0)])
        assert s4.order() == 24
        assert contains(s4, (3, 2, 1, 0))
        assert s4.point_stabilizer(0).order() == 6
        c5 = PermutationGroup(5, [(1, 2, 3, 4, 0)])
        assert c5.order() == 5
        assert not contains(c5, (1, 0, 2, 3, 4))


class TestIntegerInputs:
    """The degree, every generator entry and a stabilized point are Python or
    numpy integers, not bools; anything else would be truncated or parsed."""

    @pytest.mark.parametrize("build, message", [
        (lambda: PermutationGroup(3, [(1, 0, 2.7)]), r"generator \[0\]\[2\] = 2.7 "),
        (lambda: PermutationGroup(3, [(True, False, 2)]), r"generator \[0\]\[0\] = True "),
        (lambda: PermutationGroup(3, [(1, 0, 2), ("1", "0", "2")]),
         r"generator \[1\]\[0\] = '1' "),
        (lambda: PermutationGroup(3, [(1.0, 0.0, 2.0)]), r"generator \[0\]\[0\] = 1.0 "),
        (lambda: PermutationGroup(2.5), "degree 2.5 "),
        (lambda: PermutationGroup(3, [(1, 0, 2)]).point_stabilizer(2.5), "point index 2.5 "),
        (lambda: PermutationGroup(3, [(1, 0, 2)]).point_stabilizer(True), "point index True "),
    ], ids=["float-entry", "bool-entries", "string-entries", "integral-floats", "float-degree",
            "float-point", "bool-point"])
    def test_non_integers_rejected(self, build, message):
        with pytest.raises(StructuralError, match=f"^{message}is not an integer$"):
            build()

    @pytest.mark.parametrize("degree", [-1, -3])
    def test_negative_degree_rejected(self, degree):
        with pytest.raises(StructuralError, match=f"^degree {degree} is negative$"):
            PermutationGroup(degree)

    def test_numpy_integers_accepted(self):
        group = PermutationGroup(np.int64(3), [np.array([1, 0, 2]), (np.int32(0), 2, 1)])
        assert group.degree == 3 and type(group.degree) is int
        assert group.generators == ((1, 0, 2), (0, 2, 1))
        assert all(type(x) is int for g in group.generators for x in g)
        assert group.point_stabilizer(np.int64(2)).generators == ((1, 0, 2),)


class TestBuiltOnce:
    @pytest.mark.parametrize(
        "attr", ["degree", "generators", "_order", "_first_stabilizer"])
    def test_attributes_cannot_be_assigned(self, c7p, attr):
        group = automorphism_group(colored_graph_from_config(c7p))
        for g in (group, group.point_stabilizer(5), group._first_stabilizer[1]):
            with pytest.raises(AttributeError):
                setattr(g, attr, getattr(g, attr))
            with pytest.raises(AttributeError):
                delattr(g, attr)

    def test_a_known_order_builds_no_chain(self, c7p, monkeypatch):
        group = automorphism_group(colored_graph_from_config(c7p))
        stab = group.point_stabilizer(5)
        built = counted_chains(monkeypatch)
        assert (group.order(), stab.order(), group._first_stabilizer[1].order()) == (384, 16, 96)
        assert built == []

    def test_an_order_is_computed_once(self, monkeypatch):
        s4 = PermutationGroup(4, [(1, 0, 2, 3), (1, 2, 3, 0)])
        built = counted_chains(monkeypatch)
        assert s4.order() == s4.order() == 24
        assert len(built) == 1


def counted_chains(monkeypatch) -> list:
    """From now on, the arguments of every stabilizer chain built."""
    built, chain = [], symmetry._StabilizerChain
    monkeypatch.setattr(symmetry, "_StabilizerChain",
                        lambda *args, **kw: built.append(args) or chain(*args, **kw))
    return built


class TestFixedSubspace:
    def test_cube_vertex_stabilizer(self, cube_config):
        group = automorphism_group(colored_graph_from_config(cube_config))
        stab = group.point_stabilizer(0)
        assert fixed_subspace_dim(cube_config, stab) == 1

    def test_trivial_group_fixes_span(self, paulus_r):
        trivial = PermutationGroup(paulus_r.size, ())
        assert fixed_subspace_dim(paulus_r, trivial) == 12

    def test_c7p_dims_constant_on_orbits(self, c7p):
        group = automorphism_group(colored_graph_from_config(c7p))
        tetra = set(default_distinguished_tetrahedron())
        for i in range(c7p.size):
            dim = fixed_subspace_dim(c7p, group.point_stabilizer(i))
            assert dim == (1 if i in tetra else 2)

    def test_rejects_non_preserving_group(self, c7p):
        bad = PermutationGroup(c7p.size, [tuple([1, 0] + list(range(2, 28)))])
        with pytest.raises(StructuralError, match="preserve"):
            fixed_subspace_dim(c7p, bad)


class TestGroupBalanced:
    def test_c7_prime(self, c7p):
        verdict = check_group_balanced(c7p)
        assert not verdict.group_balanced
        tetra = set(default_distinguished_tetrahedron())
        assert set(verdict.witnesses) == set(range(28)) - tetra

    def test_paulus(self, paulus_r):
        verdict = check_group_balanced(paulus_r)
        assert not verdict.group_balanced
        assert verdict.witnesses == tuple(range(25))

    def test_cube(self, cube_config):
        assert check_group_balanced(cube_config).group_balanced

    def test_cross_polytope(self):
        assert check_group_balanced(cross_polytope(4)).group_balanced
