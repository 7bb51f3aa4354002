from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from balanced.constructors import (
    ConstructionError,
    SrgParams,
    antipodal_union,
    cross_polytope,
    default_distinguished_tetrahedron,
    invert_tetrahedron,
    simplex,
    simplex_midpoints,
    srg_params,
    srg_spectral_embedding,
    standard_polytope,
)
from balanced.designs import design_strength, theorem1_check
from balanced.exact import Configuration, InvariantError, StructuralError, inner_product_spectrum
from balanced.numerics import CoordinateSet, poles_and_ring_coordinates
from balanced.symmetry import adjacency_complement, colored_graph_from_adjacency
from conftest import count_tetrahedra, gram_entries, srg_params_loop


def petersen_adjacency():
    verts = list(combinations(range(5), 2))
    return tuple(
        tuple(1 if not set(u) & set(v) else 0 for v in verts) for u in verts
    )


def graph_from(n, edge):
    return tuple(tuple(int(i != j and edge(i, j)) for j in range(n)) for i in range(n))


def triangular_graph(m):
    """T(m): the pairs of an m-set, adjacent when they share one element."""
    pairs = list(combinations(range(m), 2))
    return graph_from(len(pairs), lambda i, j: len(set(pairs[i]) & set(pairs[j])) == 1)


def rook_graph(m):
    """L2(m): the cells of an m x m grid, adjacent in a row or a column."""
    return graph_from(m * m, lambda i, j: i // m == j // m or i % m == j % m)


def paley_graph(q):
    squares = {x * x % q for x in range(1, q)}
    return graph_from(q, lambda i, j: (i - j) % q in squares)


@st.composite
def small_graphs(draw):
    """Symmetric 0/1 matrices on at most 12 vertices: arbitrary edge sets, and
    relabelled circulants, which are regular and include strongly regular
    graphs such as C5, 2K3 and K_{2,2,2}."""
    n = draw(st.integers(0, 12))
    if draw(st.booleans()):
        jumps = draw(st.sets(st.integers(1, max(n - 1, 1))))
        jumps |= {n - s for s in jumps}
        label = draw(st.permutations(range(n)))
        return graph_from(n, lambda i, j: (label[i] - label[j]) % n in jumps)
    edges = draw(st.sets(st.tuples(st.integers(0, max(n - 1, 0)), st.integers(0, max(n - 1, 0)))))
    return graph_from(n, lambda i, j: (i, j) in edges or (j, i) in edges)


def srg_outcome(f, adjacency):
    try:
        return f(adjacency)
    except StructuralError as exc:
        return type(exc), str(exc)


@settings(max_examples=300, deadline=None)
@given(small_graphs())
def test_srg_params_matches_the_loop(adjacency):
    assert srg_outcome(srg_params, adjacency) == srg_outcome(srg_params_loop, adjacency)


@pytest.mark.parametrize("name, adjacency, params", [
    ("petersen", petersen_adjacency(), (10, 3, 0, 1)),
    ("T(5)", triangular_graph(5), (10, 6, 3, 4)),
    ("L2(4)", rook_graph(4), (16, 6, 2, 2)),
    ("paley(13)", paley_graph(13), (13, 6, 2, 3)),
])
def test_srg_params_of_named_graphs(name, adjacency, params):
    assert srg_params(adjacency) == srg_params_loop(adjacency) == SrgParams(*params)


def test_srg_params_of_figure1_and_complement(figure1):
    for adjacency in (figure1, adjacency_complement(figure1)):
        assert srg_params(adjacency) == srg_params_loop(adjacency)
    assert srg_params(adjacency_complement(figure1)) == SrgParams(25, 12, 5, 6)


def five_cycle(case=None):
    """C5, strongly regular (5,2,0,1), with one defect that only the
    adjacency entry checks can reject."""
    a = [[int((i - j) % 5 in (1, 4)) for j in range(5)] for i in range(5)]
    if case == "ragged":
        a[2].pop()
    elif case == "asymmetric":
        a[0][2] = 1
    elif case == "diagonal":
        a[3][3] = 1
    elif case is not None:
        a[1][3] = a[3][1] = case  # vertices 1 and 3 are not adjacent
    return a


MALFORMED = [
    ("ragged", "adjacency row 2 has length 4"),
    (2, "adjacency entry [1][3] = 2 not 0/1"),
    (-1, "adjacency entry [1][3] = -1 not 0/1"),
    (1.5, "adjacency entry [1][3] = 1.5 not 0/1"),
    ("1", "adjacency entry [1][3] = 1 not 0/1"),
    ("x", "adjacency entry [1][3] = x not 0/1"),
    ("asymmetric", "adjacency not symmetric at [0][2]"),
    ("diagonal", "adjacency diagonal [3][3] nonzero"),
]


@pytest.mark.parametrize("entry_point", [
    srg_params, colored_graph_from_adjacency, adjacency_complement, srg_spectral_embedding])
@pytest.mark.parametrize("case, message", MALFORMED, ids=[repr(c) for c, _ in MALFORMED])
def test_every_adjacency_entry_point_rejects_alike(entry_point, case, message):
    assert srg_params(five_cycle()) == SrgParams(5, 2, 0, 1)
    with pytest.raises(StructuralError) as exc:
        entry_point(five_cycle(case))
    assert str(exc.value) == message


class TestSrgParams:
    def test_figure1(self, figure1):
        p = srg_params(figure1)
        assert (p.n, p.k, p.lam, p.mu) == (25, 12, 5, 6)
        assert not p.degenerate

    def test_petersen(self):
        p = srg_params(petersen_adjacency())
        assert (p.n, p.k, p.lam, p.mu) == (10, 3, 0, 1)

    def test_path_not_regular(self):
        path3 = ((0, 1, 0), (1, 0, 1), (0, 1, 0))
        with pytest.raises(ConstructionError, match="not regular"):
            srg_params(path3)

    def test_six_cycle_names_violating_pair(self):
        n = 6
        cyc = tuple(
            tuple(1 if (i - j) % n in (1, n - 1) else 0 for j in range(n))
            for i in range(n)
        )
        with pytest.raises(ConstructionError, match="pair"):
            srg_params(cyc)

    def test_complete_multipartite_flagged(self):
        k22 = ((0, 0, 1, 1), (0, 0, 1, 1), (1, 1, 0, 0), (1, 1, 0, 0))
        assert srg_params(k22).degenerate


class TestSpectralEmbedding:
    def test_figure1_r(self, paulus_r):
        assert paulus_r.size == 25
        assert paulus_r.ambient_dim == 12
        assert inner_product_spectrum(paulus_r) == (Fraction(-1, 4), Fraction(1, 6))

    def test_figure1_two_distance_two_design(self, paulus_r):
        assert design_strength(paulus_r, 3).strength == 2
        assert theorem1_check(paulus_r, 2).applies

    def test_figure1_s_choice(self, paulus_s, figure1):
        assert paulus_s.size == 25
        assert paulus_s.ambient_dim == 12
        # same two values as the r-choice, with adjacency roles swapped
        assert inner_product_spectrum(paulus_s) == (Fraction(-1, 4), Fraction(1, 6))
        g_r, g_s = None, gram_entries(paulus_s.gram)
        from balanced.constructors import srg_spectral_embedding

        g_r = gram_entries(srg_spectral_embedding(figure1, "r").gram)
        i, j = next(
            (a, b) for a in range(25) for b in range(25) if a != b and figure1[a][b]
        )
        assert g_r[i][j] == Fraction(1, 6) and g_s[i][j] == Fraction(-1, 4)

    def test_pentagon_rejected(self):
        n = 5
        pent = tuple(
            tuple(1 if (i - j) % n in (1, n - 1) else 0 for j in range(n))
            for i in range(n)
        )
        with pytest.raises(ConstructionError, match="irrational"):
            srg_spectral_embedding(pent, "r")

    def test_degenerate_rejected(self):
        k22 = ((0, 0, 1, 1), (0, 0, 1, 1), (1, 1, 0, 0), (1, 1, 0, 0))
        with pytest.raises(ConstructionError, match="degenerate"):
            srg_spectral_embedding(k22, "r")

    def test_petersen_embedding(self):
        c = srg_spectral_embedding(petersen_adjacency(), "r")
        assert c.size == 10 and c.ambient_dim == 5

    def test_rank_against_multiplicity_is_an_invariant(self, figure1, monkeypatch):
        # the theta-projection has rank mult(theta) for every SRG, so only a
        # defect can break the check: it is not malformed input
        multiplicity = SrgParams.multiplicity
        monkeypatch.setattr(SrgParams, "multiplicity", lambda p, eig: multiplicity(p, eig) + 1)
        with pytest.raises(InvariantError, match=r"^embedding rank 12 != multiplicity 13$"):
            srg_spectral_embedding(figure1, "r")

    def test_adjacency_is_checked_once(self, figure1, monkeypatch):
        from balanced import constructors
        calls = []
        check = constructors.adjacency_matrix
        monkeypatch.setattr(constructors, "adjacency_matrix",
                            lambda rows: calls.append(rows) or check(rows))
        srg_spectral_embedding(figure1)
        assert len(calls) == 1

    def test_theorem1_always_applies(self, paulus_r, paulus_s):
        for c in (paulus_r, paulus_s):
            assert theorem1_check(c, 2).applies

    def test_both_eigenspace_choices_same_verdicts(self, paulus_r, paulus_s):
        from balanced.balance import check_balanced
        from balanced.symmetry import (
            automorphism_group,
            check_group_balanced,
            colored_graph_from_config,
        )

        for c in (paulus_r, paulus_s):
            assert check_balanced(c).balanced
            group = automorphism_group(colored_graph_from_config(c))
            assert group.order() == 1
            assert not check_group_balanced(c, group=group).group_balanced


class TestSimplexMidpoints:
    def test_c7(self, c7):
        assert c7.size == 28
        assert inner_product_spectrum(c7) == (Fraction(-1, 3), Fraction(1, 3))

    def test_octahedron(self):
        c3 = simplex_midpoints(3)
        assert c3.size == 6
        assert inner_product_spectrum(c3) == inner_product_spectrum(cross_polytope(3))

    def test_c4_values(self):
        c4 = simplex_midpoints(4)
        assert c4.size == 10
        assert inner_product_spectrum(c4) == (Fraction(-2, 3), Fraction(1, 6))

    def test_counts_per_row(self, c7):
        g = gram_entries(c7.gram)
        row = g[0]
        assert sum(1 for x in row if x == Fraction(1, 3)) == 12
        assert sum(1 for x in row if x == Fraction(-1, 3)) == 15

    def test_domain_error(self):
        with pytest.raises(ConstructionError):
            simplex_midpoints(2)

    def test_labels(self, c7):
        assert c7.point_labels[0] == "12"
        assert c7.point_labels[-1] == "78"


class TestInvertTetrahedron:
    def test_default_matches_label_pairs(self, c7):
        tetra = default_distinguished_tetrahedron()
        assert tuple(c7.point_labels[i] for i in tetra) == ("12", "34", "56", "78")

    def test_spectrum_preserved(self, c7p):
        assert inner_product_spectrum(c7p) == (Fraction(-1, 3), Fraction(1, 3))

    def test_design_preserved(self, c7, c7p):
        assert design_strength(c7, 2).strength == 2
        assert design_strength(c7p, 2).strength == 2

    def test_bad_tetra_rejected(self, c7):
        # labels 12 and 13 share a vertex: inner product +1/3
        with pytest.raises(ConstructionError, match="-1/3"):
            invert_tetrahedron(c7, (0, 1, 2, 3))

    def test_flip_signs(self, c7, c7p):
        tetra = set(default_distinguished_tetrahedron())
        g, gp = gram_entries(c7.gram), gram_entries(c7p.gram)
        for i in range(28):
            for j in range(28):
                sign = -1 if (i in tetra) != (j in tetra) else 1
                assert gp[i][j] == sign * g[i][j]

    def test_labels_marked(self, c7p):
        tetra = default_distinguished_tetrahedron()
        assert c7p.point_labels[tetra[0]] == "-12"


class TestCountTetrahedra:
    def test_c7_all_fifteen(self, c7):
        assert count_tetrahedra(c7, 0) == 15
        assert count_tetrahedra(c7, 17) == 15

    def test_c7p_counts(self, c7p):
        tetra = default_distinguished_tetrahedron()
        for i in tetra:
            assert count_tetrahedra(c7p, i) == 7
        for i in range(28):
            if i not in tetra:
                assert count_tetrahedra(c7p, i) == 11


class TestAntipodalUnion:
    def test_c7_union(self, c7, c56):
        assert c56.size == 56
        assert inner_product_spectrum(c56) == (
            Fraction(-1),
            Fraction(-1, 3),
            Fraction(1, 3),
        )

    def test_single_point(self):
        u = antipodal_union(Configuration.from_gram([[1]]))
        assert u.size == 2
        assert inner_product_spectrum(u) == (Fraction(-1),)

    def test_rejects_existing_antipode(self):
        with pytest.raises(ConstructionError, match="antipodal"):
            antipodal_union(cross_polytope(3))


class TestStandardPolytopes:
    def test_cube_spectrum(self, cube_config):
        assert inner_product_spectrum(cube_config) == (
            Fraction(-1),
            Fraction(-1, 3),
            Fraction(1, 3),
        )

    def test_cross_polytope(self):
        for n in (2, 3, 5):
            assert inner_product_spectrum(cross_polytope(n)) == (
                Fraction(-1),
                Fraction(0),
            )

    def test_simplex(self):
        for n in (2, 3, 7):
            assert inner_product_spectrum(simplex(n)) == (Fraction(-1, n),)

    def test_poles_and_ring_is_float(self):
        p = poles_and_ring_coordinates(5)
        assert isinstance(p, CoordinateSet)
        assert p.size == 7 and p.dim == 3

    def test_dispatcher(self):
        assert standard_polytope("cube").size == 8
        assert standard_polytope("cross-polytope", n=4).size == 8
        assert standard_polytope("simplex", n=3).size == 4
        assert standard_polytope("poles-and-ring", k=4).size == 6
        with pytest.raises(ConstructionError):
            standard_polytope("dodecahedron")
        with pytest.raises(ConstructionError):
            standard_polytope("simplex")


class TestFigure1Asset:
    def test_shape_and_symmetry(self, figure1):
        assert len(figure1) == 25
        assert all(len(row) == 25 for row in figure1)
        assert all(figure1[i][j] == figure1[j][i] for i in range(25) for j in range(25))
        assert all(figure1[i][i] == 0 for i in range(25))
