"""The Gram value table against the per-entry algorithms it replaced.

Every shell, spectrum, histogram, colouring and file writer reads
`GramMatrix.values` / `GramMatrix.colours`, and float mode reads
`CoordinateSet.shells`.  The `reference_*` functions below are the earlier
implementations, which rebuilt the partition from the n^2 entries each time
(sets and dicts of Fractions, one str() per entry, one clustering per row and
function).  The library must reproduce their output exactly.
"""

from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import gram_entries
from balanced.balance import Violation, check_balanced
from balanced.constructors import (
    antipodal_union,
    cross_polytope,
    cube,
    simplex,
    simplex_midpoints,
)
from balanced.designs import (
    TheoremOneVerdict,
    design_strength,
    gram_value_counts,
    theorem1_check,
)
from balanced.exact import Configuration, inner_product_spectrum
from balanced.files import configuration_from_dict, configuration_to_dict
from balanced.numerics import (
    AmbiguousShellError,
    CoordinateSet,
    FloatBalanceReport,
    FloatViolation,
    check_balanced_float,
    design_strength_float,
    poles_and_ring_coordinates,
    theorem1_check_float,
)
from balanced.symmetry import ColoredGraph, colored_graph_from_adjacency, colored_graph_from_config
from reference_balance import shell_decomposition
from reference_designs import gegenbauer_eval
from reference_numerics import split_one_row

# --- exact references -------------------------------------------------------


def reference_spectrum(c):
    g = gram_entries(c.gram)
    return tuple(sorted({g[i][j] for i in range(c.size) for j in range(c.size) if i != j}))


def reference_shells(c, i):
    g = gram_entries(c.gram)
    buckets = {}
    for j in range(c.size):
        if j != i:
            buckets.setdefault(g[i][j], []).append(j)
    return tuple((u, tuple(buckets[u])) for u in sorted(buckets))


def reference_value_counts(c):
    counts = Counter()
    for row in gram_entries(c.gram):
        counts.update(row)
    return counts


def reference_theorem1_counts(c):
    g = gram_entries(c.gram)
    per_point = []
    for i in range(c.size):
        vals = {g[i][j] for j in range(c.size) if j != i}
        vals.discard(Fraction(1))
        vals.discard(Fraction(-1))
        per_point.append(len(vals))
    return tuple(per_point)


def reference_violations(c):
    """Shell sums in Fractions, shells found by comparing entries."""
    g = gram_entries(c.gram)
    n = c.size
    out = []
    for i in range(n):
        for u, members in reference_shells(c, i):
            sums = [sum(g[j][m] for j in members) for m in range(n)]
            deviation = tuple(sums[m] - sums[i] * g[i][m] for m in range(n))
            if any(deviation):
                out.append(Violation(point=i, shell_value=u, deviation=deviation))
    return tuple(out)


def reference_to_dict(c):
    doc = {}
    if c.label is not None:
        doc["label"] = c.label
    if c.point_labels is not None:
        doc["labels"] = list(c.point_labels)
    doc["gram"] = [[str(x) for x in row] for row in gram_entries(c.gram)]
    return doc


def reference_edge_colors(c):
    values = reference_spectrum(c)
    index = {u: k for k, u in enumerate(values)}
    g = gram_entries(c.gram)
    return tuple(
        tuple(-1 if i == j else index[g[i][j]] for j in range(c.size)) for i in range(c.size)
    )


def reference_moments(c, cap):
    """One Gegenbauer recurrence per (value, degree), restarted for each k."""
    n = c.ambient_dim

    def zonal(k, u):
        if n == 1:
            return Fraction([1, u][k]) if k < 2 else Fraction(0)
        return gegenbauer_eval(n, k, u)

    counts = reference_value_counts(c)
    return {k: sum(m * zonal(k, u) for u, m in counts.items()) for k in range(1, cap + 1)}


def check_against_references(c):
    g = gram_entries(c.gram)
    n = c.size
    values, colours = c.gram.values, c.gram.colours
    assert values == tuple(sorted({x for row in g for x in row}))
    assert colours.shape == (n, n) and not colours.flags.writeable
    assert all(values[colours[i][j]] == g[i][j] for i in range(n) for j in range(n))
    assert inner_product_spectrum(c) == reference_spectrum(c)
    for i in range(n):
        assert shell_decomposition(c, i).shells == reference_shells(c, i)
    if n <= 60:  # the Fraction reference is cubic in n
        assert check_balanced(c).violations == reference_violations(c)
    assert gram_value_counts(c) == reference_value_counts(c)
    assert theorem1_check(c, 4).per_point_k == reference_theorem1_counts(c)
    assert configuration_to_dict(c) == reference_to_dict(c)
    graph = colored_graph_from_config(c)
    assert graph.edge_colors.tolist() == list(map(list, reference_edge_colors(c)))
    assert graph.n_edge_colors == len(reference_spectrum(c))


# --- rational configurations --------------------------------------------------

small_rationals = st.builds(Fraction, st.integers(-5, 5), st.integers(1, 4))


@st.composite
def rational_configurations(draw):
    """Rational unit vectors by inverse stereographic projection, some of
    them joined by their antipodes."""
    d = draw(st.integers(2, 4))
    ts = draw(st.lists(st.tuples(*[small_rationals] * (d - 1)), min_size=1, max_size=8))
    points = []
    for t in ts:
        q = sum(x * x for x in t)
        points.append(tuple(2 * x / (q + 1) for x in t) + ((q - 1) / (q + 1),))
    flips = draw(st.lists(st.booleans(), min_size=len(points), max_size=len(points)))
    points += [tuple(-x for x in p) for p, f in zip(points, flips) if f]
    points = list(dict.fromkeys(points))  # distinct points only
    gram = [[sum(a * b for a, b in zip(p, q)) for q in points] for p in points]
    return Configuration.from_gram(gram, label="stereographic")


@settings(max_examples=150, deadline=None)
@given(rational_configurations())
def test_value_table_matches_references_on_rational_configurations(c):
    check_against_references(c)
    assert design_strength(c, 6).per_k_moment == reference_moments(c, 6)


BUNDLED = ["c7", "c7p", "c56", "paulus_r", "paulus_s", "cube_config", "z2_kissing",
           "d4_kissing", "e8_kissing"]


@pytest.mark.parametrize("name", BUNDLED)
def test_value_table_matches_references_on_bundled_configurations(name, request):
    c = request.getfixturevalue(name)
    check_against_references(c)
    assert design_strength(c, 12).per_k_moment == reference_moments(c, 12)


@pytest.mark.parametrize(
    "config",
    [cross_polytope(4), antipodal_union(simplex_midpoints(7)), simplex(5), cube(),
     Configuration.from_gram([[1]])],
    ids=["cross4", "c7-union-minus-c7", "simplex5", "cube", "one-point"],
)
def test_antipodes_and_edge_cases_match_references(config):
    check_against_references(config)
    assert design_strength(config, 8).per_k_moment == reference_moments(config, 8)


def test_written_gram_reparses_to_the_same_table(c7p):
    again = configuration_from_dict(configuration_to_dict(c7p))
    assert again.gram.values == c7p.gram.values
    assert np.array_equal(again.gram.colours, c7p.gram.colours)


def test_one_dimensional_moments():
    # S^0: only degree 1 carries a moment
    c = Configuration.from_gram([[1, -1], [-1, 1]])
    assert c.ambient_dim == 1
    assert design_strength(c, 5).per_k_moment == reference_moments(c, 5)


def test_n_edge_colors_is_set_at_construction(c56):
    graph = colored_graph_from_config(c56)
    assert "n_edge_colors" in vars(graph)
    assert graph.n_edge_colors == 3
    assert colored_graph_from_adjacency(((0, 1), (1, 0))).n_edge_colors == 2
    assert colored_graph_from_adjacency(((0, 0), (0, 0))).n_edge_colors == 1
    assert ColoredGraph(size=1, edge_colors=((-1,),)).n_edge_colors == 0


# --- float references -----------------------------------------------------------


def reference_check_balanced_float(p, tol):
    pts = p.points
    unit = pts / np.linalg.norm(pts, axis=1, keepdims=True)
    gram = unit @ unit.T
    n = p.size
    violations = []
    for i in range(n):
        others = [j for j in range(n) if j != i]
        for u in split_one_row([gram[i][j] for j in others], tol):
            members = [j for j in others if abs(gram[i][j] - u) <= tol]
            shell_sum = unit[members].sum(axis=0)
            coeff = float(shell_sum @ unit[i])
            dev_norm = float(np.linalg.norm(shell_sum - coeff * unit[i]))
            if dev_norm > tol * max(1.0, float(len(members))):
                violations.append(
                    FloatViolation(point=i, shell_value=float(u), deviation_norm=dev_norm)
                )
    return FloatBalanceReport(balanced=not violations, violations=tuple(violations), tol=tol)


def reference_theorem1_check_float(p, cap, tol):
    pts = p.points
    unit = pts / np.linalg.norm(pts, axis=1, keepdims=True)
    gram = np.clip(unit @ unit.T, -1.0, 1.0)
    n = p.size
    per_point = []
    for i in range(n):
        reps = split_one_row([gram[i][j] for j in range(n) if j != i], tol)
        per_point.append(sum(abs(u - 1.0) > tol and abs(u + 1.0) > tol for u in reps))
    strength = design_strength_float(p, cap, tol).strength
    return TheoremOneVerdict(tuple(per_point), strength, max(per_point) <= strength)


def rotated(p, seed):
    q, _ = np.linalg.qr(np.random.default_rng(seed).normal(size=(p.dim, p.dim)))
    return CoordinateSet(points=p.points @ q, label=p.label)


def tilted_pole(k, tilt):
    """Poles and ring with the north pole tilted towards the first ring point."""
    pts = poles_and_ring_coordinates(k).points.copy()
    pts[0, 0] = tilt
    return CoordinateSet(points=pts, label=f"tilted pole({k})")


def random_sphere_points(seed, n=20, dim=3):
    pts = np.random.default_rng(seed).normal(size=(n, dim))
    return CoordinateSet(points=pts / np.linalg.norm(pts, axis=1, keepdims=True))


FLOAT_CASES = (
    [poles_and_ring_coordinates(k) for k in (3, 4, 5, 8)]
    + [rotated(poles_and_ring_coordinates(k), seed) for k, seed in ((5, 1), (6, 2), (9, 3))]
    + [tilted_pole(5, 5.4e-7), tilted_pole(7, 5e-10)]
    + [random_sphere_points(seed) for seed in range(6)]
    + [random_sphere_points(seed, n=9, dim=5) for seed in range(6, 9)]
)


@pytest.mark.parametrize("points", FLOAT_CASES)
@pytest.mark.parametrize("tol", [1e-9, 1e-6])
def test_float_shells_match_per_function_clustering(points, tol):
    try:
        expected = (reference_check_balanced_float(points, tol),
                    reference_theorem1_check_float(points, 6, tol))
    except AmbiguousShellError:
        with pytest.raises(AmbiguousShellError):
            check_balanced_float(CoordinateSet(points=points.points), tol)
        return
    # a fresh set, so the order of the two calls decides who clusters first
    fresh = CoordinateSet(points=points.points)
    assert theorem1_check_float(fresh, 6, tol) == expected[1]
    assert check_balanced_float(fresh, tol) == expected[0]
    assert check_balanced_float(points, tol) == expected[0]
    assert theorem1_check_float(points, 6, tol) == expected[1]


def test_float_rows_are_clustered_once_per_tolerance():
    p = poles_and_ring_coordinates(6)
    first = p.shells(1e-9)
    check_balanced_float(p, 1e-9)
    theorem1_check_float(p, 4, 1e-9)
    assert p.shells(1e-9) is first
    assert p.shells(1e-6) is not first
    north = dict((round(u, 9), tuple(m)) for u, m in first[0])
    assert north == {-1.0: (1,), 0.0: (2, 3, 4, 5, 6, 7)}


@pytest.mark.parametrize("sign", [1, -1])
def test_value_table_past_int64(sign):
    # den = lcm(50695, 296841182339356) lies in [2^63, 2^64), where numpy
    # alone would store the scaled entries as float64
    a, b = Fraction(sign, 50695), Fraction(1, 296841182339356)
    rows = [[1, 0, a], [0, 1, b], [a, b, 1]]
    c = Configuration.from_gram(rows)
    assert 2**63 <= c.gram.den < 2**64
    if sign > 0:
        assert c.gram.values == (0, b, a, 1)
        assert c.gram.colours.tolist() == [[3, 0, 2], [0, 3, 1], [2, 1, 3]]
    else:
        assert c.gram.values == (a, 0, b, 1)
        assert c.gram.colours.tolist() == [[3, 1, 0], [1, 3, 2], [0, 2, 3]]
    check_against_references(c)
