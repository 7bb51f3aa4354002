"""The integer Gram core against the list and Fraction references.

`reference_elimination` keeps the earlier symmetric Bareiss on lower-triangle
lists and the recursive Fraction Fincke-Pohst.  The array elimination must
give the same (perm, pivots, columns), whether it runs in int64, in Python
ints or switches between them partway; the integer enumerator must yield the
same (z, value) sequence, order included, and match a box brute force.
"""

import math
import random
from unittest import mock
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import reference_elimination as ref
from conftest import (
    balance_oracle,
    cube_vectors,
    gram_entries,
    midpoint_vectors,
    recorded,
    spy_arithmetic,
)
from balanced import balance, exact, lattice, symmetry
from balanced.balance import check_balanced
from balanced.constructors import (
    antipodal_union,
    c7_prime,
    figure1_adjacency,
    simplex_midpoints,
    srg_spectral_embedding,
)
from balanced.exact import (
    Configuration,
    GramMatrix,
    IndefinitePivotError,
    Scaled,
    StructuralError,
    _bareiss,
    _eliminate,
    _tabulate,
    gram_rank,
)
from balanced.lattice import (
    LatticeGram,
    QuadraticForm,
    bundled_lattice,
    enumerate_quadratic,
    kissing_configuration,
    minimal_norm,
    short_vectors,
)
from balanced.symmetry import (
    automorphism_group,
    check_group_balanced,
    colored_graph_from_config,
    fixed_subspace_dim,
)

# --- elimination --------------------------------------------------------------


def check_elimination(m):
    _, rows = ref.scaled(m)
    try:
        expected = ref.elimination(rows)
    except ref.ReferenceIndefinite:
        with pytest.raises(IndefinitePivotError):
            _eliminate(m)
        return
    e = _eliminate(m)
    columns = e.x[list(e.perm)].tolist()  # elimination order
    assert (e.perm, e.pivots, tuple(tuple(row[: i + 1]) for i, row in enumerate(columns))) == expected
    assert not any(any(row[i + 1:]) for i, row in enumerate(columns))
    assert all(type(x) is int for x in e.pivots + tuple(sum(columns, [])))
    # den * m = X diag(1 / (p_{k-1} p_k)) X^T
    den, rows = ref.scaled(m)
    weights = [Fraction(1, p * q) for p, q in zip((1,) + e.pivots, e.pivots)]
    x = e.x.tolist()
    assert [[sum(w * a * b for w, a, b in zip(weights, xi, xj)) for xj in x] for xi in x] == rows


denominators = st.one_of(st.integers(1, 6), st.integers(2**60, 2**70))
rationals = st.builds(Fraction, st.integers(-4, 4), denominators)
wide = st.builds(lambda x, s: s * x, st.integers(2**29, 2**31), st.sampled_from([1, -1]))


@st.composite
def symmetric(draw, entries, zero_diagonal=False):
    n = draw(st.integers(1, 7))
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            m[i][j] = m[j][i] = draw(entries)
        if zero_diagonal:
            m[i][i] = 0
    return m


@st.composite
def gram_products(draw, entries):
    """A^T A for an r x n matrix A (r <= n <= 7): PSD of rank at most r."""
    n = draw(st.integers(1, 7))
    r = draw(st.integers(0, n))
    a = [[draw(entries) for _ in range(n)] for _ in range(r)]
    return [[sum((row[i] * row[j] for row in a), Fraction(0)) for j in range(n)]
            for i in range(n)]


@st.composite
def low_rank(draw):
    """A^T A for an r x n matrix A, r <= 4 and n up to 40: wider than two
    panels, so a product brings the rest of the matrix up to date.  Each
    column of A is zero, a signed copy of an earlier one or new, so diagonal
    entries vanish inside a panel and a later pivot comes from outside it;
    entries near 2^21 take the pivots and the product past int64.  With
    `hidden`, the last two columns are zero and one entry joins them, an
    indefinite remainder that only the product sees."""
    n = draw(st.integers(2 * exact._PANEL + 1, 40))
    r = draw(st.integers(0, 4))
    entries = draw(st.sampled_from([st.integers(-2, 2), st.integers(2**20, 2**22)]))
    hidden = draw(st.booleans())
    columns = []
    for j in range(n):
        kind = "zero" if hidden and j >= n - 2 else draw(st.sampled_from(["zero", "copy", "new"]))
        if kind == "new":
            columns.append([draw(entries) for _ in range(r)])
        elif kind == "copy" and columns:
            columns.append([draw(st.sampled_from([1, -1])) * x for x in draw(st.sampled_from(columns))])
        else:
            columns.append([0] * r)
    m = [[sum(a * b for a, b in zip(u, v)) for v in columns] for u in columns]
    if hidden:
        m[n - 2][n - 1] = m[n - 1][n - 2] = draw(st.sampled_from([1, -3, 2**40]))
    return m


small = st.one_of(st.just(0), st.integers(-3, 3), rationals)
matrices = st.one_of(
    symmetric(small),
    symmetric(small, zero_diagonal=True),
    gram_products(st.one_of(st.integers(-2, 2), rationals)),
    symmetric(st.one_of(st.just(0), wide)),
    symmetric(st.one_of(st.just(0), wide), zero_diagonal=True),
    gram_products(st.one_of(st.just(0), st.integers(2**14, 2**16))),
    low_rank(),
)


@settings(max_examples=400, deadline=None)
@given(matrices)
def test_elimination_matches_list_reference(m):
    check_elimination(m)


@pytest.mark.parametrize("width", [1, 2, 3])
@settings(max_examples=150, deadline=None)
@given(m=matrices)
def test_narrow_panels_match_list_reference(width, m):
    """With panels of 1-3 columns even a 4 x 4 matrix takes several blocks,
    each closed by the product, and its rank passes the panel width."""
    with mock.patch.object(exact, "_PANEL", width):
        check_elimination(m)


def test_rank_above_one_panel_width():
    rng = random.Random(23)
    a = [[rng.randint(-2, 2) for _ in range(40)] for _ in range(20)]
    m = [[sum(row[i] * row[j] for row in a) for j in range(40)] for i in range(40)]
    check_elimination(m)
    assert _eliminate(m).rank == 20 > exact._PANEL


def test_indefinite_remainder_seen_by_the_product():
    # rank 2 on the first 38 indices; 38 and 39 have a zero diagonal and meet
    # only each other, beyond every panel
    n = 40
    columns = [[1, i % 3 - 1] for i in range(n - 2)] + [[0, 0], [0, 0]]
    m = [[sum(a * b for a, b in zip(u, v)) for v in columns] for u in columns]
    m[n - 2][n - 1] = m[n - 1][n - 2] = 1
    check_elimination(m)
    with pytest.raises(IndefinitePivotError, match="^zero diagonal with nonzero off-diagonal"):
        _eliminate(m)


def test_block_product_past_int64(monkeypatch):
    rng = random.Random(29)
    a = [[rng.randint(2**20, 2**21) for _ in range(36)] for _ in range(3)]
    m = [[sum(row[i] * row[j] for row in a) for j in range(36)] for i in range(36)]
    assert _tabulate(m)[3].dtype == np.int64
    sites = {}
    spy_arithmetic(monkeypatch, exact, sites)
    check_elimination(m)
    assert sites["exact._bareiss"] == {np.dtype(object)}


def test_int64_switches_to_python_ints_partway():
    # step 0 fits int64 (2 * max^2 < 2^63); its minors near 2^60 do not
    big = 2**30
    m = [[big + 11, big // 2 + 1, 3], [big // 2 + 1, big + 7, 5], [3, 5, big]]
    scaled = _tabulate(m)[3]
    assert scaled.dtype == np.int64
    _, pivots, a = _bareiss(scaled.copy())
    assert a.dtype == object and len(pivots) == 3
    check_elimination(m)


@pytest.mark.parametrize("den", [2**63 - 25, 2**63, 2**64 + 3, 3**50])
def test_denominator_past_int64(den):
    m = [[1, Fraction(1, den), 0], [Fraction(1, den), 1, Fraction(-2, den)],
         [0, Fraction(-2, den), 1]]
    scaled = _tabulate(m)[3]
    assert scaled.dtype == (np.int64 if den < 2**63 else object)
    check_elimination(m)


# --- enumeration --------------------------------------------------------------


def check_enumeration(gram, lin, const, bound):
    got = list(enumerate_quadratic(QuadraticForm(gram), lin, const, bound))
    assert got == list(ref.enumerate_quadratic(gram, lin, const, bound))
    assert all(type(x) is int for z, _ in got for x in z)
    assert all(type(v) is Fraction for _, v in got)
    return got


def cartan(kind, n):
    c = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for i in range(n - 2 if kind == "D" else n - 1):
        c[i][i + 1] = c[i + 1][i] = -1
    if kind == "D":
        c[n - 3][n - 1] = c[n - 1][n - 3] = -1
    return c


def rebased(gram, seed):
    """U G U^T for a seeded product of transvections e_i += +-e_j."""
    rng = random.Random(seed)
    n = len(gram)
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(n):
        i, j = rng.sample(range(n), 2)
        s = rng.choice((1, -1))
        u[i] = [a + s * b for a, b in zip(u[i], u[j])]
    return [[sum(u[i][k] * gram[k][l] * u[j][l] for k in range(n) for l in range(n))
             for j in range(n)] for i in range(n)]


ROOT_LATTICES = [("A", n) for n in range(2, 9)] + [("D", n) for n in range(4, 9)]


@pytest.mark.parametrize("name, bound", [("d4", 2), ("d4", 4), ("e8", 2), ("z3", 3)])
def test_bundled_lattices_match_reference(name, bound):
    g = bundled_lattice(name).entries
    got = check_enumeration(g, [0] * len(g), 0, bound)
    assert len(got) == {("d4", 2): 25, ("d4", 4): 49, ("e8", 2): 241, ("z3", 3): 27}[name, bound]


@pytest.mark.parametrize("kind, n", ROOT_LATTICES, ids=[f"{k}{n}" for k, n in ROOT_LATTICES])
def test_rebased_root_lattices_match_reference(kind, n):
    gram = rebased(cartan(kind, n), seed=100 * n + ord(kind))
    bound = min(gram[i][i] for i in range(n))
    got = check_enumeration(gram, [0] * n, 0, min(bound, 4))
    assert minimal_norm(LatticeGram(tuple(map(tuple, gram)))) == 2
    assert sum(v == 2 for _, v in got) == (n * (n + 1) if kind == "A" else 2 * n * (n - 1))


def near_minimum(gram, lin, const):
    """A rational just below the minimum of z^T G z + 2 lin.z + const over R^d."""
    g = np.array(gram, dtype=float)
    b = np.array(lin, dtype=float)
    return Fraction(float(const) - float(b @ np.linalg.solve(g, b))).limit_denominator(12)


def draw_gram(draw):
    """G = (B^T B + I) / q positive definite, d <= 5."""
    d = draw(st.integers(1, 5))
    b = [[draw(st.integers(-2, 2)) for _ in range(d)] for _ in range(d)]
    q = draw(st.integers(1, 4))
    return [[Fraction(sum(row[i] * row[j] for row in b) + (i == j), q) for j in range(d)]
            for i in range(d)]


def draw_affine(draw, gram):
    """(lin, const, bound) with the bound a little above the minimum, so that
    a box around it stays small."""
    small_rationals = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 5))
    lin = [draw(small_rationals) for _ in range(len(gram))]
    const = draw(small_rationals)
    extra = draw(st.builds(Fraction, st.integers(-2, 10), st.integers(1, 3)))
    return lin, const, near_minimum(gram, lin, const) + extra


@st.composite
def affine_forms(draw):
    """(G, lin, const, bound) as drawn by draw_gram and draw_affine."""
    gram = draw_gram(draw)
    return (gram, *draw_affine(draw, gram))


def box_brute_force(gram, lin, const, bound):
    """{z: value} over a box that contains the ellipsoid, in exact integers."""
    d = len(gram)
    g = np.array(gram, dtype=float)
    center = -np.linalg.solve(g, np.array(lin, dtype=float))
    radius2 = float(bound) - float(const) + float(np.array(lin, dtype=float) @ -center)
    inv = np.linalg.inv(g)
    ranges = []
    for i in range(d):
        r = np.sqrt(max(radius2, 0.0) * inv[i, i]) + 1
        ranges.append(range(int(np.floor(center[i] - r)), int(np.ceil(center[i] + r)) + 1))
    s = math.lcm(*(x.denominator for x in [*sum(map(list, gram), []), *lin, const, bound]))
    a = np.array([[int(x * s) for x in row] for row in gram], dtype=np.int64)
    bv = np.array([int(x * s) for x in lin], dtype=np.int64)
    z = np.array(list(product(*ranges)), dtype=np.int64).reshape(-1, d)
    values = np.einsum("ni,ij,nj->n", z, a, z) + 2 * z @ bv + int(const * s)
    keep = values <= int(bound * s)
    return {tuple(v.tolist()): Fraction(int(x), s) for v, x in zip(z[keep], values[keep])}


@settings(max_examples=150, deadline=None)
@given(affine_forms())
def test_affine_forms_match_reference_and_box(form):
    got = check_enumeration(*form)
    assert dict(got) == box_brute_force(*form)


def check_prepared(gram, affine_terms):
    """One QuadraticForm of gram, enumerated with every (lin, const, bound),
    yields what the reference yields."""
    form = QuadraticForm(gram)
    for lin, const, bound in affine_terms:
        got = list(enumerate_quadratic(form, lin, const, bound))
        assert got == list(ref.enumerate_quadratic(gram, lin, const, bound))
        assert all(type(x) is int for z, _ in got for x in z)
        assert all(type(v) is Fraction for _, v in got)


@st.composite
def prepared_forms(draw):
    """(G, [(lin, const, bound), ...]): several affine terms on one form."""
    gram = draw_gram(draw)
    return gram, [draw_affine(draw, gram) for _ in range(draw(st.integers(1, 4)))]


@settings(max_examples=100, deadline=None)
@given(prepared_forms())
def test_prepared_form_matches_reference(case):
    check_prepared(*case)


@pytest.mark.parametrize("name, bound", [("d4", 3), ("e8", 3), ("z3", 4)])
def test_prepared_bundled_form_with_affine_terms(name, bound):
    """Half-integral and thirds in the affine terms scale the form's minors
    by powers of the extra denominator; integer terms leave them as they are."""
    gram = [list(row) for row in bundled_lattice(name).entries]
    d = len(gram)
    rng = random.Random(name)
    terms = [([0] * d, 0, 2)]
    for den in (1, 2, 3, 6):
        lin = [Fraction(rng.randint(-3, 3), den) for _ in range(d)]
        terms.append((lin, Fraction(rng.randint(0, 4), den), near_minimum(gram, lin, 0) + bound))
    check_prepared(gram, terms)


def test_prepared_form_rejects_wrong_dimension():
    form = QuadraticForm([[2, 1], [1, 2]])
    assert form.dim == 2 and form.pivots == (2, 3) and form.below == ((1,), ())
    with pytest.raises(StructuralError, match="linear term has wrong dimension"):
        list(enumerate_quadratic(form, [0, 0, 0], 0, 4))
    with pytest.raises(StructuralError, match="quadratic form is not positive definite"):
        QuadraticForm([[1, 2], [2, 1]])


def test_zero_budget_and_empty_ellipsoid():
    # 3 z^2 + 2 z has its real minimum -1/3 at z = -1/3, not a lattice point
    gram, lin = [[3]], [Fraction(1)]
    assert check_enumeration(gram, lin, 0, -1) == []
    assert check_enumeration(gram, lin, 0, Fraction(-1, 3)) == []
    assert check_enumeration(gram, lin, 0, 1) == [((-1,), Fraction(1)), ((0,), Fraction(0))]


# --- one elimination per form -------------------------------------------------


def check_form(gram, form):
    """The QuadraticForm of gram holds den, the pivots and the minors under
    them of the reference elimination, which moved no pivot, as Python ints."""
    den, rows = ref.scaled(gram)
    perm, pivots, columns = ref.elimination(rows)
    d = len(gram)
    assert perm == tuple(range(d))
    assert (form.dim, form.den, form.pivots) == (d, den, pivots)
    assert form.below == tuple(tuple(columns[j][k] for j in range(k + 1, d)) for k in range(d))
    assert all(type(x) is int for x in form.pivots + sum(form.below, ()))


@st.composite
def definite_forms(draw):
    """draw_gram's forms, or B^T B + I with entries near 2^43, whose
    elimination runs in Python ints from its first step."""
    if draw(st.booleans()):
        return draw_gram(draw)
    d = draw(st.integers(1, 6))
    b = [[draw(st.integers(-2**20, 2**20)) for _ in range(d)] for _ in range(d)]
    return [[sum(row[i] * row[j] for row in b) + (i == j) for j in range(d)] for i in range(d)]


@settings(max_examples=200, deadline=None)
@given(definite_forms())
def test_form_matches_reference_elimination(gram):
    check_form(gram, QuadraticForm(gram))


@pytest.mark.parametrize("name", ["d4", "e8", "k12", "leech"])
def test_bundled_forms_match_reference_elimination(name):
    # the Leech enumeration budget has 113 bits: pivots must not be int64
    lattice = bundled_lattice(name)
    check_form(lattice.entries, lattice.form)


def test_empty_form():
    form = QuadraticForm([])
    assert (form.dim, form.den, form.pivots, form.below) == (0, 1, (), ())
    assert list(enumerate_quadratic(form, [], 1, 2)) == [((), Fraction(1))]


@pytest.mark.parametrize(
    "gram",
    [[[1, 1], [1, 1]], [[1, 0, 0], [0, 0, 1], [0, 1, 1]], [[0, 0], [0, 0]]],
    ids=["singular", "pivot-swap", "zero"],
)
def test_form_rejects_what_is_not_definite(gram):
    for build in (QuadraticForm, LatticeGram):
        with pytest.raises(StructuralError, match="^quadratic form is not positive definite$"):
            build(tuple(map(tuple, gram)))


@pytest.fixture()
def eliminations(monkeypatch):
    """The sizes of the matrices `exact._bareiss` eliminates, in call order."""
    sizes = []
    real = exact._bareiss

    def spy(a):
        sizes.append(len(a))
        return real(a)

    monkeypatch.setattr(exact, "_bareiss", spy)
    return sizes


def test_e8_kissing_eliminates_each_matrix_once(eliminations):
    # the 8 x 8 lattice Gram when it is built, the 240 x 240 kissing Gram once
    kissing_configuration(bundled_lattice("e8"))
    assert eliminations == [8, 240]


def test_short_vectors_enumerate_the_lattice_form(eliminations):
    short_vectors(bundled_lattice("d4"), 2)
    assert eliminations == [4]


# --- the bigint shell scan on stored arrays ------------------------------------


def configuration_of(vectors):
    norm2 = sum(x * x for x in vectors[0])
    rows = [[Fraction(sum(a * b for a, b in zip(v, w)), norm2) for w in vectors]
            for v in vectors]
    return Configuration.from_gram(rows), norm2


@pytest.fixture()
def bigint_calls(monkeypatch):
    """The coordinate scans that ran with Python-int sums and cross products."""
    calls = []
    sums, cross = spy_arithmetic(monkeypatch, balance)
    real = balance._not_radial

    def spy(colours, shells, x):
        del sums[:], cross[:]
        bad = real(colours, shells, x)
        if sums and cross and all(d == object for d in sums + cross):
            calls.append(x)
        return bad

    monkeypatch.setattr(balance, "_not_radial", spy)
    return calls


def test_bigint_scan_unbalanced_rectangle(bigint_calls):
    # a Pythagorean rectangle: den = (p^2 + q^2)^2 / gcd is near 2^41, so the
    # array is int64 while its Bareiss coordinates reach den^2, past int64
    p, q = 700, 999
    a, b = 2 * p * q, q * q - p * p
    vectors = [(a, b), (a, -b), (-a, -b), (-a, b)]
    c, norm2 = configuration_of(vectors)
    assert c.gram.scaled.dtype == np.int64
    assert c.size * c.gram.den**2 >= 2**62 and c.gram.den > 2**40
    with np.errstate(over="raise"):  # an int64 product that wraps is an error
        report = check_balanced(c)
    assert len(bigint_calls) == 1 and isinstance(bigint_calls[0], np.ndarray)
    ok, bad = balance_oracle(vectors)
    assert report.balanced is ok is False
    assert sorted((v.point, v.shell_value) for v in report.violations) == sorted(
        (i, u / norm2) for i, u in bad
    )


@pytest.mark.parametrize(
    "vectors", [cube_vectors(), midpoint_vectors(7, flip=(0, 13, 22, 27))], ids=["cube", "c7p"]
)
def test_bigint_scan_balanced(bigint_calls, monkeypatch, vectors):
    # no balanced configuration here has coordinates past int64, so the limits
    # are lowered once the configuration is built
    c, _ = configuration_of(vectors)
    assert c.gram.scaled.dtype == np.int64
    monkeypatch.setattr(exact, "_FLOAT_EXACT", 0)
    monkeypatch.setattr(exact, "_INT64", 0)
    report = check_balanced(c)
    assert len(bigint_calls) == 1
    assert report.balanced is balance_oracle(vectors)[0] is True


# --- one arithmetic rule ---------------------------------------------------------


@pytest.mark.parametrize("bound, dtype", [(2**63 - 1, np.int64), (2**63, object)])
def test_int_dtype_at_its_limit(bound, dtype):
    assert exact.int_dtype(bound) is dtype
    held = np.array([bound, -bound], dtype=exact.int_dtype(bound))
    assert held.tolist() == [bound, -bound]


# (a, b, dtype the product must run in): k max|a| max|b| on either side of
# 2^53 and of 2^63, with integer operands and with a boolean one, whose max
# is 1 by its dtype
AT_LIMITS = [
    ([[2**53 - 1]], [[1]], np.float64),
    ([[2**52]], [[-2]], np.int64),
    ([[2**63 - 1]], [[-1]], np.int64),
    ([[2**62]], [[-2]], object),
    (np.ones((1, 3), bool), [[(2**53 - 1) // 3]] * 3, np.float64),
    (np.ones((1, 2), bool), [[2**52]] * 2, np.int64),
    (np.ones((1, 7), bool), [[(2**63 - 1) // 7]] * 7, np.int64),
    (np.ones((1, 8), bool), [[2**60]] * 8, object),
]


@pytest.mark.parametrize("a, b, stage", AT_LIMITS)
def test_int_product_at_its_limits(a, b, stage):
    a, b = np.array(a), np.array(b, dtype=np.int64)
    stages = []
    got = exact.int_product(a, recorded(b, stages))
    assert stages == [stage]
    assert got.dtype == (object if stage is object else np.int64)
    expected = [[sum(int(x) * int(y) for x, y in zip(a[0].tolist(), b[:, 0].tolist()))]]
    assert got.tolist() == expected


def rule_sites():
    """The result of every site of the arithmetic rule, on inputs built anew."""
    rng = random.Random(5)
    c7p, e8 = c7_prime(), kissing_configuration(bundled_lattice("e8"))
    results = [check_balanced(c7p), e8, gram_rank(gram_entries(c7p.gram))]
    for c, keep in ((c7p, 20), (e8, 200)):
        idx = sorted(rng.sample(range(c.size), keep))
        sub = Configuration(gram=GramMatrix(Scaled(c.gram.den, c.gram.scaled[np.ix_(idx, idx)])))
        results.append(check_balanced(sub))
    results.append(automorphism_group(colored_graph_from_config(c7p)).generators)
    for c in (srg_spectral_embedding(figure1_adjacency(), "r"),
              antipodal_union(simplex_midpoints(7))):
        group = automorphism_group(colored_graph_from_config(c))
        results += [fixed_subspace_dim(c, group), fixed_subspace_dim(c, group.point_stabilizer(1)),
                    check_group_balanced(c, group)]
    results.append(short_vectors(bundled_lattice("d4"), 2))
    return results, e8


# every site of the rule in `exact`'s table (`_bareiss` through the product
# that ends each block of a partial panel: its steps never ask when its input
# is in Python ints already); every caller of `int_product`; and `int_product`
# itself, which asks past 2^53
FORCED_SITES = {
    "exact._bareiss", "exact._tabulate", "exact.int_product", "exact.integer_rank",
    "balance._not_radial", "balance._violations",
    "lattice._confirmed", "lattice.kissing_configuration",
    "symmetry._signature_table", "symmetry.fixed_subspace_dim",
}


def test_every_site_gives_the_same_result_on_python_ints(monkeypatch):
    """With both limits lowered to 0, every site of the rule takes Python
    ints, the products included, and answers as it does by default."""
    expected, _ = rule_sites()
    assert not any(r.balanced for r in expected[3:5])
    monkeypatch.setattr(exact, "_FLOAT_EXACT", 0)
    monkeypatch.setattr(exact, "_INT64", 0)
    sites = {}
    for module in (exact, balance, lattice, symmetry):
        spy_arithmetic(monkeypatch, module, sites)
    got, e8 = rule_sites()
    assert e8.gram.scaled.dtype == e8.gram.elimination.x.dtype == object
    assert got == expected
    assert sites == {site: {np.dtype(object)} for site in FORCED_SITES}
