"""The per-configuration table kernels against the references they replaced.

- `check_balanced` tests shell sums on the integer coordinates X of the Gram
  elimination; `reference_balance` keeps the Gram-row scan.  Both must report
  the same (point, shell value) pairs on every arithmetic path: float64,
  int64 or Python-int sums, int64 or Python-int cross products.  The violations'
  deviations must equal the ones summed shell by shell, on every path.
- `write_json` must write exactly `json.dumps(doc, indent=2) + "\\n"`.
- `design_strength` runs the Gegenbauer recurrence on integers; its moments
  must equal the Fraction sums of `_zonal_series`.
"""

import json
import math
import random
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import reference_balance as ref
from conftest import balance_oracle, spy_arithmetic
from balanced import balance, exact
from balanced.balance import check_balanced
from balanced.constructors import (
    antipodal_union,
    cross_polytope,
    simplex,
    simplex_midpoints,
)
from balanced.designs import _moments, _zonal_series
from balanced.exact import Configuration, GramMatrix, Scaled
from balanced.files import configuration_to_dict, write_json
from balanced.lattice import bundled_lattice, kissing_configuration

# --- the coordinate scan against the Gram-row scan ------------------------------

# (limits in `exact` lowered to 0, (sums, cross) dtypes the scan must then
# use).  A sum is at most a cross product, so with only the float64 limit
# lowered the sums run in int64, not in Python ints.
PATHS = {
    "float-int64": ((), (np.float64, np.int64)),
    "float-object": (("_INT64",), (np.float64, object)),
    "object-int64": (("_FLOAT_EXACT",), (np.int64, np.int64)),
    "object-object": (("_FLOAT_EXACT", "_INT64"), (object, object)),
}


@pytest.fixture(params=list(PATHS))
def path(request, monkeypatch):
    """Force one arithmetic path by lowering its limits to 0.  Yields the
    lists of dtypes the scans' sums and cross products used, and the path's
    own pair."""
    lowered, expected = PATHS[request.param]
    for name in lowered:
        monkeypatch.setattr(exact, name, 0)
    sums, cross = spy_arithmetic(monkeypatch, balance)
    yield (sums, cross), expected
    # a lowered limit forces Python ints; large coordinates may force them anyway
    assert sums and cross
    assert all(s != np.float64 for s in sums) or "_FLOAT_EXACT" not in lowered
    assert all(d != np.int64 for d in sums + cross) or "_INT64" not in lowered


def violation_pairs(c):
    return [(v.point, v.shell_value) for v in check_balanced(c).violations]


def shell_vectors(dim, norm2):
    """Every integer vector of squared norm norm2 in dimension dim."""
    r = math.isqrt(norm2)
    return [v for v in product(range(-r, r + 1), repeat=dim)
            if sum(x * x for x in v) == norm2]


@st.composite
def shell_subsets(draw):
    """Distinct integer vectors of one squared norm: the whole shell (balanced)
    or a subset of it (mostly unbalanced)."""
    dim = draw(st.integers(1, 4))
    norm2 = draw(st.integers(1, 12))
    shell = shell_vectors(dim, norm2)
    if not shell:
        shell = shell_vectors(dim, 1)
    keep = draw(st.lists(st.sampled_from(range(len(shell))), min_size=1, unique=True))
    return [shell[k] for k in sorted(keep)] if draw(st.booleans()) else shell


def configuration_of(vectors):
    norm2 = sum(x * x for x in vectors[0])
    rows = [[Fraction(sum(a * b for a, b in zip(v, w)), norm2) for w in vectors]
            for v in vectors]
    return Configuration.from_gram(rows), norm2


@settings(max_examples=150, deadline=None)
@given(vectors=shell_subsets())
def test_scan_matches_reference_and_oracle(vectors):
    c, norm2 = configuration_of(vectors)
    got = violation_pairs(c)
    assert got == ref.violations(c)
    ok, bad = balance_oracle(vectors)
    assert check_balanced(c).balanced is ok
    assert got == sorted((i, Fraction(u, norm2)) for i, u in bad)


@pytest.mark.parametrize("seed", range(6))
def test_every_path_matches_reference(path, seed):
    rng = random.Random(seed)
    shell = shell_vectors(4, 6)  # 96 vectors, 5 inner products
    vectors = rng.sample(shell, rng.randint(8, 30))
    c, _ = configuration_of(vectors)
    expected = ref.violations(c)
    assert expected  # a random subset of the shell is unbalanced
    assert violation_pairs(c) == expected
    (sums, cross), pair = path
    assert all(s == pair[0] for s in sums) and all(d == pair[1] for d in cross)


def deleted(c, rng, keep):
    """The configuration on a random subset of `keep` of c's points."""
    idx = sorted(rng.sample(range(c.size), keep))
    sub = np.asarray(c.gram.scaled)[np.ix_(idx, idx)]
    return Configuration(gram=GramMatrix(Scaled(c.gram.den, sub)))


@pytest.fixture(scope="module")
def k12_kissing():
    return kissing_configuration(bundled_lattice("k12"))


@pytest.mark.parametrize("seed", range(2))
def test_point_deleted_subsets(path, seed, paulus_r, c7p):
    rng = random.Random(seed)
    for c in (paulus_r, c7p):
        for keep in (c.size - 1, c.size - 3, c.size // 2):
            sub = deleted(c, rng, keep)
            expected = ref.violations(sub)
            assert expected
            assert violation_pairs(sub) == expected


def test_point_deleted_lattice_subsets(e8_kissing, k12_kissing):
    rng = random.Random(7)
    for c, keep in ((e8_kissing, 238), (e8_kissing, 200), (k12_kissing, 300)):
        sub = deleted(c, rng, keep)
        expected = ref.violations(sub)
        assert expected
        assert violation_pairs(sub) == expected


@pytest.mark.parametrize("seed", range(3))
def test_every_path_witnesses_match_reference(path, seed):
    rng = random.Random(seed)
    vectors = rng.sample(shell_vectors(4, 6), rng.randint(8, 30))
    c, _ = configuration_of(vectors)
    expected = ref.witnesses(c)
    assert expected
    assert check_balanced(c).violations == expected


def test_lattice_subset_witnesses_match_reference(e8_kissing, k12_kissing):
    rng = random.Random(11)
    for c, keep in ((e8_kissing, 200), (e8_kissing, 237), (k12_kissing, 250)):
        sub = deleted(c, rng, keep)
        expected = ref.witnesses(sub)
        assert expected
        assert check_balanced(sub).violations == expected


def test_object_path_on_e8_subset(e8_kissing, monkeypatch):
    monkeypatch.setattr(exact, "_FLOAT_EXACT", 0)
    monkeypatch.setattr(exact, "_INT64", 0)
    sub = deleted(e8_kissing, random.Random(31), 236)
    assert violation_pairs(sub) == ref.violations(sub)


# --- the JSON writer ---------------------------------------------------------------

scalars = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(),
    st.text(), st.sampled_from(['"', "\\", 'a"b\\c', "é", " ", "\n", ", ", "\U0001f600"]),
)
documents = st.recursive(
    scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=6),
        st.lists(st.integers(0, 30), max_size=30),  # e.g. per_point_k
        st.dictionaries(st.text(max_size=5), inner, max_size=5),
    ),
    max_leaves=20,
)


@settings(max_examples=150, deadline=None)
@given(doc=st.dictionaries(st.text(max_size=8), documents, max_size=6))
def test_write_json_matches_json_dumps(doc):
    assert write_json(doc) == json.dumps(doc, indent=2) + "\n"


@pytest.mark.parametrize("doc", [
    {}, {"a": []}, {"a": {}}, {"label": 'say "hi" \\ ünïcödé', "labels": ["x\ty", "ß"]},
    {"a": [[], [[]], [{}]]}, {"a": (1, ("b", None))}, {"k": {1: [2], 2.5: "x", True: None}},
    {"coords": [[0.1, -0.0, 1e300, float("inf"), float("nan")]]},
])
def test_write_json_edge_documents(doc):
    assert write_json(doc) == json.dumps(doc, indent=2) + "\n"


def test_write_json_bundled_configurations(paulus_r, paulus_s, c7p, c56, cube_config,
                                           e8_kissing, k12_kissing):
    configs = [paulus_r, paulus_s, c7p, c56, cube_config, e8_kissing, k12_kissing,
               simplex_midpoints(5), simplex(4), cross_polytope(5), antipodal_union(simplex(4)),
               kissing_configuration(bundled_lattice("d4")), simplex_midpoints(7)]
    for c in configs:
        doc = configuration_to_dict(c)
        assert write_json(doc) == json.dumps(doc, indent=2) + "\n"


def test_write_json_rejects_what_json_dumps_rejects():
    for doc in ({"a": [object()]}, {"a": ["x", {1, 2}]}, {"a": {"b": Fraction(1, 2)}}):
        with pytest.raises(TypeError):
            json.dumps(doc, indent=2)
        with pytest.raises(TypeError):
            write_json(doc)


# --- integer moments -----------------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(
    n=st.integers(1, 24),
    cap=st.integers(1, 12),
    den=st.integers(1, 40),
    table=st.lists(st.tuples(st.integers(-40, 40), st.integers(1, 1000)), min_size=1,
                   max_size=6, unique_by=lambda t: t[0]),
)
def test_integer_moments_match_fraction_recurrence(n, cap, den, table):
    table = [(max(-den, min(den, a)), m) for a, m in table]  # values in [-1, 1]
    scaled = [a for a, _ in table]
    mults = [m for _, m in table]
    expected = [sum(m * list(_zonal_series(n, cap, Fraction(a, den)))[k] for a, m in table)
                for k in range(1, cap + 1)]
    assert list(_moments(n, cap, den, scaled, mults)) == expected
