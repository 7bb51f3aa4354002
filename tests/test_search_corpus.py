"""The automorphism search on the stress corpus (`search_corpus`): every
member's order against its closed form, as built and relabelled, with its
refinement count held at a fixed ceiling, and the small members against the
reference search, which has no keys and refines every node in full."""

import random

import numpy as np
import pytest

from balanced.symmetry import ColoredGraph, automorphism_group
from search_corpus import CORPUS
from test_symmetry_engine import check_search_against_reference, counted_refinements


def relabel(graph: ColoredGraph, seed: int) -> ColoredGraph:
    perm = list(range(graph.size))
    random.Random(seed).shuffle(perm)
    return ColoredGraph(graph.size, graph.edge_colors[np.ix_(perm, perm)])


# refinements of each search, as built and relabelled with seed 7: the counts
# when the corpus was added, which a change to the search may lower only
REFINEMENTS = {
    "paulus-copies-2": (120, 119),
    "paulus-copies-2-three-colours": (105, 124),
    "paulus-copies-3-three-colours": (162, 255),
    "paulus-copies-4": (268, 422),
    "paulus-copies-16": (1660, 1908),
    "johnson-6-2": (17, 17),
    "johnson-8-3": (36, 36),
    "hamming-2-3": (12, 12),
    "hamming-3-4": (46, 42),
    "cfi-k33": (39, 28),
    "cfi-petersen": (53, 43),
}

# the members the reference search finishes in about a second or less
SMALL = [name for name in CORPUS if name not in ("paulus-copies-4", "paulus-copies-16")]


def corpus_graph(name, relabelled):
    graph = CORPUS[name][0]()
    return relabel(graph, 7) if relabelled else graph


@pytest.mark.parametrize("relabelled", [False, True], ids=["as-built", "relabelled"])
@pytest.mark.parametrize("name", sorted(CORPUS))
def test_corpus_order_and_refinements(name, relabelled, monkeypatch):
    graph = corpus_graph(name, relabelled)
    calls = counted_refinements(monkeypatch)
    group = automorphism_group(graph)
    assert group.order() == CORPUS[name][1]
    assert len(calls) <= REFINEMENTS[name][relabelled]


@pytest.mark.parametrize("relabelled", [False, True], ids=["as-built", "relabelled"])
@pytest.mark.parametrize("name", SMALL)
def test_corpus_search_matches_reference(name, relabelled):
    check_search_against_reference(corpus_graph(name, relabelled))
