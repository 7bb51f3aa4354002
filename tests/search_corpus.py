"""Hard inputs for the automorphism search, each with its group order in
closed form.

Any graph is a configuration: the Gram matrix I + A/(d+1), d the maximum
degree, is positive definite and its colour classes are the edges and
non-edges, so its isometry group is Aut(A).  The search reads the coloured
graph directly, so the members here are `ColoredGraph`s.

- k disjoint copies of the Figure-1 graph, whose group is trivial: k!.  With
  two colours the copies' non-edges and the edges between copies share a
  colour; with three they do not.
- The Johnson graph J(n, k), k-subsets adjacent when they share k-1 points:
  n! for n != 2k.
- The Hamming graph H(d, q), words adjacent at distance 1: q!^d d!.
- The Cai-Fuerer-Immerman graph over a connected base graph G (Cai, Fuerer
  & Immerman, Combinatorica 12, 1992): 2^(|E|-|V|+1) |Aut G|.  Individualization
  -refinement needs exponential work on these in general (Neuen &
  Schweitzer, STOC 2018); here the bases are K_{3,3} (1152) and the
  Petersen graph (7680).
"""

from itertools import combinations, product
from math import factorial

import numpy as np

from balanced.constructors import figure1_adjacency
from balanced.symmetry import ColoredGraph


def graph_from_edges(n: int, edges) -> ColoredGraph:
    colours = np.zeros((n, n), dtype=np.intp)
    for a, b in edges:
        colours[a, b] = colours[b, a] = 1
    return ColoredGraph(n, colours)


def disjoint_copies(k: int, n_colours: int = 2) -> ColoredGraph:
    """k copies of the Figure-1 graph; with three colours a copy's non-edges
    get colour 2, apart from the edges between copies, colour 0."""
    one = np.array(figure1_adjacency(), dtype=np.intp)
    if n_colours == 3:
        one = np.where(one == 1, 1, 2)
    m = len(one)
    colours = np.zeros((k * m, k * m), dtype=np.intp)
    for i in range(k):
        colours[i * m:(i + 1) * m, i * m:(i + 1) * m] = one
    return ColoredGraph(k * m, colours)


def johnson(n: int, k: int) -> ColoredGraph:
    subsets = [set(s) for s in combinations(range(n), k)]
    return graph_from_edges(len(subsets), (
        (a, b) for a, b in combinations(range(len(subsets)), 2)
        if len(subsets[a] & subsets[b]) == k - 1))


def hamming(d: int, q: int) -> ColoredGraph:
    words = list(product(range(q), repeat=d))
    return graph_from_edges(len(words), (
        (a, b) for a, b in combinations(range(len(words)), 2)
        if sum(x != y for x, y in zip(words[a], words[b])) == 1))


def cfi(n_vertices: int, base_edges) -> ColoredGraph:
    """The untwisted CFI graph: two vertices a(e, 0), a(e, 1) per base edge e,
    and per base vertex v one vertex m(v, S) for every even subset S of v's
    edges, adjacent to a(e, 1) for e in S and to a(e, 0) for v's other edges.
    Flipping a(e, 0) and a(e, 1) along an even subgraph of the base is an
    automorphism, and so is every automorphism of the base."""
    base_edges = list(base_edges)
    incident = [[e for e, edge in enumerate(base_edges) if v in edge] for v in range(n_vertices)]
    a = {(e, bit): 2 * e + bit for e in range(len(base_edges)) for bit in (0, 1)}
    edges, vertex = [], len(a)
    for own in incident:
        for r in range(0, len(own) + 1, 2):
            for subset in combinations(own, r):
                edges.extend((vertex, a[e, int(e in subset)]) for e in own)
                vertex += 1
    return graph_from_edges(vertex, edges)


K33_EDGES = [(a, b) for a in range(3) for b in range(3, 6)]
PETERSEN_EDGES = ([(i, (i + 1) % 5) for i in range(5)] + [(i, i + 5) for i in range(5)]
                  + [(5 + i, 5 + (i + 2) % 5) for i in range(5)])

# name -> (builder, closed-form order)
CORPUS = {
    "paulus-copies-2": (lambda: disjoint_copies(2), 2),
    "paulus-copies-2-three-colours": (lambda: disjoint_copies(2, 3), 2),
    "paulus-copies-3-three-colours": (lambda: disjoint_copies(3, 3), 6),
    "paulus-copies-4": (lambda: disjoint_copies(4), 24),
    "paulus-copies-16": (lambda: disjoint_copies(16), factorial(16)),
    "johnson-6-2": (lambda: johnson(6, 2), factorial(6)),
    "johnson-8-3": (lambda: johnson(8, 3), factorial(8)),
    "hamming-2-3": (lambda: hamming(2, 3), factorial(3) ** 2 * 2),
    "hamming-3-4": (lambda: hamming(3, 4), factorial(4) ** 3 * factorial(3)),
    "cfi-k33": (lambda: cfi(6, K33_EDGES), 1152),
    "cfi-petersen": (lambda: cfi(10, PETERSEN_EDGES), 7680),
}
