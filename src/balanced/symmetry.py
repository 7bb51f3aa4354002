"""Isometries as Gram-preserving permutations: automorphisms, stabilizers,
fixed subspaces, and the group-balanced test.

Because the ambient dimension equals the rank of the Gram matrix, every
Gram-preserving permutation extends to a unique orthogonal map of the span,
so the isometry group of a configuration is the automorphism group of the
complete graph edge-colored by Gram values.

The automorphism search is deterministic individualization-refinement:
refine to the coarsest equitable partition, branch on the least vertex of
the first smallest non-singleton cell, compare leaves against the first
leaf, prune siblings by orbits of the group found so far (on the leftmost
path) and by refinement invariants elsewhere.  Group orders come from a
deterministic Schreier-Sims stabilizer chain.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .exact import Configuration, StructuralError, gram_rank, require

Perm = tuple[int, ...]


@dataclass(frozen=True)
class ColoredGraph:
    """Complete graph with edge colors (dense ids by ascending Gram value)."""

    size: int
    edge_colors: tuple[tuple[int, ...], ...]  # symmetric; diagonal entries are -1
    vertex_colors: tuple[int, ...]
    color_values: tuple[Fraction, ...] = ()
    n_edge_colors: int = field(init=False)

    def __post_init__(self):
        top = max(map(max, self.edge_colors), default=-1)
        object.__setattr__(self, "n_edge_colors", top + 1)


def colored_graph_from_config(c: Configuration) -> ColoredGraph:
    # value-table colours; the diagonal holds the largest value, 1, only
    colours = np.array(c.gram.colours)
    np.fill_diagonal(colours, -1)
    return ColoredGraph(
        size=c.size,
        edge_colors=tuple(map(tuple, colours.tolist())),
        vertex_colors=(0,) * c.size,
        color_values=c.gram.values[:-1],
    )


def colored_graph_from_adjacency(adjacency: Sequence[Sequence[int]]) -> ColoredGraph:
    n = len(adjacency)
    rows = []
    for i, row in enumerate(adjacency):
        if len(row) != n:
            raise StructuralError(f"adjacency row {i} has length {len(row)}")
        for j, x in enumerate(row):
            if x not in (0, 1):
                raise StructuralError(f"adjacency entry [{i}][{j}] = {x} not 0/1")
            if adjacency[j][i] != x:
                raise StructuralError(f"adjacency not symmetric at [{i}][{j}]")
        if row[i] != 0:
            raise StructuralError(f"adjacency diagonal [{i}][{i}] nonzero")
        rows.append(tuple(-1 if i == j else int(row[j]) for j in range(n)))
    return ColoredGraph(size=n, edge_colors=tuple(rows), vertex_colors=(0,) * n)


def adjacency_complement(adjacency: Sequence[Sequence[int]]) -> tuple[tuple[int, ...], ...]:
    n = len(adjacency)
    return tuple(
        tuple(0 if i == j else 1 - adjacency[i][j] for j in range(n)) for i in range(n)
    )


# --- permutation groups ----------------------------------------------------


def _compose(p: Perm, q: Perm) -> Perm:
    """Apply p, then q."""
    return tuple(q[x] for x in p)


def _invert(p: Perm) -> Perm:
    inv = [0] * len(p)
    for i, x in enumerate(p):
        inv[x] = i
    return tuple(inv)


def _is_identity(p: Perm) -> bool:
    return all(i == x for i, x in enumerate(p))


class _StabilizerChain:
    """Deterministic Schreier-Sims chain with an optional forced base prefix."""

    def __init__(self, degree: int, generators: Sequence[Perm], base_prefix=()):
        self.degree = degree
        self.base: list[int] = []
        self.gens: list[list[Perm]] = []  # gens[i] generate the level-i group
        self.trans: list[dict[int, Perm]] = []
        for pt in base_prefix:
            self._add_level(pt)
        for g in generators:
            self._add_element(tuple(g))

    def _add_level(self, pt: int) -> None:
        self.base.append(pt)
        self.gens.append([])
        self.trans.append({pt: tuple(range(self.degree))})

    def _rebuild_transversal(self, level: int) -> None:
        b = self.base[level]
        identity = tuple(range(self.degree))
        trans = {b: identity}
        frontier = deque([b])
        gens = self.gens[level]
        while frontier:
            a = frontier.popleft()
            for s in gens:
                c = s[a]
                if c not in trans:
                    trans[c] = _compose(trans[a], s)
                    frontier.append(c)
        self.trans[level] = trans

    def strip(self, g: Perm, start: int = 0) -> tuple[Perm, int]:
        for i in range(start, len(self.base)):
            x = g[self.base[i]]
            t = self.trans[i].get(x)
            if t is None:
                return g, i
            g = _compose(g, _invert(t))
        return g, len(self.base)

    def _add_element(self, g: Perm) -> None:
        residue, j = self.strip(g)
        if _is_identity(residue):
            return
        if j == len(self.base):
            moved = next(i for i in range(self.degree) if residue[i] != i)
            self._add_level(moved)
        for level in range(j + 1):
            self.gens[level].append(residue)
        for level in range(j, -1, -1):
            self._close(level)

    def _close(self, level: int) -> None:
        """Process all Schreier generators of this level."""
        self._rebuild_transversal(level)
        # gens at this level are frozen during the scan, so the orbit and
        # transversal are stable and one pass over the Schreier generators
        # suffices; new residues land strictly deeper and are closed there
        for a in sorted(self.trans[level]):
            ta = self.trans[level][a]
            for s in list(self.gens[level]):
                c = s[a]
                schreier = _compose(_compose(ta, s), _invert(self.trans[level][c]))
                residue, j = self.strip(schreier, level + 1)
                if _is_identity(residue):
                    continue
                if j == len(self.base):
                    moved = next(i for i in range(self.degree) if residue[i] != i)
                    self._add_level(moved)
                for l in range(level + 1, j + 1):
                    self.gens[l].append(residue)
                for l in range(j, level, -1):
                    self._close(l)

    def order(self) -> int:
        n = 1
        for t in self.trans:
            n *= len(t)
        return n

    def level_generators(self, level: int) -> tuple[Perm, ...]:
        if level >= len(self.base):
            return ()
        seen = []
        for g in self.gens[level]:
            if g not in seen and not _is_identity(g):
                seen.append(g)
        return tuple(seen)


class PermutationGroup:
    """Permutation group given by generators; chain built on demand."""

    def __init__(self, degree: int, generators: Sequence[Perm] = ()):
        self.degree = int(degree)
        gens = []
        for g in generators:
            g = tuple(int(x) for x in g)
            if sorted(g) != list(range(self.degree)):
                raise StructuralError(f"not a permutation of 0..{self.degree - 1}: {g}")
            if not _is_identity(g) and g not in gens:
                gens.append(g)
        self.generators: tuple[Perm, ...] = tuple(gens)
        self._chain: Optional[_StabilizerChain] = None

    def _get_chain(self) -> _StabilizerChain:
        if self._chain is None:
            self._chain = _StabilizerChain(self.degree, self.generators)
        return self._chain

    def order(self) -> int:
        return self._get_chain().order()

    def contains(self, perm: Sequence[int]) -> bool:
        residue, _ = self._get_chain().strip(tuple(perm))
        return _is_identity(residue)

    def orbits(self) -> tuple[tuple[int, ...], ...]:
        seen = [False] * self.degree
        out = []
        for start in range(self.degree):
            if seen[start]:
                continue
            orbit = [start]
            seen[start] = True
            frontier = deque([start])
            while frontier:
                a = frontier.popleft()
                for g in self.generators:
                    b = g[a]
                    if not seen[b]:
                        seen[b] = True
                        orbit.append(b)
                        frontier.append(b)
            out.append(tuple(sorted(orbit)))
        return tuple(out)

    def point_stabilizer(self, i: int) -> "PermutationGroup":
        if not 0 <= i < self.degree:
            raise StructuralError(f"point index {i} out of range")
        chain = _StabilizerChain(self.degree, self.generators, base_prefix=(i,))
        return PermutationGroup(self.degree, chain.level_generators(1))


def point_stabilizer(group: PermutationGroup, i: int) -> PermutationGroup:
    return group.point_stabilizer(i)


# --- automorphism search ----------------------------------------------------


def _refine(graph: ColoredGraph, cells: list[tuple[int, ...]]):
    """Coarsest equitable refinement; returns (cells, invariant).

    Subcells replace their parent in signature order, so the cell sequence
    and the recorded trace are isomorphism-invariant.
    """
    colors = graph.edge_colors
    ncolors = graph.n_edge_colors
    queue = deque(cells)
    trace = []
    while queue:
        splitter = queue.popleft()
        newcells = []
        for ci, cell in enumerate(cells):
            if len(cell) == 1:
                newcells.append(cell)
                continue
            sigs: dict[tuple[int, ...], list[int]] = {}
            for v in cell:
                row = colors[v]
                cnt = [0] * ncolors
                for u in splitter:
                    cu = row[u]
                    if cu >= 0:
                        cnt[cu] += 1
                sigs.setdefault(tuple(cnt), []).append(v)
            if len(sigs) == 1:
                newcells.append(cell)
                continue
            parts = sorted(sigs.items())
            trace.append((ci, tuple((sig, len(vs)) for sig, vs in parts)))
            for _, vs in parts:
                sub = tuple(vs)
                newcells.append(sub)
                queue.append(sub)
        cells = newcells
    invariant = (tuple(len(c) for c in cells), tuple(trace))
    return cells, invariant


def _individualize(cells, v):
    out = []
    for cell in cells:
        if v in cell and len(cell) > 1:
            out.append((v,))
            out.append(tuple(u for u in cell if u != v))
        else:
            out.append(cell)
    return out


def _initial_cells(graph: ColoredGraph) -> list[tuple[int, ...]]:
    buckets: dict[int, list[int]] = {}
    for v, c in enumerate(graph.vertex_colors):
        buckets.setdefault(c, []).append(v)
    return [tuple(buckets[c]) for c in sorted(buckets)]


def _preserves_colors(graph: ColoredGraph, p: Perm) -> bool:
    colors = graph.edge_colors
    n = graph.size
    for i in range(n):
        if graph.vertex_colors[p[i]] != graph.vertex_colors[i]:
            return False
        row = colors[i]
        prow = colors[p[i]]
        for j in range(i + 1, n):
            if prow[p[j]] != row[j]:
                return False
    return True


def automorphism_group(graph: ColoredGraph) -> PermutationGroup:
    """Full automorphism group of an edge-colored complete graph."""
    n = graph.size
    if n == 0:
        return PermutationGroup(0)
    state = {"first_leaf": None}
    gens: list[Perm] = []
    invariants: dict[int, object] = {}

    def in_explored_orbit(v: int, explored: list[int]) -> bool:
        if not gens:
            return False
        seen = {v}
        frontier = deque([v])
        targets = set(explored)
        while frontier:
            a = frontier.popleft()
            if a in targets:
                return True
            for g in gens:
                for b in (g[a], g.index(a)):
                    if b not in seen:
                        seen.add(b)
                        frontier.append(b)
        return False

    def search(cells, depth: int, leftmost: bool) -> bool:
        cells, inv = _refine(graph, cells)
        if leftmost:
            invariants[depth] = inv
        elif invariants.get(depth) != inv:
            return False
        sizes = [len(c) for c in cells]
        if all(s == 1 for s in sizes):
            leaf = tuple(c[0] for c in cells)
            if state["first_leaf"] is None:
                state["first_leaf"] = leaf
                return False
            first = state["first_leaf"]
            p = [0] * n
            for a, b in zip(first, leaf):
                p[a] = b
            p = tuple(p)
            if _preserves_colors(graph, p):
                gens.append(p)
                return True
            return False
        target = min(s for s in sizes if s > 1)
        ti = next(i for i, s in enumerate(sizes) if s == target)
        cell = cells[ti]
        explored: list[int] = []
        found = False
        for v in cell:
            if leftmost and explored and in_explored_orbit(v, explored):
                continue
            child_leftmost = leftmost and state["first_leaf"] is None
            res = search(_individualize(cells, v), depth + 1, child_leftmost)
            explored.append(v)
            found = found or res
            if res and not leftmost:
                return True  # one coset representative is enough off the spine
        return found

    search(_initial_cells(graph), 0, True)
    group = PermutationGroup(n, gens)
    for g in group.generators:
        require(_preserves_colors(graph, g), "automorphism search returned a non-automorphism")
    return group


# --- fixed subspaces and group-balancedness ---------------------------------


def _check_preserves_gram(c: Configuration, group: PermutationGroup) -> None:
    g = c.gram.scaled
    n = len(g)
    for p in group.generators:
        if len(p) != n:
            raise StructuralError("permutation degree does not match configuration")
        for i in range(n):
            for j in range(i + 1, n):
                if g[p[i]][p[j]] != g[i][j]:
                    raise StructuralError(
                        f"permutation does not preserve the Gram matrix at ({i},{j})"
                    )


def fixed_subspace_dim(c: Configuration, group: PermutationGroup) -> int:
    """Dimension of the subspace of span(C) fixed by the induced action.

    The fixed space of a permutation-induced orthogonal action on span(C) is
    spanned by the orbit sums, so its dimension is rank(B G B^T) with B the
    orbit indicator matrix; it is computed on the integer matrix den * G,
    which has the same rank.
    """
    _check_preserves_gram(c, group)
    g = c.gram.scaled
    orbs = group.orbits()
    if len(orbs) == c.size:
        # trivial action: B is a permutation matrix and rank(B G B^T) = rank(G)
        return c.ambient_dim
    m = [
        [
            sum(g[i][j] for i in oa for j in ob)
            for ob in orbs
        ]
        for oa in orbs
    ]
    return gram_rank(m)


@dataclass(frozen=True)
class GroupBalanceVerdict:
    group_balanced: bool
    witnesses: tuple[int, ...]  # points whose stabilizer fixes more than a line


def check_group_balanced(
    c: Configuration, group: Optional[PermutationGroup] = None
) -> GroupBalanceVerdict:
    """True iff every point's stabilizer fixes only the line through it.

    Conjugate stabilizers have equal fixed dimensions, so one representative
    per orbit is checked and the verdict extended orbit-wide.
    """
    if group is None:
        group = automorphism_group(colored_graph_from_config(c))
    witnesses: list[int] = []
    for orbit in group.orbits():
        rep = orbit[0]
        stab = group.point_stabilizer(rep)
        dim = fixed_subspace_dim(c, stab)
        if dim != 1:
            witnesses.extend(orbit)
    witnesses.sort()
    return GroupBalanceVerdict(group_balanced=not witnesses, witnesses=tuple(witnesses))
