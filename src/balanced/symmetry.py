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
path) and by refinement invariants elsewhere; a refinement off the leftmost
path stops at the first split that departs from the leftmost path's trace
at the same depth.  When a cell splits, every subcell but the last is
queued: the last one's counts are its parent's minus its siblings', and both
have refined the partition before it would be popped, so it could split
nothing.

The group's order and the stabilizer of the first individualized vertex come
from the search: the leftmost path is a base, and the generators found at
each depth are a strong generating set (see `automorphism_group`).  A
Schreier-Sims chain is built only for the stabilizer of another point and for
every stabilizer `point_stabilizer` hands out: level 1 of the group's own
chain when the point is its first base point, and otherwise a chain with the
point as forced first base point.  Either chain stops as soon as its
transversals multiply to the group's order.

A vertex's signature against a splitter, its count vector of splitter edge
colours, is one base-n integer (n vertices, k edge colours): the sum over
the splitter of n ** (k-1 - colour).  These integers are int64 while
n**k < 2**63 and Python ints past that.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from operator import itemgetter
from typing import Optional, Sequence

import numpy as np

from .exact import Configuration, StructuralError, integer_rank, require

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
#
# Inside the stabilizer chain and the search, permutations are intp arrays:
# "apply p, then q" is q[p].  Tuples stay at the boundary (generators,
# level_generators and everything printed).


def _invert(p: np.ndarray) -> np.ndarray:
    inv = np.empty_like(p)
    inv[p] = np.arange(len(p))
    return inv


class _Orbits:
    """Union-find over 0..n-1: the orbits of the permutations added so far.
    size[r] is the size of the orbit whose root is r."""

    def __init__(self, n: int):
        self.parent = list(range(n))
        self.size = [1] * n

    def find(self, a: int) -> int:
        parent = self.parent
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    def add(self, perm: Sequence[int]) -> None:
        find, parent = self.find, self.parent
        for a, b in enumerate(perm):
            if a != b:
                ra, rb = find(a), find(b)
                if ra != rb:
                    lo, hi = min(ra, rb), max(ra, rb)
                    parent[hi] = lo
                    self.size[lo] += self.size[hi]


class _StabilizerChain:
    """Deterministic Schreier-Sims chain with an optional forced base prefix.

    Every transversal element is stored with its inverse, which is what
    `strip` and the Schreier generators apply.

    Given the group's order, the generator loop and `_close` stop once the
    transversal sizes multiply to it.  Every residue added at level l+1 lies
    in the group H_l generated at level l, so H_0 >= H_1 >= ...; as H_{l+1}
    fixes the base point b_l, |H_l| >= |b_l^H_l| |H_{l+1}|, hence the product
    of the orbit sizes is at most |H_0| <= |G|.  Equality makes every H_{l+1}
    the full stabilizer of b_l in H_l and H_0 = G: the chain is a complete
    base and strong generating set, every remaining generator and Schreier
    generator strips to the identity, and the full scan would add nothing.
    Levels, generators and transversals are those of the full chain.  The
    order must come from a complete chain of the same group; a scan that ends
    below it raises InvariantError.
    """

    def __init__(self, degree: int, generators: Sequence[Perm], base_prefix=(),
                 order: Optional[int] = None):
        self.degree = degree
        self.known_order = order
        self.identity = np.arange(degree)
        self._identity_bytes = self.identity.tobytes()
        self.base: list[int] = []
        self.gens: list[list[np.ndarray]] = []  # gens[i] generate the level-i group
        self.trans: list[dict[int, np.ndarray]] = []
        self.inverses: list[dict[int, np.ndarray]] = []  # of the trans elements
        self.sifted: list[set[bytes]] = []  # Schreier generators sifted per level
        for pt in base_prefix:
            self._add_level(pt)
        for g in generators:
            if self._complete():
                break
            self._add_element(np.array(g, dtype=np.intp))
        if order is not None:
            require(self.order() == order,
                    f"stabilizer chain has order {self.order()}, the group {order}")

    def _complete(self) -> bool:
        return self.known_order is not None and self.order() == self.known_order

    def _is_identity(self, p: np.ndarray) -> bool:
        return p.tobytes() == self._identity_bytes

    def _add_level(self, pt: int) -> None:
        self.base.append(pt)
        self.gens.append([])
        self.trans.append({pt: self.identity})
        self.inverses.append({pt: self.identity})
        self.sifted.append({self._identity_bytes})

    def _rebuild_transversal(self, level: int) -> None:
        b = self.base[level]
        trans = {b: self.identity}
        inverses = {b: self.identity}
        gens = self.gens[level]
        images = [s.tolist() for s in gens]
        gen_inverses = [_invert(s) for s in gens]
        frontier = deque([b])
        while frontier:
            a = frontier.popleft()
            for s, image, s_inv in zip(gens, images, gen_inverses):
                c = image[a]
                if c not in trans:
                    trans[c] = s[trans[a]]
                    inverses[c] = inverses[a][s_inv]
                    frontier.append(c)
        self.trans[level] = trans
        self.inverses[level] = inverses

    def strip(self, g: np.ndarray, start: int = 0) -> tuple[np.ndarray, int]:
        base, inverses = self.base, self.inverses
        for i in range(start, len(base)):
            t_inv = inverses[i].get(g.item(base[i]))
            if t_inv is None:
                return g, i
            g = t_inv[g]
        return g, len(base)

    def _sift_in(self, residue: np.ndarray, j: int, top: int) -> None:
        """Add a non-identity residue that sifted to level j to levels top..j
        and close those levels, deepest first."""
        if j == len(self.base):
            self._add_level(int(np.flatnonzero(residue != self.identity)[0]))
        for level in range(top, j + 1):
            self.gens[level].append(residue)
        for level in range(j, top - 1, -1):
            self._close(level)

    def _add_element(self, g: np.ndarray) -> None:
        residue, j = self.strip(g)
        if not self._is_identity(residue):
            self._sift_in(residue, j, 0)

    def _close(self, level: int) -> None:
        """Process all Schreier generators of this level."""
        self._rebuild_transversal(level)
        if self._complete():
            return
        trans, inverses = self.trans[level], self.inverses[level]
        sifted = self.sifted[level]
        # gens at this level are frozen during the scan, so the orbit and
        # transversal are stable and one pass over the Schreier generators
        # suffices; new residues land strictly deeper and are closed there.
        # A Schreier generator sifted before lies in the group of the next
        # level (its residue was added there), and the levels below are
        # complete whenever this scan sifts, so it would sift to the identity.
        for a in sorted(trans):
            ta = trans[a]
            for s in list(self.gens[level]):
                schreier = inverses[s.item(a)][s[ta]]
                key = schreier.tobytes()
                if key in sifted:
                    continue
                sifted.add(key)
                residue, j = self.strip(schreier, level + 1)
                if not self._is_identity(residue):
                    self._sift_in(residue, j, level + 1)
                    if self._complete():
                        return

    def order(self) -> int:
        n = 1
        for t in self.trans:
            n *= len(t)
        return n

    def level_generators(self, level: int) -> tuple[Perm, ...]:
        if level >= len(self.base):
            return ()
        return tuple(dict.fromkeys(tuple(g.tolist()) for g in self.gens[level]))


class PermutationGroup:
    """Permutation group given by generators; chain built on demand.

    A point stabilizer comes with its order, read off the chain it was taken
    from, so its own chain (if ever needed) stops early too.  A group from
    `automorphism_group` knows its order from the search, and the stabilizer
    of the search's first individualized vertex v_0 as (v_0, G_v0).
    """

    # set from a complete chain, or from the search by automorphism_group
    _order: Optional[int] = None
    _first_stabilizer: Optional[tuple[int, "PermutationGroup"]] = None

    def __init__(self, degree: int, generators: Sequence[Perm] = ()):
        self.degree = int(degree)
        points = list(range(self.degree))
        identity = tuple(points)
        gens = {}
        for g in generators:
            g = tuple(int(x) for x in g)
            if sorted(g) != points:
                raise StructuralError(f"not a permutation of 0..{self.degree - 1}: {g}")
            if g != identity:
                gens[g] = None
        self.generators: tuple[Perm, ...] = tuple(gens)
        self._chain: Optional[_StabilizerChain] = None

    def _get_chain(self) -> _StabilizerChain:
        if self._chain is None:
            self._chain = _StabilizerChain(self.degree, self.generators, order=self._order)
        return self._chain

    def order(self) -> int:
        if self._order is None:
            self._order = self._get_chain().order()
        return self._order

    def contains(self, perm: Sequence[int]) -> bool:
        chain = self._get_chain()
        residue, _ = chain.strip(np.array(perm, dtype=np.intp))
        return chain._is_identity(residue)

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
        """The stabilizer of point i, generated by level 1 of a chain with base
        prefix (i,).  The group's own chain has as first base point the first
        point moved by generators[0], which sifts into the empty chain.  If
        that point is i, the own chain is one such chain: it starts from the
        same generators, and its first generator, moving i, sifts into level 0
        just as with the prefix, so both chains run step for step alike.
        Either chain is told the group's order."""
        if not 0 <= i < self.degree:
            raise StructuralError(f"point index {i} out of range")
        g = self.generators[0] if self.generators else ()
        if next((a for a, b in enumerate(g) if a != b), None) == i:
            chain = self._get_chain()
        else:
            chain = _StabilizerChain(self.degree, self.generators, base_prefix=(i,),
                                     order=self.order())
        stab = PermutationGroup(self.degree, chain.level_generators(1))
        stab._order = math.prod(map(len, chain.trans[1:]))
        return stab


def point_stabilizer(group: PermutationGroup, i: int) -> PermutationGroup:
    return group.point_stabilizer(i)


# --- automorphism search ----------------------------------------------------


def _signature_table(colours: np.ndarray, n_colours: int) -> tuple[np.ndarray, list[list[int]]]:
    """Splitter signatures as base-n integers: (weights, rows).

    weights[u, v] = n ** (k-1 - colour of edge uv), 0 on the diagonal, for k
    edge colours on n vertices.  Summed over a splitter, column v is v's
    count vector of splitter colours read as base-n digits, most significant
    first; a count is at most n-1, so equal sums are equal count vectors, and
    sums order as the vectors do.  A sum is below n**k, so weights are int64
    while n**k < 2**63 and Python ints (object dtype) past that.  rows[u] is
    weights[u] as a list whose entries are shared among the k powers.
    """
    n = len(colours)
    powers = [n ** (n_colours - 1 - c) for c in range(n_colours)] + [0]  # [-1]: diagonal
    dtype = np.int64 if n**n_colours < 2**63 else object
    weights = np.array(powers, dtype=dtype)[colours]
    rows = [list(map(powers.__getitem__, row)) for row in colours.tolist()]
    return weights, rows


def _refine(weights: np.ndarray, rows: list[list[int]], cells: list[tuple[int, ...]],
            splitters, expected: Optional[tuple] = None):
    """Equitable refinement of cells against the queued splitters and every
    subcell split off on the way; returns (cells, invariant).

    Subcells replace their parent in signature order, so the cell sequence
    and the recorded trace are isomorphism-invariant.  Given the trace
    expected at this depth, it returns None as soon as its own trace departs
    from it, since the invariants can then no longer match.

    A split queues every subcell but the last: against any vertex, its count
    is its parent's minus its siblings'.  The queue is FIFO, so before the
    last subcell would be popped its siblings have been, and so has its
    parent, unless the parent was a last subcell itself (argued alike, by
    induction) or a cell of the starting partition.  That partition is
    equitable except against the queued splitters: the search queues only
    the individualized vertex (v,), the rest of its cell being the old cell
    minus (v,).  Once a splitter is popped every cell has a constant count
    against it, and cells only get finer, so every cell has a constant count
    against the last subcell: it would split nothing and add no trace step.
    """
    queue = deque(splitters)
    trace = []
    wide = [(ci, itemgetter(*cell)) for ci, cell in enumerate(cells) if len(cell) > 1]
    while queue and wide:
        splitter = queue.popleft()
        if len(splitter) == 1:
            signature = rows[splitter[0]]
        else:
            signature = weights.take(splitter, axis=0).sum(axis=0).tolist()
        splits = []
        for ci, members in wide:
            sigs = members(signature)  # the signatures of the cell's vertices
            if sigs.count(sigs[0]) == len(sigs):
                continue
            cell = cells[ci]
            parts: dict[int, list[int]] = {}
            for v, sig in zip(cell, sigs):
                parts.setdefault(sig, []).append(v)
            parts = sorted(parts.items())
            step = (ci, tuple((sig, len(vs)) for sig, vs in parts))
            if expected is not None and (
                len(trace) == len(expected) or expected[len(trace)] != step
            ):
                return None
            trace.append(step)
            subs = [tuple(vs) for _, vs in parts]
            queue.extend(subs[:-1])
            splits.append((ci, subs))
        if splits:
            newcells, last = [], 0
            for ci, subs in splits:
                newcells += cells[last:ci]
                newcells += subs
                last = ci + 1
            cells = newcells + cells[last:]
            wide = [(ci, itemgetter(*cell)) for ci, cell in enumerate(cells) if len(cell) > 1]
    invariant = (tuple(len(c) for c in cells), tuple(trace))
    return cells, invariant


def _initial_cells(graph: ColoredGraph) -> list[tuple[int, ...]]:
    buckets: dict[int, list[int]] = {}
    for v, c in enumerate(graph.vertex_colors):
        buckets.setdefault(c, []).append(v)
    return [tuple(buckets[c]) for c in sorted(buckets)]


def _preserves_colors(colours: np.ndarray, vertex_colours: np.ndarray, p: np.ndarray) -> bool:
    return bool(
        (vertex_colours[p] == vertex_colours).all()
        and (colours[np.ix_(p, p)] == colours).all()
    )


def automorphism_group(graph: ColoredGraph) -> PermutationGroup:
    """Full automorphism group of an edge-colored complete graph, with its
    order and the stabilizer of the first individualized vertex.

    The leftmost path individualizes v_0, v_1, ..., each the first vertex of
    its node's target cell.  Let H_k be the group generated by the generators
    found at depth >= k: each maps the first leaf to a leaf below v_0..v_{k-1}
    and so fixes them, and H_{k+1} <= Stab_{H_k}(v_k).  When the spine node at
    depth k ends its loop, the generators found so far are exactly those of
    H_k (the shallower ones come later), so the union-find orbit of v_k is
    v_k^{H_k}.  Hence prod_k |v_k^{H_k}| <= |<gens>| <= |Aut| from group
    theory alone.  Equality, H_{k+1} = Stab_{H_k}(v_k) and H_0 = Aut, is the
    exhaustiveness of the spine search that makes <gens> = Aut: every vertex
    of v_k's cell is searched or lies in the orbit of one that was.  The
    generators found below depth 0 generate H_1 = G_{v_0}, of order
    |G| / |v_0^G|.  A chain built later is told the order and checks it.
    """
    n = graph.size
    if n == 0:
        return PermutationGroup(0)
    colours = np.array(graph.edge_colors, dtype=np.intp)
    vertex_colours = np.array(graph.vertex_colors, dtype=np.intp)
    weights, rows = _signature_table(colours, graph.n_edge_colors)
    state = {"first_leaf": None}
    gens: list[Perm] = []
    orbits = _Orbits(n)
    spine_orbits: list[int] = []  # |v_k^{H_k}|, deepest first
    invariants: dict[int, object] = {}

    def in_explored_orbit(v: int, explored: list[int]) -> bool:
        root = orbits.find(v)
        return any(orbits.find(u) == root for u in explored)

    def search(cells, splitters, depth: int, leftmost: bool) -> bool:
        # off the spine, the spine's node at this depth sets the trace to match
        expected = None if leftmost else invariants[depth][1]
        refined = _refine(weights, rows, cells, splitters, expected)
        if refined is None:
            return False
        cells, inv = refined
        if leftmost:
            invariants[depth] = inv
        elif invariants.get(depth) != inv:
            return False
        if len(cells) == n:
            leaf = np.array([c[0] for c in cells], dtype=np.intp)
            if state["first_leaf"] is None:
                state["first_leaf"] = leaf
                return False
            p = np.empty(n, dtype=np.intp)
            p[state["first_leaf"]] = leaf
            if _preserves_colors(colours, vertex_colours, p):
                gens.append(tuple(p.tolist()))
                orbits.add(gens[-1])
                return True
            return False
        sizes = [len(c) for c in cells]
        target = min(s for s in sizes if s > 1)
        ti = sizes.index(target)
        cell = cells[ti]
        explored: list[int] = []
        found = False
        for v in cell:
            if leftmost and explored and in_explored_orbit(v, explored):
                continue
            child_leftmost = leftmost and state["first_leaf"] is None
            # only (v,) is queued: the cells of an equitable partition cannot
            # split anything, and once (v,) has, neither can rest, whose
            # counts are those of the old cell minus those of (v,)
            rest = tuple(u for u in cell if u != v)
            child = cells[:ti] + [(v,), rest] + cells[ti + 1:]
            res = search(child, [(v,)], depth + 1, child_leftmost)
            if depth == 0 and not explored:
                state["v0"], state["stabilizer_gens"] = v, len(gens)  # H_1 = G_{v_0}
            explored.append(v)
            found = found or res
            if res and not leftmost:
                return True  # one coset representative is enough off the spine
        if leftmost:
            spine_orbits.append(orbits.size[orbits.find(cell[0])])
        return found

    cells = _initial_cells(graph)
    search(cells, cells, 0, True)
    group = PermutationGroup(n, gens)
    for g in group.generators:
        require(
            _preserves_colors(colours, vertex_colours, np.array(g, dtype=np.intp)),
            "automorphism search returned a non-automorphism",
        )
    group._order = math.prod(spine_orbits)
    if spine_orbits:
        stab = PermutationGroup(n, gens[:state["stabilizer_gens"]])
        stab._order = math.prod(spine_orbits[:-1])
        group._first_stabilizer = (state["v0"], stab)
    return group


# --- fixed subspaces and group-balancedness ---------------------------------


def _check_preserves_gram(c: Configuration, group: PermutationGroup) -> None:
    # value-table colours are a bijection with the Gram values, so comparing
    # colours is comparing the exact entries
    colours = c.gram.colours
    n = len(colours)
    for p in group.generators:
        if len(p) != n:
            raise StructuralError("permutation degree does not match configuration")
        p = np.array(p, dtype=np.intp)
        moved = np.triu(colours[np.ix_(p, p)] != colours, 1)
        if moved.any():
            i, j = np.argwhere(moved)[0].tolist()
            raise StructuralError(f"permutation does not preserve the Gram matrix at ({i},{j})")


def fixed_subspace_dim(c: Configuration, group: PermutationGroup) -> int:
    """Dimension of the subspace of span(C) fixed by the induced action.

    The fixed space of a permutation-induced orthogonal action on span(C) is
    spanned by the orbit sums, so its dimension is the rank of B X, with B
    the orbit indicator matrix and X the integer coordinates of the Gram
    elimination (den * G = X W X^T, W a positive diagonal).
    """
    _check_preserves_gram(c, group)
    orbs = group.orbits()
    if len(orbs) == c.size:
        # trivial action: B is a permutation matrix and rank(B X) = rank(X)
        return c.ambient_dim
    x = c.gram.elimination.x
    if c.size * int(np.abs(x).max()) >= 2**63:  # bounds every orbit sum
        x = x.astype(object)
    order = np.concatenate([np.asarray(o, dtype=np.intp) for o in orbs])
    starts = np.cumsum([0] + [len(o) for o in orbs[:-1]])
    return integer_rank(np.add.reduceat(x[order], starts, axis=0))


@dataclass(frozen=True)
class GroupBalanceVerdict:
    group_balanced: bool
    witnesses: tuple[int, ...]  # points whose stabilizer fixes more than a line


def check_group_balanced(
    c: Configuration, group: Optional[PermutationGroup] = None
) -> GroupBalanceVerdict:
    """True iff every point's stabilizer fixes only the line through it.

    Conjugate stabilizers have equal fixed dimensions, so one representative
    per orbit is checked and the verdict extended orbit-wide.  For a group
    from `automorphism_group`, the orbit of the search's first individualized
    vertex uses the stabilizer the search found; every other orbit uses its
    least point.
    """
    if group is None:
        group = automorphism_group(colored_graph_from_config(c))
    v0, first = group._first_stabilizer or (None, None)
    witnesses: list[int] = []
    for orbit in group.orbits():
        stab = first if v0 in orbit else group.point_stabilizer(orbit[0])
        dim = fixed_subspace_dim(c, stab)
        if dim != 1:
            witnesses.extend(orbit)
    witnesses.sort()
    return GroupBalanceVerdict(group_balanced=not witnesses, witnesses=tuple(witnesses))
