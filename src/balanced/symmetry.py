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
path) and by refinement traces elsewhere.  The trace is a node's invariant:
a refinement off the leftmost path fails at the first split that departs
from the leftmost path's trace at the same depth, or if it ends short of it,
and stops once it has matched it.
When a cell splits, every subcell but the last is queued: the last one's
counts are its parent's minus its siblings', and both have refined the
partition before it would be popped, so it could split nothing.

Sibling keys skip refinements that cannot hold an automorphism, and off the
leftmost path whole nodes.  A child succeeds only through an automorphism
that maps the spine's node at its parent's depth onto its parent and the
spine's vertex onto the child's, keeping cell ordinals and colours and
hence an isomorphism-invariant key (`_sibling_keys`); so a sibling whose key
differs counts exactly as a failed refinement.  That automorphism also maps
the spine node's target cell onto the parent's, so the two cells hold equal
multisets of keys.  Once a child has failed and two or more siblings remain,
a node keys its whole target cell in one matrix product.  The spine node's
rows are kept for its depth (and keyed there only if it never keyed); an
off-spine node whose sorted rows differ from them fails as it would after
trying every child.  A hash collision only means no skip or cut.  Keys never
refine or choose a target cell, and a cut node has no side effect to miss,
so no generator, order, orbit or stabilizer changes.

The group's order and the stabilizer of the first individualized vertex come
from the search: the leftmost path is a base, and the generators found at
each depth are a strong generating set (see `automorphism_group`).  A
Schreier-Sims chain is built only for the stabilizer of another point and for
every stabilizer `point_stabilizer` hands out: a chain with the point as
forced first base point, which stops as soon as its transversals multiply to
the group's order.

A vertex's signature against a splitter, its count vector of splitter edge
colours, is one base-n integer (n vertices, k edge colours): the sum over
the splitter of n ** (k-1 - colour).
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from operator import itemgetter
from typing import Optional, Sequence

import numpy as np

from .exact import (Configuration, StructuralError, _encode_scaled, _first_pair, int_dtype,
                    integer_rank, require)

Perm = tuple[int, ...]


def _is_integer(x) -> bool:
    """A Python or numpy integer, not a bool: a float or string would be
    truncated or parsed into an id it was never given."""
    return type(x) is not bool and isinstance(x, (int, np.integer))


@dataclass(frozen=True, eq=False)
class ColoredGraph:
    """Complete graph with edge colors: a read-only symmetric n x n intp array
    of colour ids, -1 on the diagonal, which is no edge.  The given colours
    are integers, bools excluded, and the off-diagonal ones are coded
    0, 1, ... by their rank among themselves and 0 (`exact._encode_scaled`),
    so a 0/1 adjacency keeps its ids."""

    size: int
    edge_colors: np.ndarray
    n_edge_colors: int = field(init=False)

    def __post_init__(self):
        n, given = self.size, self.edge_colors
        try:
            entries = given if isinstance(given, np.ndarray) else np.array(given, dtype=object)
        except ValueError:  # ragged rows
            entries = None
        if entries is None or entries.shape != (n, n):
            raise StructuralError(f"edge colours must form a {n} x {n} array")
        if entries.dtype.kind not in "iu":
            flat = entries.ravel().tolist()
            bad = next((k for k, x in enumerate(flat) if not _is_integer(x)), None)
            if bad is not None:
                raise StructuralError("edge colour [%d][%d] = %r is not an integer"
                                      % (*divmod(bad, n), flat[bad]))
        # one copy with a zero diagonal, coded by `exact`'s coder: the copy itself when dense
        ids = entries.astype(np.intp) if np.can_cast(entries.dtype, np.intp) else entries.copy()
        ids.flat[::n + 1] = 0
        colours = _encode_scaled(1, ids)[2]
        colours.flat[::n + 1] = -1
        colours.setflags(write=False)
        object.__setattr__(self, "edge_colors", colours)
        object.__setattr__(self, "n_edge_colors", int(colours.max(initial=-1)) + 1)


def colored_graph_from_config(c: Configuration) -> ColoredGraph:
    # value-table colours; the diagonal, the only place of the top value 1, becomes -1
    return ColoredGraph(c.size, c.gram.colours)


def adjacency_matrix(rows: Sequence[Sequence[int]]) -> np.ndarray:
    """A simple graph's adjacency matrix as an int64 array, checked in order
    over the whole matrix: square rows, entries equal to 0 or 1, symmetry and
    a zero diagonal.  An error names the first offending entry, row-major."""
    n = len(rows)
    for i, row in enumerate(rows):
        if len(row) != n:
            raise StructuralError(f"adjacency row {i} has length {len(row)}")
    entries = np.fromiter(chain.from_iterable(rows), dtype=object, count=n * n).reshape(n, n)
    one = entries == 1
    bad = np.flatnonzero(~(one | (entries == 0)))
    if bad.size:
        i, j = divmod(int(bad[0]), n)
        raise StructuralError(f"adjacency entry [{i}][{j}] = {entries[i, j]} not 0/1")
    asymmetric = _first_pair(one != one.T)
    if asymmetric is not None:
        raise StructuralError("adjacency not symmetric at [%d][%d]" % asymmetric)
    loops = np.flatnonzero(one.diagonal())
    if loops.size:
        raise StructuralError(f"adjacency diagonal [{loops[0]}][{loops[0]}] nonzero")
    return one.astype(np.int64)


def colored_graph_from_adjacency(adjacency: Sequence[Sequence[int]]) -> ColoredGraph:
    return ColoredGraph(len(adjacency), adjacency_matrix(adjacency))


def adjacency_complement(adjacency: Sequence[Sequence[int]]) -> np.ndarray:
    return 1 - adjacency_matrix(adjacency) - np.eye(len(adjacency), dtype=np.int64)


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


@dataclass(frozen=True, eq=False, repr=False)
class PermutationGroup:
    """Permutation group given by generators, checked and deduplicated when
    built; no attribute can be assigned afterwards.  The degree and every
    generator entry are integers (`_is_integer`), the degree is not negative,
    and every generator is a permutation of range(degree).

    The private keywords hold what the group's maker knows: `_order`, the
    order, and `_first_stabilizer`, a point v with its stabilizer, (v, G_v).
    Only `point_stabilizer` (the order read off the chain it was taken from,
    so a chain built from the stabilizer stops early too) and
    `automorphism_group` (both, from the search) pass them.  Without
    `_order`, `order()` builds a chain once and keeps its order.
    """

    degree: int
    generators: tuple[Perm, ...] = ()
    _order: Optional[int] = field(default=None, kw_only=True)
    _first_stabilizer: Optional[tuple[int, PermutationGroup]] = field(default=None, kw_only=True)

    def __post_init__(self):
        if not _is_integer(self.degree):
            raise StructuralError(f"degree {self.degree!r} is not an integer")
        degree = int(self.degree)
        if degree < 0:
            raise StructuralError(f"degree {degree} is negative")
        points = list(range(degree))
        identity = tuple(points)
        gens = {}
        for k, g in enumerate(self.generators):
            g = tuple(g)
            if not {int}.issuperset(map(type, g)):  # numpy integers, or an entry to refuse
                bad = next((i for i, x in enumerate(g) if not _is_integer(x)), None)
                if bad is not None:
                    raise StructuralError(f"generator [{k}][{bad}] = {g[bad]!r} is not an integer")
                g = tuple(map(int, g))
            if sorted(g) != points:
                raise StructuralError(f"not a permutation of 0..{degree - 1}: {g}")
            if g != identity:
                gens[g] = None
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "generators", tuple(gens))

    def order(self) -> int:
        return self._chain_order if self._order is None else self._order

    @cached_property
    def _chain_order(self) -> int:
        return _StabilizerChain(self.degree, self.generators).order()

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
        prefix (i,), told the group's order."""
        if not _is_integer(i):
            raise StructuralError(f"point index {i!r} is not an integer")
        if not 0 <= i < self.degree:
            raise StructuralError(f"point index {i} out of range")
        chain = _StabilizerChain(self.degree, self.generators, base_prefix=(i,),
                                 order=self.order())
        return PermutationGroup(self.degree, chain.level_generators(1),
                                _order=math.prod(map(len, chain.trans[1:])))


# --- automorphism search ----------------------------------------------------


def _signature_table(colours: np.ndarray, n_colours: int) -> np.ndarray:
    """Splitter signatures as base-n integers: weights[u, v] = n ** (k-1 -
    colour of edge uv), 0 on the diagonal, for k edge colours on n vertices.

    Summed over a splitter, column v is v's count vector of splitter colours
    read as base-n digits, most significant first; a count is at most n-1, so
    equal sums are equal count vectors, and sums order as the vectors do; a
    sum is below n**k.
    """
    n = len(colours)
    powers = [n ** (n_colours - 1 - c) for c in range(n_colours)] + [0]  # [-1]: diagonal
    return np.array(powers, dtype=int_dtype(n**n_colours))[colours]


def _refine(weights: np.ndarray, cells: list[tuple[int, ...]], splitters,
            expected: Optional[tuple] = None):
    """Equitable refinement of cells against the queued splitters and every
    subcell split off on the way; returns (cells, trace).

    Subcells replace their parent in signature order, so the cell sequence
    and the trace are isomorphism-invariant.  Given the trace expected at
    this depth, it returns None as soon as its own trace departs from it, or
    if it ends short of it, and stops once it has matched it: after the
    splitter whose pass completes the expected trace (a further split in
    that pass still departs), with the rest of the queue unpopped.  The
    trace is the node's invariant: it records every split's cell and subcell
    sizes, so from equal cell sizes equal traces give equal cell sizes.

    The stop changes no result.  Equal traces put each individualized
    vertex at the same leaf position, so the automorphism a successful leaf
    finds maps the leftmost path's individualized vertices onto its own
    path's, and with them the spine's nodes onto that path's nodes.  Each of
    those nodes therefore keeps the spine's full trace, and a full trace has
    no split after its last step: the unpopped splitters would split
    nothing, and the cells are those of the full refinement.  A node that
    the full refinement would fail for a split past the expected trace is on
    no such path; it holds no automorphism and still fails, only later (its
    cells need not be equitable, which only its own descendants see).

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
    while queue and wide and (expected is None or len(trace) < len(expected)):
        splitter = queue.popleft()
        if len(splitter) == 1:
            signature = weights[splitter[0]].tolist()
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
    if expected is not None and len(trace) < len(expected):
        return None
    return cells, tuple(trace)


def _splitmix64(n: int) -> np.ndarray:
    """The first n outputs of splitmix64 from seed 0 (uint64, mod 2**64)."""
    x = np.arange(1, n + 1, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return x ^ (x >> np.uint64(31))


# the sibling keys' fixed pseudo-random weights, in 1..1024, as floats for BLAS
_KEY_WEIGHTS = (_splitmix64(2**12) % np.uint64(1024) + np.uint64(1)).astype(np.float64)


def _sibling_keys(a: np.ndarray, colours: np.ndarray, n_colours: int,
                  cell_of: np.ndarray, vertices: list[int]) -> np.ndarray:
    """One sorted uint64 row per vertex v of `vertices`: v's key under the
    cell ordinals cell_of, one row for every vertex or one row each.

    The key is the multiset over u of (cell of u, colour(v,u), s(u)), with
    s(u) = sum_w A[colour(u,w)] B[colour(v,w), cell of w].  a[u, w] is
    A[colour(u,w)]; B is `_KEY_WEIGHTS` at the (cell, colour) pair's code
    past the k+1 codes of A (k edge colours), mod the table's length.  s(u)
    is an integer below n 2**20, so the float product is exact in any order
    of summation (n < 2**33 holds for any n x n colour table in memory).  A
    triple is one integer mod 2**64: the pair's code times n 2**20 + 1, plus
    s(u).  A multiset of such integers is as invariant as the triples; a
    wrapped code can only make two keys collide, and a collision only means
    no skip or cut.
    """
    n = len(colours)
    pair = cell_of * (n_colours + 1) + colours[vertices] + 1  # m x n, u's (cell, colour(v,u))
    b = _KEY_WEIGHTS[(pair + n_colours + 1) % len(_KEY_WEIGHTS)]
    s = (b @ a).astype(np.uint64)  # a is symmetric: (b @ a)[j, u] = s(u) for v_j
    keys = pair.astype(np.uint64) * np.uint64((n << 20) + 1) + s
    keys.sort(axis=1)
    return keys


def _moved_pair(colours: np.ndarray, p: np.ndarray) -> Optional[tuple[int, int]]:
    """The first pair (i, j) in row-major order whose colour the permutation p
    changes, or None.  The diagonal holds one colour (-1 in the search, the
    top colour in the Gram table) and p maps it onto itself, so it never
    moves; the colours are symmetric, so the first moved pair has i < j."""
    moved = (colours[np.ix_(p, p)] != colours).ravel()
    k = int(moved.argmax())
    return divmod(k, len(p)) if moved[k] else None


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
    colours, k = graph.edge_colors, graph.n_edge_colors
    weights = _signature_table(colours, k)
    state = {"first_leaf": None, "a": None}
    gens: list[Perm] = []
    orbits = _Orbits(n)
    spine_orbits: list[int] = []  # |v_k^{H_k}|, deepest first
    invariants: dict[int, tuple] = {}  # depth -> the spine node's trace
    spine: dict[int, tuple[list, tuple]] = {}  # depth -> (cells, target cell) on the leftmost path
    spine_keys: dict[int, tuple[np.ndarray, list]] = {}  # depth -> (key rows, sorted multiset)

    def in_explored_orbit(v: int, explored: list[int]) -> bool:
        root = orbits.find(v)
        return any(orbits.find(u) == root for u in explored)

    def keys(cells, cell) -> tuple[np.ndarray, list[bytes]]:
        """The key rows of the target cell's vertices, in cell order, and
        their sorted multiset."""
        if state["a"] is None:
            state["a"] = _KEY_WEIGHTS[(colours + 1) % len(_KEY_WEIGHTS)]
        cell_of = np.empty(n, dtype=np.int64)
        cell_of[list(chain.from_iterable(cells))] = np.repeat(
            np.arange(len(cells)), [len(c) for c in cells])
        rows = _sibling_keys(state["a"], colours, k, cell_of, list(cell))
        return rows, sorted(r.tobytes() for r in rows)

    def unlike_spine(cells, cell, depth: int, leftmost: bool) -> Optional[set[int]]:
        """The vertices of the target cell whose sibling key differs from
        v_depth's, the first of the spine node's target cell; None if the
        cell's multiset of keys is not the spine node's."""
        rows, multiset = keys(cells, cell)
        if leftmost:
            spine_keys[depth] = rows, multiset
        elif depth not in spine_keys:  # the spine node never keyed
            spine_keys[depth] = keys(*spine[depth])
        spine_rows, spine_multiset = spine_keys[depth]
        if multiset != spine_multiset:
            return None
        same = (rows == spine_rows[0]).all(axis=1)
        return {v for v, s in zip(cell, same.tolist()) if not s}

    def search(cells, splitters, depth: int, leftmost: bool) -> bool:
        # off the spine, the spine's node at this depth sets the trace to match
        refined = _refine(weights, cells, splitters, None if leftmost else invariants[depth])
        if refined is None:
            return False
        cells, trace = refined
        if leftmost:
            invariants[depth] = trace
        if len(cells) == n:
            leaf = np.array([c[0] for c in cells], dtype=np.intp)
            if state["first_leaf"] is None:
                state["first_leaf"] = leaf
                return False
            p = np.empty(n, dtype=np.intp)
            p[state["first_leaf"]] = leaf
            if _moved_pair(colours, p) is None:
                gens.append(tuple(p.tolist()))
                orbits.add(gens[-1])
                return True
            return False
        sizes = [len(c) for c in cells]
        target = min(s for s in sizes if s > 1)
        ti = sizes.index(target)
        cell = cells[ti]
        if leftmost:
            spine[depth] = (cells, cell)
        explored: list[int] = []
        found = failed = False
        unlike: Optional[set[int]] = None  # None until the cell is keyed
        for i, v in enumerate(cell):
            if leftmost and explored and in_explored_orbit(v, explored):
                continue
            if failed and unlike is None and len(cell) - i >= 2:
                unlike = unlike_spine(cells, cell, depth, leftmost)
                if unlike is None:
                    return False  # no automorphism maps the spine's node onto this one
            if unlike and v in unlike:
                res = False  # no automorphism maps the spine's node onto this child
            else:
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
            failed = failed or not res
            if res and not leftmost:
                return True  # one coset representative is enough off the spine
        if leftmost:
            spine_orbits.append(orbits.size[orbits.find(cell[0])])
        return found

    cells = [tuple(range(n))]
    search(cells, cells, 0, True)
    first = None
    if spine_orbits:  # the stabilizer's generators are some of the group's
        first = state["v0"], PermutationGroup(n, gens[:state["stabilizer_gens"]],
                                              _order=math.prod(spine_orbits[:-1]))
    return PermutationGroup(n, gens, _order=math.prod(spine_orbits), _first_stabilizer=first)


# --- fixed subspaces and group-balancedness ---------------------------------
#
# A group from outside is checked once, where it enters (`_check_group`).  The
# search's own group kept only generators that passed its leaf test, and every
# stabilizer is a subgroup of the group it was taken from, so neither is
# checked again.


def _check_group(c: Configuration, group: PermutationGroup) -> None:
    """Raise StructuralError unless the group acts on c's points and every
    generator keeps the Gram matrix.  Generators are permutations of
    range(degree) (`PermutationGroup`), so one degree test covers them all;
    value-table colours are a bijection with the Gram values, so a
    permutation that keeps every colour keeps every entry."""
    if group.degree != c.size:
        raise StructuralError(f"group degree {group.degree} does not match {c.size} points")
    for p in group.generators:
        pair = _moved_pair(c.gram.colours, np.array(p, dtype=np.intp))
        if pair is not None:
            raise StructuralError(
                f"permutation does not preserve the Gram matrix at ({pair[0]},{pair[1]})")


def _orbit_rank(c: Configuration, orbits: Sequence[Sequence[int]]) -> int:
    """The rank of the orbit sums of c's points, for orbits that partition them.

    The fixed space of a permutation-induced orthogonal action on span(C) is
    spanned by the orbit sums, so its dimension is the rank of B X, with B
    the orbit indicator matrix and X the integer coordinates of the Gram
    elimination (den * G = X W X^T, W a positive diagonal).
    """
    if len(orbits) == c.size:
        # trivial action: B is a permutation matrix and rank(B X) = rank(X)
        return c.ambient_dim
    x = c.gram.elimination.x
    x = x.astype(int_dtype(c.size * int(np.abs(x).max())), copy=False)  # bounds every orbit sum
    order = np.concatenate([np.asarray(o, dtype=np.intp) for o in orbits])
    starts = np.cumsum([0] + [len(o) for o in orbits[:-1]])
    return integer_rank(np.add.reduceat(x[order], starts, axis=0))


def fixed_subspace_dim(c: Configuration, group: PermutationGroup) -> int:
    """Dimension of the subspace of span(C) fixed by the induced action of
    a group, which is checked first (`_check_group`)."""
    _check_group(c, group)
    return _orbit_rank(c, group.orbits())


@dataclass(frozen=True)
class GroupBalanceVerdict:
    group_balanced: bool
    witnesses: tuple[int, ...]  # points whose stabilizer fixes more than a line


def _group_balanced(c: Configuration, group: PermutationGroup) -> GroupBalanceVerdict:
    """The verdict for a group of c's isometries, trusted unchecked.

    Conjugate stabilizers have equal fixed dimensions, so one representative
    per orbit is checked and the verdict extended orbit-wide.  For a group
    from `automorphism_group`, the orbit of the search's first individualized
    vertex uses the stabilizer the search found; every other orbit uses its
    least point.  A regular orbit, as long as the group's order, has trivial
    stabilizers, which fix all of span(C): it takes no stabilizer chain.
    """
    v0, first = group._first_stabilizer or (None, None)
    witnesses: list[int] = []
    for orbit in group.orbits():
        if len(orbit) == group.order():
            dim = c.ambient_dim
        else:
            stab = first if v0 in orbit else group.point_stabilizer(orbit[0])
            dim = _orbit_rank(c, stab.orbits())
        if dim != 1:
            witnesses.extend(orbit)
    witnesses.sort()
    return GroupBalanceVerdict(group_balanced=not witnesses, witnesses=tuple(witnesses))


def check_group_balanced(
    c: Configuration, group: Optional[PermutationGroup] = None
) -> GroupBalanceVerdict:
    """True iff every point's stabilizer fixes only the line through it: in
    c's isometry group, searched here, or in a given group, checked first
    (`_check_group`)."""
    if group is None:
        group = automorphism_group(colored_graph_from_config(c))
    else:
        _check_group(c, group)
    return _group_balanced(c, group)
