"""The tuple-based symmetry engine, kept as a reference for the array engine.

This is the earlier implementation of `balanced.symmetry`'s search and
Schreier-Sims chain: permutations are tuples, refinement counts splitter
colours vertex by vertex and re-queues every cell, orbit pruning is a BFS,
and every strip inverts its transversal element again.  The array engine
must reproduce its generators, orders, orbits and stabilizer generators
exactly.  `group_balance_witnesses` is the group-balanced loop as it was
before the first base point came to represent its orbit: each orbit's least
point, with its stabilizer from this module's chain.  `preserves_colors` and
`check_preserves_gram` are the two colour-array checks that
`symmetry._moved_pair` replaced: the search's leaf test and the Gram check of
`symmetry._check_group`.
"""

from collections import deque

import numpy as np

from balanced.exact import StructuralError


def _compose(p, q):
    """Apply p, then q."""
    return tuple(q[x] for x in p)


def _invert(p):
    inv = [0] * len(p)
    for i, x in enumerate(p):
        inv[x] = i
    return tuple(inv)


def _is_identity(p):
    return all(i == x for i, x in enumerate(p))


class StabilizerChain:
    """Deterministic Schreier-Sims chain with an optional forced base prefix."""

    def __init__(self, degree, generators, base_prefix=()):
        self.degree = degree
        self.base = []
        self.gens = []
        self.trans = []
        for pt in base_prefix:
            self._add_level(pt)
        for g in generators:
            self._add_element(tuple(g))

    def _add_level(self, pt):
        self.base.append(pt)
        self.gens.append([])
        self.trans.append({pt: tuple(range(self.degree))})

    def _rebuild_transversal(self, level):
        b = self.base[level]
        trans = {b: tuple(range(self.degree))}
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

    def strip(self, g, start=0):
        for i in range(start, len(self.base)):
            t = self.trans[i].get(g[self.base[i]])
            if t is None:
                return g, i
            g = _compose(g, _invert(t))
        return g, len(self.base)

    def _add_element(self, g):
        residue, j = self.strip(g)
        if _is_identity(residue):
            return
        if j == len(self.base):
            self._add_level(next(i for i in range(self.degree) if residue[i] != i))
        for level in range(j + 1):
            self.gens[level].append(residue)
        for level in range(j, -1, -1):
            self._close(level)

    def _close(self, level):
        self._rebuild_transversal(level)
        for a in sorted(self.trans[level]):
            ta = self.trans[level][a]
            for s in list(self.gens[level]):
                c = s[a]
                schreier = _compose(_compose(ta, s), _invert(self.trans[level][c]))
                residue, j = self.strip(schreier, level + 1)
                if _is_identity(residue):
                    continue
                if j == len(self.base):
                    self._add_level(next(i for i in range(self.degree) if residue[i] != i))
                for l in range(level + 1, j + 1):
                    self.gens[l].append(residue)
                for l in range(j, level, -1):
                    self._close(l)

    def order(self):
        n = 1
        for t in self.trans:
            n *= len(t)
        return n

    def level_generators(self, level):
        if level >= len(self.base):
            return ()
        seen = []
        for g in self.gens[level]:
            if g not in seen and not _is_identity(g):
                seen.append(g)
        return tuple(seen)


def preserves_colors(colours, vertex_colours, p):
    return bool(
        (vertex_colours[p] == vertex_colours).all()
        and (colours[np.ix_(p, p)] == colours).all()
    )


def check_preserves_gram(c, group):
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


def contains(group, perm):
    """Membership in a group given by generators: perm sifts to the identity
    through this module's chain of the group's generators."""
    residue, _ = StabilizerChain(group.degree, group.generators).strip(tuple(perm))
    return _is_identity(residue)


def _dedup(generators):
    out = []
    for g in generators:
        g = tuple(g)
        if not _is_identity(g) and g not in out:
            out.append(g)
    return tuple(out)


def group_order(degree, generators):
    return StabilizerChain(degree, generators).order()


def stabilizer_generators(degree, generators, i):
    chain = StabilizerChain(degree, generators, base_prefix=(i,))
    return _dedup(chain.level_generators(1))


def group_balance_witnesses(degree, generators, fixed_dim):
    """Points whose stabilizer fixes more than a line, one orbit at a time
    represented by its least point; fixed_dim maps stabilizer generators to
    the dimension of their fixed subspace."""
    witnesses = []
    for orbit in orbits(degree, generators):
        if fixed_dim(stabilizer_generators(degree, generators, orbit[0])) != 1:
            witnesses.extend(orbit)
    return tuple(sorted(witnesses))


def orbits(degree, generators):
    seen = [False] * degree
    out = []
    for start in range(degree):
        if seen[start]:
            continue
        orbit = [start]
        seen[start] = True
        frontier = deque([start])
        while frontier:
            a = frontier.popleft()
            for g in generators:
                b = g[a]
                if not seen[b]:
                    seen[b] = True
                    orbit.append(b)
                    frontier.append(b)
        out.append(tuple(sorted(orbit)))
    return tuple(out)


def refine(graph, cells):
    """Coarsest equitable refinement with every cell queued; (cells, invariant)."""
    colors = graph.edge_colors.tolist()
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
            sigs = {}
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


def base_n_signatures(result, n, n_colours):
    """A `refine` result in the form the array engine returns, (cells, trace),
    with every count vector in the trace read as a base-n integer, most
    significant digit first.  The sizes it drops must be the cells'."""
    cells, (sizes, trace) = result
    assert sizes == tuple(len(c) for c in cells)

    def encode(counts):
        assert len(counts) == n_colours
        value = 0
        for x in counts:
            assert 0 <= x < n
            value = value * n + x
        return value

    trace = tuple(
        (ci, tuple((encode(sig), size) for sig, size in parts)) for ci, parts in trace
    )
    return cells, trace


def _individualize(cells, v):
    out = []
    for cell in cells:
        if v in cell and len(cell) > 1:
            out.append((v,))
            out.append(tuple(u for u in cell if u != v))
        else:
            out.append(cell)
    return out


def _initial_cells(graph):
    buckets = {}
    for v, c in enumerate((0,) * graph.size):  # every vertex has colour 0
        buckets.setdefault(c, []).append(v)
    return [tuple(buckets[c]) for c in sorted(buckets)]


def _preserves_colors(graph, p):
    vertex_colors = (0,) * graph.size  # every vertex has colour 0
    colors = graph.edge_colors.tolist()
    n = graph.size
    for i in range(n):
        if vertex_colors[p[i]] != vertex_colors[i]:
            return False
        row = colors[i]
        prow = colors[p[i]]
        for j in range(i + 1, n):
            if prow[p[j]] != row[j]:
                return False
    return True


def automorphism_generators(graph, refinements=None):
    """Generators found by the search, after the group's dedup.

    If `refinements` is a list, every refinement the search runs is
    appended to it as (cells in, new cells, (cells, invariant) out), where
    the new cells are the two that individualization made, or None at the
    root.
    """
    n = graph.size
    if n == 0:
        return ()
    state = {"first_leaf": None}
    gens = []
    invariants = {}

    def in_explored_orbit(v, explored):
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

    def search(cells, depth, leftmost, new=None):
        result = refine(graph, cells)
        if refinements is not None:
            refinements.append((cells, new, result))
        cells, inv = result
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
            p = [0] * n
            for a, b in zip(state["first_leaf"], leaf):
                p[a] = b
            p = tuple(p)
            if _preserves_colors(graph, p):
                gens.append(p)
                return True
            return False
        target = min(s for s in sizes if s > 1)
        cell = cells[next(i for i, s in enumerate(sizes) if s == target)]
        explored = []
        found = False
        for v in cell:
            if leftmost and explored and in_explored_orbit(v, explored):
                continue
            child_leftmost = leftmost and state["first_leaf"] is None
            new = [(v,), tuple(u for u in cell if u != v)]
            res = search(_individualize(cells, v), depth + 1, child_leftmost, new)
            explored.append(v)
            found = found or res
            if res and not leftmost:
                return True
        return found

    search(_initial_cells(graph), 0, True)
    return _dedup(gens)
