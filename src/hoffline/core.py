"""Two-colored graph model: slim and fat vertices.

A Hoffman graph is a finite simple graph whose vertices carry one of two
labels, *slim* or *fat*, such that

  (1) every fat vertex has at least one slim neighbour, and
  (2) fat vertices are pairwise non-adjacent.

A graph with no fat vertices at all (an ordinary graph) is called *slim*.
Vertices are indexed with slim vertices first (0 .. slim_count-1) and fat
vertices after them; every file format and canonical form in this package
uses that convention so that slim-restriction masks are contiguous.

Adjacency is stored as one Python int bitmask per vertex, which makes
neighbourhood intersections, induced-subgraph extraction and the search
routines built on top of this module cheap.  Graphs are immutable after
construction and all operations here are pure functions, so instances can
be shared freely across threads or worker processes.

Besides the data model this module provides:

  * closure/deletion operators: ``induced_slim_closure`` takes the subgraph
    induced on a set of slim vertices together with all their fat
    neighbours, and ``delete_slim`` removes slim vertices (dropping fat
    vertices that lose their last slim neighbour);
  * a canonical form (colour refinement with individualization and
    orbit pruning) deciding colour-preserving isomorphism;
  * an induced-subgraph embedding search (``find_embedding``), whose
    pattern side (vertex order, adjacency and twins among later
    vertices, colour and local-count keys) is built once per pattern and
    memoized on it, like the canonical form, while the host side is
    kept for the last host only;
  * connectivity helpers;
  * a plain text interchange format and a DOT exporter.
"""

from __future__ import annotations

import functools


class HoffmanGraphError(Exception):
    """Base class for errors raised by this package."""


class FatFatEdge(HoffmanGraphError):
    """Two fat vertices are adjacent."""


class IsolatedFat(HoffmanGraphError):
    """A fat vertex has no slim neighbour."""


class IndexOutOfRange(HoffmanGraphError):
    """A vertex index is outside the graph."""


def _iter_bits(mask):
    """Yield the set bit positions of ``mask`` in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _mask_of(vertices):
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


class HoffmanGraph:
    """Immutable two-colored graph; see the module docstring.

    ``adj`` is a tuple of ints, ``adj[v]`` having bit ``u`` set iff ``u``
    and ``v`` are adjacent.
    """

    __slots__ = ("slim_count", "fat_count", "adj", "_canon", "_plan")

    def __init__(self, slim_count, fat_count, adj, _checked=False):
        self.slim_count = slim_count
        self.fat_count = fat_count
        self.adj = tuple(adj)
        self._canon = None
        self._plan = None
        if not _checked:
            self._validate()

    # -- construction -------------------------------------------------

    def _validate(self):
        n = self.slim_count + self.fat_count
        if len(self.adj) != n:
            raise IndexOutOfRange("adjacency length does not match vertex count")
        full = (1 << n) - 1
        slim_mask = (1 << self.slim_count) - 1
        for v, row in enumerate(self.adj):
            if row & ~full:
                raise IndexOutOfRange("adjacency references vertex outside range")
            if (row >> v) & 1:
                raise HoffmanGraphError("self-loops are not allowed")
            for u in _iter_bits(row):
                if not (self.adj[u] >> v) & 1:
                    raise HoffmanGraphError("adjacency is not symmetric")
        for f in range(self.slim_count, n):
            row = self.adj[f]
            if row & ~slim_mask:
                raise FatFatEdge("fat vertices must be pairwise non-adjacent")
            if not row & slim_mask:
                raise IsolatedFat("every fat vertex needs a slim neighbour")

    @classmethod
    def build(cls, slim_count, fat_count, edges):
        """Build a graph from an edge list, enforcing both label conditions."""
        if slim_count < 0 or fat_count < 0:
            raise IndexOutOfRange("vertex counts must be non-negative")
        n = slim_count + fat_count
        adj = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise IndexOutOfRange(f"edge ({u},{v}) outside 0..{n - 1}")
            if u == v:
                raise HoffmanGraphError("self-loops are not allowed")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        return cls(slim_count, fat_count, adj)

    # -- basic accessors ----------------------------------------------

    @property
    def n(self):
        return self.slim_count + self.fat_count

    @property
    def slim_mask(self):
        return (1 << self.slim_count) - 1

    @property
    def fat_mask(self):
        return ((1 << self.n) - 1) ^ self.slim_mask

    def fat_neighbors(self, v):
        return self.adj[v] & self.fat_mask

    def adjacent(self, u, v):
        return (self.adj[u] >> v) & 1 == 1

    def edges(self):
        for v in range(self.n):
            row = self.adj[v] >> (v + 1)
            for u in _iter_bits(row):
                yield (v, v + 1 + u)

    def edge_count(self):
        return sum(r.bit_count() for r in self.adj) // 2

    def __eq__(self, other):
        return (
            isinstance(other, HoffmanGraph)
            and self.slim_count == other.slim_count
            and self.fat_count == other.fat_count
            and self.adj == other.adj
        )

    def __hash__(self):
        # not cached: the package's own runs hash no graph
        return hash((self.slim_count, self.fat_count, self.adj))

    def __repr__(self):
        return f"HoffmanGraph(s={self.slim_count}, f={self.fat_count}, m={self.edge_count()})"

    # -- induced subgraphs --------------------------------------------

    def _check_slim_set(self, vertices):
        s = set(vertices)
        for v in s:
            if not (0 <= v < self.slim_count):
                raise IndexOutOfRange(f"{v} is not a slim vertex")
        return s

    def closure_vertices(self, slim_set):
        """The given slim vertices together with all their fat neighbours."""
        s = self._check_slim_set(slim_set)
        fats = 0
        for v in s:
            fats |= self.fat_neighbors(v)
        return sorted(s) + [f for f in _iter_bits(fats)]

    def induced_on(self, vertices):
        """Induced subgraph on ``vertices`` (reindexed, slim-first order).

        The vertex list must keep every fat vertex attached to a slim one,
        otherwise construction fails; callers pick closures to ensure that.
        Returns the subgraph together with the list mapping new indices to
        old vertices.
        """
        verts = sorted(set(vertices), key=lambda v: (v >= self.slim_count, v))
        for v in verts:
            if not (0 <= v < self.n):
                raise IndexOutOfRange(f"vertex {v} outside graph")
        pos = {v: i for i, v in enumerate(verts)}
        slim = sum(1 for v in verts if v < self.slim_count)
        adj = [0] * len(verts)
        for i, v in enumerate(verts):
            for u in _iter_bits(self.adj[v]):
                j = pos.get(u)
                if j is not None:
                    adj[i] |= 1 << j
        return HoffmanGraph(slim, len(verts) - slim, adj), verts

    def induced_slim_closure(self, slim_set):
        """Subgraph induced on a slim set plus all fat neighbours of it."""
        g, _ = self.induced_on(self.closure_vertices(slim_set))
        return g

    def delete_slim(self, slim_set):
        """Remove slim vertices; fat vertices left without slim support drop."""
        s = self._check_slim_set(slim_set)
        keep = [v for v in range(self.slim_count) if v not in s]
        return self.induced_slim_closure(keep)

    def slim_subgraph(self):
        """The slim graph induced on the slim vertices."""
        adj = [self.adj[v] & self.slim_mask for v in range(self.slim_count)]
        return HoffmanGraph(self.slim_count, 0, adj, _checked=True)

    # -- connectivity ---------------------------------------------------

    def _components_within(self, mask):
        """The components of the subgraph induced on the bitmask ``mask``,
        as bitmasks, in the order of their least vertices."""
        out = []
        while mask:
            comp = frontier = mask & -mask
            while frontier:
                nxt = 0
                for u in _iter_bits(frontier):
                    nxt |= self.adj[u]
                frontier = nxt & mask & ~comp
                comp |= frontier
            out.append(comp)
            mask ^= comp
        return out

    def connected_components(self):
        """Partition of the vertices into components (sorted vertex lists)."""
        return [list(_iter_bits(c)) for c in self._components_within((1 << self.n) - 1)]

    def is_connected(self):
        return len(self._components_within((1 << self.n) - 1)) <= 1

    # -- text formats ----------------------------------------------------

    def to_text(self):
        """Serialize: header ``s=<slim> f=<fat>`` then one ``u v`` per line."""
        lines = [f"s={self.slim_count} f={self.fat_count}"]
        for u, v in self.edges():
            lines.append(f"{u} {v}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text):
        """Parse the plain text format; ``#`` comments and blanks ignored."""
        lines = [
            ln.strip()
            for ln in text.splitlines()
            if ln.strip() and not ln.strip().startswith("#")
        ]
        if not lines:
            raise HoffmanGraphError("empty graph text")
        head = lines[0].split()
        try:
            slim = int(head[0].removeprefix("s="))
            fat = int(head[1].removeprefix("f="))
        except (ValueError, IndexError):
            raise HoffmanGraphError(f"bad header line {lines[0]!r}") from None
        if slim + fat > _TEXT_MAX_VERTICES:
            raise IndexOutOfRange(
                f"text graphs are limited to {_TEXT_MAX_VERTICES} vertices"
            )
        edges = []
        for ln in lines[1:]:
            try:
                u, v = map(int, ln.split())
            except ValueError:
                raise HoffmanGraphError(f"bad edge line {ln!r}") from None
            edges.append((u, v))
        return cls.build(slim, fat, edges)

    def to_dot(self):
        """GraphViz DOT text; slim vertices small filled dots, fat large."""
        out = ["graph H {"]
        for v in range(self.slim_count):
            out.append(f'  {v} [shape=circle, style=filled, fillcolor=black, width=0.12, label=""];')
        for v in range(self.slim_count, self.n):
            out.append(f'  {v} [shape=circle, width=0.35, label=""];')
        for u, v in self.edges():
            out.append(f"  {u} -- {v};")
        out.append("}")
        return "\n".join(out) + "\n"


EMPTY_GRAPH = HoffmanGraph(0, 0, ())

#: ``from_text`` refuses larger headers before allocating anything, so a
#: malformed count cannot exhaust memory; the graphs this package can
#: label canonically are far smaller
_TEXT_MAX_VERTICES = 1000


# ---------------------------------------------------------------------------
# Canonical form
# ---------------------------------------------------------------------------
#
# Iterated colour refinement starting from the slim/fat partition, with
# backtracking over the refined partition (individualization).  The
# canonical form is the minimal adjacency byte string over all leaves of
# the search tree; two graphs get the same form exactly when a
# colour-preserving isomorphism exists.  Graph sizes in this package stay
# below ~25 vertices, so no external canonical labelling tool is needed.
#
# Bitmask cells (as in McKay & Piperno, J. Symbolic Computation 60,
# 2014).  A cell is the int mask of its vertices, read in ascending
# order.  Every cell is ascending anyway: the colour cells are, a split
# keeps the order within each part, and individualizing v leaves [v] and
# the rest of the cell in order.  A cell splits by its counts into the
# fresh cells one fresh cell at a time, each split stable and ordered by
# count; that orders the parts by count vector, first fresh cell first,
# as sorting the vectors would.  A fresh singleton {u} splits a cell
# into its non-neighbours and neighbours of u, two mask operations.
#
# Incremental refinement.  A round splits each cell by its neighbour
# counts into the cells the previous round created, not into every cell.
# At the root every cell is new.  Below it, the partition was equitable
# before the target cell split into [v] and the rest.  So every vertex of
# a cell has the same count into every cell that did not change, and its
# counts into the parts of a split cell add up to its count into the cell
# before the split, which is the same for the whole cell.  The parts stand
# next to each other in the order, so the count into the last part
# follows from the others and never decides a comparison: the first round
# counts into [v] alone.  After a round, every cell again has equal counts
# into each cell of the partition the round started from, so the same
# holds for the next round.  Therefore within a cell the counts into the
# new cells group and order its vertices exactly as the full count vector
# does, and ``_refine`` returns the ordered partition full refinement
# gives; a round that splits nothing leaves it equitable.
#
# Orbit pruning (McKay, "Practical graph isomorphism", 1981).  At a node
# with individualized prefix P, a union-find over the target cell holds
# the orbits of the group generated by the stored automorphisms that fix
# P pointwise; it takes in each automorphism stored while the node's
# children run.  A candidate in the orbit of a tried vertex is skipped:
# an element of that group fixes P and maps the tried child onto the
# skipped one, so it maps the one subtree onto the other with equal leaf
# keys, and the skipped subtree holds no smaller key and no earlier
# occurrence of the least one.  The stored automorphisms still generate
# the whole group, by induction up the first path: at its node with
# prefix P and child w, those fixing P and w generate the stabilizer of
# P and w; a vertex of the orbit of w under the stabilizer of P is either
# tried, and a leaf below it with the first leaf's key records an
# automorphism that maps w to it, or skipped as in the orbit of a tried
# vertex.  So they generate the stabilizer of P, at the root the full
# group.  ``canonical_data`` returns them as generators, not orbits: the
# orbits are the trees of the union-find ``_orbit_forest`` over them.


def _refine(adj, cells, fresh):
    """Equitable refinement of an ordered partition of bitmask cells.

    Each round splits every cell by its neighbour counts into the cells
    of ``fresh`` and orders the parts by count vector, which is
    label-invariant, so two isomorphic graphs refine to corresponding
    partitions.  The next round counts into the parts of each split but
    the last; refinement stops when a round splits nothing.  ``fresh``
    must be every cell at the root and the new singleton below a split
    of an equitable partition (see the block comment above).
    """
    cells = list(cells)
    while fresh:
        new_cells = []
        next_fresh = []
        for c in cells:
            if not c & (c - 1):
                new_cells.append(c)
                continue
            parts = [c]
            for m in fresh:
                split = []
                if not m & (m - 1):
                    row = adj[m.bit_length() - 1]
                    for part in parts:
                        far = part & ~row
                        if far:
                            split.append(far)
                        if far != part:
                            split.append(part & row)
                else:
                    for part in parts:
                        if not part & (part - 1):
                            split.append(part)
                            continue
                        groups = {}
                        for v in _iter_bits(part):
                            count = (adj[v] & m).bit_count()
                            groups[count] = groups.get(count, 0) | 1 << v
                        split.extend(groups[count] for count in sorted(groups))
                parts = split
            new_cells.extend(parts)
            next_fresh.extend(parts[:-1])
        cells = new_cells
        fresh = next_fresh
    return cells


def _adjacency_key(adj, lab):
    """Upper-triangle adjacency bits under the labelling, packed to bytes."""
    n = len(lab)
    bits = 0
    k = 0
    for i in range(n):
        row = adj[lab[i]]
        for j in range(i + 1, n):
            bits = (bits << 1) | ((row >> lab[j]) & 1)
            k += 1
    return bits.to_bytes((k + 7) // 8 or 1, "big")


def _find(parent, x):
    """The root of ``x`` in the union-find forest ``parent``."""
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def _union(parent, x, y):
    rx, ry = _find(parent, x), _find(parent, y)
    if rx != ry:
        parent[rx] = ry


def _orbit_forest(n, autos):
    """A union-find forest on ``range(n)`` whose trees are the orbits of
    the group that the permutations ``autos`` generate."""
    parent = list(range(n))
    for a in autos:
        for v in range(n):
            _union(parent, v, a[v])
    return parent


class _CanonSearch:
    __slots__ = ("adj", "first", "first_path", "best", "autos")

    def __init__(self, adj):
        self.adj = adj
        self.first = None
        self.first_path = None
        self.best = None
        self.autos = []

    def _record_auto(self, lab1, lab2):
        # never the identity: distinct leaves part at a node taking v or
        # w != v at target index t, after singletons only; refinement never
        # reorders cells, so lab[t] is v below v and w below w
        perm = [0] * len(lab1)
        for u, v in zip(lab1, lab2):
            perm[u] = v
        self.autos.append(perm)

    def _leaf(self, cells, fixed):
        """Take in a leaf with individualized path ``fixed``; return the
        depth ``run`` goes back to: the deepest node that the path shares
        with the first path when the leaf has the first leaf's key, and
        its own depth otherwise, which sends no node back early."""
        lab = [c.bit_length() - 1 for c in cells]
        key = _adjacency_key(self.adj, lab)
        if self.first is None:
            self.first = self.best = (key, lab)
            self.first_path = fixed[:]
            return len(fixed)
        if key < self.best[0]:
            self.best = (key, lab)
        elif key == self.best[0] and self.best is not self.first:
            self._record_auto(self.best[1], lab)
        if key == self.first[0]:
            self._record_auto(self.first[1], lab)
            shared = 0
            for v, w in zip(fixed, self.first_path):
                if v != w:
                    break
                shared += 1
            return shared
        return len(fixed)

    def run(self, cells, fresh, fixed):
        """Search the subtree of the node with individualized prefix
        ``fixed``; return the depth to go back to (see ``_leaf``), which
        is ``len(fixed)`` unless a jump passes through this node.

        The jump (McKay & Piperno, J. Symbolic Computation 60, 2014):
        let a leaf have the first leaf's key, and let its path share the
        prefix P, of depth k, with the first path, which takes c1 below
        it where this path takes c.  The automorphism gamma stored from
        the two leaves maps the first path onto this one node by node,
        since refinement is label-invariant: it fixes P and maps c1 to
        c.  So the subtree under P + c is gamma's image of the one under
        P + c1, which was searched before it, as c1 is the first child
        at P; any part of it that orbit pruning skipped was itself an
        image of a part searched.  Its leaves carry the same keys, so
        the least key and its first occurrence, the best labelling, are
        already found, and the search returns to P at once.  P is a node
        of the first path, where the induction in the block comment
        above still shows that the stored automorphisms generate the
        group: gamma maps c1 to c, so c counts as a vertex tried whose
        subtree recorded such an automorphism."""
        cells = _refine(self.adj, cells, fresh)
        target = -1
        for i, c in enumerate(cells):
            if c & (c - 1):
                target = i
                break
        if target < 0:
            return self._leaf(cells, fixed)
        depth = len(fixed)
        cell = cells[target]
        members = list(_iter_bits(cell))
        rest_template = cells[:target]
        tail = cells[target + 1:]
        # the orbits on the target cell of the group that the stored
        # automorphisms fixing the prefix generate
        parent = {v: v for v in members}
        folded = 0
        tried = []
        for v in members:
            for a in self.autos[folded:]:
                if all(a[x] == x for x in fixed):
                    for u in members:
                        _union(parent, u, a[u])
            folded = len(self.autos)
            root = _find(parent, v)
            if any(_find(parent, u) == root for u in tried):
                continue
            tried.append(v)
            bit = 1 << v
            fixed.append(v)
            back = self.run(rest_template + [bit, cell ^ bit] + tail, [bit], fixed)
            fixed.pop()
            if back < depth:
                return back
        return depth


def canonical_data(g):
    """Canonical labelling: (form bytes, labelling, stored automorphisms).

    The labelling maps canonical positions to original vertices.  The
    stored automorphisms generate the colour-preserving automorphism
    group (see the block comment above); ``_orbit_forest`` joins them
    into the group's orbits.  The empty graph gives (header, [], []).

    The search starts from the colour cells, the slim vertices and then
    the fat ones, leaving out an empty cell, and refines them at its
    root.
    """
    header = bytes([g.slim_count, g.fat_count])
    if not g.n:
        return header, [], []
    cells = [c for c in (g.slim_mask, g.fat_mask) if c]
    search = _CanonSearch(g.adj)
    search.run(cells, cells, [])
    key, lab = search.best
    return header + key, lab, search.autos


def canonical_form(g):
    """Byte string equal for two graphs iff they are colour-preserving
    isomorphic (slim maps to slim, fat to fat)."""
    if g._canon is None:
        g._canon = canonical_data(g)[0]
    return g._canon


def isomorphic(g, h):
    return canonical_form(g) == canonical_form(h)


# ---------------------------------------------------------------------------
# Induced embedding search
# ---------------------------------------------------------------------------
#
# Two prunes that are sound for induced, colour-preserving embeddings
# (domain filtering as in McCreesh, Prosser & Trimble, "The Glasgow
# Subgraph Solver", ICGT 2020, and Juttner & Madarasi, VF2++, Discrete
# Applied Mathematics 242, 2018).  The search tries the positions of the
# plan order one by one and the candidates of each in increasing order,
# so unpruned it returns the least embedding in plan order: the one whose
# sequence of images, read in plan order, is lexicographically least.
#
# Local counts.  Each vertex has four counts: its degree, its non-degree
# (non-neighbours other than itself), the edges inside its neighbourhood
# and the non-edges inside it.  An injective induced embedding phi maps
# the neighbours of v onto distinct neighbours of phi(v) and the
# non-neighbours onto distinct non-neighbours, and it maps an edge or
# non-edge between two neighbours of v onto an edge or non-edge between
# two neighbours of phi(v).  So each count of phi(v) is at least that
# of v, and a host vertex with a smaller count is the image of v in no
# embedding.  Dropping it loses no embedding, and the least one stays
# first.
#
# Twin order.  Pattern vertices a and b of one colour are twins when
# N(a) - b = N(b) - a.  Then the transposition of a and b is a
# colour-preserving automorphism of the pattern, so with phi an
# embedding, phi with the images of a and b swapped is one too.  Let a
# come before b in the plan order, and let phi(b) < phi(a).  The swapped
# embedding agrees with phi before a and has the smaller image phi(b) at
# a, so it is less than phi, and phi is not the least embedding.  So
# the least embedding maps every such b above its twin a, and cutting the
# domain of b to the host vertices above phi(a) loses some embeddings
# but never the least one, which the search still finds first.  Both
# prunes together keep it too: the first only removes vertices that no
# embedding uses.


def _local_counts(adj):
    """(degree, non-degree, edges inside the neighbourhood, non-edges
    inside it) of each vertex of the graph with adjacency ``adj``."""
    n = len(adj)
    counts = []
    for row in adj:
        deg = row.bit_count()
        inner = 0
        rest = row
        while rest:
            low = rest & -rest
            inner += (adj[low.bit_length() - 1] & row).bit_count()
            rest ^= low
        inner //= 2
        counts.append((deg, n - 1 - deg, inner, deg * (deg - 1) // 2 - inner))
    return counts


@functools.lru_cache(maxsize=1)
def _host_side(adj, slim_count):
    """The host side of ``find_embedding``: the local counts of each host
    vertex and a dict, filled as patterns ask, of the domain of each key.
    Only the last host is kept: callers test many patterns against one
    host in a row, and a copy kept per graph would live as long as the
    graphs of the layer store."""
    return _local_counts(adj), {}


def _embedding_plan(pattern):
    """The pattern side of ``find_embedding``, built once per pattern:
    (vertex order, steps, keys).  The order is by decreasing degree, then
    by index; step ``i`` lists ``(j, adjacent, twin)`` for each later
    position ``j``, ``adjacent`` telling whether the pattern vertices at
    ``i`` and ``j`` are joined and ``twin`` whether they are twins of one
    colour; key ``i`` is fat? and the local counts of the vertex at ``i``."""
    plan = pattern._plan
    if plan is None:
        padj = pattern.adj
        pn = len(padj)
        s = pattern.slim_count
        order = tuple(sorted(range(pn), key=lambda v: (-padj[v].bit_count(), v)))

        def twins(a, b):
            return (a < s) == (b < s) and padj[a] & ~(1 << b) == padj[b] & ~(1 << a)

        steps = tuple(
            tuple(
                (j, (padj[v] >> order[j]) & 1 == 1, twins(v, order[j]))
                for j in range(i + 1, pn)
            )
            for i, v in enumerate(order)
        )
        counts = _local_counts(padj)
        keys = tuple((v >= s, *counts[v]) for v in order)
        plan = pattern._plan = (order, steps, keys)
    return plan


def find_embedding(pattern, host):
    """An injective colour-preserving induced embedding, or ``None``.

    Both adjacency and non-adjacency are preserved (induced subgraph
    semantics).  Returns a tuple ``m`` with ``m[v]`` the host vertex of
    pattern vertex ``v``: the least embedding in the pattern's plan
    order, which the two prunes of the block comment above keep.

    The pattern side (``_embedding_plan``) is built on the first call
    and memoized on the pattern, since one pattern is tested against
    many hosts.  The host side (``_host_side``) is kept for the last
    host, since callers test many patterns against one host in a row.
    A domain holds the host vertices of the key's colour whose local
    counts are each at least the key's; candidates are tried in
    increasing order, and each one filters the domains of the later
    positions by adjacency, non-adjacency and twin order.
    """
    pn = pattern.n
    if pn == 0:
        return ()
    if pattern.slim_count > host.slim_count or pattern.fat_count > host.fat_count:
        return None
    order, steps, keys = _embedding_plan(pattern)
    hadj = host.adj
    hs = host.slim_count
    host_counts, by_key = _host_side(hadj, hs)
    domains = []
    for key in keys:
        dom = by_key.get(key)
        if dom is None:
            fat, deg, non_deg, inner, non_inner = key
            dom = 0
            for w in range(hs, len(hadj)) if fat else range(hs):
                d, nd, e, ne = host_counts[w]
                if d >= deg and nd >= non_deg and e >= inner and ne >= non_inner:
                    dom |= 1 << w
            by_key[key] = dom
        if not dom:
            return None
        domains.append(dom)
    full = (1 << host.n) - 1
    mapping = [-1] * pn
    last = pn - 1

    # ``rec`` gets itself as an argument: a closure that named itself
    # would hold a reference cycle, left for the cycle collector after
    # every call
    def rec(i, doms, rec):
        cand = doms[i]
        if i == last:
            # the domain of the last vertex is filtered against all others
            mapping[order[i]] = (cand & -cand).bit_length() - 1
            return True
        step = steps[i]
        while cand:
            low = cand & -cand
            cand ^= low
            w = low.bit_length() - 1
            near = hadj[w]
            far = full ^ (near | low)
            new = doms[:]
            for j, adjacent, twin in step:
                d = new[j] & (near if adjacent else far)
                if twin:
                    d &= -low << 1  # the host vertices above w
                if not d:
                    break
                new[j] = d
            else:
                if rec(i + 1, new, rec):
                    mapping[order[i]] = w
                    return True
        return False

    if rec(0, domains, rec):
        return tuple(mapping)
    return None
