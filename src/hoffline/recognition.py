"""Line-graph recognition over the family {H2, H3, H5}.

A graph G is a line graph of the family when it is an induced subgraph of
a sum whose parts are copies of H2, H3 or H5.  A *strict cover* of G is
such a sum H with the same slim vertex set; for slim inputs a strict
cover exists exactly when G is a line graph of the family, so recognition
searches for strict covers.

The search exploits the structure of the three hosts.  Every fat vertex
of a part is adjacent to all slim vertices of that part, which forces the
shape of any strict cover of a slim graph G:

  * the slim vertices split into *cells*, one per part: a singleton
    (an H2 part), a non-adjacent pair (H3), or a triple carrying exactly
    one edge (H5);
  * between two different cells, G induces either a complete or an empty
    bipartite graph — cross-part adjacency is equivalent to the two parts
    sharing a fat vertex, and a shared fat vertex sees all slim vertices
    of both parts;
  * writing D for the graph on the cells whose edges are the
    cross-complete pairs, the fat vertices of a cover are exactly an edge
    partition of D into cliques (each clique is one shared fat vertex,
    and every D-edge lies in exactly one clique because two parts share
    at most one fat vertex), subject to a slot budget: an H2 part owns
    two fat slots, H3 and H5 parts own one; slots not consumed by shared
    cliques become private fat vertices.

An H3 or H5 part having a single slot forces its whole D-neighbourhood
into one clique, which prunes hard; afterwards only budget-2 cells carry
uncovered edges and a small exact clique-partition search finishes the
job, branching on the lowest uncovered D-edge.

``_cover_fats`` turns a solution into the cover's fat neighbourhoods in
host order (pinned input fats, new shared cliques sorted, then private
padding for unused slots), and the one sum primitive of ``sums``,
``_sum_adjacency``, builds the host from them.

The same machinery recognizes inputs that already carry fat vertices:
each input fat vertex pins one fat vertex of the cover exactly (its slim
neighbourhood must be a union of cells forming one clique block), H1
parts become admissible for singleton cells, and the budget accounting
absorbs the pinned blocks.  A cover with an H1 part extends to one with
an H2 part by adding a private fat vertex, so admitting H1 does not
change the recognized class; this matches the shape obtained by
restricting any cover of a larger graph to the slim vertices of the
input.

Two strict covers of the same graph are *equivalent* when some
isomorphism between them restricts to the identity on the covered graph.
Fat vertices are pairwise non-adjacent, so with all slim vertices pinned
such an isomorphism is precisely a fat-vertex bijection preserving slim
neighbourhoods: covers are equivalent iff their multisets of fat
neighbourhoods agree, and enumeration deduplicates on that multiset,
read from ``_cover_fats`` before the host is built.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import (
    HoffmanGraph,
    HoffmanGraphError,
    NotConnected,
    _iter_bits,
    _mask_of,
)
from .sums import SumDecomposition, _sum_adjacency


class DifferentBase(HoffmanGraphError):
    """The two covers do not cover the same graph."""


class VertexNotInGraph(HoffmanGraphError):
    pass


@dataclass(frozen=True)
class StrictCover:
    """A sum host covering ``base`` with the same slim vertex set.

    Host vertices: the base's slim vertices at their own indices, then
    the base's fat vertices (if any) at their own indices, then any new
    fat vertices.  The embedding of the base is therefore the identity.
    """

    base: HoffmanGraph
    host: HoffmanGraph
    parts: tuple[frozenset[int], ...]
    classes: tuple[str, ...]

    @property
    def decomposition(self):
        return SumDecomposition(self.host, self.parts)

    @property
    def embedding(self):
        return tuple(range(self.base.n))

    def fat_neighborhoods(self):
        """Sorted slim-neighbourhood masks of the host's fat vertices."""
        sm = self.host.slim_mask
        return tuple(
            sorted(self.host.adj[f] & sm for f in range(self.host.slim_count, self.host.n))
        )

    def is_connected(self):
        return self.host.is_connected()

    def to_json_dict(self):
        return {
            "slim_count": self.host.slim_count,
            "fat_count": self.host.fat_count,
            "edges": sorted(self.host.edges()),
            "parts": [sorted(p) for p in self.parts],
            "classes": list(self.classes),
        }


# ---------------------------------------------------------------------------
# Search
# ---------------------------------------------------------------------------


def _fat_phase(p, kinds, dadj, pinned_parts, find_all):
    """Assign fat vertices to a complete cell partition.

    p           -- number of parts (cells)
    kinds       -- per part: 1 (singleton), 2 (pair) or 3 (triple)
    dadj        -- per part: bitmask of cross-complete partner parts
    pinned_parts-- per input fat vertex, the tuple of parts it must span

    Yields block lists: ``blocks[i]`` for i < len(pinned_parts) realizes
    input fat i; later entries are new shared blocks.  Private padding is
    left to ``_cover_fats``.
    """
    budget = [2 if k == 1 else 1 for k in kinds]
    covered = [0] * p
    blocks = []
    shared_at = [None] * p  # block index of the unique shared block of a budget-1 part

    def commit_block(members):
        """Try to add a shared block; returns an undo closure or None."""
        for a in members:
            if budget[a] <= 0:
                return None
        mark = []
        ok = True
        for ia, a in enumerate(members):
            for b in members[ia + 1:]:
                if not (dadj[a] >> b) & 1 or (covered[a] >> b) & 1:
                    ok = False
                    break
            if not ok:
                break
        if not ok:
            return None
        for ia, a in enumerate(members):
            for b in members[ia + 1:]:
                covered[a] |= 1 << b
                covered[b] |= 1 << a
                mark.append((a, b))
        for a in members:
            budget[a] -= 1
        idx = len(blocks)
        blocks.append(tuple(members))
        saved = [(a, shared_at[a]) for a in members if kinds[a] != 1]
        for a, _old in saved:
            shared_at[a] = idx

        def undo():
            blocks.pop()
            for a in members:
                budget[a] += 1
            for a, b in mark:
                covered[a] &= ~(1 << b)
                covered[b] &= ~(1 << a)
            for a, old in saved:
                shared_at[a] = old

        return undo

    # pinned fat vertices of the input, in original order
    undos = []

    def unwind():
        for u in reversed(undos):
            u()

    for members in pinned_parts:
        if len(members) == 1:
            a = members[0]
            if budget[a] <= 0:
                unwind()
                return
            budget[a] -= 1
            blocks.append(tuple(members))

            def undo_private(a=a):
                blocks.pop()
                budget[a] += 1

            undos.append(undo_private)
        else:
            u = commit_block(list(members))
            if u is None:
                unwind()
                return
            undos.append(u)

    # forced blocks: a budget-1 part's single slot must cover all its edges
    ok = True
    for part in range(p):
        if kinds[part] == 1 or dadj[part] == 0:
            continue
        required = sorted({part, *(_iter_bits(dadj[part]))})
        existing = shared_at[part]
        if existing is not None:
            if list(blocks[existing]) != required:
                ok = False
                break
            continue
        u = commit_block(required)
        if u is None:
            ok = False
            break
        undos.append(u)
    if not ok:
        unwind()
        return

    # exact clique partition of the remaining edges (budget-2 parts only)
    stop = []

    def bt():
        if stop:
            return
        edge = None
        for i in range(p):
            rem = dadj[i] & ~covered[i] & ~((1 << (i + 1)) - 1)
            if rem:
                edge = (i, (rem & -rem).bit_length() - 1)
                break
        if edge is None:
            yield list(blocks)
            if not find_all:
                stop.append(True)
            return
        i, j = edge
        if budget[i] <= 0 or budget[j] <= 0:
            return
        candidates = [
            k
            for k in _iter_bits(dadj[i] & dadj[j])
            if k not in (i, j) and budget[k] > 0
        ]

        def grow(members, start):
            u = commit_block(members)
            if u is not None:
                yield from bt()
                u()
            if stop:
                return
            for ci in range(start, len(candidates)):
                k = candidates[ci]
                fits = all(
                    (dadj[k] >> m) & 1 and not (covered[k] >> m) & 1 for m in members
                )
                if fits and budget[k] > 0:
                    yield from grow(members + [k], ci + 1)
                if stop:
                    return

        yield from grow([i, j], 0)

    yield from bt()
    unwind()


def _cover_structures(g, find_all):
    """Yield (cells, kinds, blocks) triples describing strict covers.

    cells  -- tuple of vertex tuples partitioning the slim vertices
    kinds  -- 1/2/3 per cell
    blocks -- per fat vertex of the cover (pinned input fats first),
              the tuple of part indices it spans; private padding fats
              are implied by the budgets and not listed.
    """
    s = g.slim_count
    smask = g.slim_mask
    sadj = [g.adj[v] & smask for v in range(s)]
    pinned = [g.adj[f] & smask for f in range(s, g.n)]
    if s == 0:
        if not pinned:
            yield (), (), ()
        return

    cells = []
    kinds = []
    masks = []
    sizes = []
    dadj = []
    stop = []

    def pinned_ok(cm):
        for pf in pinned:
            inter = cm & pf
            if inter and inter != cm:
                return False
        return True

    def try_cell(verts, kind):
        cm = 0
        for v in verts:
            cm |= 1 << v
        if not pinned_ok(cm):
            return None
        bits = 0
        for i, m in enumerate(masks):
            e = 0
            for v in verts:
                e += (sadj[v] & m).bit_count()
            if e:
                if e != len(verts) * sizes[i]:
                    return None
                bits |= 1 << i
        return cm, bits

    def push(verts, kind, cm, bits):
        idx = len(cells)
        cells.append(verts)
        kinds.append(kind)
        masks.append(cm)
        sizes.append(len(verts))
        for i in _iter_bits(bits):
            dadj[i] |= 1 << idx
        dadj.append(bits)

    def pop(bits):
        idx = len(cells) - 1
        cells.pop()
        kinds.pop()
        masks.pop()
        sizes.pop()
        dadj.pop()
        for i in _iter_bits(bits):
            dadj[i] &= ~(1 << idx)

    def rec(uncovered):
        if stop:
            return
        if not uncovered:
            p = len(cells)
            pinned_parts = []
            feasible = True
            for pf in pinned:
                members = tuple(i for i in range(p) if masks[i] & pf)
                pinned_parts.append(members)
            if feasible:
                for blocks in _fat_phase(p, kinds, dadj, pinned_parts, find_all):
                    yield tuple(cells), tuple(kinds), tuple(blocks)
                    if not find_all:
                        stop.append(True)
                        return
            return
        v = (uncovered & -uncovered).bit_length() - 1
        rest = uncovered & ~(1 << v)

        # singleton cell
        r = try_cell((v,), 1)
        if r:
            push((v,), 1, *r)
            yield from rec(rest)
            pop(r[1])
            if stop:
                return

        # non-adjacent pair cells
        for u in _iter_bits(rest & ~sadj[v]):
            r = try_cell((v, u), 2)
            if r:
                push((v, u), 2, *r)
                yield from rec(rest & ~(1 << u))
                pop(r[1])
                if stop:
                    return

        # one-edge triple cells
        pool = list(_iter_bits(rest))
        for ai in range(len(pool)):
            a = pool[ai]
            va = (sadj[v] >> a) & 1
            for b in pool[ai + 1:]:
                count = va + ((sadj[v] >> b) & 1) + ((sadj[a] >> b) & 1)
                if count != 1:
                    continue
                r = try_cell((v, a, b), 3)
                if r:
                    push((v, a, b), 3, *r)
                    yield from rec(rest & ~(1 << a) & ~(1 << b))
                    pop(r[1])
                    if stop:
                        return

    yield from rec((1 << s) - 1)


def _cover_fats(g, cells, kinds, blocks, allow_h1):
    """Cell masks and the cover's fat neighbourhoods in host order: the
    pinned input fats, the new shared blocks sorted, then private padding
    filling each part's fat slots."""
    masks = [_mask_of(verts) for verts in cells]
    count = [0] * len(cells)
    for members in blocks:
        for part in members:
            count[part] += 1
    pinned = g.fat_count
    fat_nbhds = []
    for members in list(blocks[:pinned]) + sorted(blocks[pinned:]):
        nbhd = 0
        for part in members:
            nbhd |= masks[part]
        fat_nbhds.append(nbhd)
    for part, kind in enumerate(kinds):
        want = (2 if not allow_h1 else max(1, count[part])) if kind == 1 else 1
        fat_nbhds.extend([masks[part]] * (want - count[part]))
    return masks, fat_nbhds


def _materialize(g, kinds, masks, fat_nbhds):
    """Build the StrictCover from the output of ``_cover_fats``."""
    slim_rows = [0] * g.slim_count
    for m in masks:
        for v in _iter_bits(m):
            slim_rows[v] = g.adj[v] & m
    adj, parts = _sum_adjacency(slim_rows, masks, fat_nbhds)
    classes = []
    for part, kind in zip(parts, kinds):
        if kind == 1:
            classes.append("H2" if len(part) == 3 else "H1")
        else:
            classes.append("H3" if kind == 2 else "H5")
    host = HoffmanGraph(g.slim_count, len(fat_nbhds), adj, _checked=True)
    return StrictCover(g, host, tuple(parts), tuple(classes))


def is_h_line(g):
    """A strict cover of ``g`` over {H2, H3, H5}, or ``None``.

    For slim inputs this decides membership in the class of slim
    {H2, H3, H5}-line graphs.  Inputs with fat vertices are searched for
    a cover with parts from {H1, H2, H3, H5} pinning the input's fat
    vertices, which exists iff the input is a line graph of the family.
    Returns the first cover in deterministic search order.
    """
    allow_h1 = g.fat_count > 0
    for cells, kinds, blocks in _cover_structures(g, find_all=False):
        return _materialize(g, kinds, *_cover_fats(g, cells, kinds, blocks, allow_h1))
    return None


def enumerate_strict_covers(g):
    """All strict covers of a slim graph up to equivalence.

    Deterministic order; deduplicated by fat-neighbourhood multiset,
    which characterizes cover equivalence.
    """
    if g.fat_count:
        raise HoffmanGraphError("strict cover enumeration expects a slim graph")
    seen = set()
    out = []
    for cells, kinds, blocks in _cover_structures(g, find_all=True):
        masks, fat_nbhds = _cover_fats(g, cells, kinds, blocks, False)
        key = tuple(sorted(fat_nbhds))
        if key in seen:
            continue
        seen.add(key)
        out.append(_materialize(g, kinds, masks, fat_nbhds))
    return out


def covers_equivalent(a, b):
    """Equivalence of two strict covers of the same graph.

    With every covered vertex pinned, an isomorphism between covers is a
    fat-vertex bijection matching slim neighbourhoods, so equivalence is
    equality of fat-neighbourhood multisets.
    """
    if a.base != b.base:
        raise DifferentBase("covers of different graphs")
    return a.fat_neighborhoods() == b.fat_neighborhoods()


# ---------------------------------------------------------------------------
# Vertex deletion inside a cover
# ---------------------------------------------------------------------------


def delete_vertex_from_cover(decomposition, x):
    """Transform a cover of H into one of H - x; returns (cover, case).

    ``decomposition`` is a connected sum with part classes in
    {H2, H3, H5} and ``x`` a slim vertex of it (lying in part H0).  The
    resulting strict cover of H - x keeps every other part and replaces
    H0 according to exactly one of four cases:

      i    H0 was a copy of H2 (cell {x}); it vanishes.
      ii   H0 was a copy of H3; the leftover slim vertex keeps the hub
           and gains a fresh pendant fat vertex, forming a copy of H2.
      iii  H0 was a copy of H5 and x was its isolated slim vertex; the
           remaining adjacent pair becomes two copies of H2 sharing the
           hub, each padded by a fresh pendant fat vertex.
      iv   H0 was a copy of H5 and x an endpoint of its slim edge; the
           remaining non-adjacent pair keeps the hub as a copy of H3.
    """
    from .families import classify_part

    if isinstance(decomposition, StrictCover):
        decomposition = decomposition.decomposition
    host = decomposition.host
    parts = decomposition.parts
    if not 0 <= x < host.slim_count:
        raise VertexNotInGraph(f"{x} is not a slim vertex of the host")
    if not host.is_connected():
        raise NotConnected("the cover must be connected")
    part_of = None
    part_classes = []
    for i, p in enumerate(parts):
        sub, _ = host.induced_on(sorted(p))
        cls = classify_part(sub)
        if cls not in ("H2", "H3", "H5"):
            raise HoffmanGraphError("part classes must lie in {H2, H3, H5}")
        part_classes.append(cls)
        if x in p:
            part_of = i
    if part_of is None:
        raise VertexNotInGraph(f"{x} not covered by any part")

    s = host.slim_count
    new_slim = s - 1

    def map_slim(v):
        return v if v < x else v - 1

    survivors = [
        f
        for f in range(s, host.n)
        if host.slim_neighbors(f) & ~(1 << x)
    ]
    fat_new = {f: new_slim + i for i, f in enumerate(survivors)}

    cls = part_classes[part_of]
    cell = sorted(v for v in parts[part_of] if v < s)
    others = [v for v in cell if v != x]
    hub_fats = sorted(v for v in parts[part_of] if v >= s and v in fat_new)

    fresh = []  # (new fat, attached slim new index)
    next_fat = new_slim + len(survivors)
    new_parts = []
    new_classes = []
    for i, p in enumerate(parts):
        if i == part_of:
            continue
        new_parts.append(
            frozenset(
                map_slim(v) if v < s else fat_new[v] for v in p
            )
        )
        new_classes.append(part_classes[i])

    if cls == "H2":
        case = "i"
    elif cls == "H3":
        case = "ii"
        (y,) = others
        hub = hub_fats[0]
        fresh.append((next_fat, map_slim(y)))
        new_parts.append(frozenset({map_slim(y), fat_new[hub], next_fat}))
        new_classes.append("H2")
        next_fat += 1
    else:
        a, b = others
        hub = hub_fats[0]
        if host.adjacent(a, b):
            case = "iii"
            for v in (a, b):
                fresh.append((next_fat, map_slim(v)))
                new_parts.append(frozenset({map_slim(v), fat_new[hub], next_fat}))
                new_classes.append("H2")
                next_fat += 1
        else:
            case = "iv"
            new_parts.append(frozenset({map_slim(a), map_slim(b), fat_new[hub]}))
            new_classes.append("H3")

    n = next_fat
    adj = [0] * n
    keep = [v for v in range(s) if v != x] + survivors
    pos = {}
    for v in range(s):
        if v != x:
            pos[v] = map_slim(v)
    pos.update(fat_new)
    for v in keep:
        for u in _iter_bits(host.adj[v]):
            if u in pos:
                adj[pos[v]] |= 1 << pos[u]
    for fv, sv in fresh:
        adj[fv] |= 1 << sv
        adj[sv] |= 1 << fv

    new_host = HoffmanGraph(new_slim, n - new_slim, adj)
    base = host.delete_slim({x})
    cover = StrictCover(base, new_host, tuple(new_parts), tuple(new_classes))
    return cover, case
