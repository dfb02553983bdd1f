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

The search is one chain of generators, so it runs only as far as its
consumer reads: ``_cover_structures`` grows the cell partition, lowest
uncovered vertex first, and ``_fat_phase`` yields the fat blocks of each
complete partition.  Every cell must be *uniform*: its vertices have the
same slim neighbours outside it, because the cells partition the slim
vertices and a vertex of another cell sees all of the cell or none of
it.  So a cell that is not uniform is rejected as soon as it is
created, and two uniform cells joined by one edge are complete to each
other.  An H3 or H5 part having a single slot forces its whole
D-neighbourhood into one clique, which prunes hard; a part whose slot
is already spent is consistent only if that block covered all of its
D-edges.  Afterwards only budget-2 cells carry uncovered edges and a
small exact clique-partition search finishes the job, branching on the
lowest uncovered D-edge.  Blocks are opened and closed by one
``add``/``remove`` pair.  ``is_h_line`` takes the first cover of the
search and ``enumerate_strict_covers`` drains it.

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
from .families import classify_part
from .sums import SumDecomposition, _sum_adjacency, validate_sum


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

    def fat_neighborhoods(self):
        """Sorted slim-neighbourhood masks of the host's fat vertices."""
        sm = self.host.slim_mask
        return tuple(
            sorted(self.host.adj[f] & sm for f in range(self.host.slim_count, self.host.n))
        )

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


def _fat_phase(cells, dadj, pinned_parts):
    """Assign fat vertices to a complete cell partition.

    cells       -- the cells; a singleton owns two fat slots, others one
    dadj        -- per part: bitmask of cross-complete partner parts
    pinned_parts-- per input fat vertex, the tuple of parts it must span

    Yields block tuples: ``blocks[i]`` for i < len(pinned_parts) realizes
    input fat i; later entries are new shared blocks.  Private padding is
    left to ``_cover_fats``.
    """
    p = len(cells)
    budget = [2 if len(c) == 1 else 1 for c in cells]
    covered = [0] * p
    blocks = []

    def add(members):
        """Open a fat vertex spanning ``members`` if every member has a
        free slot and every pair of them is an uncovered D-edge."""
        m = _mask_of(members)
        for a in members:
            if budget[a] <= 0 or m & ~(1 << a) & (covered[a] | ~dadj[a]):
                return False
        for a in members:
            budget[a] -= 1
            covered[a] |= m & ~(1 << a)
        blocks.append(tuple(members))
        return True

    def remove():
        members = blocks.pop()
        m = _mask_of(members)
        for a in members:
            budget[a] += 1
            covered[a] &= ~m

    # pinned fat vertices of the input, in original order; a pinned
    # private fat is a one-member block
    for members in pinned_parts:
        if not add(members):
            return

    # forced blocks: a budget-1 part's single slot must cover all its
    # edges, so a part whose slot is already spent is consistent iff that
    # block covered its whole D-neighbourhood
    for part in range(p):
        if len(cells[part]) == 1 or dadj[part] == 0:
            continue
        if budget[part] == 0:
            if covered[part] != dadj[part]:
                return
        elif not add(sorted({part, *_iter_bits(dadj[part])})):
            return

    # exact clique partition of the remaining edges (budget-2 parts only)
    def bt():
        for i in range(p):
            rem = dadj[i] & ~covered[i] & ~((2 << i) - 1)
            if rem:
                break
        else:
            yield tuple(blocks)
            return
        j = (rem & -rem).bit_length() - 1
        if budget[i] <= 0 or budget[j] <= 0:
            return
        # edge ij goes into exactly one new block: ij plus some common
        # D-neighbours that still have a free slot
        candidates = [k for k in _iter_bits(dadj[i] & dadj[j]) if budget[k] > 0]

        def grow(members, start):
            if add(members):
                yield from bt()
                remove()
            m = _mask_of(members)
            for ci in range(start, len(candidates)):
                k = candidates[ci]
                if not m & (covered[k] | ~dadj[k]):
                    yield from grow(members + [k], ci + 1)

        yield from grow([i, j], 0)

    yield from bt()


def _cover_structures(g):
    """Yield (cells, blocks) pairs describing strict covers.

    cells  -- tuple of vertex tuples partitioning the slim vertices
    blocks -- per fat vertex of the cover (pinned input fats first),
              the tuple of part indices it spans; private padding fats
              are implied by the budgets and not listed.

    Only uniform cells are created.  In a strict cover two cells are
    complete or empty to each other and the cells partition the slim
    vertices, so every vertex w outside a cell C lies in another cell and
    sees all of C or none of it.  A partition holding a non-uniform cell
    therefore yields nothing, and rejecting that cell when it is created
    leaves the yielded sequence and its order unchanged.
    """
    s = g.slim_count
    smask = g.slim_mask
    sadj = [g.adj[v] & smask for v in range(s)]
    pinned = [g.adj[f] & smask for f in range(s, g.n)]
    cells = []
    masks = []
    dadj = []

    def try_cell(verts):
        """The cell's mask and D-row, or None if the cell is not uniform
        or an input fat splits it.

        Every earlier cell M is uniform too, so one edge cw (c in the
        cell C, w in M) makes C and M complete: w sees c, hence all of C;
        so each vertex of C sees w, hence all of M.  The D-row is thus
        the set of earlier cells that some vertex of C sees.
        """
        cm = _mask_of(verts)
        for pf in pinned:
            if cm & pf not in (0, cm):
                return None
        seen_any, seen_all = 0, smask
        for v in verts:
            seen_any |= sadj[v]
            seen_all &= sadj[v]
        # some vertex outside the cell sees part of it but not all
        if (seen_any ^ seen_all) & ~cm:
            return None
        bits = 0
        for i, m in enumerate(masks):
            if seen_any & m:
                bits |= 1 << i
        return cm, bits

    def push(verts, cm, bits):
        idx = len(cells)
        cells.append(verts)
        masks.append(cm)
        for i in _iter_bits(bits):
            dadj[i] |= 1 << idx
        dadj.append(bits)

    def pop(bits):
        idx = len(cells) - 1
        cells.pop()
        masks.pop()
        dadj.pop()
        for i in _iter_bits(bits):
            dadj[i] &= ~(1 << idx)

    def rec(uncovered):
        if not uncovered:
            pinned_parts = [
                tuple(i for i, m in enumerate(masks) if m & pf) for pf in pinned
            ]
            for blocks in _fat_phase(cells, dadj, pinned_parts):
                yield tuple(cells), blocks
            return
        v = (uncovered & -uncovered).bit_length() - 1
        rest = uncovered & ~(1 << v)

        # singleton cell
        r = try_cell((v,))
        if r:
            push((v,), *r)
            yield from rec(rest)
            pop(r[1])

        # non-adjacent pair cells; neither vertex sees itself or the
        # other, so the pair is uniform iff their neighbourhoods are equal
        for u in _iter_bits(rest & ~sadj[v]):
            if sadj[u] != sadj[v]:
                continue
            r = try_cell((v, u))
            if r:
                push((v, u), *r)
                yield from rec(rest & ~(1 << u))
                pop(r[1])

        # one-edge triple cells; in a uniform triple {v, a, b} the
        # neighbourhoods of v and a can differ outside {v, a} only at b,
        # so an a whose difference there has two bits fits no b
        pool = list(_iter_bits(rest))
        for ai, a in enumerate(pool):
            diff = (sadj[v] ^ sadj[a]) & ~(1 << v | 1 << a)
            if diff & (diff - 1):
                continue
            va = (sadj[v] >> a) & 1
            for b in pool[ai + 1:]:
                if va + ((sadj[v] >> b) & 1) + ((sadj[a] >> b) & 1) != 1:
                    continue
                r = try_cell((v, a, b))
                if r:
                    push((v, a, b), *r)
                    yield from rec(rest & ~(1 << a) & ~(1 << b))
                    pop(r[1])

    yield from rec((1 << s) - 1)


def _cover_fats(g, cells, blocks, allow_h1):
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
    for part, verts in enumerate(cells):
        want = (2 if not allow_h1 else max(1, count[part])) if len(verts) == 1 else 1
        fat_nbhds.extend([masks[part]] * (want - count[part]))
    return masks, fat_nbhds


def _materialize(g, cells, masks, fat_nbhds):
    """Build the StrictCover from the output of ``_cover_fats``."""
    adj, parts = _sum_adjacency(g.adj[: g.slim_count], masks, fat_nbhds)
    classes = []
    for part, verts in zip(parts, cells):
        if len(verts) == 1:
            classes.append("H2" if len(part) == 3 else "H1")
        else:
            classes.append("H3" if len(verts) == 2 else "H5")
    host = HoffmanGraph(g.slim_count, len(fat_nbhds), adj, _checked=True)
    return StrictCover(g, host, tuple(parts), tuple(classes))


def _strict_covers(g):
    """Strict covers of ``g`` in search order, one per equivalence class
    (the first of each fat-neighbourhood multiset)."""
    allow_h1 = g.fat_count > 0
    seen = set()
    for cells, blocks in _cover_structures(g):
        masks, fat_nbhds = _cover_fats(g, cells, blocks, allow_h1)
        key = tuple(sorted(fat_nbhds))
        if key not in seen:
            seen.add(key)
            yield _materialize(g, cells, masks, fat_nbhds)


def is_h_line(g):
    """A strict cover of ``g`` over {H2, H3, H5}, or ``None``.

    For slim inputs this decides membership in the class of slim
    {H2, H3, H5}-line graphs.  Inputs with fat vertices are searched for
    a cover with parts from {H1, H2, H3, H5} pinning the input's fat
    vertices, which exists iff the input is a line graph of the family.
    Returns the first cover in deterministic search order; for a slim
    input that is the first one ``enumerate_strict_covers`` lists.
    """
    return next(_strict_covers(g), None)


def enumerate_strict_covers(g):
    """All strict covers of a slim graph up to equivalence.

    Deterministic order; deduplicated by fat-neighbourhood multiset,
    which characterizes cover equivalence.
    """
    if g.fat_count:
        raise HoffmanGraphError("strict cover enumeration expects a slim graph")
    return list(_strict_covers(g))


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
    ok, why = validate_sum(host, parts)
    if not ok:
        raise HoffmanGraphError(f"the parts are not a sum: condition ({why}) fails")

    s = host.slim_count
    low = (1 << x) - 1

    def drop_x(mask):
        """A slim mask without x, higher slim indices moved down."""
        return mask & low | mask >> 1 & ~low

    # the cells (host indices) and classes replacing H0; a new H2 cell
    # is padded by a fresh pendant fat vertex
    home = sorted(v for v in parts[part_of] if v < s and v != x)
    if part_classes[part_of] == "H2":
        case, home_cells, home_classes = "i", [], []
    elif part_classes[part_of] == "H3":
        case, home_cells, home_classes = "ii", [home], ["H2"]
    elif host.adjacent(*home):
        case, home_cells, home_classes = "iii", [[v] for v in home], ["H2", "H2"]
    else:
        case, home_cells, home_classes = "iv", [home], ["H3"]
    padded = home if case in ("ii", "iii") else []
    cells = [_mask_of(p) & host.slim_mask for i, p in enumerate(parts) if i != part_of]
    cells += [_mask_of(c) for c in home_cells]
    classes = [c for i, c in enumerate(part_classes) if i != part_of] + home_classes

    fat_nbhds = [drop_x(host.slim_neighbors(f)) for f in range(s, host.n)]
    fat_nbhds = [m for m in fat_nbhds if m] + [drop_x(1 << v) for v in padded]
    adj, new_parts = _sum_adjacency(
        [drop_x(host.adj[v]) for v in range(s) if v != x],
        [drop_x(c) for c in cells],
        fat_nbhds,
    )
    new_host = HoffmanGraph(s - 1, len(fat_nbhds), adj)
    base = host.delete_slim({x})
    cover = StrictCover(base, new_host, tuple(new_parts), tuple(classes))
    return cover, case
