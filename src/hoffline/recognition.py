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
complete partition.  A cell is held as the bitmask of its slim
vertices and a fat block as the bitmask of the parts it spans.  Every
cell must be *uniform*: its vertices have the same slim neighbours
outside it, because the cells partition the slim vertices and a vertex
of another cell sees all of the cell or none of it.  So a cell that is
not uniform is rejected as soon as it is created, and two uniform cells
joined by one edge are complete to each other.  An H3 or H5 part having a single slot forces its whole
D-neighbourhood into one clique, which prunes hard; a part whose slot
is already spent is consistent only if that block covered all of its
D-edges.  Afterwards only budget-2 cells carry uncovered edges and a
small exact clique-partition search finishes the job, branching on the
lowest uncovered D-edge.  Blocks are opened and closed by one
``add``/``remove`` pair.  ``is_h_line`` takes the first cover of the
search and ``enumerate_strict_covers`` drains it.

``_strict_covers`` puts a solution's blocks in host order (pinned input
fats, new shared cliques sorted, then one-part blocks padding the unused
slots), and ``sums._block_sum`` builds the host from the cells and
blocks.

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
neighbourhoods agree.  The search meets each multiset once (see the
comment above ``_strict_covers``), so enumeration needs no dedupe.

``_extensions`` finds covers without a search: from the cover classes
of a graph P it reads those of every one-vertex extension P + v by mask
tests, running the deletion lemma (``delete_vertex_from_cover``, cases
i-iv) backwards, in the way ILIGRA builds a line-graph root one vertex
at a time (Degiorgi & Simon, WG 1995).  The layer store of ``verify``
recognizes every generated child this way; ``is_h_line`` and
``enumerate_strict_covers`` stay the reference.
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
from .sums import SumDecomposition, _block_sum, _sum_adjacency, validate_sum


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

    def cover_class(self):
        """(cells, fats): the slim masks of the parts by least vertex and
        ``fat_neighborhoods()``, the form ``_extensions`` works on."""
        s = self.host.slim_count
        cells = (_mask_of(v for v in p if v < s) for p in self.parts)
        return tuple(sorted(cells, key=lambda m: m & -m)), self.fat_neighborhoods()

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


def _fat_phase(masks, dadj, pinned_parts):
    """Assign fat vertices to a complete cell partition.

    masks        -- the cells' slim masks; a singleton owns two fat
                    slots, others one
    dadj         -- per part: bitmask of cross-complete partner parts
    pinned_parts -- per input fat vertex, the bitmask of the parts it
                    must span

    Yields tuples of blocks, each the bitmask of the parts one fat vertex
    spans: ``blocks[i]`` for i < len(pinned_parts) realizes input fat i;
    later entries are new shared blocks.  Private padding is left to the
    caller.
    """
    p = len(masks)
    budget = [1 if m & (m - 1) else 2 for m in masks]
    covered = [0] * p
    blocks = []

    def add(block):
        """Open a fat vertex spanning ``block`` if every member has a
        free slot and every pair of them is an uncovered D-edge; returns
        the members, or None."""
        members = [*_iter_bits(block)]
        for a in members:
            if budget[a] <= 0 or block & ~(1 << a) & (covered[a] | ~dadj[a]):
                return None
        for a in members:
            budget[a] -= 1
            covered[a] |= block & ~(1 << a)
        blocks.append(block)
        return members

    def remove(members):
        block = blocks.pop()
        for a in members:
            budget[a] += 1
            covered[a] &= ~block

    # pinned fat vertices of the input, in original order; a pinned
    # private fat is a one-member block
    for block in pinned_parts:
        if not add(block):
            return

    # forced blocks: a budget-1 part's single slot must cover all its
    # edges, so a part whose slot is already spent is consistent iff that
    # block covered its whole D-neighbourhood
    for part, m in enumerate(masks):
        if not m & (m - 1) or dadj[part] == 0:
            continue
        if budget[part] == 0:
            if covered[part] != dadj[part]:
                return
        elif not add(1 << part | dadj[part]):
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

        def grow(block, start):
            members = add(block)
            if members:
                yield from bt()
                remove(members)
            for ci in range(start, len(candidates)):
                k = candidates[ci]
                if not block & (covered[k] | ~dadj[k]):
                    yield from grow(block | 1 << k, ci + 1)

        yield from grow(1 << i | 1 << j, 0)

    yield from bt()


def _cover_structures(g):
    """Yield (masks, blocks) pairs describing strict covers.

    masks  -- tuple of cell masks partitioning the slim vertices, by
              least vertex
    blocks -- per fat vertex of the cover (pinned input fats first),
              the bitmask of the parts it spans; private padding fats
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
    masks = []
    dadj = []

    def place(cm, uncovered):
        """Search on with the cell ``cm`` added, unless the cell is not
        uniform or an input fat splits it.

        Every earlier cell M is uniform too, so one edge cw (c in the
        cell C, w in M) makes C and M complete: w sees c, hence all of C;
        so each vertex of C sees w, hence all of M.  The D-row is thus
        the set of earlier cells that some vertex of C sees.
        """
        for pf in pinned:
            if cm & pf not in (0, cm):
                return
        seen_any, seen_all = 0, smask
        for v in _iter_bits(cm):
            seen_any |= sadj[v]
            seen_all &= sadj[v]
        # some vertex outside the cell sees part of it but not all
        if (seen_any ^ seen_all) & ~cm:
            return
        bits = 0
        for i, m in enumerate(masks):
            if seen_any & m:
                bits |= 1 << i
        idx = len(masks)
        for i in _iter_bits(bits):
            dadj[i] |= 1 << idx
        masks.append(cm)
        dadj.append(bits)
        yield from rec(uncovered & ~cm)
        masks.pop()
        dadj.pop()
        for i in _iter_bits(bits):
            dadj[i] &= ~(1 << idx)

    def rec(uncovered):
        if not uncovered:
            pinned_parts = [
                sum(1 << i for i, m in enumerate(masks) if m & pf) for pf in pinned
            ]
            for blocks in _fat_phase(masks, dadj, pinned_parts):
                yield tuple(masks), blocks
            return
        v = (uncovered & -uncovered).bit_length() - 1
        rest = uncovered & ~(1 << v)

        # singleton cell
        yield from place(1 << v, uncovered)

        # non-adjacent pair cells; neither vertex sees itself or the
        # other, so the pair is uniform iff their neighbourhoods are equal
        for u in _iter_bits(rest & ~sadj[v]):
            if sadj[u] == sadj[v]:
                yield from place(1 << v | 1 << u, uncovered)

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
                if va + ((sadj[v] >> b) & 1) + ((sadj[a] >> b) & 1) == 1:
                    yield from place(1 << v | 1 << a | 1 << b, uncovered)

    yield from rec((1 << s) - 1)


# One structure per equivalence class.  Two covers are equivalent iff
# their multisets of fat neighbourhoods agree (see the module docstring),
# and no two structures of ``_cover_structures(g)`` give the same
# multiset, so every structure becomes a cover and nothing is skipped.
#
# (1) The multiset fixes the cells.  A slim vertex x sees exactly the fat
# vertices of its part: two for an H2 part, one for H1, H3 and H5.  So a
# vertex in two of the neighbourhoods is an H2 singleton cell.  Let f be
# a neighbourhood and S the vertices in f and in no other; a second fat
# vertex with neighbourhood f would give them two, so they all see one
# fat vertex.  Two of them in different parts share it, so by rule (iv)
# they are adjacent in g; inside a part, an H3 pair is non-adjacent and
# an H5 triple has one edge of three.  So in the complement of g on S
# the cells are exactly the components: an H3 or H5 cell is connected
# there, and no complement edge leaves a cell.  A lone vertex is an H1
# part, which is admitted only for inputs with fat vertices.  The cell
# search reaches each partition once, with its cells ordered by least
# vertex, so equal multisets mean equal ``masks``.
#
# (2) For fixed cells the multiset fixes the blocks: the cells are
# disjoint, so a neighbourhood is the union of the cells of exactly one
# set of parts.  The cells fix the pinned and forced blocks, and padding
# spans one part, so the multiset fixes the blocks that ``bt`` opens,
# each spanning at least two parts.  Two parts share at most one fat
# vertex, so no two of these span the same parts.  ``bt`` branches on the
# lowest uncovered D-edge ij, each branch opening a different block
# through i and j, and no later block holds both.  So two leaves of
# ``bt`` open different sets of blocks.


def _strict_covers(g):
    """Strict covers of ``g`` in search order, one per equivalence class
    (see the block comment above).  Host fat order: the pinned input
    fats, the new shared blocks ordered by their sorted parts, then
    private padding filling each part's fat slots."""
    s, pinned = g.slim_count, g.fat_count
    for masks, blocks in _cover_structures(g):
        count = [0] * len(masks)
        for block in blocks:
            for part in _iter_bits(block):
                count[part] += 1
        padding, classes = [], []
        for part, m in enumerate(masks):
            if m & (m - 1):
                want = 1
                classes.append("H3" if m.bit_count() == 2 else "H5")
            else:
                want = max(1, count[part]) if pinned else 2
                classes.append("H2" if want == 2 else "H1")
            padding += [1 << part] * (want - count[part])
        shared = sorted(blocks[pinned:], key=lambda b: tuple(_iter_bits(b)))
        host, parts = _block_sum(g.adj[:s], masks, [*blocks[:pinned], *shared, *padding])
        yield StrictCover(g, host, parts, tuple(classes))


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

    Deterministic order; one cover per fat-neighbourhood multiset, which
    characterizes cover equivalence, since the search meets each multiset
    once.
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


# ---------------------------------------------------------------------------
# Extension by one vertex: the deletion lemma run backwards
# ---------------------------------------------------------------------------

# ``_extensions`` finds every cover class of C = P + v from the classes
# of P, where v is the highest slim vertex; it runs no cell search and
# no fat phase.  A class is held as (cells, fats), the form
# ``StrictCover.cover_class`` returns.
#
# Every class of C is found.  Let K be a strict cover of C.  Deleting v
# from K as ``delete_vertex_from_cover`` does gives a strict cover K' of
# P (its four cases need no connected host), and K' is equivalent to one
# class of P, with the same fats: the fat-neighbourhood multiset fixes
# the cells and the blocks (see the comment above ``_strict_covers``).
# So K is K' with v put back, one of four ways by v's part in K:
#   i    v is an H2 singleton.  Each of its two fats is a pad {v} or
#        g + v for a fat g of K'.  v shares a fat with exactly the cells
#        it sees and at most one fat with any cell, so the g's are
#        disjoint and their union is N(v).
#   ii   v and u form an H3 cell.  In K', u is an H2 singleton with a
#        pad {u} and one other fat g, the cell's fat less v;
#        N(v) = g - u.
#   iii  v is the isolated vertex of an H5 cell {a, b, v}.  In K', a and
#        b are H2 singletons, each with a pad and with the other fat h,
#        the cell's fat less v; N(v) = h - a - b.
#   iv   v is an end of the edge of an H5 cell {a, w, v}, v adjacent to
#        a.  In K', {a, w} is an H3 cell with the fat f, the cell's fat
#        less v; N(v) = f - w.
# ``_extensions`` makes each of these from every class of P that
# satisfies its mask test.
#
# Each is a strict cover of C.  Every cell keeps its class's slot count:
# an H2 singleton lies in two fats, any other cell in one, and a dropped
# pad belonged to a cell that is merged into a one-fat cell.  A grown
# fat is still a union of cells.  Pairs of cells of P keep their shared
# fats, so only v's adjacency is new, and the mask test makes it the
# sum's: in i, v shares one fat with each cell of g1 and of g2 and none
# with the others; in ii-iv, v shares the cell's one fat with the other
# cells of that fat and sees none of its own cell but a in iv, so the
# H3 cell has no edge and the H5 cell exactly one.
#
# No class is made twice.  Deleting v from a result gives back the fats
# of the class of P it came from, and v's part in the result names the
# case and the choice: the fats v joined in i, u in ii, {a, b} in iii,
# {a, w} and a in iv.  The classes of P have different fats, and the
# choices run over fat values, not fat vertices.  Only the two pads of
# an isolated H2 singleton have the same value, and either choice gives
# the same result.


def _extensions(classes, v):
    """The cover classes of every one-vertex extension of a slim graph P
    on the vertices below ``v``, from the (cells, fats) classes of P: a
    dict from the slim neighbourhood of the new vertex ``v`` to the
    classes of P + v, each once (see the block comment above).  A
    neighbourhood that is no key gives no line graph.
    """
    bit = 1 << v
    table = {}

    def emit(nbhd, cells, fats):
        table.setdefault(nbhd, []).append((cells, tuple(sorted(fats))))

    def grow(fats, old, new):
        """``fats`` with one copy of each fat in ``old`` dropped and the
        masks ``new`` added."""
        rest = list(fats)
        for g in old:
            rest.remove(g)
        return rest + list(new)

    for cells, fats in classes:
        # inverse of i: a new singleton in at most two disjoint fats,
        # padded to two
        single = cells + (bit,)
        emit(0, single, (*fats, bit, bit))
        distinct = sorted(set(fats))
        for gi, g in enumerate(distinct):
            emit(g, single, grow(fats, (g,), (g | bit, bit)))
            for h in distinct[gi + 1:]:
                if not g & h:
                    emit(g | h, single, grow(fats, (g, h), (g | bit, h | bit)))

        # H2 singletons with a pad, by their other fat
        padded = {}
        for ci, c in enumerate(cells):
            own = [g for g in fats if g & c]
            singleton = not c & (c - 1)
            if len(own) != 1 + singleton:
                raise HoffmanGraphError("not a cover class: a cell has the wrong fat count")
            if singleton:
                if c in own:
                    own.remove(c)
                    padded.setdefault(own[0], []).append(ci)
            elif c.bit_count() == 2:
                # inverse of iv: v sees the H3 cell's fat but for w
                f = own[0]
                for w in _iter_bits(c):
                    grown = cells[:ci] + (c | bit,) + cells[ci + 1:]
                    emit(f & ~(1 << w), grown, grow(fats, (f,), (f | bit,)))

        for g, members in padded.items():
            # inverse of ii: v a non-adjacent twin of a padded singleton
            for ci in members:
                u = cells[ci]
                grown = cells[:ci] + (u | bit,) + cells[ci + 1:]
                emit(g & ~u, grown, grow(fats, (u, g), (g | bit,)))
            # inverse of iii: v sees the common fat of two padded
            # singletons but neither of them.  Inside ``verify._layer``
            # this never fires: a and b see v's neighbours and each
            # other, so neither is a cut vertex and both have a higher
            # degree than v, and ``enumeration._target_cell`` drops the
            # child.  It is kept so that the step is exact for any P + v.
            for i, ai in enumerate(members):
                for bi in members[i + 1:]:
                    a, b = cells[ai], cells[bi]
                    merged = cells[:ai] + (a | b | bit,) + cells[ai + 1:bi] + cells[bi + 1:]
                    emit(g & ~(a | b), merged, grow(fats, (a, b, g), (g | bit,)))
    return table
