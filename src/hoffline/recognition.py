"""Line-graph recognition over the family {H2, H3, H5}.

A graph G is a line graph of the family when it is an induced subgraph of
a sum whose parts are copies of H2, H3 or H5.  A *strict cover* of G is
such a sum H with the same slim vertex set; for slim inputs a strict
cover exists exactly when G is a line graph of the family, so recognition
looks for strict covers.

Every fat vertex of a part is adjacent to all slim vertices of that
part, which forces the shape of any strict cover of a slim graph G:

  * the slim vertices split into *cells*, one per part: a singleton
    (an H2 part), a non-adjacent pair (H3), or a triple carrying exactly
    one edge (H5);
  * a singleton lies in two fat vertices and any other cell in one, and
    every fat neighbourhood is a union of cells;
  * slim vertices of different parts are adjacent iff their parts share
    a fat vertex, and two parts share at most one (rule (iv) of a sum).

Two strict covers of the same graph are *equivalent* when some
isomorphism between them restricts to the identity on the covered graph.
Fat vertices are pairwise non-adjacent, so with all slim vertices pinned
such an isomorphism is precisely a fat-vertex bijection preserving slim
neighbourhoods: covers are equivalent iff their multisets of fat
neighbourhoods agree.  A *class* is held as (cells, fats): the cell masks
by least vertex and the sorted fat neighbourhoods.

The fats fix the cells.  A vertex in two of the neighbourhoods is an H2
singleton.  Let f be a neighbourhood and T the vertices in f and in no
other; a second fat vertex with neighbourhood f would give them two, so
they all see one fat vertex.  Two of them in different parts share it,
so by rule (iv) they are adjacent in G; inside a part, an H3 pair is
non-adjacent and an H5 triple has one edge of three.  So in the
complement of G on T the cells are exactly the components.

Recognition builds the classes one vertex at a time.  The class of line
graphs is hereditary, and the deletion lemma (cases i-iv) turns a cover
of G into one of G - x; the tests keep it, as
``delete_vertex_from_cover`` in ``tests/bruteforce.py``, for an oracle.
``_extensions`` runs it backwards: from the classes of a graph P it
reads those of P + v by mask tests, in the way ILIGRA builds a
line-graph root one vertex at a time (Degiorgi & Simon, WG 1995).
``_classes`` runs it over the prefixes of an input, from the one class
``((), ())`` of the empty graph; the layer store of ``verify`` runs it
once per generated child.  ``_search_key`` fixes the order in which
classes are listed, and ``_cover`` builds the host of a class with
``sums._sum_adjacency``.  ``enumerate_strict_covers`` lists every class
and ``is_h_line`` takes the first one, component by component.

Inputs that carry fat vertices are recognized through the classes of
their slim part S.  Such an input G has a strict cover with parts in
{H1, H2, H3, H5} keeping its fat vertices iff some class of S holds the
slim neighbourhood of every fat vertex of G among its fats, as a
multiset.  Given the cover, one private fat vertex more on each H1 part
makes it an H2 part, which gives such a class of S.  Conversely, such a
class pins each input fat vertex to one of its fats with the same
neighbourhood, and ``_cover`` keeps the other fats that span two or
more cells and pads each cell to its slots; a singleton gets
``max(1, count)`` fats, so one that holds at most one fat besides its
pads becomes an H1 part.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .core import HoffmanGraph, HoffmanGraphError, _iter_bits
from .sums import _sum_adjacency


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

    def to_json_dict(self):
        return {
            "slim_count": self.host.slim_count,
            "fat_count": self.host.fat_count,
            "edges": [list(e) for e in sorted(self.host.edges())],
            "parts": [sorted(p) for p in self.parts],
            "classes": list(self.classes),
        }


# ---------------------------------------------------------------------------
# Extension by one vertex: the deletion lemma run backwards
# ---------------------------------------------------------------------------

# ``_extensions`` finds the cover classes of C = P + v from the classes
# of P, where v is a slim vertex outside P and N(v) its given slim
# neighbourhood in P.
#
# Every class of C is found.  Let K be a strict cover of C.  Deleting v
# from K by the deletion lemma (``delete_vertex_from_cover`` in
# ``tests/bruteforce.py``) gives a strict cover K' of P (its four cases
# need no connected host), and K' is in one class of P, with the same
# fats, which fix the cells (see the module docstring).  So K is K'
# with v put back, one of four ways by v's part in K:
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
# satisfies its mask test.  Cases ii-iv each need a fat of the class
# that holds N(v) and one or two vertices more: g = N(v) + u in ii,
# h = N(v) + a + b in iii, f = N(v) + w in iv, and every cell they read
# lies inside that fat.  So the loop over a class's cells, which serves
# only them, runs only when some fat is one of these, and only over the
# cells inside such fats; case i reads the fats alone.
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
#
# The fat counts are checked on each class the step returns, not on each
# class it reads: a singleton lies in two fats, and any other cell in
# one fat, which holds all of it.  Every class it reads is one it
# returned before, or the empty graph's class ``((), ())``: ``_classes``
# feeds each step the classes of the one before, and the layer store of
# ``verify`` and its deletion seam keep the classes they were given.  So
# each class is checked once, although the layer store reads the
# classes of a parent once per child.  The check reads the vertices that
# lie in one, two and three fats, not the fats of each cell.


def _extensions(classes, v, nbhd):
    """The cover classes of P + v, where P is a slim graph with the
    (cells, fats) classes ``classes`` and ``v`` a slim vertex outside P
    with the slim neighbourhood ``nbhd`` in P; each class once (see the
    block comment above), its cells in no fixed order.  An empty list
    means P + v is no line graph.  A class it returns whose cells do not
    lie in the right number of fats raises ``HoffmanGraphError``.
    """
    bit = 1 << v
    out = []

    def emit(cells, fats, old, new):
        """Add the class with ``cells`` whose fats are ``fats`` with one
        copy of each fat in ``old`` dropped and the masks ``new`` added,
        once its fat counts are checked."""
        rest = list(fats)
        for g in old:
            rest.remove(g)
        fats = tuple(sorted(rest + list(new)))
        # the vertices in at least one, two and three of the fats
        one = two = three = 0
        for g in fats:
            three |= two & g
            two |= one & g
            one |= g
        # a singleton lies in two fats; one fat meets an H3 or H5 cell,
        # so each vertex of it lies in one fat, and the first fat that
        # meets the cell holds all of it
        union = sum(cells)
        multi = [c for c in cells if c & (c - 1)] if union.bit_count() > len(cells) else ()
        wrong = (union - sum(multi)) & (three | ~two)
        for c in multi:
            wrong = wrong or c & (two | ~one) or c & ~next(g for g in fats if g & c)
        if wrong:
            raise HoffmanGraphError("not a cover class: a cell has the wrong fat count")
        out.append((cells, fats))

    for cells, fats in classes:
        # inverse of i: a new singleton in at most two disjoint fats,
        # padded to two
        single = cells + (bit,)
        if not nbhd:
            emit(single, fats, (), (bit, bit))
        distinct = set(fats)
        if nbhd in distinct:
            emit(single, fats, (nbhd,), (nbhd | bit, bit))
        # the union of the fats that hold N(v) and one or two vertices
        # more, the only fats that ii-iv read (see the block comment
        # above)
        near = 0
        for g in distinct:
            h = nbhd & ~g
            if g < h and nbhd & g == g and h in distinct:
                emit(single, fats, (g, h), (g | bit, h | bit))
            elif not h and 0 < (g ^ nbhd).bit_count() < 3:
                near |= g
        if not near:
            continue

        # H2 singletons with a pad inside the near fats, by their other
        # fat; a cell outside them takes part in none of ii-iv
        padded = {}
        for ci, c in enumerate(cells):
            if not c & near:
                continue
            if not c & (c - 1):
                if c in distinct:
                    own = [g for g in fats if g & c]
                    own.remove(c)
                    padded.setdefault(own[0], []).append(ci)
            elif c.bit_count() == 2:
                # inverse of iv: v sees the H3 cell's fat but for w
                f = next(g for g in fats if g & c)
                for w in _iter_bits(c):
                    if nbhd == f & ~(1 << w):
                        grown = cells[:ci] + (c | bit,) + cells[ci + 1:]
                        emit(grown, fats, (f,), (f | bit,))

        for g, members in padded.items():
            # inverse of ii: v a non-adjacent twin of a padded singleton
            for ci in members:
                u = cells[ci]
                if nbhd == g & ~u:
                    grown = cells[:ci] + (u | bit,) + cells[ci + 1:]
                    emit(grown, fats, (u, g), (g | bit,))
            # inverse of iii: v sees the common fat of two padded
            # singletons but neither of them.  Inside ``verify._layer``
            # this never fires: a and b see v's neighbours and each
            # other, so neither is a cut vertex and both have a higher
            # degree than v, and the degree test of
            # ``enumeration._degree_tested_child`` drops the child before
            # it is built.  It is kept so that the step is exact for any
            # P + v.
            for i, ai in enumerate(members):
                for bi in members[i + 1:]:
                    a, b = cells[ai], cells[bi]
                    if nbhd == g & ~(a | b):
                        merged = cells[:ai] + (a | b | bit,) + cells[ai + 1:bi] + cells[bi + 1:]
                        emit(merged, fats, (a, b, g), (g | bit,))
    return out


# ---------------------------------------------------------------------------
# Recognition: the extension over the prefixes of the input
# ---------------------------------------------------------------------------


def _classes(g, mask, pinned):
    """Every class of the slim graph that ``g`` induces on ``mask`` whose
    fats hold the masks ``pinned`` as a multiset, in no fixed order; the
    cells of each are ordered by least vertex.

    The classes are built by ``_extensions`` one vertex at a time, from
    the one class of the empty graph.  Each class of a prefix plus one
    vertex comes from a class of the prefix (see the block comment above
    ``_extensions``), so this finds every class; when a prefix has none,
    neither has the whole graph, and the run stops.  The vertices keep
    their labels and are added the slim components largest first,
    breadth-first inside each.  Every prefix is then one connected graph
    beside whole components, and a component that is no line graph ends
    the run before the many classes of isolated vertices are built (m of
    them have one class per involution of the m vertices).

    The pinned fats are checked at every prefix.  Deleting a slim vertex
    x from a cover turns each fat f into f - x, dropped when empty, and
    adds pads only; the fat vertices stay distinct.  So the class that a
    class K of the whole graph leaves on a prefix holds, as a multiset,
    f cut down to the prefix for every fat f of K that meets it.  A
    class of a prefix that lacks one of the cut-down pinned fats
    therefore extends to no class holding ``pinned``, and dropping it
    loses nothing.
    """
    order = []
    for comp in sorted(g._components_within(mask), key=int.bit_count, reverse=True):
        seen = comp & -comp
        queue = [seen.bit_length() - 1]
        for u in queue:
            new = g.adj[u] & comp & ~seen
            seen |= new
            queue += _iter_bits(new)
        order += queue
    classes, prefix = [((), ())], 0
    for u in order:
        classes = _extensions(classes, u, g.adj[u] & prefix)
        prefix |= 1 << u
        if pinned:
            need = Counter(f & prefix for f in pinned if f & prefix)
            classes = [k for k in classes if not need - Counter(k[1])]
        if not classes:
            return []
    return [(tuple(sorted(cells, key=lambda c: c & -c)), fats) for cells, fats in classes]


# ``_search_key`` lists the classes of a graph in one fixed order: the
# order in which a backtracking search meets them that first splits the
# slim vertices into cells, lowest uncovered vertex first, and then
# partitions the edges between singletons into fat blocks, lowest
# uncovered edge first (``cover_structures_unpruned`` of the tests is
# that search).  The key is (cells, blocks).
#
# Cells compare by least vertex, each cell as (size, sorted members).
# Two classes that agree on their first k cells cover the same vertices
# with them, so their next cells hold the same least vertex u, the
# lowest uncovered one.  There the search tries the singleton, then the
# pairs by their second vertex, then the triples by their other two
# vertices, which is the order of (size, members).
#
# Blocks are compared only between classes with the same cells.  Then
# every fat but the blocks is fixed: a pinned fat is given, the one fat
# of an H3 or H5 cell spans the cell and every cell complete to it, and
# pads fill the remaining slots.  The blocks are the other fats that
# span two or more cells, all of them singletons: a partition into
# cliques of the edges between singletons that no other fat covers.  So
# the key drops one copy of each pinned fat and keeps the fats of two
# or more singleton vertices, each as its sorted vertex tuple, the list
# sorted.  As the singletons' parts are ordered by their vertices, this
# is the order of the tuples of parts.  The search opens a block at the
# lowest uncovered edge ij, trying ij first and then adding common
# neighbours k in increasing order, each choice extended before the
# next.  Every k it can add has k > j, since an uncovered edge ik or jk
# with k < j would be lower than ij.  So each block it opens is larger
# than those opened before it, and at each step the choices run in
# tuple order, where a prefix comes first: the search meets block lists
# in the sorted order of the lists.  Two classes with the same cells
# partition the same edges, so neither list is a proper prefix of the
# other.  The cells and blocks fix every fat, so no two classes share a key.


def _search_key(pinned):
    """The sort key on the (cells, fats) classes of a graph whose input
    fats have the neighbourhoods ``pinned`` (see the block comment
    above)."""

    def key(cls):
        cells, fats = cls
        singles = sum(c for c in cells if not c & (c - 1))
        blocks = list(fats)
        for f in pinned:
            blocks.remove(f)
        return (
            tuple((c.bit_count(), tuple(_iter_bits(c))) for c in cells),
            sorted(tuple(_iter_bits(f)) for f in blocks if f & (f - 1) and not f & ~singles),
        )

    return key


def _cover(g, cells, fats):
    """The strict cover of ``g`` in the class (cells, fats) of its slim
    part, which holds the neighbourhoods of ``g``'s fat vertices.  Host
    fat order: the input fats, the other fats that span two or more
    cells ordered by their sorted parts, then pads filling each cell's
    fat slots.  A singleton has two slots, or ``max(1, count)`` when
    ``g`` has fat vertices, where count is the number of those fats it
    lies in; any other cell has one."""
    s = g.slim_count
    pinned = [g.adj[f] & g.slim_mask for f in range(s, g.n)]
    rest = list(fats)
    for f in pinned:
        rest.remove(f)

    def spans(f):
        return tuple(p for p, c in enumerate(cells) if c & f)

    shared = sorted((f for f in rest if len(spans(f)) > 1), key=spans)
    count = Counter(p for f in (*pinned, *shared) for p in spans(f))
    padding, classes = [], []
    for p, c in enumerate(cells):
        if c & (c - 1):
            want = 1
            classes.append("H3" if c.bit_count() == 2 else "H5")
        else:
            want = max(1, count[p]) if pinned else 2
            classes.append("H2" if want == 2 else "H1")
        padding += [c] * (want - count[p])
    fat_nbhds = [*pinned, *shared, *padding]
    adj, parts = _sum_adjacency(g.adj[:s], cells, fat_nbhds)
    host = HoffmanGraph(s, len(fat_nbhds), adj, _checked=True)
    return StrictCover(g, host, tuple(parts), tuple(classes))


def is_h_line(g):
    """A strict cover of ``g`` over {H2, H3, H5}, or ``None``.

    For slim inputs this decides membership in the class of slim
    {H2, H3, H5}-line graphs.  Inputs with fat vertices get a cover with
    parts from {H1, H2, H3, H5} keeping the input's fat vertices, which
    exists iff the input is a line graph of the family.  Returns the
    cover of the first class in the order of ``_search_key``; for a slim
    input that is the first one ``enumerate_strict_covers`` lists.

    Each component of ``g`` is recognized on its own, and the cover is
    built from the union of their first classes.  That union is the
    first class of ``g``.  A cell of a class can meet two components
    only if its vertices see the same slim vertices outside it, which
    then must be none, and no fat vertex of ``g``, which sees all of a
    cell or none of it: the cell pairs isolated vertices, or a bare K2
    with an isolated vertex.  Its vertices as singletons make a class
    too, smaller at that cell, so the first class has no such cell.  A
    class without one is a union of one class per component, since a
    fat spanning two cells joins them.  Among these unions, replacing
    the class of one component by a smaller one gives a smaller union:
    the first cell where they differ lies in that component, and with
    equal cells the blocks of the other components are merged into both
    block lists alike, neither of which is a proper prefix of the other.
    """
    s = g.slim_count
    cells, fats = [], []
    for comp in g._components_within((1 << g.n) - 1):
        pinned = [g.adj[f] & g.slim_mask for f in _iter_bits(comp >> s << s)]
        found = _classes(g, comp & g.slim_mask, pinned)
        if not found:
            return None
        # no two classes share a key (above ``_search_key``): min is sorted()[0]
        first_cells, first_fats = min(found, key=_search_key(pinned))
        cells += first_cells
        fats += first_fats
    return _cover(g, tuple(sorted(cells, key=lambda c: c & -c)), tuple(sorted(fats)))


def enumerate_strict_covers(g):
    """All strict covers of a slim graph up to equivalence, one per
    class, the classes sorted by ``_search_key``."""
    if g.fat_count:
        raise HoffmanGraphError("strict cover enumeration expects a slim graph")
    return [_cover(g, *cls) for cls in sorted(_classes(g, g.slim_mask, []), key=_search_key([]))]
