"""Graph streams: isomorph-free generation of slim and fat graphs, graph6
I/O, and sum composition.

``connected_slim_graphs(n)`` yields exactly one representative per
isomorphism class of connected n-vertex graphs, generated by canonical
augmentation: an (n-1)-vertex parent is extended by one vertex for the
least attachment subset of each orbit of the parent's automorphism
group, and the child survives only when the added vertex lies in the
automorphism orbit of a canonical deletion target (the non-cut vertex
latest in the canonical labelling).  Isomorphic children of one parent
come from one orbit, which together with the orbit rule makes every
class appear exactly once.  The parent's group is read from the
automorphisms that its own labelling stored when it was made as a
child, so no parent is labelled twice.  A child is not even built when
a deletion target of the new vertex's colour has a higher degree, which
the parent's degrees tell (``_degree_tested_child``): refinement puts
that target in a later cell than the new vertex, so the orbit test
would fail; the parent's degrees are sorted into bands once per parent
(``_degree_bands``).  Every child built is labelled, and the orbit test
alone decides whether it is kept.  The non-cut vertices of a child come
from the components of the parent minus each vertex, found once per
parent.
``all_slim_graphs`` is the variant without the connectivity
requirement; both run one augmentation step, ``_canonical_children``,
which is the degree test ``_kept_children`` followed by the labelling
and orbit test ``_canonical_autos``.  The catalog in ``verify`` runs the
two parts apart on line-graph parents only, so that it labels only the
children that are line graphs; extending line graphs alone is
exhaustive because the class is hereditary: a line graph or minimal
forbidden subgraph has a line graph as canonical parent (the child
minus a non-cut vertex).

The graph6 reader/writer is bit-exact to the published format (short
form, up to 62 vertices): upper-triangle column-major bits in 6-bit
chunks offset by 63, zero padding required.

``fat_hoffman_graphs`` runs the same augmentation step with a new fat
vertex, whose deletion target is the fat vertex latest in the canonical
labelling, over ``all_slim_graphs``; the composition lemmas of ``verify``
filter its output by their hypotheses.

``enumerate_sums`` composes a fixed fat graph F with every sum K of
parts from {H1, H2, H3, H5} meeting size/component bounds, gluing the
fat vertices of F onto fat vertices of K in all valid ways, one per
orbit of the automorphisms of K and F.
"""

from __future__ import annotations

import functools
import itertools

from .core import (
    EMPTY_GRAPH,
    HoffmanGraph,
    HoffmanGraphError,
    IndexOutOfRange,
    _find,
    _iter_bits,
    _mask_of,
    _orbit_forest,
    canonical_data,
    canonical_form,
)
from .sums import SharedFatConflict, _block_sum, _sum_adjacency


# ---------------------------------------------------------------------------
# graph6
# ---------------------------------------------------------------------------


class Graph6Error(HoffmanGraphError):
    pass


class MalformedHeader(Graph6Error):
    pass


class TruncatedPayload(Graph6Error):
    pass


class NonCanonicalPadding(Graph6Error):
    pass


_G6_OPTIONAL_HEADER = ">>graph6<<"


def parse_graph6(line) -> HoffmanGraph:
    """Parse one graph6 line (slim graph, short form, n <= 62)."""
    if isinstance(line, bytes):
        line = line.decode("ascii", errors="replace")
    line = line.strip()
    if line.startswith(_G6_OPTIONAL_HEADER):
        line = line[len(_G6_OPTIONAL_HEADER):]
    if not line:
        raise MalformedHeader("empty graph6 line")
    first = ord(line[0])
    if first == 126:
        raise MalformedHeader("long-form graph6 (n > 62) not supported")
    if not 63 <= first <= 125:
        raise MalformedHeader(f"bad graph6 header byte {line[0]!r}")
    n = first - 63
    nbits = n * (n - 1) // 2
    need = (nbits + 5) // 6
    payload = line[1:]
    if len(payload) < need:
        raise TruncatedPayload(f"need {need} payload chars, found {len(payload)}")
    if len(payload) > need:
        raise NonCanonicalPadding("trailing bytes after graph6 payload")
    bits = 0
    for ch in payload:
        val = ord(ch) - 63
        if not 0 <= val <= 63:
            raise MalformedHeader(f"payload byte {ch!r} outside graph6 range")
        bits = (bits << 6) | val
    pad = need * 6 - nbits
    if pad and bits & ((1 << pad) - 1):
        raise NonCanonicalPadding("non-zero padding bits")
    bits >>= pad
    adj = [0] * n
    k = nbits
    for j in range(1, n):
        for i in range(j):
            k -= 1
            if (bits >> k) & 1:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    return HoffmanGraph(n, 0, adj, _checked=True)


def write_graph6(g: HoffmanGraph) -> str:
    """Encode a slim graph (n <= 62) as a graph6 line."""
    if g.fat_count:
        raise Graph6Error("graph6 encodes slim graphs only")
    n = g.slim_count
    if n > 62:
        raise Graph6Error("short-form graph6 is limited to 62 vertices")
    bits = 0
    nbits = 0
    for j in range(1, n):
        for i in range(j):
            bits = (bits << 1) | ((g.adj[i] >> j) & 1)
            nbits += 1
    pad = (-nbits) % 6
    bits <<= pad
    nbits += pad
    out = [chr(n + 63)]
    for shift in range(nbits - 6, -1, -6):
        out.append(chr(((bits >> shift) & 63) + 63))
    return "".join(out)


def read_graph6_lines(stream):
    """Yield graphs from graph6 lines, str or bytes, skipping blanks."""
    for line in stream:
        if line.strip():
            yield parse_graph6(line)


# ---------------------------------------------------------------------------
# Isomorph-free generation
# ---------------------------------------------------------------------------


def _extend(parent, nbhd_mask, fat=False):
    """Parent plus one new vertex adjacent to ``nbhd_mask``: a fat vertex,
    or a slim one when the parent is slim."""
    n = parent.n
    adj = list(parent.adj) + [nbhd_mask]
    for u in _iter_bits(nbhd_mask):
        adj[u] |= 1 << n
    return HoffmanGraph(parent.slim_count + (not fat), parent.fat_count + fat, adj, _checked=True)


def _cut_components(g):
    """For each vertex v of the slim graph ``g``, the components of
    ``g - v`` as bitmasks."""
    return [g._components_within(g.slim_mask & ~(1 << v)) for v in range(g.n)]


def _degree_bands(parent, fat):
    """For k from 0 to ``parent.n + 1``, the vertices of the new vertex's
    colour, fat when ``fat`` and slim otherwise, whose degree in
    ``parent`` is at least k, as bitmasks: read by
    ``_degree_tested_child`` for every neighbourhood of the parent."""
    at_least = [0] * (parent.n + 2)
    for v in _iter_bits(parent.fat_mask if fat else parent.slim_mask):
        for k in range(parent.adj[v].bit_count() + 1):
            at_least[k] |= 1 << v
    return at_least


def _degree_tested_child(parent, nbhd, fat, cuts, at_least):
    """(child, allowed) for the child of ``parent`` whose new vertex (the
    last one) sees ``nbhd``: the child and its allowed deletion targets,
    the new vertex among them, as a bitmask; or None when an allowed
    vertex of the new vertex's colour has a higher degree, a child that
    fails the orbit test of ``_canonical_autos``, which is then never
    built.  ``cuts`` is ``_cut_components`` of the connected parent when
    the targets are the non-cut vertices, and None when every vertex of
    the new vertex's colour is one; ``at_least`` is ``_degree_bands`` of
    the parent.

    The non-cut vertices come from the parent's components: for a vertex
    v other than the new one, ``child - v`` is ``parent - v`` plus the
    new vertex joined to its neighbourhood N, so it is connected iff N
    meets every component of ``parent - v``.  The new vertex is never a
    cut vertex, because the parent is connected.

    The first round of refinement at the root of the canonical search
    splits the new vertex's colour cell by degree alone and orders the
    parts by it, so a vertex of that colour with a higher degree ends in
    a root cell after the new vertex's, and the orbit test fails (see
    ``_canonical_autos``).  A vertex v of the parent has degree
    deg(v) + [v in N] in the child and the new vertex has |N|, so v has
    a higher degree iff deg(v) > |N|, or deg(v) = |N| and v is in N: the
    band ``at_least[|N| + 1] | at_least[|N|] & N``.  Only the vertices of
    that band can reject the child, so the non-cut condition is checked
    on them alone before anything is built, and on every vertex only for
    a child that is built.  The test rejects most children.
    """
    deg = nbhd.bit_count()
    higher = at_least[deg + 1] | at_least[deg] & nbhd
    if cuts is None:
        if higher:
            return None
        allowed = parent.fat_mask if fat else parent.slim_mask
    else:
        for v in _iter_bits(higher):
            for comp in cuts[v]:
                if not nbhd & comp:
                    break
            else:
                return None
        allowed = 0
        for v, comps in enumerate(cuts):
            for comp in comps:
                if not nbhd & comp:
                    break
            else:
                allowed |= 1 << v
    return _extend(parent, nbhd, fat), allowed | 1 << parent.n


def _orbit_representatives(parent, autos, first):
    """The neighbourhoods from ``first`` up that are the least member of
    their orbit under the automorphism group of ``parent``, ascending.

    The generators ``autos`` are the stored automorphisms of the
    parent's canonical search, kept from when the parent was labelled
    as a child; an orbit is closed under them, so it is found by
    applying them until nothing new appears.  Each generator acts on the
    neighbourhoods through a table of images, filled in ascending order
    from the image of the mask without its lowest bit.
    """
    size = 1 << parent.slim_count
    images = []
    for a in autos:
        image = [0] * size
        for mask in range(1, size):
            low = mask & -mask
            image[mask] = image[mask ^ low] | 1 << a[low.bit_length() - 1]
        images.append(image)
    if not images:
        yield from range(first, size)
        return
    seen = bytearray(size)
    for nbhd in range(first, size):
        if seen[nbhd]:
            continue
        seen[nbhd] = 1
        orbit = [nbhd]
        for mask in orbit:
            for image in images:
                m = image[mask]
                if not seen[m]:
                    seen[m] = 1
                    orbit.append(m)
        yield nbhd


# One neighbourhood per orbit (McKay, J. Algorithms 26, 1998).  Let s be
# an automorphism of the parent P.  The children of P with new vertex
# neighbourhoods N and s(N) are isomorphic by s extended to fix the new
# vertex, and acceptance (the new vertex shares an orbit with the
# canonical target) is invariant under isomorphism, so it is constant on
# an orbit of neighbourhoods.  Conversely, let the children of N and N'
# both be accepted and isomorphic by f.  The canonical labellings of the
# two differ by an isomorphism that maps the one target to the other, so
# f maps the first target into the orbit of the second.  In both
# children the new vertex lies in the orbit of the target, so f maps it
# into the orbit of the second child's new vertex, and f followed by an
# automorphism of the second child fixes the new vertex.  That
# isomorphism restricts to an automorphism of P mapping N onto N'.  So
# accepted children from different orbits are never isomorphic, and in
# ascending order the least member of an accepted orbit gives the first
# child of its class.  Extending only the least members gives the same
# children, in the same order, as extending every neighbourhood and
# dropping a form already emitted, and no form repeats.


def _kept_children(parent, autos, connected=True, fat=False):
    """(child, allowed) for the one-vertex extensions of ``parent`` that
    pass the degree test of ``_degree_tested_child``, unlabelled: the
    candidates for children whose canonical parent it is.  ``autos`` are
    the stored automorphisms of ``parent``, as ``_canonical_children``
    returned them with it.

    A new slim vertex extends a slim parent, connected when
    ``connected``, and the deletion target ranges over non-cut vertices,
    or all when not ``connected``.  A new fat vertex sees a non-empty set
    of slim vertices, and the deletion target ranges over the fat
    vertices: deleting a fat vertex always leaves a Hoffman graph, so
    every graph with a fat vertex has its canonical parent one layer
    down.  Only the least neighbourhood of each orbit of the parent's
    automorphism group is extended (see the block comment above)."""
    cuts = _cut_components(parent) if connected and not fat else None
    at_least = _degree_bands(parent, fat)
    for nbhd in _orbit_representatives(parent, autos, 1 if connected or fat else 0):
        kept = _degree_tested_child(parent, nbhd, fat, cuts, at_least)
        if kept is not None:
            yield kept


def _canonical_autos(child, allowed):
    """The stored automorphisms of ``child``, a child that ``_kept_children``
    yields with its ``allowed`` deletion targets, when its parent is its
    canonical parent (the new vertex shares an orbit with the target, the
    allowed vertex latest in the canonical labelling), else None.

    This test alone decides; a test on the refined colour cells before
    the labelling would only repeat its answer.  The canonical search
    refines the colour cells at its root, and every partition of its
    search refines the root one without reordering it, so a leaf
    labelling lists the root cells in order.  Refinement is
    label-invariant, so an automorphism maps every root cell to itself
    and no orbit leaves its cell.  The new vertex is allowed, since
    deleting it gives back the parent; so when a root cell after its own
    holds an allowed vertex, the target lies there too and the orbit
    test fails.  Otherwise the target lies in the new vertex's root
    cell.
    """
    _form, lab, autos = canonical_data(child)
    target = next(v for v in reversed(lab) if allowed >> v & 1)
    # the stored automorphisms generate the group (see ``core``)
    orbits = _orbit_forest(child.n, autos)
    if _find(orbits, child.n - 1) == _find(orbits, target):
        return autos
    return None


def _canonical_children(parent, autos, connected=True, fat=False):
    """(child, stored automorphisms) for the one-vertex extensions of
    ``parent`` whose canonical parent it is, one per class: the children
    of ``_kept_children`` that pass the orbit test of
    ``_canonical_autos``, which labels each of them.  A caller that needs
    a child's form labels it again.  ``autos`` are the stored
    automorphisms of ``parent``, as this function returned them with it;
    those returned with each child serve its own children in turn."""
    for child, allowed in _kept_children(parent, autos, connected, fat):
        child_autos = _canonical_autos(child, allowed)
        if child_autos is not None:
            yield child, child_autos


def connected_slim_graphs(n):
    """One representative per isomorphism class of connected n-vertex
    graphs, in a deterministic order.  1 <= n <= 10."""
    for g, _autos in _slim_graphs(n, connected=True):
        yield g


def all_slim_graphs(n):
    """One representative per isomorphism class of all n-vertex graphs."""
    for g, _autos in _slim_graphs(n, connected=False):
        yield g


def _slim_graphs(n, connected):
    """(graph, stored automorphisms) for the graphs that
    ``connected_slim_graphs`` or ``all_slim_graphs`` yields.  K1 has the
    identity only, which needs no generator."""
    if not 1 <= n <= 10:
        raise IndexOutOfRange("generation supports 1 <= n <= 10")
    if n == 1:
        yield HoffmanGraph(1, 0, (0,), _checked=True), []
        return
    for parent, autos in _slim_graphs(n - 1, connected):
        yield from _canonical_children(parent, autos, connected)


def fat_hoffman_graphs(slim_count, fat_max):
    """One representative per isomorphism class of connected Hoffman
    graphs with ``slim_count`` slim and 1 .. ``fat_max`` fat vertices,
    by number of fat vertices, in a deterministic order.

    Layer f holds every graph with f fat vertices, one per class: the
    children of layer f - 1 under ``_canonical_children`` with a new fat
    vertex, starting from ``all_slim_graphs``.  Layers are kept whole and
    only the output is filtered, because a fat vertex can join two
    components: a connected graph may have only disconnected parents.
    """
    if slim_count > 8:
        raise IndexOutOfRange("fat graph enumeration capped at 8 slim vertices")
    layer = list(_slim_graphs(slim_count, connected=False))
    for _ in range(fat_max):
        layer = [
            pair for parent, autos in layer
            for pair in _canonical_children(parent, autos, fat=True)
        ]
        yield from (g for g, _autos in layer if g.is_connected())


# ---------------------------------------------------------------------------
# Sums K of parts from {H1, H2, H3, H5} and compositions F (+) K
# ---------------------------------------------------------------------------
#
# A sum K is described by a partition of its slim vertices into part cells
# (singletons carry one fat slot as H1 or two as H2; non-adjacent pairs
# and one-edge triples carry a single hub slot) plus a partition of the
# fat slots into the actual fat vertices.  Every fat vertex of a part is
# adjacent to all slim vertices of that part, so cross-part slim adjacency
# is forced: two slim vertices in different parts are adjacent exactly
# when their parts share a fat vertex, and sharing two is never allowed.
# ``sums._sum_adjacency`` derives that adjacency: ``sums._block_sum``
# calls it for K, whose fat vertices are blocks (bitmasks of the parts
# owning their slots), and ``_compose`` for F (+) K, with the two cells
# F-slim and K-slim.  Blocks never let two parts share two fat vertices,
# so only gluing F can fail.
#
# ``_sum_family`` builds each family once per process (``functools.cache``;
# table-1 rows a and c share k = 5, rows d, e and g share k = 4).  For
# each cell layout (``_cell_layouts``) it finds the cell masks, the slim
# edges and the owner of each fat slot once, and it assembles one
# structure per slot partition (``_slot_partitions``).  No two of the
# structures are equal: the layouts have different multisets of classes,
# and the slot partitions of one layout different multisets of blocks.
# A permutation of like cells can still map one multiset of blocks onto
# another, so a partition whose orbit under those permutations was met
# before is skipped unbuilt (``_new_orbit``), and the canonical form
# keeps the first of each isomorphism class among the rest.  The
# labelling's stored automorphisms stay with each member, and
# ``enumerate_sums`` glues F onto K only by the least fat map of each
# orbit under the automorphisms of K and F.


#: slim vertices and fat slots of a cell of each class, in layout order
_CELL_SHAPES = {"H1": (1, 1), "H2": (1, 2), "H3": (2, 1), "H5": (3, 1)}


# One cell layout per multiset of classes.  Two typed cell partitions of
# the slim vertices with the same multiset of classes are related by a
# permutation of the vertices that maps every cell onto a cell of the
# same class (an H5 cell's edge onto the other's edge).  Slot partitions
# depend only on which part owns each slot, so the permutation maps the
# structures of the one onto those of the other, and one partition per
# multiset reaches every class of sums.
#
# The layout puts the cells on consecutive vertices in the class order
# H1, H2, H3, H5, and joins the last two vertices of an H5 cell.  Take
# the depth-first search over every typed cell partition that gives the
# lowest free vertex v an H1 cell, then an H2 cell, then an H3 cell {v,
# u} for each later u in turn, then an H5 cell {v, u, w} for each later
# u < w, with the edge uw first (the tests keep it as the reference).
# Any multiset of cells fits on any set of free vertices of its size, so
# the first branch that reaches a multiset gives v the least class left
# in it, on v and the free vertices right after it: the search meets
# the layout first among the partitions of its multiset.  Two layouts
# first differ in the class of one cell, where the search tries the
# lower class first, so it meets the multisets in the lexicographic
# order of their sorted class names, the order in which the layouts
# come.  The family over the layouts is therefore the family over every
# typed cell partition, with the same members in the same order.


def _cell_layouts(k, classes):
    """Yield one typed cell partition of range(k) per multiset of
    ``classes`` (see the block comment above).

    Each item: list of (cell_tuple, class_name, internal_edges) where
    internal_edges is a tuple of slim edges inside the cell (only H5
    cells have one).
    """
    names = [cl for cl in _CELL_SHAPES if cl in classes]

    def rec(v, first, acc):
        if v == k:
            yield list(acc)
            return
        for j in range(first, len(names)):
            cl = names[j]
            size = _CELL_SHAPES[cl][0]
            if v + size > k:
                break  # the sizes grow along the class order
            cell = tuple(range(v, v + size))
            acc.append((cell, cl, (cell[1:],) if cl == "H5" else ()))
            yield from rec(v + size, j, acc)
            acc.pop()

    yield from rec(0, 0, [])


# One slot partition per multiset of blocks (McKay, J. Algorithms 26,
# 1998).  The search below assigns slot i to an existing block, in the
# order of the blocks' first slots, or else to a new block, so it meets
# the partitions in the lexicographic order of the block each slot gets.
# Two rules cut branches.
#
# (1) When slots i - 1 and i belong to one part, slot i goes only to a
# block after the one holding slot i - 1.  Take a partition P in which
# slot i joins an earlier block b, and swap slots i - 1 and i.  They own
# the same part, so every block keeps its part set, on which both the
# two conditions and the multiset depend: the result P' is a valid
# partition with the same multiset.  P' agrees with P before slot i - 1,
# and puts slot i - 1 into b, which is earlier than the block P puts it
# into (an existing one after b, or a new one).
#
# (2) A slot joins only the first of the existing blocks that hold one
# set of parts.  Take a partition P in which slot i joins a later block
# b2 with the same part set as an earlier block b1.  Each part of that
# set owns one slot in each of the two blocks; exchange those slots,
# part by part.  Again every slot keeps its part, so the result P' is a
# valid partition with the same multiset.  Before slot i it is the same
# set partition, since b1 and b2 only trade their contents, and at slot
# i it joins b1, which comes earlier.
#
# So every partition that a rule cuts has a twin with the same multiset
# that the unpruned search meets earlier, and the first partition of
# every multiset survives.  It is the only one.  The slots come part by
# part, so when a slot of part p is placed, each block holds the parts
# before p of its final part set (and p, in the block of p's first
# slot).  Let P be the first partition of a multiset and Q another, and
# let slot i of part p be the first that they place differently: into
# block b in P and c in Q.  P comes first, so b < c: b is not new, and
# it holds no slot of p.  P survives, so no block before b holds the
# same parts as b.
#
# - When p has one slot, it lies in the one block of the multiset that
#   holds p.  When i is p's second slot, the block of p's first slot,
#   which P and Q share, has the parts before p of one of p's two blocks
#   of the multiset, so slot i goes to a block with those of the other.
#   Either way b and c hold the same parts so far, and rule (2) cuts Q.
# - Otherwise i is p's first slot, and p's two blocks of the multiset
#   hold different parts before p, so Q puts p's second slot into a
#   block with b's parts so far.  Rule (1) cuts Q if that block is b,
#   which comes before c, and rule (2) if it is a later one.


def _slot_partitions(slot_parts):
    """Partition fat slots into blocks: at most one slot per part per
    block, and two parts never share more than one block.  Yields the
    blocks in the order of their first slots, each as the bitmask of the
    parts owning its slots, once per multiset of blocks (see the block
    comment above)."""
    nslots = len(slot_parts)
    blocks = []
    where = [0] * nslots
    # the parts that share a block with each part so far
    shared = [0] * (max(slot_parts, default=-1) + 1)

    def rec(i):
        if i == nslots:
            yield blocks[:]
            return
        p = slot_parts[i]
        bit = 1 << p
        start = where[i - 1] + 1 if i and slot_parts[i - 1] == p else 0
        seen = set()
        for bi, bp in enumerate(blocks):
            if bp in seen:
                continue
            seen.add(bp)
            if bi < start or bp & (bit | shared[p]):
                continue
            blocks[bi] = bp | bit
            shared[p] |= bp
            for q in _iter_bits(bp):
                shared[q] |= bit
            where[i] = bi
            yield from rec(i + 1)
            for q in _iter_bits(bp):
                shared[q] ^= bit
            shared[p] ^= bp
            blocks[bi] = bp
        where[i] = len(blocks)
        blocks.append(bit)
        yield from rec(i + 1)
        blocks.pop()

    yield from rec(0)


def sum_graphs(slim_count, classes=("H1", "H2", "H3", "H5"), component_count=None):
    """All sums K with parts from ``classes`` and ``slim_count`` slim
    vertices, one per isomorphism class; optionally filter by the number
    of connected components of K.

    Yields (graph, parts), parts a tuple of frozensets.  The family is
    built once per process and shared by every caller.
    """
    if not 0 <= slim_count <= 6:
        raise IndexOutOfRange("sum enumeration supports 0 <= slim_count <= 6")
    if component_count is not None and component_count < 0:
        raise HoffmanGraphError(f"component_count {component_count} is negative")
    unknown = sorted(set(classes) - _CELL_SHAPES.keys())
    if unknown:
        raise HoffmanGraphError(f"unknown part classes {unknown}: expected H1, H2, H3, H5")
    for g, parts, _autos in _sum_family(slim_count, frozenset(classes), component_count):
        yield g, parts


def _new_orbit(seen, x, images):
    """Whether ``x`` lies outside the orbits in ``seen``; if so, its orbit
    is added to ``seen``, found by applying ``images`` (a member to its
    images under the generators) until nothing new appears."""
    if x in seen:
        return False
    seen.add(x)
    orbit = [x]
    for member in orbit:
        for image in images(member):
            if image not in seen:
                seen.add(image)
                orbit.append(image)
    return True


# One slot partition per orbit of cell permutations.  A permutation s of
# the parts that keeps each part's class is the image of a permutation of
# the slim vertices that maps each cell onto a like cell, vertex by vertex
# in layout order (an H5 cell's edge onto the other's edge), so the sum of
# a multiset of blocks is isomorphic to that of the blocks with each part
# p replaced by s(p).  The transpositions of adjacent like cells generate
# those permutations; transposing parts p and p + 1 flips both bits of a
# block holding exactly one of them and leaves the others alone.  An
# orbit of multisets is closed under them, so ``_new_orbit`` finds it by
# applying them until nothing new appears.  The family keeps the first
# structure of each isomorphism class, and a later partition of an orbit
# gives a sum isomorphic to the first one's, with the same component
# count and canonical form: the form set would drop it.  So skipping
# every partition of an orbit met before keeps the same members in the
# same order; the form set still guards the members that different
# orbits give.


@functools.cache
def _sum_family(slim_count, classes, component_count):
    """(graph, parts, stored automorphisms) per member of ``sum_graphs``,
    the automorphisms from the labelling that found the member new."""
    if slim_count == 0:
        return ((EMPTY_GRAPH, (), []),) if component_count in (None, 0) else ()
    family = []
    seen = set()
    for cells in _cell_layouts(slim_count, classes):
        masks = [_mask_of(cell) for cell, _cls, _edges in cells]
        slim_rows = [0] * slim_count
        for _cell, _cls, edges in cells:
            for u, v in edges:
                slim_rows[u] |= 1 << v
                slim_rows[v] |= 1 << u
        slot_parts = [
            p for p, (_cell, cls, _edges) in enumerate(cells) for _ in range(_CELL_SHAPES[cls][1])
        ]
        # parts p and p + 1 of one class, as bitmasks (see the block
        # comment above)
        swaps = [3 << p for p in range(len(cells) - 1) if cells[p][1] == cells[p + 1][1]]

        def swapped(key):
            return [
                tuple(sorted(b ^ swap if (b & swap).bit_count() == 1 else b for b in key))
                for swap in swaps
            ]

        orbits = set()
        for blocks in _slot_partitions(slot_parts):
            # skip a partition that a cell permutation maps onto one met
            # before (see the block comment above)
            if not _new_orbit(orbits, tuple(sorted(blocks)), swapped):
                continue
            g, parts = _block_sum(slim_rows, masks, blocks)
            # filtered before the labelling, so only the members with
            # the asked-for component count are labelled: caching the
            # whole family per size and filtering in ``sum_graphs``
            # labels every member and made ``verify_table1`` 9-49 %
            # slower (4 of 4 pairs, 2 cores, Python 3.11)
            if component_count is not None:
                if len(g.connected_components()) != component_count:
                    continue
            form, _lab, autos = canonical_data(g)
            if form in seen:
                continue
            seen.add(form)
            family.append((g, parts, autos))
    return tuple(family)


def _compose(f_graph, k_graph, fat_map):
    """Glue F onto K: ``fat_map[i]`` is the K-fat vertex identified with
    F-fat i (indexed from F's first fat).  Vertices of the result: F slim,
    K slim, K fats.  F slim and K slim are the two cells of the sum.
    Raises SharedFatConflict when rule (iv) fails."""
    fs, ks = f_graph.slim_count, k_graph.slim_count
    slim_rows = list(f_graph.adj[:fs]) + [row << fs for row in k_graph.adj[:ks]]
    fat_nbhds = [k_graph.adj[kf] << fs for kf in range(ks, k_graph.n)]
    for fi, kf in enumerate(fat_map):
        fat_nbhds[kf - ks] |= f_graph.adj[fs + fi]
    cells = (f_graph.slim_mask, k_graph.slim_mask << fs)
    adj, _parts = _sum_adjacency(slim_rows, cells, fat_nbhds)
    return HoffmanGraph(fs + ks, len(fat_nbhds), adj, _checked=True)


# One gluing per orbit of fat maps (McKay, J. Algorithms 26, 1998).  A
# fat map m glues F's fat i onto K's fat m(i).  Let a be an automorphism
# of K and s one of F, which permutes F's fat positions.  The composition
# of a(m) is that of m with K's vertices renamed by a, and that of m(s)
# is that of m with F's slim vertices renamed by s: F's fat s(i) sees the
# image under s of what F's fat i sees.  Either renaming maps the cells,
# the slim edges inside them and every fat neighbourhood of the one
# structure onto those of the other, and rule (iv) derives the cross
# edges from them alone.  So the maps of one orbit under Aut(K) x Aut(F)
# give isomorphic compositions, or all raise SharedFatConflict, since a
# slim pair sharing two fat vertices in one is renamed onto such a pair
# in the other; connectivity and the canonical form are also constant on
# the orbit.  ``itertools.permutations`` of an ascending range gives the
# maps in lexicographic order, so the loop meets the least map of an
# orbit first.  When a loop over every map keeps a graph from an orbit,
# it is the least map's: any later map composes a graph that is
# disconnected or conflicting exactly when the least map's is, and
# otherwise has a form that the least map already put into the form set.
# So gluing only the least map of each orbit gives the same graphs in the
# same order; the form set still guards the graphs that different orbits
# and different sums K give.  No two maps glued compose the same
# adjacency: such maps differ by a permutation of F's fat vertices with
# equal neighbourhoods (each has a slim neighbour), an automorphism of F.
# An orbit is closed under the generators, the stored automorphisms of
# K, kept with it by ``_sum_family``, and those of F's labelling, so
# ``_new_orbit`` finds it by applying them until nothing new appears.


def enumerate_sums(
    f_graph,
    slim_count_k,
    classes=("H1", "H2", "H3", "H5"),
    component_count_k=None,
):
    """Isomorphism classes of connected G = F (+) K.

    K ranges over sums of parts from ``classes`` with ``slim_count_k``
    slim vertices and, when given, ``component_count_k`` connected
    components; every fat vertex of F is identified with a fat vertex of
    K (the fat set of F embeds into that of K) in all ways compatible
    with the sum conditions.  Gluings that would make a slim pair share
    two fat vertices are skipped, not raised.  Only the least fat map of
    each orbit under the automorphisms of K and F is glued (see the block
    comment above).  The arguments of K are checked by ``sum_graphs``
    before any work.
    """
    seen = set()
    family = None
    for i, (k_graph, _parts) in enumerate(sum_graphs(slim_count_k, classes, component_count_k)):
        if family is None:
            # ``sum_graphs`` has checked the arguments and built the
            # family, whose members carry their stored automorphisms;
            # those of F act on its fat positions
            family = _sum_family(slim_count_k, frozenset(classes), component_count_k)
            fs = f_graph.slim_count
            f_autos = [
                [a[fs + j] - fs for j in range(f_graph.fat_count)]
                for a in canonical_data(f_graph)[2]
            ]
        k_autos = family[i][2]

        def moved(fat_map):
            return [tuple(a[kf] for kf in fat_map) for a in k_autos] + [
                tuple(fat_map[j] for j in a) for a in f_autos
            ]

        kfats = range(k_graph.slim_count, k_graph.n)
        orbits = set()
        # with no fat vertex in F, the one gluing is the empty tuple
        for fat_map in itertools.permutations(kfats, f_graph.fat_count):
            # glue only the least map of each orbit (see the block
            # comment above)
            if not _new_orbit(orbits, fat_map, moved):
                continue
            try:
                g = _compose(f_graph, k_graph, fat_map)
            except SharedFatConflict:
                continue
            if not g.is_connected():
                continue
            form = canonical_form(g)
            if form in seen:
                continue
            seen.add(form)
            yield g
