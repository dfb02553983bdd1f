"""Sums of Hoffman graphs.

A Hoffman graph H is the *sum* of subgraphs H^1, ..., H^n when

  (i)   the vertex sets of the parts cover V(H);
  (ii)  the slim vertex sets of the parts are pairwise disjoint;
  (iii) every fat neighbour of a slim vertex of a part lies in that part;
  (iv)  slim vertices in different parts have at most one common fat
        neighbour, and exactly one iff they are adjacent.

Parts overlap only in fat vertices.  Because of (iii) a part is always
the closure of its slim cell (the slim vertices together with all their
fat neighbours), so a decomposition is stored as a partition of the slim
vertices; all four conditions reduce to bitmask intersections on the
host.

Every sum host in the package is built by one function,
``_sum_adjacency``: given the slim edges inside each part, the slim cell
of each part and the slim neighbourhood of each fat vertex, it *derives*
the cross-part slim adjacency from rule (iv) — two slim vertices in
different parts become adjacent exactly when they share one fat vertex,
and sharing two or more is an error.  ``build_sum`` (glued components),
the compositions F (+) K of ``enumeration``, the strict covers and the
vertex deletion of ``recognition`` and ``validate_sum``, which checks
rule (iv) by deriving the slim adjacency of the host again, call it
directly.  When every fat vertex sees whole cells, as in the sums K of
``enumeration``, a fat vertex is the bitmask of the parts it spans and
``_block_sum`` builds the host from those blocks.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .core import (
    HoffmanGraph,
    HoffmanGraphError,
    IndexOutOfRange,
    _iter_bits,
    _mask_of,
)


class SharedFatConflict(HoffmanGraphError):
    """Two slim vertices in different parts share two or more fat
    vertices."""


@dataclass(frozen=True)
class SumDecomposition:
    """A host graph with the vertex subsets of its summands.

    Parts are stored sorted by their least slim vertex, so decompositions
    compare as sets of parts.
    """

    host: HoffmanGraph
    parts: tuple[frozenset[int], ...]

    @staticmethod
    def normalized(host, parts):
        ordered = sorted(
            (frozenset(p) for p in parts),
            key=lambda p: min(
                (v for v in p if v < host.slim_count), default=host.n
            ),
        )
        return SumDecomposition(host, tuple(ordered))

    def to_json(self):
        doc = {
            "host": {
                "slim_count": self.host.slim_count,
                "fat_count": self.host.fat_count,
                "edges": sorted(self.host.edges()),
            },
            "parts": [sorted(p) for p in self.parts],
        }
        return json.dumps(doc, sort_keys=True)


def validate_sum(host, parts):
    """Check conditions (i)-(iv); returns (ok, first_violated_or_None).

    ``parts`` is an iterable of vertex subsets of the host.
    """
    parts = [frozenset(p) for p in parts]
    n = host.n
    for p in parts:
        for v in p:
            if not 0 <= v < n:
                raise IndexOutOfRange(f"part vertex {v} outside host")
    covered = set().union(*parts) if parts else set()
    if covered != set(range(n)):
        return False, "i"
    slim = host.slim_count
    slim_sets = [frozenset(v for v in p if v < slim) for p in parts]
    seen = set()
    for s in slim_sets:
        if s & seen:
            return False, "ii"
        seen |= s
    part_masks = [_mask_of(p) for p in parts]
    for p, mask in zip(parts, part_masks):
        for v in p:
            if v < slim and host.fat_neighbors(v) & ~mask:
                return False, "iii"
    # rule (iv) holds iff no two slim vertices of different parts share
    # two fat vertices and those sharing one are exactly the adjacent ones
    try:
        adj, _parts = _sum_adjacency(
            host.adj[:slim], [_mask_of(c) for c in slim_sets], host.adj[slim:]
        )
    except SharedFatConflict:
        return False, "iv"
    if tuple(adj[:slim]) != host.adj[:slim]:
        return False, "iv"
    return True, None


def build_sum(components, fat_glue=()):
    """Assemble the sum of ``components`` with fat vertices identified.

    ``fat_glue`` is an iterable of groups; each group is a collection of
    ``(component_index, fat_vertex)`` pairs that become a single fat
    vertex of the host.  Ungrouped fat vertices stay private to their
    component.  Cross-component slim adjacency is derived from rule (iv).

    Raises HoffmanGraphError when a group holds two fat vertices of one
    component (merging them would change that component), and
    SharedFatConflict when two slim vertices of different components
    would share two fat vertices.
    """
    components = list(components)
    groups = [list(g) for g in fat_glue]
    used = set()
    for g in groups:
        if len(g) < 2:
            raise HoffmanGraphError("a glue group needs at least two fat vertices")
        group_comps = set()
        for ci, fv in g:
            if not 0 <= ci < len(components):
                raise IndexOutOfRange(f"no component {ci}")
            comp = components[ci]
            if not comp.slim_count <= fv < comp.n:
                raise IndexOutOfRange(f"{fv} is not a fat vertex of component {ci}")
            if (ci, fv) in used:
                raise HoffmanGraphError(f"fat vertex ({ci},{fv}) glued twice")
            if ci in group_comps:
                raise HoffmanGraphError(
                    f"a glue group holds two fat vertices of component {ci}"
                )
            used.add((ci, fv))
            group_comps.add(ci)

    offsets = []
    next_slim = 0
    for comp in components:
        offsets.append(next_slim)
        next_slim += comp.slim_count
    slim_rows = [
        row << off for comp, off in zip(components, offsets) for row in comp.adj[: comp.slim_count]
    ]
    cells = [comp.slim_mask << off for comp, off in zip(components, offsets)]
    fat_nbhds = [0] * len(groups)
    for gi, g in enumerate(groups):
        for ci, fv in g:
            fat_nbhds[gi] |= components[ci].adj[fv] << offsets[ci]
    for ci, comp in enumerate(components):
        for fv in range(comp.slim_count, comp.n):
            if (ci, fv) not in used:
                fat_nbhds.append(comp.adj[fv] << offsets[ci])
    adj, parts = _sum_adjacency(slim_rows, cells, fat_nbhds)
    host = HoffmanGraph(next_slim, len(fat_nbhds), adj)
    return host, SumDecomposition.normalized(host, parts)


def _sum_adjacency(slim_rows, cells, fat_nbhds):
    """Host adjacency rows and part vertex sets of a sum, by rule (iv).

    ``slim_rows`` holds each slim vertex's neighbours, of which only
    those in its own part are read, ``cells`` the slim mask of each part,
    and ``fat_nbhds`` the
    slim neighbourhood of each fat vertex in host order (fat ``i`` is
    host vertex ``len(slim_rows) + i``).  Slim vertices of different
    parts become adjacent when a fat vertex sees both; a pair derived a
    second time shares two fat vertices and raises SharedFatConflict.
    A part is its cell plus every fat vertex meeting the cell.
    """
    s = len(slim_rows)
    part_of = [0] * s
    for p, c in enumerate(cells):
        for v in _iter_bits(c):
            part_of[v] = p
    adj = [row & cells[part_of[x]] for x, row in enumerate(slim_rows)] + list(fat_nbhds)
    cross = [0] * s
    part_masks = list(cells)
    for i, nbhd in enumerate(fat_nbhds):
        bit = 1 << (s + i)
        for x in _iter_bits(nbhd):
            p = part_of[x]
            derived = nbhd & ~cells[p]
            shared = cross[x] & derived
            if shared:
                raise SharedFatConflict(
                    f"slim vertices {x} and {shared.bit_length() - 1} share"
                    " two or more fat vertices"
                )
            cross[x] |= derived
            adj[x] |= bit
            part_masks[p] |= bit
    for x in range(s):
        adj[x] |= cross[x]
    return adj, [frozenset(_iter_bits(m)) for m in part_masks]


def _block_sum(slim_rows, cells, blocks):
    """(host, parts) of the sum whose parts have the slim masks ``cells``
    and whose fat vertices, in host order, span the parts in each bitmask
    of ``blocks``; ``slim_rows`` as for ``_sum_adjacency``."""
    # the cells are disjoint, so a block's neighbourhood is their sum
    fat_nbhds = [sum(cells[p] for p in _iter_bits(block)) for block in blocks]
    adj, parts = _sum_adjacency(slim_rows, cells, fat_nbhds)
    return HoffmanGraph(len(slim_rows), len(blocks), adj, _checked=True), tuple(parts)
