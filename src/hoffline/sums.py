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
and sharing two or more is an error.  The compositions F (+) K of
``enumeration`` and the strict covers of ``recognition`` call it
directly.  When every fat vertex sees whole cells, as in the sums K of
``enumeration``, a fat vertex is the bitmask of the parts it spans and
``_block_sum`` builds the host from those blocks.

``validate_sum`` does not reuse that builder: it checks rule (iv) by
its definition, pair by pair, so a fault in ``_sum_adjacency`` shows up
as a rejected host instead of being derived a second time.
"""

from __future__ import annotations

import itertools

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
    # rule (iv) by its definition, pair by pair
    for a, b in itertools.combinations(slim_sets, 2):
        for x in a:
            fx = host.fat_neighbors(x)
            for y in b:
                common = (fx & host.fat_neighbors(y)).bit_count()
                if common > 1 or (common == 1) != host.adjacent(x, y):
                    return False, "iv"
    return True, None


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
