"""Small constructors and checks that only the tests use."""

import itertools
import re
import sys

from hoffline import core
from hoffline.core import (
    HoffmanGraph,
    HoffmanGraphError,
    _find,
    _iter_bits,
    _mask_of,
    _orbit_forest,
    canonical_data,
)
from hoffline.families import TranscriptionMissing, family_graph


def slim_complete(n):
    return HoffmanGraph.build(n, 0, itertools.combinations(range(n), 2))


def slim_cycle(n):
    return HoffmanGraph.build(n, 0, [(i, (i + 1) % n) for i in range(n)])


def slim_path(n):
    return HoffmanGraph.build(n, 0, [(i, i + 1) for i in range(n - 1)])


def embedding_nodes(pairs):
    """The search nodes that ``find_embedding`` visits over the
    (pattern, host) pairs: the calls of its inner ``rec``, counted by a
    profile hook, so the count holds no timing."""
    rec = next(c for c in core.find_embedding.__code__.co_consts if getattr(c, "co_name", None) == "rec")
    nodes = 0

    def count(frame, event, arg):
        nonlocal nodes
        if event == "call" and frame.f_code is rec:
            nodes += 1

    sys.setprofile(count)
    try:
        for pattern, host in pairs:
            core.find_embedding(pattern, host)
    finally:
        sys.setprofile(None)
    return nodes


def relabeled(g, perm):
    """Copy of ``g`` with vertex ``v`` renamed to ``perm[v]``.

    ``perm`` must map slim vertices to slim indices and fat to fat.
    """
    n = g.n
    adj = [0] * n
    for v in range(n):
        for u in _iter_bits(g.adj[v]):
            adj[perm[v]] |= 1 << perm[u]
    return HoffmanGraph(g.slim_count, g.fat_count, adj)


def automorphism_orbits(g, autos=None):
    """Vertex orbits of the colour-preserving automorphism group, sorted:
    the trees of ``_orbit_forest`` over the automorphisms that the
    canonical search of ``g`` stores, or over ``autos`` when the caller
    has them already."""
    if autos is None:
        autos = canonical_data(g)[2]
    parent = _orbit_forest(g.n, autos)
    groups = {}
    for v in range(g.n):
        groups.setdefault(_find(parent, v), []).append(v)
    return sorted(groups.values())


class DifferentBase(HoffmanGraphError):
    """The two covers do not cover the same graph."""


def covers_equivalent(a, b):
    """Equivalence of two strict covers of the same graph.

    With every covered vertex pinned, an isomorphism between covers is a
    fat-vertex bijection matching slim neighbourhoods, so equivalence is
    equality of fat-neighbourhood multisets.
    """
    if a.base != b.base:
        raise DifferentBase("covers of different graphs")
    return cover_class(a)[1] == cover_class(b)[1]


def cover_class(cover):
    """(cells, fats) of a strict cover: the slim masks of its parts by
    least vertex and the sorted slim neighbourhoods of its fat vertices,
    the form ``recognition._extensions`` works on."""
    host, s = cover.host, cover.host.slim_count
    cells = sorted((_mask_of(v for v in p if v < s) for p in cover.parts), key=lambda m: m & -m)
    return tuple(cells), tuple(sorted(host.adj[f] & host.slim_mask for f in range(s, host.n)))


def have_family_graph(name: str) -> bool:
    try:
        family_graph(name)
        return True
    except TranscriptionMissing:
        return False


#: the progress lines of ``build_catalog(9)`` without their timings: the
#: candidates that the minimality phase tests at each size (the
#: children of the line graphs one size down that pass the degree test,
#: with no orbit test, and have no cover class) and the members found
CATALOG_PROGRESS = (
    "n=5: 3 candidates, 2 minimal forbidden",
    "n=6: 61 candidates, 28 minimal forbidden",
    "n=7: 408 candidates, 7 minimal forbidden",
    "n=8: 2680 candidates, 1 minimal forbidden",
    "n=9: 18032 candidates, 0 minimal forbidden",
)


def untimed(lines):
    """Progress lines with their `` (x.ys)`` suffix, which each must
    carry, cut off."""
    cut = [re.fullmatch(r"(.*) \(\d+\.\ds\)", line) for line in lines]
    assert all(cut), lines
    return tuple(m.group(1) for m in cut)
