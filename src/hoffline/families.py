"""The small named Hoffman graphs shipped with the package.

Two families of named graphs drive everything else:

  * ``H1 .. H9`` — the basic hosts.  The recognition family is
    {H2, H3, H5}; H1 shows up when restricting covers to slim subsets.
    H1, H2, H3 and H5 are pinned completely by structural facts (H2 has a
    unique slim vertex with two fat neighbours; H3 is a non-adjacent slim
    pair sharing one fat vertex; H5 is a slim triple on a common fat
    vertex carrying exactly one slim edge).  H4 and H6-H9 play no role in
    any computation here; the shipped files are reconstructions chosen as
    the smallest graphs matching their published smallest-eigenvalue
    labels and can be replaced by figure transcriptions at any time.

  * ``F1 .. F9`` — the fat obstructions used by the sum-composition
    checks.  These are *derived*, not transcribed: each is the output of
    one of the three fat-graph lemmas of :mod:`hoffline.verify` on
    generated fat graphs, with the naming fixed by structural pins
    (fat counts and fat degrees for F1/F3/F4) and by matching the
    composition table's occurrence profiles (F6/F7/F9).  The test suite
    re-derives them from scratch and compares against these files.

Graphs are stored under ``data/`` in the plain text format of
:meth:`hoffline.core.HoffmanGraph.to_text` and loaded lazily; asking for a
name whose file is absent raises :class:`TranscriptionMissing`.
"""

from __future__ import annotations

from importlib import resources

from .core import HoffmanGraph, HoffmanGraphError


class TranscriptionMissing(HoffmanGraphError):
    """A named graph's data file is not present."""


H_NAMES = tuple(f"H{i}" for i in range(1, 10))
F_NAMES = tuple(f"F{i}" for i in range(1, 10))

_cache: dict[str, HoffmanGraph] = {}


def family_graph(name: str) -> HoffmanGraph:
    """The named graph (``H1``..``H9``, ``F1``..``F9``) from ``data/``."""
    key = name.upper()
    if key not in H_NAMES and key not in F_NAMES:
        raise KeyError(f"unknown family graph {name!r}")
    if key not in _cache:
        path = resources.files("hoffline").joinpath(f"data/{key.lower()}.hg")
        try:
            text = path.read_text()
        except FileNotFoundError:
            raise TranscriptionMissing(
                f"no data file for {key}; add data/{key.lower()}.hg"
            ) from None
        _cache[key] = HoffmanGraph.from_text(text)
    return _cache[key]


def classify_part(g: HoffmanGraph):
    """Name the class of a sum component: H1, H2, H3 or H5, else ``None``.

    These four are distinguished by their slim/fat counts alone once the
    structure is valid, but the adjacency is checked anyway.
    """
    s, f = g.slim_count, g.fat_count
    if (s, f) == (1, 1):
        return "H1" if g.edge_count() == 1 else None
    if (s, f) == (1, 2):
        return "H2" if g.edge_count() == 2 else None
    if (s, f) == (2, 1):
        ok = g.adjacent(0, 2) and g.adjacent(1, 2) and not g.adjacent(0, 1)
        return "H3" if ok else None
    if (s, f) == (3, 1):
        if not all(g.adjacent(v, 3) for v in range(3)):
            return None
        slim_edges = [(u, v) for u in range(3) for v in range(u + 1, 3) if g.adjacent(u, v)]
        return "H5" if len(slim_edges) == 1 else None
    return None
