"""Reproduction suite: the forbidden-subgraph catalog and claim checkers.

The central object is the catalog of minimal forbidden subgraphs for the
class of slim {H2, H3, H5}-line graphs: connected slim graphs that are
not line graphs of the family although every one-vertex-deleted induced
subgraph is.  ``build_catalog`` derives it from scratch for
5 <= n <= n_max over line-graph layers: generation extends only the line
graphs of each size, which is exhaustive because the class is hereditary
(see ``_layer``).  Each layer is built once per process and kept, as
graphs with no canonical form, in a store keyed by its size, which
``verify_eigen_claims`` and ``verify_cover_uniqueness`` read as well;
the children of a size are recognized apart (``_children``) and
labelled only when the layer is read, so the build never labels the
line children of its last size.  The build cross-checks two independent
minimality filters (containment of a smaller member versus recognition
of one-vertex deletions) on every candidate, sharing work across
candidates: a candidate tries the members embedded in its siblings
first and then the member that last embedded, and a deletion is
recognized from the classes of its parent less one vertex, found once
per (parent, vertex) or read from the store for the parent's last one.
It attaches per-member certificates: a strict cover of every one-vertex
deletion and a certified smallest-eigenvalue interval with its
threshold verdict.  ``_member`` is the one code path that makes a
member with its canonical form and certificates, and it checks the
definition on the way: the member has no strict cover and each of its
one-vertex deletions has one.  The build calls it on every candidate
that passes containment, and ``MfsCatalog.load`` calls it on every
stored graph6 string and refuses a catalog whose witness files differ
from what it derives, so no stored certificate and no stored member is
trusted.

``screen`` decides line-graph membership purely by forbidden-subgraph
containment, which the test suite checks against ``is_h_line`` on every
connected graph up to 7 vertices.

The ``verify_*`` functions reproduce the published computational claims:
per-size counts of the catalog (2 / 28 / 7 / 1 / 0 for n = 5..9), the
spectral dichotomy (exactly one member, on 5 vertices, has smallest
eigenvalue below -1-sqrt(2)), cover uniqueness at n >= 8, the three
constrained fat-graph enumerations, and the composition table.

The composition table needs a correspondence between the published
member names (G5,1 .. G8,1) and computed canonical forms.  The published
numbering is not derivable from the catalog itself, but the table pins
it: each name's *row signature* (the set of rows listing it) must match
the computed occurrence signature of its form, and the one 5-vertex name
singled out spectrally identifies itself.  ``verify_table1`` solves this
correspondence by counting signature classes.  Two rows of the published
table (c and d) list fewer members than actually occur under the stated
row constraints; the checker verifies the guarantee itself (every
composed graph contains some catalog member), verifies the signature
structure restricted to the five clean rows, and reports the extra
occurrences of rows c/d exactly.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import time
from collections import Counter
from dataclasses import dataclass, field

from .core import (
    HoffmanGraph,
    HoffmanGraphError,
    _iter_bits,
    _mask_of,
    canonical_form,
    find_embedding,
)
from .enumeration import (
    _canonical_autos,
    _extend,
    _kept_children,
    _slim_graphs,
    all_slim_graphs,
    connected_slim_graphs,
    enumerate_sums,
    fat_hoffman_graphs,
    parse_graph6,
    write_graph6,
)
from .families import classify_part, family_graph
from .recognition import _classes, _extensions, is_h_line
from .spectral import (
    EigenInterval,
    Verdict,
    char_poly,
    compare_threshold,
    count_eigenvalues_below_threshold,
    equals_threshold,
    smallest_eigenvalue,
    special_matrix,
)


class IncompleteCatalog(HoffmanGraphError):
    """The catalog does not reach the size needed for screening."""


#: the largest catalog size: by the paper's theorem no minimal forbidden
#: subgraph has more than 9 vertices
N_MAX = 9


# ---------------------------------------------------------------------------
# Catalog
# ---------------------------------------------------------------------------


@dataclass
class CatalogEntry:
    graph: HoffmanGraph
    form: bytes
    eigen: EigenInterval
    verdict: Verdict
    equals_threshold: bool
    witnesses: dict  # deleted vertex -> strict cover json dict of the deletion


def _member(g):
    """The catalog entry of ``g``, a minimal forbidden subgraph: its
    canonical form, a strict cover of every one-vertex deletion as its
    witness, and its certified smallest eigenvalue with the threshold
    verdict.  A cover of ``g``, or a deletion with no cover, raises
    ``HoffmanGraphError``: ``g`` is no minimal forbidden subgraph then.
    Connectedness follows, since each component of a disconnected ``g``
    lies in a deletion, and a union of line graphs is one."""
    if is_h_line(g) is not None:
        raise HoffmanGraphError("a line graph is no forbidden subgraph: " + write_graph6(g))
    deletions = {}
    for v in range(g.n):
        cover = is_h_line(g.delete_slim({v}))
        if cover is None:
            raise HoffmanGraphError("minimality filters disagree on " + write_graph6(g))
        deletions[v] = cover.to_json_dict()
    interval = smallest_eigenvalue(g)
    return CatalogEntry(
        graph=g,
        form=canonical_form(g),
        eigen=interval,
        verdict=compare_threshold(interval),
        equals_threshold=equals_threshold(interval),
        witnesses=deletions,
    )


def _member_doc(entry):
    """The witness file of ``entry``, as ``json.load`` reads it back."""
    return {
        "graph6": write_graph6(entry.graph),
        "eigen": {
            "lower": str(entry.eigen.lower),
            "upper": str(entry.eigen.upper),
            "char_poly": list(entry.eigen.poly),
            "verdict": entry.verdict.value,
            "equals_threshold": entry.equals_threshold,
        },
        "deletions": {str(v): w for v, w in sorted(entry.witnesses.items())},
    }


@dataclass
class MfsCatalog:
    """Minimal forbidden subgraphs by size, with certificates."""

    n_max: int
    entries: dict[int, list[CatalogEntry]] = field(default_factory=dict)

    def members(self):
        return [e for n in sorted(self.entries) for e in self.entries[n]]

    def counts(self):
        return {n: len(es) for n, es in sorted(self.entries.items())}

    def total(self):
        return sum(len(es) for es in self.entries.values())

    def checksum(self):
        """SHA-256 over all that ``catalog.json`` states: ``n_max`` and
        the member count of each size, then the members' forms."""
        h = hashlib.sha256(json.dumps([self.n_max, sorted(self.counts().items())]).encode())
        for e in sorted(self.members(), key=lambda e: (e.graph.n, e.form)):
            h.update(e.form)
        return h.hexdigest()

    # -- persistence: catalog.json + witness/ ----------------------------

    def save(self, directory):
        """Write what ``load`` reads and nothing else: ``catalog.json``
        (``n_max``, ``counts``, ``checksum``) and, per member, its graph6
        and certificates in ``witness/mfs{n}_{i}.json``."""
        try:
            wdir = os.path.join(directory, "witness")
            os.makedirs(wdir, exist_ok=True)
            for n, entries in sorted(self.entries.items()):
                for i, e in enumerate(entries):
                    with open(os.path.join(wdir, f"mfs{n}_{i}.json"), "w") as fh:
                        json.dump(_member_doc(e), fh, indent=1, sort_keys=True)
            meta = {
                "n_max": self.n_max,
                "counts": {str(n): c for n, c in self.counts().items()},
                "checksum": self.checksum(),
            }
            with open(os.path.join(directory, "catalog.json"), "w") as fh:
                json.dump(meta, fh, indent=1, sort_keys=True)
        except OSError as exc:
            raise HoffmanGraphError(f"cannot write catalog {directory}: {exc!r}") from None

    @staticmethod
    def load(directory):
        """Read a catalog that ``save`` wrote, trusting none of its
        certificates: each member is derived again from its graph6 by
        ``_member``, the code that built it, and the catalog is refused
        with ``HoffmanGraphError`` unless every witness file equals the
        derived one.  ``_member`` re-checks minimality by definition (no
        cover of the member, one of each deletion), and no two members may
        share a canonical form.  ``counts`` must give
        an int >= 0, not a bool, for each size 5 to ``n_max`` <= ``N_MAX``, and
        the checksum must match ``n_max``, ``counts`` and the member forms.
        Other files, such as the ``g6/`` copies and the ``total`` that
        older versions wrote, are ignored."""
        try:
            with open(os.path.join(directory, "catalog.json")) as fh:
                meta = json.load(fh)
            n_max, counts = meta["n_max"], meta["counts"]
            # ``screen`` trusts n_max for completeness; sizes the build
            # does not support are refused before any member is read
            if type(n_max) is not int or not 5 <= n_max <= N_MAX:
                raise HoffmanGraphError(
                    f"unreadable catalog {directory}: n_max must be an integer "
                    f"from 5 to {N_MAX}, got {n_max!r}"
                )
            if not isinstance(counts, dict) or {
                size: type(count) for size, count in counts.items()
            } != {str(n): int for n in range(5, n_max + 1)} or min(counts.values()) < 0:
                raise HoffmanGraphError(
                    f"unreadable catalog {directory}: counts must be ints >= 0 "
                    f"for sizes 5 to {n_max}"
                )
            cat = MfsCatalog(n_max=n_max)
            forms = set()
            for n in range(5, n_max + 1):
                entries = []
                for i in range(counts[str(n)]):
                    with open(os.path.join(directory, "witness", f"mfs{n}_{i}.json")) as fh:
                        doc = json.load(fh)
                    g = parse_graph6(doc["graph6"])
                    if g.n != n:
                        raise HoffmanGraphError(
                            f"catalog {directory}: mfs{n}_{i} has {g.n} vertices"
                        )
                    entry = _member(g)
                    if _member_doc(entry) != doc:
                        raise HoffmanGraphError(
                            f"catalog {directory}: the certificates of mfs{n}_{i} "
                            "differ from the ones derived from its graph6"
                        )
                    if entry.form in forms:
                        raise HoffmanGraphError(
                            f"catalog {directory}: mfs{n}_{i} repeats the class of an earlier member"
                        )
                    forms.add(entry.form)
                    entries.append(entry)
                cat.entries[n] = entries
            if cat.checksum() != meta["checksum"]:
                raise HoffmanGraphError("catalog checksum mismatch")
        except (
            OSError, KeyError, TypeError, ValueError, AttributeError, RecursionError,
        ) as exc:
            raise HoffmanGraphError(f"unreadable catalog {directory}: {exc!r}") from None
        return cat


#: n -> ``_children(n)``, filled on first use
_CHILDREN = {}
#: n -> ``_layer(n)``, filled on first use
_LAYERS = {}


def _children(n):
    """The children on n >= 2 vertices of the line graphs one size down,
    recognized but not labelled: per parent, in the order of
    ``_layer(n - 1)[0]``, a pair of tuples, (child, allowed, classes)
    for each child that has a cover class, with its allowed deletion
    targets, and the children with none, the candidates.

    Each child that passes the degree test of
    ``enumeration._kept_children`` is recognized here, and nothing is
    labelled: ``_layer`` labels the line children of a size only when it
    is read, by the next size, the audits or ``verify_eigen_claims``.
    ``build_catalog(n_max)`` reads the candidates of size n_max from
    here, so the line children of that size are never labelled.
    """
    children = _CHILDREN.get(n)
    if children is None:
        children = []
        parents, _, parent_classes, parent_autos = _layer(n - 1)
        for parent, known, generators in zip(parents, parent_classes, parent_autos):
            line, non_line = [], []
            for child, allowed in _kept_children(parent, generators):
                found = tuple(_extensions(known, n - 1, child.adj[n - 1]))
                if found:
                    line.append((child, allowed, found))
                else:
                    non_line.append(child)
            children.append((tuple(line), tuple(non_line)))
        children = _CHILDREN[n] = tuple(children)
    return children


def _layer(n):
    """(line, candidates, classes, autos) for n vertices: the children of
    the line graphs on n - 1 vertices that have a strict cover; per
    parent, in the order of ``_layer(n - 1)[0]``, the tuple of its
    children with none; then, in the order of ``line``, the cover classes
    of each line graph as tuples of (cells, fats), and the automorphisms
    stored by its canonical labelling, from which the next layer extends
    it.  No canonical form is kept: ``_member`` labels the members again.

    Why this reaches every line graph and minimal forbidden subgraph on
    n vertices (McKay's prune, J. Algorithms 26, 1998): a child is made
    only from its canonical parent, the child minus a non-cut vertex;
    every one-vertex deletion of a minimal forbidden subgraph is a line
    graph, and every induced subgraph of a line graph is one.

    A child is its parent plus one last vertex, so its classes are read
    from the parent's by ``recognition._extensions``, which runs the
    deletion lemma backwards and finds every class of the child with
    mask tests alone.  A child with no class is no line graph.  Layer 1
    is K1, whose one class is the extension of the empty graph's class
    ``((), ())``.

    The children are recognized by ``_children``, and only the line
    children are labelled, here.  Each child that passes the degree test
    of ``enumeration._kept_children`` is recognized first, and only a
    child with a class goes on to the labelling and orbit test of
    ``_canonical_autos``; so ``line`` is what ``_canonical_children``
    gives.  Every other child that passes the degree test becomes a
    candidate unlabelled, with no orbit test, which ``build_catalog`` can
    afford:

    - The candidates are a superset of those the orbit test would keep,
      so they still hold every minimal forbidden subgraph on n vertices.
    - A candidate g that fails the orbit test has its canonical parent,
      g less the target, among its deletions.  If that deletion is a
      line graph, g is also its accepted child, so g's class was a
      candidate before; if not, g is not minimal, and containment finds
      a smaller member in that deletion.
    - The parent it came from is a line graph either way, so the image
      of every member embedded in it holds the new vertex n - 1, which
      ``build_catalog`` checks.
    - A minimal forbidden subgraph can be a candidate twice: accepted
      from one neighbourhood orbit and kept untested from another, of
      the same parent or another.  That happens 8 times for n <= 7, so
      ``build_catalog`` keeps one member per canonical form.

    Each layer is built once per process and shared by ``build_catalog``,
    ``verify_eigen_claims`` and ``verify_cover_uniqueness``.
    """
    layer = _LAYERS.get(n)
    if layer is None:
        if n == 1:
            k1, autos = next(_slim_graphs(1, True))
            k1_classes = tuple(_extensions([((), ())], 0, 0))
            layer = (k1,), (), (k1_classes,), (autos,)
        else:
            line, classes, autos = [], [], []
            children = _children(n)
            for line_children, _ in children:
                for child, allowed, found in line_children:
                    child_autos = _canonical_autos(child, allowed)
                    if child_autos is not None:
                        line.append(child)
                        classes.append(found)
                        autos.append(child_autos)
            candidates = tuple(non_line for _, non_line in children)
            layer = tuple(line), candidates, tuple(classes), tuple(autos)
        _LAYERS[n] = layer
    return layer


def _parent_classes(n):
    """The cover classes of the parent of each line graph on n >= 2
    vertices, in the order of ``_layer(n)[0]``.  A line graph P on n
    vertices was made from its parent by adding vertex n - 1, so
    P - (n - 1), with the same labels, is a line graph on n - 1 vertices
    of the store, whose classes it holds."""
    line, _, classes, _ = _layer(n - 1)
    by_graph = {g.adj: k for g, k in zip(line, classes)}
    return [by_graph[g.delete_slim({n - 1}).adj] for g in _layer(n)[0]]


def _first_contained(g, members):
    """(member, embedding into ``g``) for the first of ``members`` that
    embeds, which then moves to the front of the list, or None.
    Containment is an existence test, so the order decides only which
    member is found; trying the last one found first (move-to-front,
    Sleator & Tarjan, CACM 28, 1985) suits candidates that come grouped
    by parent."""
    for i, m in enumerate(members):
        embedding = find_embedding(m.graph, g)
        if embedding is not None:
            members.insert(0, members.pop(i))
            return m, embedding
    return None


def _sibling_embedding(g, found):
    """An embedding into the candidate ``g`` of a member found for a
    sibling, or None.  ``found`` holds [member, embedding, image, trace,
    rows] for the siblings of ``g``, its parent P plus a new vertex
    w = n - 1: the image of the embedding as a bitmask, the neighbours of
    the sibling's w in it, and the member's rows mapped through the
    embedding, None until a trace first matches and then kept, since
    siblings share an embedding many times.

    Two siblings are P plus w with different neighbourhoods, so they
    agree on every pair of vertices but those at w.  When the image of
    an embedding into a sibling holds w, as it must (see
    ``build_catalog``), and g's w sees the same vertices of the image,
    they agree on every pair inside the image, and the map is an induced
    embedding into g as well.  It is checked edge by edge all the same,
    so containment keeps resting on the members alone.
    """
    nbhd = g.adj[g.n - 1]
    for entry in found:
        m, embedding, image, trace, rows = entry
        if nbhd & image != trace:
            continue
        if rows is None:
            rows = entry[4] = [
                _mask_of(embedding[j] for j in _iter_bits(row)) for row in m.graph.adj
            ]
        if all(g.adj[x] & image == row for x, row in zip(embedding, rows)):
            return embedding
    return None


def _deletion_classes(parent, g, u, below):
    """The cover classes of ``g - u``, for a candidate ``g`` of the
    layer store, its line-graph parent P and a vertex ``u`` of P.

    ``g`` is P + w with w = ``P.n``, so ``g - u`` is (P - u) + w.  The
    classes of P - u are found once per u and kept in ``below``, one
    dict per parent; those of ``g - u`` are their extensions by w, and
    ``_extensions`` is exact for any P + v (the block comment above it).
    ``build_catalog`` seeds ``below`` with the classes of P less its last
    vertex, its own parent, which the layer store holds
    (``_parent_classes``), so that u costs no search.
    """
    classes = below.get(u)
    if classes is None:
        classes = below[u] = _classes(parent, parent.slim_mask & ~(1 << u), [])
    return _extensions(classes, parent.n, g.adj[parent.n] & ~(1 << u))


def build_catalog(n_max, jobs=1, progress=None):
    """Derive the catalog for 5 <= n <= n_max (5 <= n_max <= N_MAX).

    For every size: take the children of the line graphs one size down
    that have no cover class (see ``_children``), and keep the ones whose
    one-vertex deletions are all line graphs.  Two independent
    minimality filters are cross-checked on every candidate.
    Containment runs first: a member found for an earlier sibling, one
    of the same parent, is tried on its image (``_sibling_embedding``),
    then the smaller members in move-to-front order
    (``_first_contained``).  When one embeds, the candidate is not
    minimal, and only the deletion of one vertex u outside the
    embedding's image is recognized.  That deletion still contains the
    member, and an induced subgraph of a line graph is a line graph, so
    recognition must find no cover for it.  It is recognized from the
    classes of the parent minus u (``_deletion_classes``), found once
    per u of each parent, or read from the store for the parent's last
    vertex, so u is one whose classes are known already when the image
    leaves one out.  When no member embeds, every deletion must be a
    line graph; ``_member`` recognizes each with ``is_h_line``, and its
    cover becomes the member's witness.  The candidates are not labelled
    (see ``_layer``) and may hold a class twice, so a member is kept
    once per canonical form.
    Recognition shares the extension step of ``recognition`` with the
    layer store; the two filters stay independent because containment
    (``find_embedding`` and the edge-by-edge check of a sibling's
    embedding) uses no recognition code.  Either disagreement raises
    ``HoffmanGraphError``.  Results are deterministic.

    Only the candidates of size n_max are read, so the line children of
    that size are recognized but never labelled (see ``_children``).  A
    progress line per size counts the candidates tested.

    The build runs in one process.  ``jobs`` is kept only so that
    positional callers of ``build_catalog(n_max, 1, progress)`` keep
    working, and must be 1.
    """
    if not 5 <= n_max <= N_MAX:
        raise HoffmanGraphError(f"catalog sizes run from 5 to {N_MAX}")
    if jobs != 1:
        raise HoffmanGraphError("the catalog is built in one process; jobs must be 1")
    cat = MfsCatalog(n_max=n_max)
    smaller = []
    t0 = time.perf_counter()
    for n in range(5, n_max + 1):
        candidates = [non_line for _, non_line in _children(n)]
        entries = []
        forms = set()
        parents = zip(_layer(n - 1)[0], _parent_classes(n - 1), candidates)
        for parent, seed, children in parents:
            below = {n - 2: seed}
            found = []
            for g in children:
                embedding = _sibling_embedding(g, found)
                if embedding is None:
                    hit = _first_contained(g, smaller)
                    if hit is None:
                        # a class can be a candidate more than once (see
                        # ``_layer``); ``_member`` reads this cached form
                        form = canonical_form(g)
                        if form not in forms:
                            forms.add(form)
                            entries.append(_member(g))
                        continue
                    m, embedding = hit
                    image = _mask_of(embedding)
                    found.append([m, embedding, image, g.adj[n - 1] & image, None])
                # g is its parent plus n - 1, and a line graph contains
                # no member, so the image holds n - 1 and every vertex
                # left out is the parent's; g - u still contains the
                # member for any such u, so it is no line graph.  A u
                # whose classes ``below`` holds already saves a search
                outside = [v for v in range(n) if v not in embedding]
                u = next((v for v in outside if v in below), outside[0])
                if n - 1 not in embedding or _deletion_classes(parent, g, u, below):
                    raise HoffmanGraphError("minimality filters disagree on " + write_graph6(g))
        entries.sort(key=lambda e: e.form)
        cat.entries[n] = entries
        smaller.extend(entries)
        if progress:
            progress(
                f"n={n}: {sum(map(len, candidates))} candidates, {len(entries)} "
                f"minimal forbidden ({time.perf_counter() - t0:.1f}s)"
            )
        t0 = time.perf_counter()
    return cat


def screen(g, catalog):
    """Is the slim graph ``g`` a line graph of the family, by catalog?

    True iff no catalog member embeds into ``g`` as an induced subgraph.
    The catalog must reach min(|V(g)|, N_MAX); beyond N_MAX vertices the
    catalog is complete at n_max = N_MAX because no larger minimal
    forbidden subgraph exists.
    """
    if g.fat_count:
        raise HoffmanGraphError("screening expects a slim graph")
    needed = min(g.slim_count, N_MAX)
    if catalog.n_max < needed:
        raise IncompleteCatalog(
            f"screening a {g.slim_count}-vertex graph needs catalog n_max >= {needed}"
            f" (hoffline catalog build --nmax {N_MAX})"
        )
    return _first_contained(g, catalog.members()) is None


# ---------------------------------------------------------------------------
# Verification reports
# ---------------------------------------------------------------------------


@dataclass
class VerificationReport:
    claim: str
    status: str  # "confirmed" | "refuted"
    counts: dict
    details: dict = field(default_factory=dict)
    counterexample: str | None = None
    runtime_s: float = 0.0

    @property
    def ok(self):
        return self.status == "confirmed"

    def to_json(self, pretty=False):
        doc = {
            "claim": self.claim,
            "status": self.status,
            "counts": self.counts,
            "details": self.details,
            "counterexample": self.counterexample,
            "runtime_s": round(self.runtime_s, 3),
        }
        return json.dumps(doc, indent=2 if pretty else None, sort_keys=True)


def _report(claim, ok, counts, t0, details=None, counterexample=None):
    return VerificationReport(
        claim=claim,
        status="confirmed" if ok else "refuted",
        counts=counts,
        details=details or {},
        counterexample=counterexample,
        runtime_s=time.perf_counter() - t0,
    )


def verify_eq2():
    """Classes of connected non-line graphs per size: none for n <= 4 and
    exactly two at n = 5."""
    t0 = time.perf_counter()
    expected = {1: 0, 2: 0, 3: 0, 4: 0, 5: 2}
    counts = {}
    bad = None
    for n in range(1, 6):
        non = [g for g in connected_slim_graphs(n) if is_h_line(g) is None]
        counts[n] = len(non)
        if counts[n] != expected[n] and bad is None:
            bad = write_graph6(non[0]) if non else None
    ok = counts == expected
    return _report("eq2", ok, counts, t0, counterexample=None if ok else bad)


def verify_prop21(catalog):
    """Catalog counts 2 / 28 / 7 / 1 per size 5..8 (and 0 beyond); the
    first size that differs is the counterexample."""
    t0 = time.perf_counter()
    expected = {5: 2, 6: 28, 7: 7, 8: 1}
    counts = catalog.counts()
    sizes = range(5, catalog.n_max + 1)
    off = next((n for n in sizes if counts.get(n) != expected.get(n, 0)), None)
    details = {
        "total": catalog.total(),
        "total_expected": sum(expected.get(n, 0) for n in sizes),
        "checksum": catalog.checksum(),
    }
    bad = None
    if off is not None:
        bad = f"size {off}: " + " ".join(
            write_graph6(e.graph) for e in catalog.entries.get(off, [])
        )
    return _report("prop2.1", off is None, counts, t0, details, bad)


#: ``verify_eigen_claims`` checks the line graphs up to this many vertices
_EIGEN_LINE_GRAPHS_TO = 7


def verify_eigen_claims(catalog):
    """Exactly one catalog member certifies smallest eigenvalue below
    -1-sqrt(2), and it has 5 vertices; all others certify at-or-above.
    Line graphs of the family up to ``_EIGEN_LINE_GRAPHS_TO`` vertices
    all certify at-or-above as well."""
    t0 = time.perf_counter()
    below = [e for e in catalog.members() if e.verdict is Verdict.BELOW]
    counts = {"below": len(below), "at_or_above": catalog.total() - len(below)}
    line = [g for n in range(1, _EIGEN_LINE_GRAPHS_TO + 1) for g in _layer(n)[0]]
    # the verdict needs only the polynomial, not a bisection bracket
    below_line = (g for g in line if count_eigenvalues_below_threshold(char_poly(special_matrix(g))))
    bad = next(map(write_graph6, below_line), None)
    ok = len(below) == 1 and below[0].graph.n == 5 and bad is None
    counts["line_graphs_checked"] = len(line)
    details = {
        "below_member_graph6": write_graph6(below[0].graph) if len(below) == 1 else None,
        "below_member_vertices": below[0].graph.n if len(below) == 1 else None,
    }
    return _report("eigen", ok, counts, t0, details, bad)


def verify_cover_uniqueness(n):
    """Strict-cover equivalence-class counts over every connected line
    graph with ``n`` vertices, each counted by ``_classes`` (the classes
    that ``enumerate_strict_covers`` turns into covers) and compared with
    the classes the layer store holds.  The two meet the same extension
    step in different vertex orders: the store adds the generated child's
    last vertex to its parent's classes, and ``_classes`` builds them
    again from the empty graph, breadth-first.  The published uniqueness
    claim applies from 8 vertices on; below, the distribution is reported."""
    t0 = time.perf_counter()
    if not 5 <= n <= N_MAX:
        raise HoffmanGraphError(f"uniqueness audit covers 5 <= n <= {N_MAX}")
    line, _, classes, _ = _layer(n)
    class_counts = [len(_classes(g, g.slim_mask, [])) for g in line]
    # every audited graph was recognized, so it must have a cover, and
    # enumeration must count the classes the layer store holds
    bad = next(
        (
            write_graph6(g)
            for g, stored, k in zip(line, classes, class_counts)
            if k == 0 or (n >= 8 and k > 1) or k != len(stored)
        ),
        None,
    )
    dist = sorted(Counter(class_counts).items())
    counts = {"line_graphs": len(line), "classes_distribution": dict(dist)}
    details = {"n": n, "max_classes": max(class_counts, default=0)}
    return _report("uniqueness", bad is None, counts, t0, details, bad)


# ---------------------------------------------------------------------------
# Constrained fat-graph enumerations
# ---------------------------------------------------------------------------

def _closure_class_is_h3_or_h5(g, slim_subset):
    return classify_part(g.induced_slim_closure(slim_subset)) in ("H3", "H5")


def _nonadjacent_pair_ok(g):
    """The two slim vertices are non-adjacent, each of fat degree <= 2."""
    return not g.adjacent(0, 1) and max(g.fat_neighbors(v).bit_count() for v in (0, 1)) <= 2


def _pivot_ok(g):
    """Some slim vertex s has two fat neighbours and exactly one slim
    non-neighbour, and the closure of the other slim vertices is a copy
    of H3 or H5."""
    for s in range(g.slim_count):
        others = g.slim_mask & ~(1 << s)
        if (
            g.fat_neighbors(s).bit_count() == 2
            and (others & ~g.adj[s]).bit_count() == 1
            and _closure_class_is_h3_or_h5(g, _iter_bits(others))
        ):
            return True
    return False


def _overlapping_cover_ok(g):
    """Two different slim subsets V1, V2 cover the slim set, each with
    closure a copy of H3 or H5, and all pairs between Vs-V2 and Vs-V1 are
    adjacent except exactly one.  Such a closure has 2 or 3 slim
    vertices."""
    full = g.slim_mask
    good = [
        m for m in range(1, full + 1)
        if m.bit_count() in (2, 3) and _closure_class_is_h3_or_h5(g, _iter_bits(m))
    ]
    for v1, v2 in itertools.combinations(good, 2):
        if v1 | v2 == full and sum(
            (full & ~v1 & ~g.adj[x]).bit_count() for x in _iter_bits(full & ~v2)
        ) == 1:
            return True
    return False


def _hub_graphs(slim_count):
    """Every slim graph on ``slim_count`` vertices plus one fat vertex
    adjacent to all of them, one per class."""
    for base in all_slim_graphs(slim_count):
        yield _extend(base, base.slim_mask, fat=True)


#: lemma id -> (named conclusions, candidate graphs, hypothesis).  The
#: candidates are connected fat graphs, one per class; a lemma
#: enumerates the non-line candidates satisfying its hypothesis.
_LEMMAS = {
    # two slim vertices of fat degree <= 2, hence at most four fat
    "4.10": (("F1", "F3", "F4"), lambda: fat_hoffman_graphs(2, 4), _nonadjacent_pair_ok),
    "4.11": (
        ("F2", "F5", "F8"),
        lambda: (g for s in (3, 4) for g in fat_hoffman_graphs(s, 2)),
        _pivot_ok,
    ),
    # one fat vertex and every slim vertex of fat degree exactly 1: the
    # fat vertex sees every slim vertex, which fixes the graph by its
    # slim part
    "4.12": (
        ("F6", "F7", "F9"),
        lambda: (g for s in range(3, 7) for g in _hub_graphs(s)),
        _overlapping_cover_ok,
    ),
}

#: the lemma claims of ``verify_claim`` and the CLI
LEMMA_CLAIMS = tuple(f"lemma{lemma_id}" for lemma_id in _LEMMAS)


def _lemma_graphs(lemma_id):
    """The candidates of a lemma that satisfy its hypothesis and are not
    line graphs of the family."""
    _names, candidates, hypothesis = _LEMMAS[lemma_id]
    return [g for g in candidates() if hypothesis(g) and is_h_line(g) is None]


def verify_lemma(lemma_id):
    """Check one constrained fat-graph enumeration.

    4.10 and 4.11 must yield exactly the three named graphs; for 4.12
    every enumerated graph must contain one of the three named graphs as
    an induced subgraph.
    """
    t0 = time.perf_counter()
    if lemma_id not in _LEMMAS:
        raise HoffmanGraphError(f"unknown lemma id {lemma_id!r}")
    names = _LEMMAS[lemma_id][0]
    targets = {name: family_graph(name) for name in names}  # TranscriptionMissing if absent
    found = _lemma_graphs(lemma_id)
    counts = {"enumerated": len(found)}
    if lemma_id != "4.12":
        want = {canonical_form(g) for g in targets.values()}
        ok = {canonical_form(g) for g in found} == want
        bad = next((g for g in found if canonical_form(g) not in want), None)
        details = {"expected": sorted(names)}
    else:
        bad = next(
            (g for g in found if not any(find_embedding(t, g) for t in targets.values())),
            None,
        )
        ok = bad is None
        details = {"containment_targets": sorted(names)}
    bad = bad.to_text() if bad is not None else None
    return _report(f"lemma{lemma_id}", ok, counts, t0, details, bad)


# ---------------------------------------------------------------------------
# The composition table
# ---------------------------------------------------------------------------

#: rows: identifier -> (F name, c(K), |V_s(K)|)
TABLE1_ROWS = {
    "a": ("F1", 1, 5),
    "b": ("F1", 2, 4),
    "c": ("F3", 1, 5),
    "d": ("F4", 1, 4),
    "e": ("F6", 1, 4),
    "f": ("F7", 1, 2),
    "g": ("F9", 1, 4),
}

#: published member names per row
TABLE1_LABELS = {
    "a": ("G5,1", "G5,2", "G6,3", "G6,6", "G6,12", "G6,14", "G6,21", "G7,5"),
    "b": ("G5,1", "G5,2", "G6,3", "G6,21"),
    "c": ("G5,1", "G6,5", "G6,7", "G6,9", "G6,11", "G6,12", "G6,13",
          "G6,17", "G6,19", "G6,23", "G6,24", "G6,25", "G6,27", "G7,6"),
    "d": ("G5,1", "G6,5", "G6,8", "G6,15", "G6,18"),
    "e": ("G5,2", "G6,14", "G6,19", "G6,22", "G6,26", "G6,28", "G7,3"),
    "f": ("G6,1", "G6,6", "G6,16"),
    "g": ("G6,2", "G6,3", "G7,1", "G7,2"),
}

ALL_MEMBER_LABELS = (
    ("G5,1", "G5,2")
    + tuple(f"G6,{i}" for i in range(1, 29))
    + tuple(f"G7,{i}" for i in range(1, 8))
    + ("G8,1",)
)

#: rows whose published lists exactly equal the occurring members under
#: the stated row constraints; rows c and d occur with a few extra
#: members beyond their published lists (see verify_table1)
TABLE1_EXACT_ROWS = "abefg"


def _label_size(label):
    return int(label.split(",")[0][1:])


def table1_row_occurrence(row_id, catalog):
    """Enumerate one row; returns (occurrence forms, uncovered, n_graphs).

    occurrence = canonical forms of catalog members embedding into the
    slim part of at least one composed graph; uncovered = graph6 of the
    slim part of the first composed graph containing no member at all
    (None when the row's guarantee holds); n_graphs counts every
    composed graph.

    Isomorphic slim parts contain the same members, so the members are
    tested only against the first slim part of each isomorphism class in
    the row; a later one adds nothing to occurrence, and the first of an
    uncovered class is the first uncovered graph.
    """
    fname, ck, vsk = TABLE1_ROWS[row_id]
    f_graph = family_graph(fname)
    members = catalog.members()
    occ = set()
    uncovered = None
    count = 0
    slim_classes = set()
    for g in enumerate_sums(f_graph, vsk, component_count_k=ck):
        count += 1
        gs = g.slim_subgraph()
        form = canonical_form(gs)
        if form in slim_classes:
            continue
        slim_classes.add(form)
        hit = {m.form for m in members if find_embedding(m.graph, gs) is not None}
        if not hit and uncovered is None:
            uncovered = write_graph6(gs)
        occ |= hit
    return occ, uncovered, count


def _table1_rows(catalog):
    """``table1_row_occurrence`` of every row, keyed by row id."""
    return {row_id: table1_row_occurrence(row_id, catalog) for row_id in TABLE1_ROWS}


def _label_signature(label, rows):
    """The rows among ``rows`` whose published list names ``label``."""
    return "".join(r for r in rows if label in TABLE1_LABELS[r])


def _expected_census(rows):
    """Expected (size, signature) census from the published lists,
    counting every catalog member (absent labels sign as empty)."""
    return Counter(
        (_label_size(label), _label_signature(label, rows)) for label in ALL_MEMBER_LABELS
    )


def verify_table1(catalog):
    """Check the composition table.

    Three levels, strongest first:

    1. guarantee: in every row, every composed graph G = F (+) K contains
       at least one catalog member in its slim part;
    2. label structure: restricted to the five rows whose published lists
       are exact (a, b, e, f, g), the census of (member size, row
       signature) classes matches the published lists, and the two
       5-vertex names are pinned individually by the spectral dichotomy;
    3. full lists: rows c and d occur with extra members beyond their
       published lists; the extras are counted and reported.  The
       published lists themselves are covered (occurrence is never
       below the published census).

    The report confirms when levels 1 and 2 hold and the published lists
    are covered; the row c/d extras appear under details.
    """
    t0 = time.perf_counter()
    if catalog.n_max < 8:
        raise IncompleteCatalog("the composition table needs the catalog up to n = 8")
    rows = _table1_rows(catalog)
    occs = {r: occ for r, (occ, _u, _c) in rows.items()}
    uncovered = {r: u for r, (_o, u, _c) in rows.items() if u is not None}
    exact = TABLE1_EXACT_ROWS

    def signature(form, rows):
        """The rows among ``rows`` in which the member ``form`` occurs."""
        return "".join(r for r in rows if form in occs[r])

    def census(rows):
        """(member size, signature within ``rows``) -> count over all
        members; one occurring in none of the rows signs as empty."""
        return Counter((m.graph.n, signature(m.form, rows)) for m in catalog.members())

    structure_ok = census(exact) == _expected_census(exact)
    # spectral pins: the one below-threshold member carries the signature
    # of G5,2, and the other 5-vertex member that of G5,1
    pins = [
        (e.verdict is Verdict.BELOW, signature(e.form, exact))
        for e in catalog.members() if e.graph.n == 5 or e.verdict is Verdict.BELOW
    ]
    pins_ok = sorted(pins) == [
        (False, _label_signature("G5,1", exact)), (True, _label_signature("G5,2", exact)),
    ]

    censusF, expectedF = census(TABLE1_ROWS), _expected_census(TABLE1_ROWS)
    extra_memberships = {r: len(occs[r]) - len(TABLE1_LABELS[r]) for r in TABLE1_ROWS}
    list_covered = min(extra_memberships.values()) >= 0

    status_ok = not uncovered and structure_ok and pins_ok and list_covered
    counts = {
        "rows_checked": len(TABLE1_ROWS),
        "graphs_per_row": {r: cnt for r, (_o, _u, cnt) in rows.items()},
        "occurring_per_row": {r: len(occs[r]) for r in sorted(occs)},
        "published_per_row": {r: len(TABLE1_LABELS[r]) for r in sorted(TABLE1_LABELS)},
    }
    details = {
        "guarantee_rows_ok": {r: r not in uncovered for r in sorted(rows)},
        "label_structure_exact_rows": exact,
        "label_structure_ok": structure_ok,
        "spectral_pins_ok": pins_ok,
        "extra_members_per_row": extra_memberships,
        "full_census_mismatches": sorted(
            f"size {k[0]} sig {k[1] or '-'}: occurring {censusF[k]}, published {expectedF[k]}"
            for k in censusF.keys() | expectedF.keys()
            if censusF[k] != expectedF[k]
        ),
    }
    first_uncovered = next((f"row {r}: {u}" for r, u in uncovered.items()), None)
    return _report("table1", status_ok, counts, t0, details, first_uncovered)


#: every claim name, in the order ``hoffline verify --claim`` lists them
CLAIMS = ("eq2", "prop2.1", "table1", *LEMMA_CLAIMS, "uniqueness", "eigen")
#: the claims whose checkers read a catalog
CATALOG_CLAIMS = ("prop2.1", "table1", "eigen")


def verify_claim(claim, catalog=None, n=None):
    """Dispatch a named claim to its checker.  ``n`` is the size of the
    uniqueness audit and is refused for any other claim."""
    if n is not None and claim != "uniqueness":
        raise HoffmanGraphError(f"a size is given only to the uniqueness audit, not to {claim}")
    if claim in CATALOG_CLAIMS and catalog is None:
        raise HoffmanGraphError(f"{claim} needs a catalog")
    if claim == "eq2":
        return verify_eq2()
    if claim == "prop2.1":
        return verify_prop21(catalog)
    if claim == "table1":
        return verify_table1(catalog)
    if claim in LEMMA_CLAIMS:
        return verify_lemma(claim.removeprefix("lemma"))
    if claim == "uniqueness":
        return verify_cover_uniqueness(8 if n is None else n)
    if claim == "eigen":
        return verify_eigen_claims(catalog)
    raise HoffmanGraphError(f"unknown claim {claim!r}")
