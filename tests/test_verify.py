"""Catalog pipeline, screening, claim checkers, persistence."""

import functools
import itertools
import json
import os
from collections import Counter
from dataclasses import replace

import pytest

from hoffline.core import (
    HoffmanGraph,
    HoffmanGraphError,
    canonical_form,
    find_embedding,
)
from hoffline.enumeration import (
    _canonical_children,
    connected_slim_graphs,
    enumerate_sums,
    parse_graph6,
    write_graph6,
)
from hoffline.families import family_graph
from hoffline.recognition import _extensions, is_h_line
from hoffline import core, enumeration, verify
from hoffline.spectral import (
    Verdict,
    compare_threshold,
    equals_threshold,
    smallest_eigenvalue,
)
from hoffline.verify import (
    ALL_MEMBER_LABELS,
    CATALOG_CLAIMS,
    TABLE1_EXACT_ROWS,
    CatalogEntry,
    IncompleteCatalog,
    MfsCatalog,
    _label_size,
    _layer,
    _table1_rows,
    build_catalog,
    screen,
    verify_claim,
    verify_cover_uniqueness,
    verify_eq2,
    verify_lemma,
    verify_prop21,
    verify_table1,
)

from bruteforce import delete_vertex_from_cover, strict_covers_reference
from helpers import (
    CATALOG_PROGRESS,
    cover_class,
    relabeled,
    slim_complete,
    slim_cycle,
    untimed,
)


@pytest.mark.parametrize("n", [
    *range(1, 8),
    pytest.param(8, marks=pytest.mark.skipif(
        not os.environ.get("HOFFLINE_ACCEPT_N9"),
        reason="set HOFFLINE_ACCEPT_N9=1 to cross-check the n=8 layer",
    )),
])
def test_line_layers_match_unpruned_generation(n):
    # the layer extends line graphs only; the unpruned generator is the
    # reference for what that prune must still reach
    line, candidates, _, _ = _layer(n)
    forms = {canonical_form(g): g for g in connected_slim_graphs(n)}
    recognized = {f for f, g in forms.items() if is_h_line(g) is not None}
    assert sorted(canonical_form(g) for g in line) == sorted(recognized)
    non_line_forms = {canonical_form(g) for children in candidates for g in children}
    for f, g in forms.items():
        if f not in recognized and all(
            is_h_line(g.delete_slim({v})) is not None for v in range(n)
        ):
            assert f in non_line_forms


def test_catalog_counts_to_7(catalog7):
    assert catalog7.counts() == {5: 2, 6: 28, 7: 7}


def test_catalog_members_are_minimal_non_line(catalog7):
    for e in catalog7.members():
        g = e.graph
        assert is_h_line(g) is None
        for v in range(g.slim_count):
            assert is_h_line(g.delete_slim({v})) is not None
        assert set(e.witnesses) == set(range(g.slim_count))


def test_catalog_members_form_an_antichain(catalog7):
    from hoffline.core import find_embedding

    ms = [e.graph for e in catalog7.members()]
    for a in ms:
        for b in ms:
            if a is not b:
                assert find_embedding(a, b) is None or a.n == b.n


def test_minimality_cross_check_rejects_a_false_cover(catalog7, monkeypatch):
    # a recognizer that covers a deletion still containing a smaller
    # member contradicts containment, and the build must stop; the
    # layers are built unpatched first.  The seam sees only such
    # deletions, and the members keep their verdict, so that only
    # containment can see the false cover
    _layer(7)
    real = verify._deletion_classes
    line_class = cover_class(is_h_line(slim_complete(3)))

    def false_cover(parent, g, u, below):
        return real(parent, g, u, below) or [line_class]

    monkeypatch.setattr(verify, "_deletion_classes", false_cover)
    with pytest.raises(HoffmanGraphError, match="minimality filters disagree"):
        build_catalog(7)


def test_minimality_recognizes_one_deletion_per_non_minimal_candidate(catalog7, monkeypatch):
    _layer(7)
    deletions, parent_classes, members = [], [], []
    real_deletion, real_classes, real_is_h_line = (
        verify._deletion_classes, verify._classes, verify.is_h_line,
    )

    def counted_deletion(parent, g, u, below):
        deletions.append(g.n)
        return real_deletion(parent, g, u, below)

    def counted_classes(g, mask, pinned):
        parent_classes.append((g.adj, mask))
        return real_classes(g, mask, pinned)

    def counted_is_h_line(g):
        members.append(g.n)
        return real_is_h_line(g)

    monkeypatch.setattr(verify, "_deletion_classes", counted_deletion)
    monkeypatch.setattr(verify, "_classes", counted_classes)
    monkeypatch.setattr(verify, "is_h_line", counted_is_h_line)
    assert build_catalog(7).checksum() == catalog7.checksum()
    counts = catalog7.counts()
    # a member can be a candidate more than once (see ``_layer``); the
    # build keeps its first copy and recognizes no deletion of the others
    forms = {e.form for e in catalog7.members()}
    copies = {
        n: sum(canonical_form(g) in forms for children in _layer(n)[1] for g in children)
        - counts[n]
        for n in range(5, 8)
    }
    assert copies == {5: 1, 6: 7, 7: 0}
    # one recognized deletion per other non-minimal candidate, from the
    # classes of its parent less one vertex, found once per (parent, vertex)
    assert len(deletions) == sum(
        sum(map(len, _layer(n)[1])) - counts[n] - copies[n] for n in range(5, 8)
    )
    assert len(set(parent_classes)) == len(parent_classes) < len(deletions)
    # each member is recognized itself and at each of its n deletions
    assert len(members) == sum((n + 1) * counts[n] for n in range(5, 8))


@pytest.mark.parametrize("n", range(5, 8))
def test_deletion_classes_from_the_parent_are_exact(n):
    # for every candidate and every vertex below the new one, the classes
    # read from the parent less that vertex are those of the reference
    # search on the deletion; each parent's classes are kept while its
    # candidates are checked, as in the build
    def drop(mask, u):
        return mask & ((1 << u) - 1) | mask >> (u + 1) << u

    parents, candidates = _layer(n - 1)[0], _layer(n)[1]
    assert len(candidates) == len(parents)
    for parent, children in zip(parents, candidates):
        below = {}
        for g in children:
            for u in range(n - 1):
                got = {
                    (tuple(drop(c, u) for c in cells), tuple(drop(f, u) for f in fats))
                    for cells, fats in verify._deletion_classes(parent, g, u, below)
                }
                want = {cover_class(c) for c in strict_covers_reference(g.delete_slim({u}))}
                assert got == want


def test_minimality_refuses_an_embedding_without_the_new_vertex(monkeypatch):
    # a candidate's parent is a line graph, so every embedding of a
    # member must hold the new vertex; one that does not is a
    # disagreement, not a deletion of the new vertex to recognize
    _layer(6)

    def outside_new_vertex(pattern, host):
        return tuple(range(pattern.n))

    def cross_check(g, u, below):
        pytest.fail("the parent was cross-checked")

    monkeypatch.setattr(verify, "find_embedding", outside_new_vertex)
    monkeypatch.setattr(verify, "_deletion_classes", cross_check)
    with pytest.raises(HoffmanGraphError, match="minimality filters disagree"):
        build_catalog(6)


@pytest.mark.parametrize("n", range(5, 9))
def test_candidates_hold_every_non_line_child_the_orbit_test_accepts(n):
    # the store labels no non-line child, so it keeps the ones the orbit
    # test rejects too; the non-line children that the orbit test accepts
    # from the same line graphs are all among them up to isomorphism, and
    # each candidate beyond those is not minimal: a deletion of it is no
    # line graph
    parents, _, parent_classes, parent_autos = _layer(n - 1)
    accepted = set()
    for parent, known, autos in zip(parents, parent_classes, parent_autos):
        for child, _autos in _canonical_children(parent, autos):
            if not any(_extensions(known, n - 1, child.adj[n - 1])):
                accepted.add(canonical_form(child))
    candidates = [g for children in _layer(n)[1] for g in children]
    assert accepted <= {canonical_form(g) for g in candidates}
    extra = [g for g in candidates if canonical_form(g) not in accepted]
    assert len(extra) == {5: 0, 6: 1, 7: 47, 8: 501}[n]
    for g in extra:
        assert any(is_h_line(g.delete_slim({v})) is None for v in range(n))


def test_catalog_build_labels_only_line_children_and_members(monkeypatch):
    # from an empty layer store: the 265 children of layers 2-7 that have
    # a class are labelled for the orbit test, and the 38 members and the
    # 8 copies of members among the candidates for their forms; the 543
    # line children of size 8 are recognized but not labelled.  The
    # deletion seam searches the classes of 425 parents less a vertex,
    # and containment makes 7,966 embedding searches
    calls = Counter()
    real_canonical, real_classes, real_embedding = (
        core.canonical_data, verify._classes, verify.find_embedding,
    )

    def counted(name, real):
        def call(*args):
            calls[name] += 1
            return real(*args)
        return call

    monkeypatch.setattr(verify, "_LAYERS", {})
    monkeypatch.setattr(verify, "_CHILDREN", {})
    canonical = counted("canonical", real_canonical)
    monkeypatch.setattr(core, "canonical_data", canonical)
    monkeypatch.setattr(enumeration, "canonical_data", canonical)
    monkeypatch.setattr(verify, "_classes", counted("classes", real_classes))
    monkeypatch.setattr(verify, "find_embedding", counted("embedding", real_embedding))
    assert build_catalog(8).total() == 38
    assert calls == {"canonical": 311, "classes": 425, "embedding": 7966}
    assert 8 not in verify._LAYERS
    assert sum(len(line) for line, _ in verify._children(8)) == 543
    assert sum(len(_layer(n)[0]) for n in range(2, 9)) == 676


def test_minimality_seam_prefers_a_vertex_whose_classes_are_found(catalog8, monkeypatch):
    # u is any vertex outside the embedding's image, so the seam takes
    # one whose parent-less-u classes it holds already: the parent's
    # last vertex, whose classes the store holds, or one searched before
    _layer(8)
    searches = 0
    real = verify._classes

    def counted_classes(g, mask, pinned):
        nonlocal searches
        searches += 1
        return real(g, mask, pinned)

    monkeypatch.setattr(verify, "_classes", counted_classes)
    assert build_catalog(8).checksum() == catalog8.checksum()
    assert searches == 425


@pytest.mark.parametrize("n", range(3, 9))
def test_seeded_parent_classes_are_those_of_the_parent(n):
    # the seam's seed for a line graph P is read from the store as the
    # classes of P's parent; they are the classes that the seam would
    # search for P less its last vertex
    def normal(classes):
        return {(tuple(sorted(cells)), fats) for cells, fats in classes}

    line = _layer(n)[0]
    seeds = verify._parent_classes(n)
    assert len(seeds) == len(line)
    for p, seed in zip(line, seeds):
        assert normal(seed) == normal(verify._classes(p, p.slim_mask & ~(1 << (p.n - 1)), []))


def test_reused_sibling_embeddings_are_induced(catalog8, monkeypatch):
    # a candidate takes a sibling's member embedding when its new vertex
    # meets the image in the same trace; every one the build takes is an
    # induced embedding of that member into the candidate
    reused = []
    real = verify._sibling_embedding

    def recording(g, found):
        embedding = real(g, found)
        if embedding is not None:
            m = next(m for m, e, *_ in found if e is embedding)
            reused.append((m.graph, g, embedding))
        return embedding

    monkeypatch.setattr(verify, "_sibling_embedding", recording)
    assert build_catalog(8).checksum() == catalog8.checksum()
    assert reused
    for pattern, host, embedding in reused:
        assert len(set(embedding)) == pattern.n and max(embedding) < host.n
        for u, v in itertools.combinations(range(pattern.n), 2):
            assert pattern.adjacent(u, v) == host.adjacent(embedding[u], embedding[v])


def test_layer_after_the_catalog_equals_an_eager_one(monkeypatch):
    # the catalog leaves the line children of its last size unlabelled;
    # a layer labelled after it is the layer built before any catalog
    def built():
        line, candidates, classes, autos = _layer(8)
        return (
            [g.adj for g in line],
            [[g.adj for g in children] for children in candidates],
            classes,
            autos,
        )

    monkeypatch.setattr(verify, "_LAYERS", {})
    monkeypatch.setattr(verify, "_CHILDREN", {})
    build_catalog(8)
    assert 8 not in verify._LAYERS
    after = built()
    monkeypatch.setattr(verify, "_LAYERS", {})
    monkeypatch.setattr(verify, "_CHILDREN", {})
    assert built() == after


def test_catalog_keeps_one_member_per_class(monkeypatch):
    # the candidates are not labelled and may hold a class twice (see
    # ``_layer``); the build keeps one member per canonical form, here
    # with one more copy of a candidate
    children = verify._children(5)
    i = next(i for i, (_, candidates) in enumerate(children) if candidates)
    line, candidates = children[i]
    copy = relabeled(candidates[0], [4, 3, 2, 1, 0])
    assert copy != candidates[0]
    twice = (*children[:i], (line, candidates + (copy,)), *children[i + 1:])
    monkeypatch.setitem(verify._CHILDREN, 5, twice)
    lines = []
    assert build_catalog(5, progress=lines.append).counts() == {5: 2}
    assert untimed(lines) == ("n=5: 4 candidates, 2 minimal forbidden",)


def test_catalog_progress_lines_count_the_candidates():
    # the counts that ``catalog build`` prints, without the timings; n = 9
    # is checked by the gated build in the acceptance suite
    lines = []
    build_catalog(8, progress=lines.append)
    assert untimed(lines) == CATALOG_PROGRESS[:4]


def test_catalog_determinism(catalog7, monkeypatch):
    # from an empty layer store, so the catalog is generated again
    monkeypatch.setattr(verify, "_LAYERS", {})
    monkeypatch.setattr(verify, "_CHILDREN", {})
    again = build_catalog(7)
    assert again.checksum() == catalog7.checksum()


def test_catalog_refuses_jobs_other_than_one():
    with pytest.raises(HoffmanGraphError, match="one process"):
        build_catalog(5, jobs=2)


_GATED_N9 = pytest.mark.skipif(
    not os.environ.get("HOFFLINE_ACCEPT_N9"),
    reason="set HOFFLINE_ACCEPT_N9=1 to check the classes of layer 9",
)


@pytest.mark.parametrize("n", [*range(1, 9), pytest.param(9, marks=_GATED_N9)])
def test_layer_classes_match_full_enumeration(n):
    # the store reads each child's classes from its parent's; the
    # reference search finds them again, on line and non-line children
    # alike
    line, candidates, classes, _ = _layer(n)
    assert len(classes) == len(line)
    for g, stored in zip(line, classes):
        assert sorted(stored) == sorted(cover_class(c) for c in strict_covers_reference(g))
    for g in (g for children in candidates for g in children):
        assert next(strict_covers_reference(g), None) is None


@pytest.mark.parametrize("n", range(2, 9))
def test_deleting_the_new_vertex_gives_a_stored_parent_class(n):
    # each child is its parent plus vertex n - 1, so the deletion lemma
    # must map every cover of a line child onto a class of that parent
    line, _, classes, _ = _layer(n - 1)
    parents = {g.adj: k for g, k in zip(line, classes)}
    for g in _layer(n)[0]:
        stored = {fats for _cells, fats in parents[g.delete_slim({n - 1}).adj]}
        for cover in strict_covers_reference(g):
            out, _case = delete_vertex_from_cover(cover.host, cover.parts, n - 1)
            assert cover_class(out)[1] in stored


def test_uniqueness_audit_cross_checks_the_layer_store(monkeypatch):
    line, non_line, classes, autos = _layer(6)
    assert verify_cover_uniqueness(6).ok
    # one stored class too many for the first line graph
    tampered = (classes[0] * 2, *classes[1:])
    monkeypatch.setitem(verify._LAYERS, 6, (line, non_line, tampered, autos))
    rep = verify_cover_uniqueness(6)
    assert not rep.ok
    assert rep.counterexample == write_graph6(line[0])


def test_catalog_save_load_round_trip(catalog7, tmp_path):
    d = tmp_path / "cat"
    catalog7.save(str(d))
    loaded = MfsCatalog.load(str(d))
    assert loaded.counts() == catalog7.counts()
    assert loaded.checksum() == catalog7.checksum()
    # every field, the witnesses included
    assert loaded.entries == catalog7.entries


def test_catalog_saved_with_g6_copies_and_a_total_loads(catalog7, tmp_path):
    # older versions also wrote g6/mfs{n}.g6 and a "total"; load reads
    # neither, so such a catalog loads as it did
    d = tmp_path / "cat"
    catalog7.save(str(d))
    (d / "g6").mkdir()
    for n, entries in catalog7.entries.items():
        lines = "".join(write_graph6(e.graph) + "\n" for e in entries)
        (d / "g6" / f"mfs{n}.g6").write_text(lines)
    meta = json.loads((d / "catalog.json").read_text())
    meta["total"] = catalog7.total()
    (d / "catalog.json").write_text(json.dumps(meta, indent=1, sort_keys=True))
    assert MfsCatalog.load(str(d)).entries == catalog7.entries


def test_catalog_save_to_unwritable_path_raises(catalog7, tmp_path):
    (tmp_path / "file").write_text("")
    with pytest.raises(HoffmanGraphError, match="cannot write catalog"):
        catalog7.save(str(tmp_path / "file" / "sub"))


def test_screen_known_graphs(catalog7):
    assert screen(slim_complete(6), catalog7)
    assert screen(slim_cycle(7), catalog7)
    for e in catalog7.members():
        assert not screen(e.graph, catalog7)


def test_screen_requires_catalog_depth(catalog7):
    big = slim_complete(9)
    with pytest.raises(IncompleteCatalog):
        screen(big, catalog7)


def test_screen_equals_recognition_small(catalog7):
    for n in range(1, 7):
        for g in connected_slim_graphs(n):
            assert screen(g, catalog7) == (is_h_line(g) is not None)


def test_verify_eq2():
    rep = verify_eq2()
    assert rep.ok
    assert rep.counts == {1: 0, 2: 0, 3: 0, 4: 0, 5: 2}


def test_verify_prop21_partial(catalog7):
    rep = verify_prop21(catalog7)
    assert rep.ok
    assert rep.counts == {5: 2, 6: 28, 7: 7}
    assert rep.details["total"] == 37


def _with_members(catalog, n, entries):
    """A copy of ``catalog`` whose members on ``n`` vertices are
    ``entries``; the shared fixture is left as it is."""
    return MfsCatalog(n_max=catalog.n_max, entries={**catalog.entries, n: list(entries)})


def _flipped(entry):
    other = {Verdict.BELOW: Verdict.AT_OR_ABOVE, Verdict.AT_OR_ABOVE: Verdict.BELOW}
    return replace(entry, verdict=other[entry.verdict])


def test_verify_prop21_refutes_a_missing_member(catalog7):
    six = catalog7.entries[6][1:]
    rep = verify_prop21(_with_members(catalog7, 6, six))
    assert not rep.ok
    assert rep.counts == {5: 2, 6: 27, 7: 7}
    assert rep.counterexample == "size 6: " + " ".join(write_graph6(e.graph) for e in six)
    assert rep.details["total"] == 36 and rep.details["total_expected"] == 37


def test_eigen_claims_refute_a_flipped_verdict(catalog7):
    confirmed = verify_claim("eigen", catalog=catalog7)
    six = [_flipped(catalog7.entries[6][0]), *catalog7.entries[6][1:]]
    rep = verify_claim("eigen", catalog=_with_members(catalog7, 6, six))
    assert not rep.ok and rep.counterexample is None
    assert rep.counts == {**confirmed.counts, "below": 2, "at_or_above": 35}
    assert rep.details == {"below_member_graph6": None, "below_member_vertices": None}


def test_eigen_claims_report_the_first_failing_line_graph(catalog7, monkeypatch):
    # every line graph on 4 or 5 vertices counted below the threshold:
    # the counterexample is the first of them, as with the other
    # checkers, and every line graph is still counted as checked
    confirmed = verify_claim("eigen", catalog=catalog7)
    monkeypatch.setattr(
        verify, "count_eigenvalues_below_threshold", lambda poly: int(len(poly) in (5, 6))
    )
    rep = verify_claim("eigen", catalog=catalog7)
    assert not rep.ok
    assert rep.counterexample == write_graph6(_layer(4)[0][0])
    assert rep.counts == confirmed.counts


@pytest.fixture(scope="module")
def table1_confirmed(catalog8):
    return verify_table1(catalog8)


def _table1_changes(rep, confirmed):
    """The report fields in which ``rep`` differs from ``confirmed``."""
    return sorted(
        {k for k in rep.counts if rep.counts[k] != confirmed.counts[k]}
        | {k for k in rep.details if rep.details[k] != confirmed.details[k]}
    )


def test_table1_skips_symmetric_sums_and_gluings_unbuilt(catalog8, monkeypatch):
    # a slot partition that a permutation of like cells maps onto one met
    # before, and a fat map that the automorphisms of K and F map onto a
    # lesser one, are skipped before they are built and labelled; over
    # every partition and map the table made 2,481 labellings, 2,236 sums
    # and 2,507 compositions.  The 1,238 labellings are the 131 sums K
    # kept, F once per row, and the 550 graphs G and their 550 slim parts
    calls = Counter()
    real_canonical, real_block_sum, real_compose = (
        core.canonical_data, enumeration._block_sum, enumeration._compose,
    )

    def counted(name, real):
        def call(*args):
            calls[name] += 1
            return real(*args)
        return call

    canonical = counted("canonical", real_canonical)
    monkeypatch.setattr(core, "canonical_data", canonical)
    monkeypatch.setattr(enumeration, "canonical_data", canonical)
    monkeypatch.setattr(enumeration, "_block_sum", counted("block_sum", real_block_sum))
    monkeypatch.setattr(enumeration, "_compose", counted("compose", real_compose))
    # a fresh family cache, so that the sums K are built again
    monkeypatch.setattr(
        enumeration, "_sum_family", functools.cache(enumeration._sum_family.__wrapped__)
    )
    rep = verify_table1(catalog8)
    assert rep.ok
    assert rep.counts["graphs_per_row"] == {
        "a": 129, "b": 57, "c": 224, "d": 20, "e": 57, "f": 6, "g": 57,
    }
    assert calls == {"canonical": 1238, "block_sum": 394, "compose": 1084}


def test_table1_refutes_swapped_five_vertex_verdicts(catalog8, table1_confirmed):
    rep = verify_table1(_with_members(catalog8, 5, map(_flipped, catalog8.entries[5])))
    assert not rep.ok and rep.counterexample is None
    assert _table1_changes(rep, table1_confirmed) == ["spectral_pins_ok"]


def test_table1_refutes_a_missing_member_of_an_exact_row(catalog8, table1_confirmed):
    # row f lists three 6-vertex members
    occurring, _uncovered, _count = verify.table1_row_occurrence("f", catalog8)
    six = [e for e in catalog8.entries[6] if e.form != min(occurring)]
    rep = verify_table1(_with_members(catalog8, 6, six))
    assert not rep.ok
    assert not rep.details["label_structure_ok"] and rep.details["spectral_pins_ok"]
    assert rep.counts["occurring_per_row"]["f"] == 2
    assert rep.details["extra_members_per_row"]["f"] == -1


def test_table1_refutes_a_lone_below_threshold_five_vertex_member(catalog8):
    below = [e for e in catalog8.entries[5] if e.verdict is Verdict.BELOW]
    rep = verify_table1(_with_members(catalog8, 5, below))
    assert not rep.ok
    assert not rep.details["spectral_pins_ok"]


def test_verify_lemmas():
    for lemma, expect_count in (("4.10", 3), ("4.11", 3)):
        rep = verify_lemma(lemma)
        assert rep.ok, rep.to_json()
        assert rep.counts["enumerated"] == expect_count
    rep = verify_lemma("4.12")
    assert rep.ok
    assert rep.counts["enumerated"] == 14


def test_verify_uniqueness_small_reports_distribution():
    rep = verify_cover_uniqueness(5)
    assert rep.ok  # no claim below 8 vertices; distribution only
    dist = rep.counts["classes_distribution"]
    assert sum(dist.values()) == rep.counts["line_graphs"] == 19
    assert max(dist) > 1  # some small graph has inequivalent covers


@pytest.mark.parametrize("claim", CATALOG_CLAIMS)
def test_verify_claim_refuses_catalog_claims_without_a_catalog(claim):
    with pytest.raises(HoffmanGraphError, match=f"{claim} needs a catalog"):
        verify_claim(claim)


def test_verify_dispatch_unknown():
    from hoffline.core import HoffmanGraphError

    with pytest.raises(HoffmanGraphError):
        verify_claim("nope")


def test_eigen_claims(catalog8):
    rep = verify_claim("eigen", catalog=catalog8)
    assert rep.ok
    assert rep.counts["below"] == 1
    assert rep.counts["at_or_above"] == 37
    below = parse_graph6(rep.details["below_member_graph6"])
    assert below.slim_count == 5


@pytest.mark.parametrize("row_id", sorted(verify.TABLE1_ROWS))
def test_table1_row_matches_every_slim_part(row_id, catalog8, monkeypatch):
    # testing the members once per slim class gives what testing them
    # against every slim part gives, and never repeats a (member, class)
    # containment test
    fname, ck, vsk = verify.TABLE1_ROWS[row_id]
    occ, uncovered, count = set(), None, 0
    for g in enumerate_sums(family_graph(fname), vsk, component_count_k=ck):
        count += 1
        gs = g.slim_subgraph()
        hit = {m.form for m in catalog8.members() if find_embedding(m.graph, gs) is not None}
        if not hit and uncovered is None:
            uncovered = write_graph6(gs)
        occ |= hit

    tested = []

    def recording_find_embedding(pattern, host):
        tested.append((canonical_form(pattern), canonical_form(host)))
        return find_embedding(pattern, host)

    monkeypatch.setattr(verify, "find_embedding", recording_find_embedding)
    assert verify.table1_row_occurrence(row_id, catalog8) == (occ, uncovered, count)
    assert tested
    assert len(tested) == len(set(tested))


def table1_label_groups(catalog):
    """The published-name correspondence as far as the table pins it.

    Returns a list of (sorted label tuple, sorted graph6 tuple) pairs:
    each published name in the first component maps to one of the member
    graphs in the second (a bijection within every group).  Singleton
    groups are exact identifications.
    """
    occs = {r: occ for r, (occ, _u, _c) in _table1_rows(catalog).items()}
    exact = TABLE1_EXACT_ROWS
    below = {e.form for e in catalog.members() if e.verdict is Verdict.BELOW}
    groups = {}
    for label in ALL_MEMBER_LABELS:
        sig = verify._label_signature(label, exact)
        spectral = "below" if label == "G5,2" else ("above" if label == "G5,1" else "")
        groups.setdefault((_label_size(label), sig, spectral), [[], []])[0].append(label)
    for e in catalog.members():
        sig = "".join(r for r in exact if e.form in occs[r])
        spectral = ""
        if e.graph.n == 5:
            spectral = "below" if e.form in below else "above"
        key = (e.graph.n, sig, spectral)
        if key in groups:
            groups[key][1].append(write_graph6(e.graph))
    return [
        (tuple(sorted(v[0])), tuple(sorted(v[1])))
        for _key, v in sorted(groups.items())
    ]


def test_label_groups_pin_the_five_vertex_members(catalog8):
    groups = dict(table1_label_groups(catalog8))
    flat = {labels: forms for labels, forms in groups.items()}
    # the two 5-vertex names are singleton groups
    assert ("G5,1",) in flat and len(flat[("G5,1",)]) == 1
    assert ("G5,2",) in flat and len(flat[("G5,2",)]) == 1
    g52 = parse_graph6(flat[("G5,2",)][0])
    assert compare_threshold(smallest_eigenvalue(g52)) is Verdict.BELOW
    # every published name lands in exactly one group, bijectively
    total_labels = sum(len(k) for k in flat)
    total_forms = sum(len(v) for v in flat.values())
    assert total_labels == total_forms == 38
    for labels, forms in flat.items():
        assert len(labels) == len(forms)


def _load_a_non_minimal_member(catalog7, tmp_path):
    # a 5-vertex member with a pendant vertex, filed under size 6 with
    # a matching checksum: no cover of it exists, but its deletion of
    # the pendant vertex, the member, has none either
    m = catalog7.entries[5][0].graph
    g = HoffmanGraph(6, 0, [m.adj[0] | 1 << 5, *m.adj[1:], 1])
    interval = smallest_eigenvalue(g)
    entry = CatalogEntry(
        graph=g,
        form=canonical_form(g),
        eigen=interval,
        verdict=compare_threshold(interval),
        equals_threshold=equals_threshold(interval),
        witnesses={},
    )
    MfsCatalog(n_max=6, entries={5: catalog7.entries[5], 6: [entry]}).save(str(tmp_path))
    MfsCatalog.load(str(tmp_path))


@pytest.mark.parametrize("run, error, message", [
    (lambda cat, tmp: screen(HoffmanGraph(1, 1, (0b10, 0b01)), cat), HoffmanGraphError,
     "screening expects a slim graph"),
    (lambda cat, tmp: verify_lemma("4.13"), HoffmanGraphError, "unknown lemma id '4.13'"),
    (lambda cat, tmp: verify_table1(cat), IncompleteCatalog, "up to n = 8"),
    (_load_a_non_minimal_member, HoffmanGraphError, "minimality filters disagree"),
], ids=["screen-fat", "lemma-4.13", "table1-n7", "load-non-minimal"])
def test_refusals(catalog7, tmp_path, run, error, message):
    with pytest.raises(error, match=message):
        run(catalog7, tmp_path)
