"""Acceptance suite: the published computational claims, end to end.

Each test prints one PASS/FAIL line (visible with ``pytest -s`` or on
failure).  The catalog through n = 9 is built in the default suite; with
HOFFLINE_ACCEPT_N9=1 the suite adds a second n = 9 build with progress
output and the full cover-uniqueness audit at n = 9.
"""

import os
import time
from fractions import Fraction

import pytest

from hoffline.core import canonical_form
from hoffline.enumeration import connected_slim_graphs, parse_graph6, write_graph6
from hoffline.families import family_graph
from hoffline.recognition import enumerate_strict_covers, is_h_line
from hoffline.spectral import Verdict, equals_threshold, smallest_eigenvalue
from hoffline.sums import validate_sum
from hoffline import verify
from hoffline.verify import (
    build_catalog,
    screen,
    verify_cover_uniqueness,
    verify_eq2,
    verify_lemma,
    verify_table1,
)

from bruteforce import decompose, delete_vertex_from_cover, line_family_forms
from helpers import CATALOG_PROGRESS, have_family_graph, relabeled, untimed


def _line(ok, label):
    print(f"[{'PASS' if ok else 'FAIL'}] {label}")
    assert ok, label


# -- 1: the five-vertex count ------------------------------------------------


def test_criterion_1_eq2():
    t0 = time.monotonic()
    rep = verify_eq2()
    dt = time.monotonic() - t0
    _line(
        rep.ok and dt < 1.0,
        f"criterion 1: non-line counts per size {rep.counts} in {dt:.2f}s (< 1 s)",
    )


# -- 2: catalog counts --------------------------------------------------------


def test_criterion_2_catalog_counts(catalog8):
    counts = catalog8.counts()
    ok = counts == {5: 2, 6: 28, 7: 7, 8: 1} and catalog8.total() == 38
    _line(ok, f"criterion 2: minimal forbidden subgraph counts {counts}, total {catalog8.total()}")


@pytest.mark.skipif(
    not os.environ.get("HOFFLINE_ACCEPT_N9"),
    reason="set HOFFLINE_ACCEPT_N9=1 for a second n=9 build with progress output",
)
def test_criterion_2_catalog_counts_n9(monkeypatch):
    # from an empty layer store, so the progress lines time a full build;
    # their counts are checked without the timings
    monkeypatch.setattr(verify, "_LAYERS", {})
    monkeypatch.setattr(verify, "_CHILDREN", {})
    lines = []

    def progress(line):
        print(line)
        lines.append(line)

    cat = build_catalog(9, progress=progress)
    ok = cat.counts() == {5: 2, 6: 28, 7: 7, 8: 1, 9: 0} and cat.total() == 38
    ok = ok and untimed(lines) == CATALOG_PROGRESS
    _line(ok, f"criterion 2 (n=9): counts {cat.counts()}, total {cat.total()}")


def test_criterion_2_catalog_counts_to_n9():
    # the headline claim, F9 = 0, in the default suite; built over
    # line-graph layers, n=9 takes a few seconds
    cat = build_catalog(9)
    ok = cat.counts() == {5: 2, 6: 28, 7: 7, 8: 1, 9: 0} and cat.total() == 38
    _line(ok, f"criterion 2 (n=9, default suite): counts {cat.counts()}, total {cat.total()}")


# -- 3: spectral dichotomy ------------------------------------------------------


def test_criterion_3_spectral_dichotomy(catalog8):
    below = [e for e in catalog8.members() if e.verdict is Verdict.BELOW]
    above = [e for e in catalog8.members() if e.verdict is Verdict.AT_OR_ABOVE]
    ok = len(below) == 1 and below[0].graph.n == 5 and len(above) == 37
    _line(
        ok,
        f"criterion 3: {len(below)} member below -1-sqrt(2) "
        f"(on {below[0].graph.n if below else '?'} vertices), {len(above)} at or above",
    )


# -- 4: screening equals recognition -------------------------------------------


def test_criterion_4_oracle_equivalence(catalog8):
    t0 = time.monotonic()
    checked = 0
    for n in range(1, 8):
        for g in connected_slim_graphs(n):
            assert screen(g, catalog8) == (is_h_line(g) is not None), write_graph6(g)
            checked += 1
    dt = time.monotonic() - t0
    _line(
        checked == 996 and dt < 600,
        f"criterion 4: screening == cover search on {checked} connected graphs "
        f"(n <= 7) in {dt:.1f}s (< 10 min)",
    )


# -- 5: cover uniqueness at n = 8 ------------------------------------------------


def test_criterion_5_uniqueness_full_n8():
    # only 442 of the 11117 connected 8-vertex graphs are line graphs, so
    # the complete audit beats the sampling budget outright
    t0 = time.monotonic()
    rep = verify_cover_uniqueness(8)
    dt = time.monotonic() - t0
    dist = rep.counts["classes_distribution"]
    ok = rep.ok and dist == {1: 442} and dt < 600
    _line(
        ok,
        f"criterion 5: all {rep.counts['line_graphs']} line graphs at n=8 have "
        f"cover classes {dist} in {dt:.1f}s (< 10 min)",
    )


@pytest.mark.skipif(
    not os.environ.get("HOFFLINE_ACCEPT_N9"),
    reason="set HOFFLINE_ACCEPT_N9=1 for the full n=9 uniqueness audit",
)
def test_criterion_5_uniqueness_full_n9():
    rep = verify_cover_uniqueness(9)
    dist = rep.counts["classes_distribution"]
    _line(
        rep.ok and set(dist) <= {1},
        f"criterion 5 (n=9): all {rep.counts['line_graphs']} line graphs have "
        f"cover classes {dist}",
    )


# -- 6: the composition table -----------------------------------------------------


def test_criterion_6_table1(catalog8):
    t0 = time.monotonic()
    rep = verify_table1(catalog8)
    dt = time.monotonic() - t0
    ok = rep.ok and dt < 1800
    # every row guarantees a forbidden subgraph, the five exact rows
    # reproduce the published lists, and the known extra occurrences of
    # rows c/d stay exactly as documented
    extras = rep.details["extra_members_per_row"]
    ok = ok and all(rep.details["guarantee_rows_ok"].values())
    ok = ok and rep.details["label_structure_ok"]
    ok = ok and rep.details["spectral_pins_ok"]
    ok = ok and extras == {"a": 0, "b": 0, "c": 1, "d": 4, "e": 0, "f": 0, "g": 0}
    _line(
        ok,
        "criterion 6: composition table — guarantee on all 7 rows, exact lists "
        f"on rows a/b/e/f/g, extra occurrences {extras} in {dt:.1f}s (< 30 min)",
    )


# -- 7: the three constrained enumerations ------------------------------------------


def test_criterion_7_fat_enumerations():
    r10 = verify_lemma("4.10")
    r11 = verify_lemma("4.11")
    r12 = verify_lemma("4.12")
    ok = r10.ok and r11.ok and r12.ok
    ok = ok and r10.counts["enumerated"] == 3 and r11.counts["enumerated"] == 3
    _line(
        ok,
        "criterion 7: two-slim family = {F1,F3,F4}, pivot family = {F2,F5,F8}, "
        f"hub family ({r12.counts['enumerated']} graphs) all contain F6/F7/F9",
    )


# -- 8: property suites ----------------------------------------------------------


def test_criterion_8_property_suites():
    t0 = time.monotonic()
    # fat-degree bounds and decomposition uniqueness over every cover
    # found at n <= 6, plus deletion-case totality
    forms = line_family_forms()
    covers_seen = 0
    pairs_seen = 0
    for n in range(1, 7):
        for g in connected_slim_graphs(n):
            for cover in enumerate_strict_covers(g):
                covers_seen += 1
                h = cover.host
                for u in range(h.slim_count):
                    assert h.fat_neighbors(u).bit_count() <= 2
                    for v in range(u + 1, h.slim_count):
                        assert (h.fat_neighbors(u) & h.fat_neighbors(v)).bit_count() <= 1
                decs = decompose(h, forms)
                assert len(decs) == 1
                assert set(decs[0][1]) == set(cover.parts)
                if h.is_connected():
                    for x in range(h.slim_count):
                        out, case = delete_vertex_from_cover(h, cover.parts, x)
                        assert case in ("i", "ii", "iii", "iv")
                        ok, why = validate_sum(out.host, out.parts)
                        assert ok, why
                        pairs_seen += 1
    # graph6 round trip over everything generated at n <= 7
    g6 = 0
    for n in range(1, 8):
        for g in connected_slim_graphs(n):
            assert parse_graph6(write_graph6(g)) == g
            g6 += 1
    # canonical-form stability under 1000 random relabelings
    import random

    from hoffline.core import HoffmanGraph

    rng = random.Random(42)
    for _ in range(1000):
        n = rng.randint(1, 7)
        f = rng.randint(0, 3)
        edges = set()
        for fv in range(n, n + f):
            edges.add((rng.randrange(n), fv))
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 0.4:
                    edges.add((i, j))
        g = HoffmanGraph.build(n, f, edges)
        ps = list(range(n))
        pf = list(range(n, n + f))
        rng.shuffle(ps)
        rng.shuffle(pf)
        perm = [0] * (n + f)
        for i, v in enumerate(list(range(n)) + list(range(n, n + f))):
            perm[v] = (ps + pf)[i]
        assert canonical_form(relabeled(g, perm)) == canonical_form(g)
    dt = time.monotonic() - t0
    _line(
        True,
        f"criterion 8: {covers_seen} covers checked (degree bounds, unique "
        f"decomposition), {pairs_seen} deletion cases classified, {g6} graph6 "
        f"round trips, 1000 canonical relabelings in {dt:.1f}s",
    )


# -- 9: the published eigenvalue labels ---------------------------------------------


def test_criterion_9_alpha_labels():
    e1 = smallest_eigenvalue(family_graph("H1"))
    ok = e1.lower == e1.upper == Fraction(-1)
    for name in ("H2", "H3"):
        e = smallest_eigenvalue(family_graph(name))
        ok = ok and e.lower == e.upper == Fraction(-2)
    ok = ok and equals_threshold(smallest_eigenvalue(family_graph("H5")))
    checked = ["H1", "H2", "H3", "H5"]
    # remaining hosts are checked once their transcriptions are present
    if have_family_graph("H4"):
        e = smallest_eigenvalue(family_graph("H4"))
        ok = ok and e.lower == e.upper == Fraction(-2)
        checked.append("H4")
    for name in ("H6", "H7", "H8", "H9"):
        if have_family_graph(name):
            ok = ok and equals_threshold(smallest_eigenvalue(family_graph(name)))
            checked.append(name)
    _line(
        ok,
        f"criterion 9: eigenvalue labels exact (-1, -2, -1-sqrt(2)) for {sorted(checked)}",
    )
