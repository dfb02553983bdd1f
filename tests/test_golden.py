"""Golden corpus: digests of outputs that a refactor must leave unchanged.

Each corpus is serialized one JSON line per item and hashed with SHA-256.
The digests were computed by running these same functions on the code
before the sum builders were merged into one rule-(iv) primitive (the
fat-input covers: before the strict-cover search became plain
generators; the spectral records: before the Sturm certification moved
to integer arithmetic; the fat-graph classes and the cover deletions:
before the fat graphs moved to canonical augmentation and the deletion
host to the sum primitive; the generation streams: before children that
cannot be canonical were rejected ahead of their canonical labelling; the
stream covers: before the strict-cover search rejected cells whose
vertices see different neighbours outside the cell; the k = 5 sums:
before cell partitions with a repeated multiset of classes were
skipped; the streams of all graphs on 7 vertices and of connected
graphs on 8: before each parent was extended once per orbit of its
automorphism group; the k = 6 sums: before slot partitions that a
permutation of like cells maps onto an earlier one were skipped), so a
mismatch means some output changed byte for byte.  When a change alters
an output on purpose, recompute the digest (``_digest`` of the corpus)
and say why in the commit.
"""

import hashlib
import io
import json
import os
import random

import pytest

from hoffline.cli import main
from hoffline.core import HoffmanGraph, HoffmanGraphError, canonical_form
from hoffline.enumeration import (
    all_slim_graphs,
    connected_slim_graphs,
    enumerate_sums,
    sum_graphs,
    write_graph6,
)
from hoffline.families import family_graph
from hoffline.recognition import enumerate_strict_covers, is_h_line
from hoffline.spectral import (
    compare_threshold,
    count_eigenvalues_below_threshold,
    equals_threshold,
    smallest_eigenvalue,
)
from hoffline.sums import validate_sum
from hoffline.verify import _member_doc, build_catalog

from bruteforce import build_sum, delete_vertex_from_cover

CLI_DIGESTS = {
    "recognize": "ed28d70a29bd7a5410ab48e1a5694efbd645e1b764bd5ad2b0e9e061da9cd75e",
    "covers": "e336500618e9e05601d487126a9e1e77f911ef278d8028b40867eab0f363995d",
    "spectral": "ab4a52e58605b18406344838718f6dcdfe03e58dd3625eb7bd1d3d86de39cef3",
}
SUM_GRAPHS_DIGEST = "e28c4d1cc8eea47ab8c8d36ee2bcf6a097cdc80785b857a02f077ddd2f7aab5a"
ENUMERATE_SUMS_DIGEST = "7626865c0dcbb3c910c9e1196f3d366a4ff3d6555914d1157248de91b7295b1e"
SUM_FAMILY5_DIGEST = "2d27834b31ebdec6dc1a30886d4ce519bb38306fb2b055e1203fcbe9d4c996da"
SUM_FAMILY6_DIGEST = "41338be7ad5cf303a75a8189d88c9bb1e44aa81a9b7aecfdccc338e5aa504389"
BUILD_SUM_DIGEST = "432be6663fb47dccfedcdd1fff25833c30249c9fbcc4a4ceeffa007bca619e36"
FAT_COVERS_DIGEST = "cf5797bc49afc3809268d87999895b52af474a9aa87116c624fbb7da59aff4ef"
FAT_CLASSES_DIGEST = "e9375da14a014d50aaba8584fe753e81ee280c37ae368634ac3e8f61c2bb45e9"
DELETE_COVER_DIGEST = "6e5c4b78ef24023132e50e262fd4166777a367712d99890049a74ae1cd72004f"
GEN_DIGEST = "73539522605e575ec669dc3303f6cc1cf57a3184495169a3f666ff54525ea71b"
ALL7_DIGEST = "a6b9e7c8979541199f3d8550b614e35fcecfd1b9be99d0e471aeb033021e3003"
CONNECTED8_DIGEST = "90902d4b37ac55e5449aa6f14b2bb76ff2a5509ec6983210fa98536e05c5faa1"
STREAM_COVERS_DIGEST = "ae0627833a319d8f48b7625c23b83bada4aee1646bd8f0bf47c17dff7470862a"
SPECTRAL_DIGEST = "bf909f0ea95bdb7f4c3143eb9b7bbc9261e38a9b26877aed1363855bb924cd9b"
#: recomputed when the checksum came to cover ``n_max`` and the per-size
#: counts as well as the member forms
CATALOG8_CHECKSUM = "d5ef413e4cadfec9cdb4cf46f4aa0788718b23a36153d4343feba6bbcd901910"
#: ``build_catalog(9).checksum()``, computed before the minimality phase
#: of the build shared its work across candidates
CATALOG9_CHECKSUM = "28955684dcbb077a9ecb42d1d702eabee7dc14830cf6dcd0c2a5a31f88acf8a0"
#: the witness files of the catalog to n = 8, which the checksum leaves
#: out: each member's graph6 representative, certificates and deletion
#: covers, one ``_member_doc`` per line
CATALOG8_WITNESS_DIGEST = "69d424da3f42ca0106012e52bb899a41223bf2cf79539a461423c4d79f90c623"


def _digest(lines):
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode())
        h.update(b"\n")
    return h.hexdigest()


@pytest.fixture(scope="module")
def graph6_upto_7():
    return "".join(
        write_graph6(g) + "\n" for n in range(1, 8) for g in connected_slim_graphs(n)
    )


@pytest.mark.parametrize("command", sorted(CLI_DIGESTS))
def test_cli_records_all_connected_graphs_upto_7(command, graph6_upto_7, monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO(graph6_upto_7))
    assert main([command]) == 0
    out = capsys.readouterr().out
    assert out.count("\n") == 996
    assert _digest(out.splitlines()) == CLI_DIGESTS[command]


def test_generation_streams():
    # the representative of every class and their order, as generated
    lines = [
        f"connected {write_graph6(g)}" for n in range(1, 8) for g in connected_slim_graphs(n)
    ] + [f"all {write_graph6(g)}" for n in range(1, 7) for g in all_slim_graphs(n)]
    assert len(lines) == 996 + 208
    assert _digest(lines) == GEN_DIGEST


def test_all_graphs_7_stream():
    lines = [write_graph6(g) for g in all_slim_graphs(7)]
    assert len(lines) == 1044
    assert _digest(lines) == ALL7_DIGEST


@pytest.mark.skipif(
    not os.environ.get("HOFFLINE_ACCEPT_N9"),
    reason="set HOFFLINE_ACCEPT_N9=1 to pin the connected stream on 8 vertices",
)
def test_connected_graphs_8_stream():
    lines = [write_graph6(g) for g in connected_slim_graphs(8)]
    assert len(lines) == 11117
    assert _digest(lines) == CONNECTED8_DIGEST


def test_spectral_records(spectral_corpus):
    # exact brackets, both verdicts and the count below -1-sqrt(2)
    lines = []
    for g in spectral_corpus:
        e = smallest_eigenvalue(g)
        lines.append(json.dumps([
            str(e.lower),
            str(e.upper),
            compare_threshold(e).value,
            equals_threshold(e),
            count_eigenvalues_below_threshold(e.poly),
        ]))
    assert len(lines) == 996 + 200
    assert _digest(lines) == SPECTRAL_DIGEST


def test_stream_covers(stream_graphs):
    # first cover and every cover class on 12-15 vertices, where the
    # cell phase prunes most
    lines = []
    for g in stream_graphs:
        first = is_h_line(g)
        covers = enumerate_strict_covers(g)
        lines.append(json.dumps([
            first.to_json_dict() if first else None,
            [c.to_json_dict() for c in covers],
        ]))
    assert len(lines) == 200
    assert sum(json.loads(line)[0] is not None for line in lines) == 108
    assert _digest(lines) == STREAM_COVERS_DIGEST


def test_catalog8_checksum(catalog8):
    assert catalog8.checksum() == CATALOG8_CHECKSUM


def test_catalog8_witness_files(catalog8):
    lines = [json.dumps(_member_doc(e), sort_keys=True) for e in catalog8.members()]
    assert len(lines) == 38
    assert _digest(lines) == CATALOG8_WITNESS_DIGEST


@pytest.mark.skipif(
    not os.environ.get("HOFFLINE_ACCEPT_N9"),
    reason="set HOFFLINE_ACCEPT_N9=1 to pin the catalog on 9 vertices",
)
def test_catalog9_checksum():
    assert build_catalog(9).checksum() == CATALOG9_CHECKSUM


def test_is_h_line_first_cover_equals_enumeration_head():
    # recognition returns the first cover of the same search that
    # enumeration drains, or None exactly when there is no cover
    for n in range(1, 8):
        for g in connected_slim_graphs(n):
            covers = enumerate_strict_covers(g)
            assert is_h_line(g) == (covers[0] if covers else None)


def test_is_h_line_fat_inputs(fat_corpus):
    # inputs with pinned fat vertices, which the CLI corpus never reaches
    covers = [is_h_line(g) for g in fat_corpus]
    assert len(covers) == 2763
    assert sum(c is not None for c in covers) == 98
    lines = [json.dumps(c.to_json_dict() if c else None) for c in covers]
    assert _digest(lines) == FAT_COVERS_DIGEST


def test_fat_corpus_classes(fat_corpus):
    # the set of classes and their verdicts, independent of which
    # representative a generator picks and in which order
    lines = sorted(
        json.dumps([canonical_form(g).hex(), is_h_line(g) is not None]) for g in fat_corpus
    )
    assert len(lines) == 2763
    assert _digest(lines) == FAT_CLASSES_DIGEST


def test_delete_vertex_from_cover_records():
    # every slim vertex of every connected {H2, H3, H5} cover, n = 2..7
    lines = []
    for n in range(2, 8):
        for g in connected_slim_graphs(n):
            for c in enumerate_strict_covers(g):
                if not c.host.is_connected() or set(c.classes) - {"H2", "H3", "H5"}:
                    continue
                for x in range(c.host.slim_count):
                    out, case = delete_vertex_from_cover(c.host, c.parts, x)
                    lines.append(json.dumps(
                        [case, out.to_json_dict(), list(out.base.adj), out.base.fat_count]
                    ))
    assert len(lines) == 1632
    assert _digest(lines) == DELETE_COVER_DIGEST


def test_sum_graphs_upto_4():
    lines = [
        json.dumps([k, g.slim_count, g.fat_count, list(g.adj), [sorted(p) for p in parts]])
        for k in range(5)
        for g, parts in sum_graphs(k)
    ]
    assert len(lines) == 1 + 2 + 7 + 23 + 74
    assert _digest(lines) == SUM_GRAPHS_DIGEST


def test_enumerate_sums_rows():
    # table-1 rows d and f, and F1 with |V_s(K)| = 4 and c(K) = 2 (row b)
    lines = [
        json.dumps([name, g.slim_count, g.fat_count, list(g.adj)])
        for name, k, ck in (("F4", 4, 1), ("F7", 2, 1), ("F1", 4, 2))
        for g in enumerate_sums(family_graph(name), k, component_count_k=ck)
    ]
    assert len(lines) == 20 + 6 + 57
    assert _digest(lines) == ENUMERATE_SUMS_DIGEST


def test_sum_family_5_and_rows():
    # the k = 5 family, all and connected, and table-1 rows a, c, e and g
    lines = [
        json.dumps([c, g.slim_count, g.fat_count, list(g.adj), [sorted(p) for p in parts]])
        for c in (None, 1)
        for g, parts in sum_graphs(5, component_count=c)
    ] + [
        json.dumps([name, g.slim_count, g.fat_count, list(g.adj)])
        for name, k, ck in (("F1", 5, 1), ("F3", 5, 1), ("F6", 4, 1), ("F9", 4, 1))
        for g in enumerate_sums(family_graph(name), k, component_count_k=ck)
    ]
    assert len(lines) == 239 + 70 + 129 + 224 + 57 + 57
    assert _digest(lines) == SUM_FAMILY5_DIGEST


def test_sum_family_6():
    # the k = 6 family, all and connected: the largest size sums reach
    lines = [
        json.dumps([c, g.slim_count, g.fat_count, list(g.adj), [sorted(p) for p in parts]])
        for c in (None, 1)
        for g, parts in sum_graphs(6, component_count=c)
    ]
    assert len(lines) == 794 + 204
    assert _digest(lines) == SUM_FAMILY6_DIGEST


def _random_component(rng):
    if rng.random() < 0.5:
        return family_graph(rng.choice(("H1", "H2", "H3", "H5")))
    s = rng.randint(1, 3)
    nf = rng.randint(0, 3)
    edges = [(u, v) for u in range(s) for v in range(u + 1, s) if rng.random() < 0.5]
    for f in range(s, s + nf):
        nbhd = [v for v in range(s) if rng.random() < 0.5] or [rng.randrange(s)]
        edges.extend((v, f) for v in nbhd)
    return HoffmanGraph.build(s, nf, edges)


def _build_sum_record(rng):
    comps = [_random_component(rng) for _ in range(rng.randint(1, 4))]
    slots = [(ci, fv) for ci, c in enumerate(comps) for fv in range(c.slim_count, c.n)]
    rng.shuffle(slots)
    glue = []
    while len(slots) >= 2 and rng.random() < 0.7:
        size = rng.randint(2, min(3, len(slots)))
        glue.append(slots[:size])
        slots = slots[size:]
    try:
        host, parts = build_sum(comps, glue)
    except HoffmanGraphError as exc:
        return json.dumps(["raised", type(exc).__name__])
    return json.dumps([
        host.slim_count,
        host.fat_count,
        list(host.adj),
        [sorted(p) for p in parts],
        validate_sum(host, parts)[0],
    ])


def test_build_sum_seeded_round_trip():
    rng = random.Random(20111)
    lines = [_build_sum_record(rng) for _ in range(400)]
    assert _digest(lines) == BUILD_SUM_DIGEST
