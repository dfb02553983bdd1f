"""Sum construction, validation, and decomposition."""

import pytest

from hoffline import recognition, sums
from hoffline.core import (
    HoffmanGraph,
    HoffmanGraphError,
    IndexOutOfRange,
    _iter_bits,
    canonical_form,
)
from hoffline.enumeration import connected_slim_graphs, fat_hoffman_graphs
from hoffline.families import classify_part, family_graph
from hoffline.recognition import enumerate_strict_covers, is_h_line
from hoffline.sums import SharedFatConflict, validate_sum

from bruteforce import (
    _cells_respect_iv,
    _partitions_upto3,
    build_sum,
    decompose,
    line_family_forms,
)


def _h1():
    return family_graph("H1")


def _h2():
    return family_graph("H2")


def _h3():
    return family_graph("H3")


# -- validate_sum --------------------------------------------------------


def test_single_part_sum_is_valid():
    h3 = _h3()
    ok, why = validate_sum(h3, [set(range(h3.n))])
    assert ok and why is None


def test_two_h1_sharing_fat_adjacent_slims_valid():
    # two slim vertices adjacent, both adjacent to one fat vertex
    host = HoffmanGraph.build(2, 1, [(0, 1), (0, 2), (1, 2)])
    ok, why = validate_sum(host, [{0, 2}, {1, 2}])
    assert ok


def test_two_h1_sharing_fat_nonadjacent_violates_iv():
    host = HoffmanGraph.build(2, 1, [(0, 2), (1, 2)])
    ok, why = validate_sum(host, [{0, 2}, {1, 2}])
    assert not ok and why == "iv"


def test_missing_vertex_violates_i():
    h3 = _h3()
    ok, why = validate_sum(h3, [{0, 2}])
    assert not ok and why == "i"


def test_overlapping_slims_violate_ii():
    h3 = _h3()
    ok, why = validate_sum(h3, [{0, 1, 2}, {1, 2}])
    assert not ok and why == "ii"


def test_fat_outside_part_violates_iii():
    host = HoffmanGraph.build(2, 1, [(0, 1), (0, 2), (1, 2)])
    ok, why = validate_sum(host, [{0}, {1, 2}])
    assert not ok and why == "iii"


# -- build_sum -----------------------------------------------------------


def test_build_sum_two_h1_glued():
    host, parts = build_sum([_h1(), _h1()], [[(0, 1), (1, 1)]])
    assert host.slim_count == 2 and host.fat_count == 1
    assert host.adjacent(0, 1)  # forced by the shared fat
    assert validate_sum(host, parts)[0]


def test_build_sum_double_glue_conflicts():
    with pytest.raises(SharedFatConflict):
        build_sum([_h2(), _h2()], [[(0, 1), (1, 1)], [(0, 2), (1, 2)]])


def test_build_sum_rejects_gluing_fats_of_one_component():
    # merging the two fats of one H2 would turn that part into H1
    with pytest.raises(HoffmanGraphError, match="component 0"):
        build_sum([_h2(), _h2()], [[(0, 1), (0, 2)]])
    with pytest.raises(HoffmanGraphError, match="component 1"):
        build_sum([_h2(), _h2()], [[(0, 1), (1, 1), (1, 2)]])


def test_build_sum_h3_h3_shared_fat():
    host, parts = build_sum([_h3(), _h3()], [[(0, 2), (1, 2)]])
    assert host.slim_count == 4 and host.fat_count == 1
    # all four cross pairs share the glued fat, hence are adjacent
    for x in (0, 1):
        for y in (2, 3):
            assert host.adjacent(x, y)
    assert validate_sum(host, parts)[0]


def test_build_sum_unglued_stays_disconnected():
    host, parts = build_sum([_h1(), _h1()])
    assert len(host.connected_components()) == 2
    assert validate_sum(host, parts)[0]


def test_build_sum_validate_round_trip_random():
    import random

    rng = random.Random(5)
    comps = [_h1(), _h2(), _h3(), family_graph("H5")]
    for _ in range(60):
        chosen = [comps[rng.randrange(4)] for _ in range(rng.randint(2, 3))]
        slots = [
            (ci, fv)
            for ci, c in enumerate(chosen)
            for fv in range(c.slim_count, c.n)
        ]
        rng.shuffle(slots)
        glue = []
        if len(slots) >= 2 and rng.random() < 0.8:
            k = rng.randint(2, min(3, len(slots)))
            group = slots[:k]
            if len({ci for ci, _ in group}) == len(group):
                glue = [group]
        try:
            host, parts = build_sum(chosen, glue)
        except SharedFatConflict:
            continue
        ok, why = validate_sum(host, parts)
        assert ok, why


def test_validate_sum_rule_iv_matches_pairwise_check():
    # closures of a partition of the slim vertices meet (i)-(iii), so
    # validate_sum accepts them exactly when rule (iv) holds pair by pair
    rejected = 0
    for s in range(1, 5):
        for host in fat_hoffman_graphs(s, 2):
            for cells in _partitions_upto3(list(range(s))):
                parts = [host.closure_vertices(c) for c in cells]
                want = _cells_respect_iv(host, cells)
                assert validate_sum(host, parts) == ((True, None) if want else (False, "iv"))
                rejected += not want
    assert rejected


def test_validate_sum_does_not_share_the_builders_faults(monkeypatch):
    # a builder that drops slim vertex 0's edges to other parts makes
    # hosts that break rule (iv); validate_sum, which does not call the
    # builder, must reject every one that differs from the true cover
    real = sums._sum_adjacency

    def drops_vertex_0(slim_rows, cells, fat_nbhds):
        adj, parts = real(slim_rows, cells, fat_nbhds)
        own = next(c for c in cells if c & 1)
        cross = adj[0] & ((1 << len(slim_rows)) - 1) & ~own
        adj[0] &= ~cross
        for y in _iter_bits(cross):
            adj[y] &= ~1
        return adj, parts

    true_covers = [is_h_line(g) for g in connected_slim_graphs(5)]
    monkeypatch.setattr(sums, "_sum_adjacency", drops_vertex_0)
    monkeypatch.setattr(recognition, "_sum_adjacency", drops_vertex_0)
    wrong = 0
    for g, true in zip(connected_slim_graphs(5), true_covers):
        cover = is_h_line(g)
        if cover is None or cover.host == true.host:
            continue
        wrong += 1
        assert validate_sum(cover.host, cover.parts) == (False, "iv")
    assert wrong == 19


# -- decompose (the reference in bruteforce) -------------------------------


def test_decompose_h3_single_part():
    h3 = _h3()
    out = decompose(h3, line_family_forms())
    assert len(out) == 1
    assert out[0] == (h3, (frozenset({0, 1, 2}),))


def test_decompose_two_h1_shared_fat_over_h1():
    host = HoffmanGraph.build(2, 1, [(0, 1), (0, 2), (1, 2)])
    out = decompose(host, {canonical_form(_h1())})
    assert len(out) == 1
    assert set(out[0][1]) == {frozenset({0, 2}), frozenset({1, 2})}


def test_decompose_empty_graph():
    from hoffline.core import EMPTY_GRAPH

    out = decompose(EMPTY_GRAPH, line_family_forms())
    assert out == [(EMPTY_GRAPH, ())]


def test_decompose_unique_on_cover_hosts():
    # every strict cover found at small sizes decomposes exactly one way
    # over the family, and into exactly its own parts
    forms = line_family_forms()
    for n in range(1, 6):
        for g in connected_slim_graphs(n):
            for cover in enumerate_strict_covers(g):
                decs = decompose(cover.host, forms)
                assert len(decs) == 1
                assert set(decs[0][1]) == set(cover.parts)


def test_fat_degree_bounds_on_covers():
    # inside any sum over the family: each slim vertex has at most two
    # fat neighbours and two slim vertices share at most one
    for n in range(1, 7):
        for g in connected_slim_graphs(n):
            for cover in enumerate_strict_covers(g):
                h = cover.host
                for u in range(h.slim_count):
                    assert h.fat_neighbors(u).bit_count() <= 2
                    for v in range(u + 1, h.slim_count):
                        shared = h.fat_neighbors(u) & h.fat_neighbors(v)
                        assert shared.bit_count() <= 1


def test_h2_parts_carry_all_fats_in_connected_covers():
    # in a connected sum with at least one singleton part, the fats of
    # the singleton parts cover every fat vertex of the host
    found = 0
    for n in range(2, 7):
        for g in connected_slim_graphs(n):
            for cover in enumerate_strict_covers(g):
                if not cover.host.is_connected():
                    continue
                h2_parts = [
                    p for p, c in zip(cover.parts, cover.classes) if c == "H2"
                ]
                if not h2_parts:
                    continue
                found += 1
                fats_in_h2 = set()
                for p in h2_parts:
                    fats_in_h2 |= {v for v in p if v >= cover.host.slim_count}
                all_fats = set(range(cover.host.slim_count, cover.host.n))
                assert fats_in_h2 == all_fats
                # and the sub-sum of the singleton parts is connected
                union = sorted(set().union(*h2_parts))
                sub, _ = cover.host.induced_on(union)
                assert sub.is_connected()
    assert found > 50


def test_restriction_commutes_with_sum():
    # restricting one summand of a two-part sum to a slim subset gives
    # the sum of the untouched part and the restricted part
    import random

    rng = random.Random(9)
    comps = [family_graph(n) for n in ("H2", "H3", "H5")]
    checked = 0
    for _ in range(80):
        a = comps[rng.randrange(3)]
        b = comps[rng.randrange(3)]
        slot_a = (0, rng.randrange(a.slim_count, a.n))
        slot_b = (1, rng.randrange(b.slim_count, b.n))
        try:
            host, parts = build_sum([a, b], [[slot_a, slot_b]])
        except SharedFatConflict:
            continue
        part_a, part_b = parts
        slim_b = sorted(v for v in part_b if v < host.slim_count)
        if not slim_b:
            continue
        keep = rng.sample(slim_b, rng.randint(1, len(slim_b)))
        restricted = host.closure_vertices(
            sorted(v for v in range(host.slim_count) if v not in set(slim_b) - set(keep))
        )
        direct, _ = host.induced_on(sorted(set(part_a) | set(host.closure_vertices(keep))))
        again, _ = host.induced_on(restricted)
        assert canonical_form(direct) == canonical_form(again)
        checked += 1
    assert checked > 30


def test_classify_part_names():
    assert classify_part(family_graph("H1")) == "H1"
    assert classify_part(family_graph("H2")) == "H2"
    assert classify_part(family_graph("H3")) == "H3"
    assert classify_part(family_graph("H5")) == "H5"
    assert classify_part(family_graph("F1")) is None


def test_validate_sum_refuses_a_part_vertex_outside_the_host():
    host = HoffmanGraph.build(2, 0, [(0, 1)])
    with pytest.raises(IndexOutOfRange, match="part vertex 2 outside host"):
        validate_sum(host, [{0, 2}])
