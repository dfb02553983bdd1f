"""Recognition, cover enumeration, equivalence, vertex deletion."""

import itertools
import random
from collections import Counter

import pytest

from hoffline.core import (
    EMPTY_GRAPH,
    HoffmanGraph,
    HoffmanGraphError,
    _iter_bits,
)
from hoffline.enumeration import all_slim_graphs, connected_slim_graphs, fat_hoffman_graphs
from hoffline.families import classify_part, family_graph
from hoffline import recognition
from hoffline.recognition import _extensions, enumerate_strict_covers, is_h_line
from hoffline.sums import validate_sum

from bruteforce import (
    VertexNotInGraph,
    build_sum,
    delete_vertex_from_cover,
    extensions_reference,
    hline_bruteforce,
    strict_covers_reference,
)
from helpers import (
    DifferentBase,
    cover_class,
    covers_equivalent,
    relabeled,
    slim_complete,
    slim_cycle,
    slim_path,
)


def _sound(cover):
    """A returned cover must be a valid sum of family parts covering its
    base as an induced subgraph with equal slim vertex sets."""
    ok, why = validate_sum(cover.host, cover.parts)
    assert ok, why
    base = cover.base
    assert cover.host.slim_count == base.slim_count
    for cls, part in zip(cover.classes, cover.parts):
        sub, _ = cover.host.induced_on(sorted(part))
        assert classify_part(sub) == cls
        assert cls in ("H1", "H2", "H3", "H5")
    # induced embedding of the base at identity positions
    for u in range(base.n):
        for v in range(u + 1, base.n):
            assert base.adjacent(u, v) == cover.host.adjacent(u, v)


def test_complete_and_cycle_are_line_graphs():
    for g in (slim_complete(5), slim_cycle(7), slim_complete(2), slim_cycle(3)):
        cover = is_h_line(g)
        assert cover is not None
        _sound(cover)
        assert set(cover.classes) <= {"H2", "H3", "H5"}


def test_empty_graph_is_line_graph():
    cover = is_h_line(EMPTY_GRAPH)
    assert cover is not None and cover.parts == ()


def test_five_vertex_non_line_graphs():
    k23 = HoffmanGraph.build(5, 0, [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4)])
    assert is_h_line(k23) is None


def test_family_members_are_line_graphs_of_themselves():
    for name in ("H1", "H2", "H3", "H5"):
        g = family_graph(name)
        cover = is_h_line(g)
        assert cover is not None
        _sound(cover)


def test_fat_obstructions_are_not_line_graphs():
    for name in ("F1", "F2", "F3", "F4", "F5", "F6", "F7", "F8", "F9"):
        assert is_h_line(family_graph(name)) is None


def test_agrees_with_definition_level_search():
    # independent oracle: enumerate covers straight from the definition
    for n in range(1, 7):
        for g in connected_slim_graphs(n):
            got = is_h_line(g) is not None
            assert got == hline_bruteforce(g), sorted(g.edges())


def _cocktail_party(k):
    """CP(k): 2k vertices, the pairs 2i, 2i + 1 the only non-edges."""
    n = 2 * k
    return HoffmanGraph.build(
        n, 0, [(u, v) for u, v in itertools.combinations(range(n), 2) if v != u + 1 or u % 2]
    )


def test_uniform_cells_match_unpruned_search(fat_corpus, stream_graphs):
    # the covers built one vertex at a time are those of the unpruned
    # cell and fat-block search, in its order
    graphs = [g for n in range(1, 8) for g in all_slim_graphs(n)]
    graphs += stream_graphs + [_cocktail_party(k) for k in range(1, 8)]
    for g in graphs:
        assert enumerate_strict_covers(g) == list(strict_covers_reference(g)), (
            g.slim_count,
            list(g.adj),
        )
    for g in fat_corpus + list(fat_hoffman_graphs(5, 2)):
        assert is_h_line(g) == next(strict_covers_reference(g), None), (g.slim_count, list(g.adj))


def test_cover_structures_once_per_class(stream_graphs):
    # every class of the extension becomes one cover, with no dedupe set:
    # no two covers share a fat-neighbourhood multiset
    graphs = [g for n in range(1, 8) for g in all_slim_graphs(n)]
    graphs += stream_graphs + [_cocktail_party(k) for k in range(1, 8)]
    several = 0
    for g in graphs:
        keys = [cover_class(cover)[1] for cover in enumerate_strict_covers(g)]
        assert len(set(keys)) == len(keys), (g.slim_count, list(g.adj))
        several += len(keys) > 1
    assert several


def _disjoint(graphs):
    """The disjoint union of ``graphs``, slim vertices first, each
    graph's vertices in its own order."""
    s = sum(g.slim_count for g in graphs)
    edges, slim_at, fat_at = [], 0, s
    for g in graphs:
        at = [slim_at + v if v < g.slim_count else fat_at + v - g.slim_count for v in range(g.n)]
        edges += [(at[u], at[v]) for u, v in g.edges()]
        slim_at += g.slim_count
        fat_at += g.fat_count
    return HoffmanGraph.build(s, fat_at - s, edges)


def test_one_fat_vertex_over_many_non_adjacent_vertices():
    # a cell search tries every pairing of the 24 slim vertices before
    # the fat vertex refuses each; the pinned fat, cut down to each
    # prefix, ends the run at the third vertex
    m = 24
    g = HoffmanGraph.build(m, 1, [(v, m) for v in range(m)])
    assert is_h_line(g) is None


def test_non_line_component_after_many_isolated_vertices(catalog7):
    # a 5-vertex member after 30 isolated vertices: the largest
    # component goes first, so the involutions of the isolated vertices
    # are never built
    member = catalog7.entries[5][0].graph
    g = _disjoint([HoffmanGraph.build(1, 0, [])] * 30 + [member])
    assert is_h_line(g) is None
    assert enumerate_strict_covers(g) == []


def test_many_components_match_reference_search():
    # each component takes its first class; the union is the first class
    # of the whole graph
    for g in (
        HoffmanGraph.build(40, 0, []),
        _disjoint([family_graph("H1")] * 30),
        _disjoint([slim_path(2), HoffmanGraph.build(1, 0, []), family_graph("H1"), slim_path(3)] * 3),
    ):
        cover = is_h_line(g)
        assert cover == next(strict_covers_reference(g))
        _sound(cover)


def _random_h_sum(rng):
    """A sum of 5-9 parts from {H2, H3, H5} on 12-24 slim vertices, its
    fat vertices glued at random in groups of two or three; a group can
    break the rules of a sum."""
    while True:
        parts = [family_graph(rng.choice(("H2", "H3", "H5"))) for _ in range(rng.randint(5, 9))]
        if 12 <= sum(p.slim_count for p in parts) <= 24:
            break
    slots = [(ci, fv) for ci, p in enumerate(parts) for fv in range(p.slim_count, p.n)]
    rng.shuffle(slots)
    glue = []
    while len(slots) >= 2:
        size = rng.randint(2, min(3, len(slots)))
        glue.append(slots[:size])
        slots = slots[size:]
    return build_sum(parts, glue)


def test_random_sums_are_found_among_covers():
    # completeness at sizes the exhaustive tests cannot reach: the slim
    # graph of every sum has that sum among its cover classes
    rng = random.Random(9091)
    checked = 0
    for _ in range(80):
        try:
            host, _ = _random_h_sum(rng)
        except HoffmanGraphError:  # SharedFatConflict among them
            continue
        nbhds = tuple(sorted(host.adj[f] & host.slim_mask for f in range(host.slim_count, host.n)))
        covers = enumerate_strict_covers(host.slim_subgraph())
        assert nbhds in {cover_class(c)[1] for c in covers}
        for c in covers:
            ok, why = validate_sum(c.host, c.parts)
            assert ok, why
        checked += 1
    assert checked == 46


def test_closed_under_vertex_deletion():
    for n in range(2, 7):
        for g in connected_slim_graphs(n):
            if is_h_line(g) is None:
                continue
            for v in range(n):
                assert is_h_line(g.delete_slim({v})) is not None


def test_closed_under_disjoint_union():
    picks = [slim_path(3), slim_cycle(5), slim_complete(4)]
    for a, b in itertools.combinations(picks, 2):
        cover = is_h_line(_disjoint([a, b]))
        assert cover is not None
        _sound(cover)


def test_single_vertex_has_exactly_one_cover_class():
    covers = enumerate_strict_covers(HoffmanGraph.build(1, 0, []))
    assert len(covers) == 1
    assert covers[0].classes == ("H2",)


def test_triangle_has_two_cover_classes():
    covers = enumerate_strict_covers(slim_complete(3))
    assert len(covers) == 2
    for c in covers:
        _sound(c)
    assert not covers_equivalent(covers[0], covers[1])


def test_non_line_graph_has_no_covers():
    k23 = HoffmanGraph.build(5, 0, [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4)])
    assert enumerate_strict_covers(k23) == []


def test_all_enumerated_covers_sound_and_inequivalent():
    for n in range(1, 6):
        for g in connected_slim_graphs(n):
            covers = enumerate_strict_covers(g)
            for c in covers:
                _sound(c)
                assert set(c.classes) <= {"H2", "H3", "H5"}
            for a, b in itertools.combinations(covers, 2):
                assert not covers_equivalent(a, b)


def test_connected_line_graph_has_connected_cover():
    for n in range(1, 7):
        for g in connected_slim_graphs(n):
            covers = enumerate_strict_covers(g)
            if covers:
                assert any(c.host.is_connected() for c in covers)


def test_connected_sum_has_connected_slim_part():
    # a connected sum with at least two parts induces a connected slim graph
    for n in range(2, 7):
        for g in connected_slim_graphs(n):
            for c in enumerate_strict_covers(g):
                if len(c.parts) >= 2 and c.host.is_connected():
                    assert c.host.slim_subgraph().is_connected()


def test_covers_equivalent_identity_and_relabel():
    g = slim_path(4)
    covers = enumerate_strict_covers(g)
    assert covers
    c = covers[0]
    assert covers_equivalent(c, c)
    other = enumerate_strict_covers(slim_path(3))[0]
    with pytest.raises(DifferentBase):
        covers_equivalent(c, other)


def test_recognition_handles_fat_inputs():
    # fat inputs pin their fat vertices in the cover
    h5 = family_graph("H5")
    cover = is_h_line(h5)
    assert cover is not None
    _sound(cover)
    # the pendant-fat variant of H2 is still a line graph
    g = HoffmanGraph.build(2, 1, [(0, 1), (1, 2)])
    cover = is_h_line(g)
    assert cover is not None
    _sound(cover)


# -- vertex deletion inside covers --------------------------------------


def _connected_cover_with_first_class(cls_name):
    """Some connected cover whose first part has the requested class."""
    for n in range(2, 7):
        for g in connected_slim_graphs(n):
            for c in enumerate_strict_covers(g):
                if not c.host.is_connected():
                    continue
                for i, cls in enumerate(c.classes):
                    if cls == cls_name:
                        return c, i
    raise AssertionError(f"no cover with an {cls_name} part found")


def test_delete_from_h2_part_case_i():
    cover, i = _connected_cover_with_first_class("H2")
    x = min(v for v in cover.parts[i] if v < cover.host.slim_count)
    out, case = delete_vertex_from_cover(cover.host, cover.parts, x)
    assert case == "i"
    _sound(out)
    assert out.base == cover.host.delete_slim({x})


def test_delete_from_h3_part_case_ii():
    cover, i = _connected_cover_with_first_class("H3")
    x = min(v for v in cover.parts[i] if v < cover.host.slim_count)
    out, case = delete_vertex_from_cover(cover.host, cover.parts, x)
    assert case == "ii"
    _sound(out)
    # one fresh fat vertex is a pendant vertex of the new host
    assert any(
        out.host.adj[f].bit_count() == 1 for f in range(out.host.slim_count, out.host.n)
    )


def test_delete_from_h5_part_cases_iii_iv():
    # deleting the isolated slim vertex gives case iii, an endpoint of
    # the slim edge gives case iv; exercise both on one H5-containing sum
    h5 = family_graph("H5")
    h2 = family_graph("H2")
    host, parts = build_sum([h5, h2], [[(0, 3), (1, 1)]])
    cases = {}
    for x in sorted(v for v in parts[0] if v < host.slim_count):
        out, case = delete_vertex_from_cover(host, parts, x)
        _sound(out)
        cases[x] = case
    assert sorted(cases.values()) == ["iii", "iv", "iv"]


def test_delete_every_choice_is_classified_small():
    # over all connected covers at small sizes, every slim deletion maps
    # to exactly one of the four cases and yields a valid cover
    seen = set()
    for n in range(2, 6):
        for g in connected_slim_graphs(n):
            for c in enumerate_strict_covers(g):
                if not c.host.is_connected():
                    continue
                if set(c.classes) - {"H2", "H3", "H5"}:
                    continue
                for x in range(c.host.slim_count):
                    out, case = delete_vertex_from_cover(c.host, c.parts, x)
                    assert case in ("i", "ii", "iii", "iv")
                    seen.add(case)
                    _sound(out)
                    assert out.base == c.host.delete_slim({x})
    assert seen == {"i", "ii", "iii", "iv"}


def test_delete_rejects_bad_vertex():
    cover = enumerate_strict_covers(slim_path(3))[0]
    with pytest.raises(VertexNotInGraph):
        delete_vertex_from_cover(cover.host, cover.parts, 99)


def test_delete_rejects_a_decomposition_that_is_not_a_sum():
    # slim 0 and 1 share fat 3 but are not adjacent, so rule (iv) fails;
    # the transform must not return a cover of it
    host = HoffmanGraph.build(
        3, 4, [(0, 3), (1, 3), (0, 4), (1, 5), (2, 5), (2, 6), (1, 2)]
    )
    parts = (frozenset({0, 3, 4}), frozenset({1, 3, 5}), frozenset({2, 5, 6}))
    assert validate_sum(host, parts) == (False, "iv")
    with pytest.raises(HoffmanGraphError, match=r"\(iv\)"):
        delete_vertex_from_cover(host, parts, 2)


# -- extension by one vertex --------------------------------------------


def _classes(g):
    """The classes of ``g`` by the reference search."""
    return sorted(cover_class(c) for c in strict_covers_reference(g))


def _moved_last(g, v):
    """``g`` with vertex ``v`` renumbered last, the others kept in order."""
    return relabeled(g, [g.n - 1 if u == v else u - (u > v) for u in range(g.n)])


def _extended(c):
    """The classes of ``c`` that ``_extensions`` reads from those of
    ``c`` minus its last vertex."""
    v = c.n - 1
    return sorted(_extensions(_classes(c.delete_slim({v})), v, c.adj[v]))


def _inverse_case(c, cells):
    """The deletion-lemma case of the last vertex of ``c`` in a class."""
    v = c.n - 1
    rest = next(m for m in cells if m >> v & 1) & ~(1 << v)
    if not rest:
        return "i"
    if not rest & (rest - 1):
        return "ii"
    a, b = _iter_bits(rest)
    return "iii" if c.adjacent(a, b) else "iv"


def test_extension_matches_full_enumeration():
    # every connected C with n <= 7 and every v with C - v connected:
    # the classes of C - v extended by v are those of C, each once
    pairs, cases = 0, Counter()
    for n in range(2, 8):
        for g in connected_slim_graphs(n):
            for v in range(n):
                c = _moved_last(g, v)
                if not c.delete_slim({n - 1}).is_connected():
                    continue
                pairs += 1
                got = _extended(c)
                assert got == _classes(c)
                cases.update(_inverse_case(c, cells) for cells, _fats in got)
    assert pairs == 6098
    assert cases == {"i": 989, "ii": 250, "iii": 43, "iv": 86}


def test_extension_of_every_small_graph():
    # disconnected graphs too: an isolated new vertex, and the two equal
    # pads of an isolated singleton
    for n in range(1, 7):
        for g in all_slim_graphs(n):
            for v in range(n):
                c = _moved_last(g, v)
                assert _extended(c) == _classes(c)


def test_extension_in_descending_order():
    # the new vertex need not be the highest: adding the vertices from
    # the highest down gives the classes ``_classes`` finds
    for n in range(1, 7):
        for g in all_slim_graphs(n):
            classes, prefix = [((), ())], 0
            for v in reversed(range(n)):
                classes = _extensions(classes, v, g.adj[v] & prefix)
                prefix |= 1 << v
            got = [(tuple(sorted(cells, key=lambda c: c & -c)), fats) for cells, fats in classes]
            assert sorted(got) == sorted(recognition._classes(g, g.slim_mask, [])), list(g.adj)


def test_extension_matches_the_reference_step():
    # the step runs the loop over a class's cells only when some fat
    # holds N(v) and one or two vertices more, and checks the fat counts
    # of the classes it returns; the step that ran that loop and check
    # on every class it read gives the same classes in the same order,
    # for every class list of every slim graph to n = 6, as ``_classes``
    # sorts it and as the extension builds it vertex by vertex, and
    # every neighbourhood of a new vertex
    found = 0
    for n in range(1, 7):
        for g in all_slim_graphs(n):
            built, prefix = [((), ())], 0
            for v in range(n):
                built = _extensions(built, v, g.adj[v] & prefix)
                prefix |= 1 << v
            for classes in (recognition._classes(g, g.slim_mask, []), built):
                for nbhd in range(1 << n):
                    got = _extensions(classes, n, nbhd)
                    assert got == extensions_reference(classes, n, nbhd), (list(g.adj), nbhd)
                    found += len(got)
    assert found


def test_extension_rejects_a_singleton_with_one_fat():
    with pytest.raises(HoffmanGraphError, match="wrong fat count"):
        _extensions([((1,), (1,))], 1, 0)


@pytest.mark.parametrize("cells, fats, nbhd", [
    ((0b1,), (0b1, 0b1, 0b1), 0b1),
    ((0b11,), (0b11, 0b11), 0),
    ((0b11,), (0b01, 0b10), 0),
    ((0b11,), (0b01,), 0),
    ((0b11,), (), 0),
], ids=["singleton-in-three", "pair-in-two", "pair-split", "pair-vertex-in-none", "pair-in-none"])
def test_extension_checks_the_fat_counts_of_the_classes_it_returns(cells, fats, nbhd):
    # the check reads the vertices in one, two and three fats: a
    # singleton lies in exactly two, and an H3 cell in one fat that holds
    # all of it; the new vertex 2 keeps the class's cells and, but for
    # the fat it joins, its fats
    with pytest.raises(HoffmanGraphError, match="wrong fat count"):
        _extensions([(cells, fats)], 2, nbhd)


def test_strict_covers_refuse_a_fat_vertex():
    with pytest.raises(HoffmanGraphError, match="expects a slim graph"):
        enumerate_strict_covers(HoffmanGraph(1, 1, (0b10, 0b01)))
