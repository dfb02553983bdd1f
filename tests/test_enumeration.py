"""Generation streams, graph6 I/O, fat families, sum composition."""

import itertools
import os

import networkx as nx
import pytest

from hoffline import enumeration
from hoffline.core import (
    HoffmanGraph,
    HoffmanGraphError,
    IndexOutOfRange,
    _iter_bits,
    _mask_of,
    canonical_data,
    canonical_form,
    find_embedding,
)
from hoffline.enumeration import (
    EMPTY_GRAPH,
    _CELL_SHAPES,
    _canonical_children,
    _cell_layouts,
    _compose,
    _cut_components,
    _degree_bands,
    _degree_tested_child,
    _extend,
    _orbit_representatives,
    _slim_graphs,
    _slot_partitions,
    _sum_family,
    Graph6Error,
    MalformedHeader,
    NonCanonicalPadding,
    TruncatedPayload,
    all_slim_graphs,
    connected_slim_graphs,
    enumerate_sums,
    fat_hoffman_graphs,
    parse_graph6,
    read_graph6_lines,
    sum_graphs,
    write_graph6,
)
from hoffline.families import family_graph
from hoffline.sums import SharedFatConflict, validate_sum
from hoffline.verify import _hub_graphs, _layer, _lemma_graphs

from bruteforce import (
    _assemble_sum,
    _cell_partitions,
    allowed_targets,
    canonical_children_unpruned,
    enumerate_sums_unpruned,
    fat_graphs_bruteforce,
    fat_neighbourhoods_labelled,
    sum_family_unpruned,
)
from helpers import automorphism_orbits

CONNECTED_COUNTS = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853}
ALL_COUNTS = {1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156}


def test_connected_counts():
    for n, want in CONNECTED_COUNTS.items():
        assert sum(1 for _ in connected_slim_graphs(n)) == want


def test_all_graph_counts():
    for n, want in ALL_COUNTS.items():
        assert sum(1 for _ in all_slim_graphs(n)) == want


def test_streams_have_no_isomorphic_duplicates():
    for n in range(1, 7):
        forms = [canonical_form(g) for g in connected_slim_graphs(n)]
        assert len(forms) == len(set(forms))


def test_generation_matches_labeled_bruteforce():
    # quotient of all labeled graphs by isomorphism, for small n
    for n in range(1, 6):
        labeled = set()
        pairs = list(itertools.combinations(range(n), 2))
        for bits in range(1 << len(pairs)):
            edges = [pairs[i] for i in range(len(pairs)) if (bits >> i) & 1]
            g = HoffmanGraph.build(n, 0, edges)
            labeled.add(canonical_form(g))
        got = {canonical_form(g) for g in all_slim_graphs(n)}
        assert got == labeled
        conn = {
            canonical_form(g) for g in all_slim_graphs(n) if g.is_connected()
        }
        assert conn == {canonical_form(g) for g in connected_slim_graphs(n)}


def test_generation_is_deterministic():
    first = [write_graph6(g) for g in connected_slim_graphs(6)]
    second = [write_graph6(g) for g in connected_slim_graphs(6)]
    assert first == second


def test_generation_agrees_with_published_atlas():
    # the networkx graph atlas is an independently curated collection of
    # all graphs with up to 7 vertices; ingesting it must give exactly
    # the canonical-form sets of native generation
    from networkx.generators.atlas import graph_atlas_g

    atlas = {n: set() for n in range(1, 8)}
    for ag in graph_atlas_g()[1:]:
        n = ag.number_of_nodes()
        if n == 0:
            continue
        relabel = {v: i for i, v in enumerate(sorted(ag.nodes()))}
        g = HoffmanGraph.build(n, 0, [(relabel[u], relabel[v]) for u, v in ag.edges()])
        if g.is_connected():
            atlas[n].add(canonical_form(g))
    for n in range(1, 8):
        native = {canonical_form(g) for g in connected_slim_graphs(n)}
        assert native == atlas[n]


def _filter_parents():
    """(parent, connected, fat): connected slim parents with n <= 6, all
    slim parents with n <= 5, and every fat-augmentation parent with
    s <= 3 and f <= 2."""
    for n in range(1, 7):
        yield from ((p, True, False) for p in connected_slim_graphs(n))
    for n in range(1, 6):
        yield from ((p, False, False) for p in all_slim_graphs(n))
    for s in range(1, 4):
        layer = list(all_slim_graphs(s))
        for f in range(3):
            if f:
                layer = [
                    c for p in layer
                    for c, _autos in _canonical_children(p, canonical_data(p)[2], fat=True)
                ]
            yield from ((p, True, True) for p in layer)


def test_degree_test_matches_unpruned_orbit_test():
    # the degree test against McKay's orbit test with every child
    # labelled: it never rejects an accepted child, it passes on the
    # allowed targets of every child it keeps, and it does reject
    # children of every kind; reading the degree bands, it rejects
    # exactly the children in which an allowed target has a higher
    # degree than the new vertex
    rejected = {}
    for parent, connected, fat in _filter_parents():
        kind = "fat" if fat else ("connected" if connected else "all")
        cuts = _cut_components(parent) if kind == "connected" else None
        at_least = _degree_bands(parent, fat)
        for nbhd in range(1 if connected or fat else 0, 1 << parent.slim_count):
            child = _extend(parent, nbhd, fat)
            allowed = allowed_targets(child, connected, fat)
            _form, lab, autos = canonical_data(child)
            orbits = automorphism_orbits(child, autos)
            target = max(_iter_bits(allowed), key=lab.index)
            accepted = any(parent.n in orb and target in orb for orb in orbits)
            kept = _degree_tested_child(parent, nbhd, fat, cuts, at_least)
            higher = any(child.adj[v].bit_count() > nbhd.bit_count() for v in _iter_bits(allowed))
            assert (kept is None) == higher
            if kept:
                assert kept == (child, allowed)
            else:
                assert not accepted
                rejected[kind] = rejected.get(kind, 0) + 1
    assert set(rejected) == {"connected", "all", "fat"}


def _colour_automorphisms(g):
    """Every colour-preserving automorphism of ``g``, as a vertex list,
    by trying all permutations of the slim and of the fat vertices."""
    slim, fat = range(g.slim_count), range(g.slim_count, g.n)
    for ps, pf in itertools.product(itertools.permutations(slim), itertools.permutations(fat)):
        perm = ps + pf
        if all(
            g.adj[perm[v]] == sum(1 << perm[u] for u in _iter_bits(g.adj[v]))
            for v in range(g.n)
        ):
            yield perm


def test_extended_neighbourhoods_are_orbit_minima(monkeypatch):
    # the neighbourhoods tried are exactly the least of each orbit under
    # every colour-preserving automorphism of the parent; the filter
    # builds the child of each unless the degree test rejects it
    extended = []

    def recording_degree_test(parent, nbhd, fat, cuts, at_least):
        extended.append(nbhd)
        return _degree_tested_child(parent, nbhd, fat, cuts, at_least)

    monkeypatch.setattr(enumeration, "_degree_tested_child", recording_degree_test)
    pruned = 0
    for parent, connected, fat in _filter_parents():
        autos = list(_colour_automorphisms(parent))
        nbhds = range(1 if connected or fat else 0, 1 << parent.slim_count)
        want = [
            nbhd for nbhd in nbhds
            if all(_mask_of(a[v] for v in _iter_bits(nbhd)) >= nbhd for a in autos)
        ]
        pruned += len(want) < len(nbhds)
        extended.clear()
        list(_canonical_children(parent, canonical_data(parent)[2], connected, fat))
        assert extended == want
    assert pruned


@pytest.mark.parametrize("parents", [
    "filter",
    7,
    pytest.param(8, marks=pytest.mark.skipif(
        not os.environ.get("HOFFLINE_ACCEPT_N9"),
        reason="set HOFFLINE_ACCEPT_N9=1 to extend the line graphs on 8 vertices",
    )),
])
def test_canonical_children_match_unpruned(parents):
    # the same children, graph for graph and in the same order, as the
    # step that extends every neighbourhood, labels every child and
    # applies the orbit test alone; the line graphs on n vertices are the
    # parents of the catalog layer on n + 1, extended with the
    # automorphisms that the layer store keeps for them
    if parents == "filter":
        parents = [(p, canonical_data(p)[2], *kind) for p, *kind in _filter_parents()]
    else:
        line, _, _, autos = _layer(parents)
        parents = [(p, a, True, False) for p, a in zip(line, autos)]
    for parent, autos, connected, fat in parents:
        got = [
            (c.adj, canonical_form(c))
            for c, _autos in _canonical_children(parent, autos, connected, fat)
        ]
        want = [(c.adj, f) for c, f in canonical_children_unpruned(parent, connected, fat)]
        assert got == want


def test_carried_automorphisms_give_the_orbits_of_a_fresh_labelling():
    # each graph's automorphisms are kept from the labelling that made it
    # as a child; they must split the neighbourhoods into the same orbits
    # as those of a labelling of the graph on its own
    carried = [
        *((g, a) for n in range(1, 7) for g, a in _slim_graphs(n, connected=True)),
        *((g, a) for n in range(1, 6) for g, a in _slim_graphs(n, connected=False)),
        *((g, a) for n in range(1, 8) for g, a in zip(_layer(n)[0], _layer(n)[3])),
    ]
    for g, autos in carried:
        fresh = canonical_data(g)[2]
        assert list(_orbit_representatives(g, autos, 0)) == list(
            _orbit_representatives(g, fresh, 0)
        )


# -- graph6 --------------------------------------------------------------


def test_graph6_round_trip_all_small():
    for n in range(1, 8):
        for g in connected_slim_graphs(n):
            assert parse_graph6(write_graph6(g)) == g


def test_graph6_agrees_with_networkx():
    for n in range(1, 7):
        for g in connected_slim_graphs(n):
            line = write_graph6(g)
            ng = nx.from_graph6_bytes(line.encode())
            assert set(ng.nodes()) == set(range(g.slim_count))
            assert {frozenset(e) for e in ng.edges()} == {
                frozenset(e) for e in g.edges()
            }


def test_graph6_parses_networkx_output():
    g = nx.petersen_graph()
    line = nx.to_graph6_bytes(g, header=False).decode().strip()
    mine = parse_graph6(line)
    assert mine.slim_count == 10 and mine.edge_count() == 15


def test_graph6_optional_header():
    k3 = write_graph6(HoffmanGraph.build(3, 0, [(0, 1), (1, 2), (0, 2)]))
    assert parse_graph6(">>graph6<<" + k3).edge_count() == 3


def test_graph6_malformed_header():
    with pytest.raises(MalformedHeader):
        parse_graph6("")
    with pytest.raises(MalformedHeader):
        parse_graph6(" \n")
    with pytest.raises(MalformedHeader):
        parse_graph6("~~~")  # long form unsupported


def test_graph6_truncated_payload():
    line = write_graph6(next(iter(connected_slim_graphs(7))))
    with pytest.raises(TruncatedPayload):
        parse_graph6(line[:-1])


def test_graph6_noncanonical_padding():
    line = write_graph6(HoffmanGraph.build(5, 0, [(0, 1)]))
    with pytest.raises(NonCanonicalPadding):
        parse_graph6(line + "?")
    # flip a padding bit: 5 vertices -> 10 bits, 2 pad bits
    bad = line[:-1] + chr(((ord(line[-1]) - 63) | 1) + 63)
    with pytest.raises(NonCanonicalPadding):
        parse_graph6(bad)


def test_read_graph6_lines_skips_blanks():
    lines = ["", write_graph6(HoffmanGraph.build(2, 0, [(0, 1)])), "  ", "D?{"]
    graphs = list(read_graph6_lines(lines))
    assert len(graphs) == 2


# -- constrained fat graphs ----------------------------------------------


def test_two_slim_bundle_yields_exactly_f1_f3_f4():
    out = _lemma_graphs("4.10")
    got = {canonical_form(g) for g in out}
    want = {canonical_form(family_graph(n)) for n in ("F1", "F3", "F4")}
    assert got == want


def test_pivot_bundle_yields_exactly_f2_f5_f8():
    out = _lemma_graphs("4.11")
    got = {canonical_form(g) for g in out}
    want = {canonical_form(family_graph(n)) for n in ("F2", "F5", "F8")}
    assert got == want


def test_hub_bundle_members_contain_f6_f7_f9():
    targets = [family_graph(n) for n in ("F6", "F7", "F9")]
    out = _lemma_graphs("4.12")
    assert out
    for g in out:
        assert any(find_embedding(t, g) is not None for t in targets)


def test_fat_stream_is_unique_and_satisfies_constraints():
    forms = set()
    for s in (2, 3):
        for g in fat_hoffman_graphs(s, 2):
            f = canonical_form(g)
            assert f not in forms
            forms.add(f)
            assert 2 <= g.slim_count <= 3
            assert 1 <= g.fat_count <= 2
            assert g.is_connected()


@pytest.mark.parametrize("slim_count", [1, 2, 3, 4])
def test_fat_augmentation_matches_multiset_generation(slim_count):
    # one fat vertex at a time by canonical augmentation against every
    # multiset of fat neighbourhoods, up to three fat vertices
    got = [canonical_form(g) for g in fat_hoffman_graphs(slim_count, 3)]
    assert len(got) == len(set(got))
    assert set(got) == {canonical_form(g) for g in fat_graphs_bruteforce(slim_count, 3)}


@pytest.mark.parametrize("slim_count", [3, 4, 5])
def test_hub_graphs_are_the_fat_degree_one_graphs(slim_count):
    # the lemma 4.12 candidates, built directly, are the one-fat graphs
    # in which every slim vertex has fat degree exactly 1
    hubs = [canonical_form(g) for g in _hub_graphs(slim_count)]
    want = {
        canonical_form(g)
        for g in fat_hoffman_graphs(slim_count, 1)
        if all(g.fat_neighbors(v).bit_count() == 1 for v in range(slim_count))
    }
    assert len(hubs) == len(set(hubs))
    assert set(hubs) == want


def test_fat_generation_is_capped_at_8_slim_vertices():
    with pytest.raises(IndexOutOfRange):
        next(fat_hoffman_graphs(9, 1))


def test_sum_arguments_are_checked_first():
    for k in (-1, 7):
        with pytest.raises(IndexOutOfRange):
            next(sum_graphs(k))
    with pytest.raises(HoffmanGraphError, match="component_count"):
        next(sum_graphs(3, component_count=-1))
    for classes in (("H1", "H9"), ("",), "H1"):
        with pytest.raises(HoffmanGraphError, match="unknown part classes"):
            next(enumerate_sums(EMPTY_GRAPH, 2, classes=classes))


# -- sums ------------------------------------------------------------------


def test_sum_stream_outputs_valid_sums():
    for g, parts in sum_graphs(3):
        ok, why = validate_sum(g, parts)
        assert ok, why


def test_sum_component_filter():
    for k in (2, 3):
        for c in (1, 2):
            for g, _ in sum_graphs(k, component_count=c):
                assert len(g.connected_components()) == c


def _unpruned_sum_forms(k, component_count):
    """Canonical forms of the sums K in first-occurrence order, over every
    assembled structure (no multiset key)."""
    forms = []
    for cells in _cell_partitions(k, frozenset(("H1", "H2", "H3", "H5"))):
        for fat_nbhds in fat_neighbourhoods_labelled(cells):
            g, _parts = _assemble_sum(k, cells, fat_nbhds)
            if component_count is None or len(g.connected_components()) == component_count:
                forms.append(canonical_form(g))
    return list(dict.fromkeys(forms))


@pytest.mark.parametrize(
    "k,component_count",
    [(k, c) for k in range(1, 5) for c in (None, *range(1, k + 1))] + [(5, 1)],
)
def test_sum_key_skip_matches_unpruned(k, component_count):
    family = list(sum_graphs(k, component_count=component_count))
    assert [canonical_form(g) for g, _ in family] == _unpruned_sum_forms(k, component_count)
    again = list(sum_graphs(k, component_count=component_count))
    assert len(again) == len(family)
    for (g, parts), (g2, parts2) in zip(family, again):
        assert g2 is g and parts2 is parts
        assert isinstance(parts, tuple)
        assert all(isinstance(p, frozenset) for p in parts)


def _first_per_key(nbhd_lists):
    """The first fat-neighbourhood list of each multiset, in order."""
    first = {}
    for fat_nbhds in nbhd_lists:
        first.setdefault(tuple(sorted(fat_nbhds)), fat_nbhds)
    return list(first.values())


def _slot_parts(cells):
    """The part owning each fat slot of a typed cell partition."""
    return [p for p, (_cell, cls, _edges) in enumerate(cells) for _ in range(_CELL_SHAPES[cls][1])]


def test_slot_partitions_keep_first_of_each_multiset():
    # breaking the symmetry of interchangeable slots and blocks keeps the
    # first slot partition of every multiset of blocks, in order, and
    # skips the labelled repeats
    checked = set()
    kept = labelled = 0
    for classes in (("H1", "H2", "H3", "H5"), ("H1", "H2", "H3"), ("H2", "H3", "H5")):
        for k in range(1, 6):
            for cells in _cell_partitions(k, frozenset(classes)):
                # the fat neighbourhoods do not depend on the edge of an H5 cell
                key = tuple((cell, cls) for cell, cls, _edges in cells)
                if key in checked:
                    continue
                checked.add(key)
                masks = [_mask_of(cell) for cell, _cls, _edges in cells]
                got = [
                    [sum(masks[p] for p in _iter_bits(block)) for block in blocks]
                    for blocks in _slot_partitions(_slot_parts(cells))
                ]
                want = list(fat_neighbourhoods_labelled(cells))
                assert _first_per_key(got) == _first_per_key(want), cells
                kept += len(got)
                labelled += len(want)
    assert kept < labelled


#: every non-empty set of part classes
CLASS_SUBSETS = [
    frozenset(c) for r in range(1, 5) for c in itertools.combinations(("H1", "H2", "H3", "H5"), r)
]


def test_slot_partitions_once_per_multiset():
    # the two slot rules leave exactly one slot partition per multiset of
    # blocks, so no structure of a layout repeats; the canonical-form set
    # of the sum family would hide a repeat.  The layouts of every set of
    # classes are among those of all four.
    # The cells are disjoint, so the fat neighbourhoods of the blocks
    # repeat exactly when the blocks do.
    total = 0
    for k in range(1, 7):
        for cells in _cell_layouts(k, frozenset(("H1", "H2", "H3", "H5"))):
            keys = [tuple(sorted(blocks)) for blocks in _slot_partitions(_slot_parts(cells))]
            assert len(set(keys)) == len(keys), cells
            total += len(keys)
    assert total == 25335


def test_cell_layouts_are_first_of_each_multiset():
    # one layout per class multiset: the first typed cell partition of
    # that multiset in the order of every partition, in the same order
    for classes in CLASS_SUBSETS:
        for k in range(7):
            first = {}
            for cells in _cell_partitions(k, classes):
                first.setdefault(tuple(sorted(cls for _c, cls, _e in cells)), cells)
            assert list(_cell_layouts(k, classes)) == list(first.values()), (classes, k)


@pytest.mark.parametrize(
    "classes,k_max",
    [(("H1", "H2", "H3", "H5"), 5), (("H1", "H2", "H3"), 4), (("H2", "H3", "H5"), 4)],
)
def test_sum_family_matches_unpruned(classes, k_max):
    # skipping a cell partition whose class multiset was seen drops only
    # isomorphic repeats: same graphs and parts, in the same order
    classes = frozenset(classes)
    for k in range(k_max + 1):
        for c in (None, 1, 2):
            got = _sum_family.__wrapped__(k, classes, c)
            want = sum_family_unpruned(k, classes, c)
            assert [(g.adj, p) for g, p, _autos in got] == [(g.adj, p) for g, p in want], (k, c)


@pytest.mark.parametrize(
    "fname,k,c",
    [
        (f, k, c)
        for f in ("F1", "F3", "F4", "F6", "F7", "F9")
        for k in range(5)
        for c in (None, 1, 2)
    ] + [("F1", 5, 1), ("F3", 5, 1)],
)
def test_enumerate_sums_matches_unpruned(fname, k, c):
    # gluing only the least fat map of each orbit under the automorphisms
    # of K and F gives the same graphs in the same order as every map;
    # the last two are table-1 rows a and c
    f_graph = family_graph(fname)
    got = [g.adj for g in enumerate_sums(f_graph, k, component_count_k=c)]
    assert got == [g.adj for g in enumerate_sums_unpruned(f_graph, k, component_count_k=c)]


def test_enumerate_sums_empty_f_gives_plain_sums():
    plain = {canonical_form(g) for g, _ in sum_graphs(2, component_count=1)}
    composed = {
        canonical_form(g)
        for g in enumerate_sums(EMPTY_GRAPH, 2, component_count_k=1)
    }
    assert composed == plain


def test_enumerate_sums_f7_row():
    f7 = family_graph("F7")
    out = list(enumerate_sums(f7, 2, component_count_k=1))
    assert out
    for g in out:
        assert g.is_connected()
        assert g.slim_count == f7.slim_count + 2
        # the fat set of F7 lands inside the fat set of K, so the composed
        # graph keeps the same fat count as K
        assert find_embedding(f7, g) is not None


def test_enumerate_sums_are_valid_two_part_sums():
    f1 = family_graph("F1")
    count = 0
    for g in enumerate_sums(f1, 2, component_count_k=1):
        count += 1
        emb = find_embedding(f1, g)
        assert emb is not None
    assert count > 0


def test_compose_conflict_is_raised_and_skipped():
    # F = H2 with both fats glued onto the two fats of K = H2: the slim
    # vertex of F and that of K would share two fat vertices (rule (iv))
    h2 = family_graph("H2")
    with pytest.raises(SharedFatConflict):
        _compose(h2, h2, (1, 2))
    # both gluings of F onto the only K conflict, so none is composed
    assert list(enumerate_sums(h2, 1, classes=("H2",))) == []


@pytest.mark.parametrize("build, error, message", [
    (lambda: write_graph6(HoffmanGraph(1, 1, (0b10, 0b01))), Graph6Error, "slim graphs only"),
    (lambda: write_graph6(HoffmanGraph(63, 0, [0] * 63)), Graph6Error, "62 vertices"),
    (lambda: list(connected_slim_graphs(0)), IndexOutOfRange, "1 <= n <= 10"),
    (lambda: list(connected_slim_graphs(11)), IndexOutOfRange, "1 <= n <= 10"),
], ids=["graph6-fat", "graph6-63", "generate-0", "generate-11"])
def test_refusals(build, error, message):
    with pytest.raises(error, match=message):
        build()
