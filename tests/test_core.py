"""Data model, closures, canonical forms, embeddings, connectivity."""

import gc
import itertools
import random

import networkx as nx
import pytest

from hoffline.core import (
    EMPTY_GRAPH,
    FatFatEdge,
    HoffmanGraph,
    HoffmanGraphError,
    IndexOutOfRange,
    IsolatedFat,
    _iter_bits,
    canonical_data,
    canonical_form,
    find_embedding,
    isomorphic,
)
from hoffline import core, enumeration, verify
from hoffline.enumeration import (
    all_slim_graphs,
    connected_slim_graphs,
    fat_hoffman_graphs,
    parse_graph6,
    sum_graphs,
)
from hoffline.families import family_graph
from hoffline.recognition import is_h_line

from helpers import (
    automorphism_orbits,
    embedding_nodes,
    relabeled,
    slim_complete,
    slim_cycle,
    slim_path,
)
from bruteforce import (
    NotConnected,
    canonical_data_unpruned,
    canonical_search_lists,
    embed_bruteforce,
    find_embedding_per_call,
    iso_bruteforce,
)


def _complete_minus_edge(n):
    return HoffmanGraph.build(n, 0, [e for e in itertools.combinations(range(n), 2) if e != (0, 1)])


def _cocktail_party(k):
    """k copies of H3 on one fat vertex: the slim vertices 2i and 2i + 1
    are the only non-adjacent pairs."""
    n = 2 * k
    edges = [(u, v) for u, v in itertools.combinations(range(n), 2) if v != u + 1 or u % 2]
    return HoffmanGraph.build(n, 1, edges + [(v, n) for v in range(n)])


def _line_graph_of_complete(m):
    pairs = list(itertools.combinations(range(m), 2))
    return HoffmanGraph.build(
        len(pairs),
        0,
        [(i, j) for i, j in itertools.combinations(range(len(pairs)), 2) if set(pairs[i]) & set(pairs[j])],
    )


#: vertex-transitive on 14 vertices; the unpruned search stores 5,456
#: automorphisms on it
_TRANSITIVE14 = "M~^n}}~~~~^~~^~}_"


# -- construction -----------------------------------------------------


def test_build_h2_structure():
    g = HoffmanGraph.build(1, 2, [(0, 1), (0, 2)])
    assert g.slim_count == 1 and g.fat_count == 2
    assert isomorphic(g, family_graph("H2"))


def test_build_empty_graph():
    g = HoffmanGraph.build(0, 0, [])
    assert g == EMPTY_GRAPH
    assert g.is_connected()
    assert g.connected_components() == []


def test_build_rejects_fat_fat_edge():
    with pytest.raises(FatFatEdge):
        HoffmanGraph.build(1, 2, [(0, 1), (1, 2)])


def test_build_rejects_isolated_fat():
    with pytest.raises(IsolatedFat):
        HoffmanGraph.build(0, 1, [])
    with pytest.raises(IsolatedFat):
        HoffmanGraph.build(2, 1, [(0, 1)])


def test_build_rejects_self_loop_and_bad_index():
    with pytest.raises(HoffmanGraphError):
        HoffmanGraph.build(1, 1, [(0, 0)])
    with pytest.raises(IndexOutOfRange):
        HoffmanGraph.build(1, 1, [(0, 2)])


# -- closures and deletion --------------------------------------------


def test_closure_of_one_slim_in_h3_is_h1():
    h3 = family_graph("H3")
    assert isomorphic(h3.induced_slim_closure([0]), family_graph("H1"))


def test_closure_of_everything_is_identity():
    h5 = family_graph("H5")
    assert h5.induced_slim_closure(range(3)) == h5


def test_closure_of_empty_set_is_empty_graph():
    assert family_graph("H3").induced_slim_closure([]) == EMPTY_GRAPH


def test_closure_idempotent():
    rng = random.Random(1)
    for _ in range(50):
        n = rng.randint(1, 6)
        f = rng.randint(0, 3)
        edges = set()
        for fv in range(n, n + f):
            edges.add((rng.randrange(n), fv))
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 0.4:
                    edges.add((i, j))
        g = HoffmanGraph.build(n, f, edges)
        s = [v for v in range(n) if rng.random() < 0.6]
        once = g.induced_slim_closure(s)
        twice = once.induced_slim_closure(range(once.slim_count))
        assert once == twice


def test_delete_slim_of_h2_gives_empty():
    assert family_graph("H2").delete_slim({0}) == EMPTY_GRAPH


def test_delete_nothing_is_identity():
    h5 = family_graph("H5")
    assert h5.delete_slim(set()) == h5


def test_delete_slim_from_h5_gives_depicted_remnants():
    # removing a slim vertex from H5 leaves either a non-adjacent pair on
    # the hub (a copy of H3) or an adjacent pair on the hub
    h5 = family_graph("H5")
    kinds = set()
    for v in range(3):
        rem = h5.delete_slim({v})
        assert rem.slim_count == 2 and rem.fat_count == 1
        kinds.add(rem.adjacent(0, 1))
    assert kinds == {True, False}


# -- canonical form ----------------------------------------------------


def test_canonical_form_distinguishes_h2_h3():
    assert canonical_form(family_graph("H2")) != canonical_form(family_graph("H3"))


def test_canonical_form_invariant_under_relabeling():
    rng = random.Random(7)
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


def test_canonical_form_matches_bruteforce_iso_small():
    graphs = list(connected_slim_graphs(4)) + list(connected_slim_graphs(5))
    for i, g in enumerate(graphs):
        for h in graphs[i + 1:]:
            same = canonical_form(g) == canonical_form(h)
            assert same == iso_bruteforce(g, h)


def test_canonical_form_distinct_on_five_vertex_classes():
    forms = {canonical_form(g) for g in connected_slim_graphs(5)}
    assert len(forms) == 21


def test_canonical_form_agrees_with_networkx():
    rng = random.Random(11)
    for _ in range(200):
        n = rng.randint(2, 8)
        e1 = {(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.5}
        e2 = {(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.5}
        g1 = HoffmanGraph.build(n, 0, e1)
        g2 = HoffmanGraph.build(n, 0, e2)
        nx1 = nx.Graph(list(e1))
        nx2 = nx.Graph(list(e2))
        nx1.add_nodes_from(range(n))
        nx2.add_nodes_from(range(n))
        assert (canonical_form(g1) == canonical_form(g2)) == nx.is_isomorphic(nx1, nx2)


def test_automorphism_orbits_match_bruteforce():
    for g in connected_slim_graphs(5):
        orbits = automorphism_orbits(g)
        # brute-force orbit partition
        n = g.n
        autos = [
            p
            for p in itertools.permutations(range(n))
            if all(
                ((g.adj[u] >> v) & 1) == ((g.adj[p[u]] >> p[v]) & 1)
                for u in range(n)
                for v in range(u + 1, n)
            )
        ]
        parent = list(range(n))

        def find(x):
            while parent[x] != x:
                x = parent[x]
            return x

        for a in autos:
            for v in range(n):
                ra, rb = find(v), find(a[v])
                if ra != rb:
                    parent[ra] = rb
        expected = {}
        for v in range(n):
            expected.setdefault(find(v), []).append(v)
        assert sorted(expected.values()) == orbits


def test_canonical_search_matches_unpruned(fat_corpus, stream_graphs):
    # incremental refinement and orbit pruning change no form, labelling
    # or orbit partition of the reference search
    graphs = [g for n in range(1, 8) for g in connected_slim_graphs(n)]
    graphs += fat_corpus + stream_graphs
    graphs += [_complete_minus_edge(9), _cocktail_party(6), _line_graph_of_complete(6)]
    for g in graphs:
        form, lab, autos = canonical_data(g)
        got = form, lab, automorphism_orbits(g, autos)
        assert got == canonical_data_unpruned(g), (g.slim_count, list(g.adj))


def test_stored_automorphisms_are_never_the_identity(spectral_corpus, fat_corpus, monkeypatch):
    # ``_CanonSearch._record_auto`` stores every permutation between two
    # leaves with no identity test: distinct leaves differ at the index
    # where their paths part (see its comment)
    stored = [(g.n, canonical_data(g)[2]) for g in spectral_corpus + fat_corpus]
    corpus_size = len(stored)
    canonical = enumeration.canonical_data

    def recording(g):
        data = canonical(g)
        stored.append((g.n, data[2]))
        return data

    # the line-graph layers 1-8, built afresh so that their line children
    # are labelled again (the store labels no other child)
    monkeypatch.setattr(verify, "_LAYERS", {})
    monkeypatch.setattr(verify, "_CHILDREN", {})
    monkeypatch.setattr(enumeration, "canonical_data", recording)
    verify._layer(8)
    assert len(stored) > corpus_size
    for n, autos in stored:
        assert list(range(n)) not in autos


@pytest.mark.parametrize("g, nodes, stored", [
    (_cocktail_party(8), 80, 15),
    (_cocktail_party(20), 440, 39),
    (_complete_minus_edge(16), 120, 14),
    (_complete_minus_edge(24), 276, 22),
], ids=["CP8", "CP20", "K16-e", "K24-e"])
def test_search_returns_to_the_first_path_on_an_automorphism(g, nodes, stored, monkeypatch):
    # a leaf with the first leaf's key sends the search back to the node
    # its path shares with the first path; searching on through the rest
    # of that leaf's subtree visited 157, 1,751, 484 and 1,816 nodes and
    # stored 36, 210, 92 and 232 automorphisms
    visited = 0
    real = core._CanonSearch.run

    def counting(self, cells, fresh, fixed):
        nonlocal visited
        visited += 1
        return real(self, cells, fresh, fixed)

    monkeypatch.setattr(core._CanonSearch, "run", counting)
    _form, _lab, autos = canonical_data(g)
    assert (visited, len(autos)) == (nodes, stored)


def test_mask_search_matches_list_search(fat_corpus, stream_graphs):
    # bitmask cells change no form, labelling or stored automorphism of
    # the search on list cells
    graphs = [g for n in range(1, 8) for g in all_slim_graphs(n)]
    graphs += fat_corpus + stream_graphs
    graphs += [g for k in range(1, 6) for g, _parts in sum_graphs(k)]
    graphs.append(parse_graph6(_TRANSITIVE14))
    for g in graphs:
        assert canonical_data(g) == canonical_search_lists(g), (g.slim_count, list(g.adj))


def _orbits_by_networkx(g):
    """u and v share an orbit iff g with u marked is colour-isomorphic to
    g with v marked."""

    def marked(v):
        h = nx.Graph()
        h.add_nodes_from((u, {"c": (u >= g.slim_count, u == v)}) for u in range(g.n))
        h.add_edges_from(g.edges())
        return h

    orbits = []
    for v in range(g.n):
        hv = marked(v)
        for orbit in orbits:
            if nx.vf2pp_is_isomorphic(marked(orbit[0]), hv, node_label="c"):
                orbit.append(v)
                break
        else:
            orbits.append([v])
    return sorted(orbits)


def test_automorphism_orbits_match_networkx():
    graphs = [g for n in range(1, 8) for g in connected_slim_graphs(n)]
    graphs += [g for s in range(1, 4) for g in fat_hoffman_graphs(s, 2)]
    graphs += [
        _complete_minus_edge(10),
        _cocktail_party(8),
        _line_graph_of_complete(7),
        parse_graph6(_TRANSITIVE14),
    ]
    for g in graphs:
        assert automorphism_orbits(g) == _orbits_by_networkx(g), (g.slim_count, list(g.adj))


# -- embeddings --------------------------------------------------------


def test_embedding_identity():
    g = family_graph("H5")
    m = find_embedding(g, g)
    assert m is not None
    for u in range(g.n):
        for v in range(u + 1, g.n):
            assert g.adjacent(u, v) == g.adjacent(m[u], m[v])


def test_embedding_triangle_into_c5_fails():
    assert find_embedding(slim_complete(3), slim_cycle(5)) is None


def test_embedding_induced_not_just_subgraph():
    # P3 embeds into C5 induced; K2+K1 does not embed into K3
    assert find_embedding(slim_path(3), slim_cycle(5)) is not None
    k2k1 = HoffmanGraph.build(3, 0, [(0, 1)])
    assert find_embedding(k2k1, slim_complete(3)) is None


def test_embedding_matches_bruteforce(fat_corpus):
    rng = random.Random(3)
    pairs = []
    for _ in range(150):
        np_ = rng.randint(1, 6)
        nh = rng.randint(np_, 8)
        pe = {(i, j) for i in range(np_) for j in range(i + 1, np_) if rng.random() < 0.5}
        he = {(i, j) for i in range(nh) for j in range(i + 1, nh) if rng.random() < 0.5}
        pairs.append((HoffmanGraph.build(np_, 0, pe), HoffmanGraph.build(nh, 0, he)))
    rng = random.Random(11)
    pairs += [(rng.choice(fat_corpus), rng.choice(fat_corpus)) for _ in range(400)]
    # too large in one colour or the other, and the empty pattern
    pairs += [(slim_path(5), fat_corpus[-1]), (family_graph("H2"), family_graph("H3"))]
    pairs += [(EMPTY_GRAPH, g) for g in fat_corpus[:5]]
    found = 0
    for pattern, host in pairs:
        got = find_embedding(pattern, host)
        want = embed_bruteforce(pattern, host)
        assert (got is None) == (want is None), (pattern.adj, host.adj)
        if got is not None:
            found += 1
            assert len(set(got)) == pattern.n
            for u in range(pattern.n):
                assert (u < pattern.slim_count) == (got[u] < host.slim_count)
                for v in range(u + 1, pattern.n):
                    assert pattern.adjacent(u, v) == host.adjacent(got[u], got[v])
    assert 0 < found < len(pairs)


def test_embedding_matches_per_call_reference(catalog8, spectral_corpus, monkeypatch):
    # the same mapping tuple as the search that built the pattern side on
    # every call: on the containment tests build_catalog(7) makes, and on
    # the 38 members against all connected graphs with n <= 7 and the
    # stream inputs
    calls = []

    def recording_find_embedding(pattern, host):
        calls.append((pattern, host))
        return find_embedding(pattern, host)

    monkeypatch.setattr(verify, "find_embedding", recording_find_embedding)
    verify.build_catalog(7)
    monkeypatch.undo()
    assert calls
    members = [m.graph for m in catalog8.members()]
    calls += [(m, g) for g in spectral_corpus for m in members]
    found = 0
    for pattern, host in calls:
        got = find_embedding(pattern, host)
        assert got == find_embedding_per_call(pattern, host), (pattern.adj, host.adj)
        found += got is not None
    assert 0 < found < len(calls)


def test_pruned_embedding_matches_per_call_reference(catalog8, fat_corpus):
    # the local counts and the twin order cut the search but not its
    # first embedding: the members against cocktail-party graphs and
    # K_n - e, whose vertices have few non-neighbours, and fat patterns
    # against fat hosts, where a slim and a fat vertex with one
    # neighbourhood are not twins
    members = [m.graph for m in catalog8.members()]
    hosts = [_cocktail_party(k) for k in range(1, 7)]
    hosts += [h.slim_subgraph() for h in hosts] + [_complete_minus_edge(n) for n in range(2, 11)]
    pairs = [(m, h) for h in hosts for m in members]
    pairs += [(p, h) for h in fat_corpus[-400::20] for p in fat_corpus]
    found = 0
    for pattern, host in pairs:
        got = find_embedding(pattern, host)
        assert got == find_embedding_per_call(pattern, host), (pattern.adj, host.adj)
        found += got is not None
    assert 0 < found < len(pairs)


def test_embedding_search_node_counts(catalog8, stream_graphs):
    # exact counts of search nodes, no timing, each pinned where one
    # prune decides it: every vertex of CP(8) has one non-neighbour, so
    # the non-degree count empties a domain of every member before the
    # search starts; over the stream inputs the edge and non-edge counts
    # and the twin order each cut the members' nodes (247,763 with
    # colour and degree alone), and the twin order the star's (36,620)
    members = [m.graph for m in catalog8.members()]
    cp8 = _cocktail_party(8).slim_subgraph()
    assert embedding_nodes((m, cp8) for m in members) == 0
    assert embedding_nodes((m, g) for g in stream_graphs for m in members) == 63_833
    star = parse_graph6("Esa?")
    assert star.adj[0] == 0b111110
    assert embedding_nodes((star, g) for g in stream_graphs) == 6_207


def test_dense_line_graphs_contain_no_member(catalog8):
    # known answers on dense hosts: CP(k) and K_n - e are line graphs of
    # the family, so no member embeds and recognition finds a cover
    members = [m.graph for m in catalog8.members()]
    hosts = [_cocktail_party(k).slim_subgraph() for k in range(1, 13)]
    hosts += [_complete_minus_edge(n) for n in range(2, 25)]
    for g in hosts:
        assert all(find_embedding(m, g) is None for m in members), g.adj
        assert is_h_line(g) is not None, g.adj


def test_embedding_respects_colors():
    assert find_embedding(family_graph("H1"), slim_path(4)) is None
    assert find_embedding(family_graph("H1"), family_graph("H2")) is not None


def test_embedding_leaves_no_reference_cycles():
    # a call's search state is freed by reference counting, so a batch
    # of calls leaves nothing for the cycle collector
    patterns = list(connected_slim_graphs(5))
    hosts = list(connected_slim_graphs(7))[::80]
    for pattern in patterns:
        find_embedding(pattern, hosts[0])  # builds the memoized plan
    gc.collect()
    gc.disable()
    try:
        found = [find_embedding(p, h) is not None for p in patterns for h in hosts]
        left = gc.collect()
    finally:
        gc.enable()
    assert 0 < sum(found) < len(found) and len(found) >= 200
    assert left == 0


# -- connectivity and the deletable pair --------------------------------
#
# A connected graph that is neither complete nor a cycle always has a
# non-adjacent pair whose removal keeps it connected.  The package does
# not use the routine; it is kept here with its checks.


def _is_complete_slim(g):
    """Is ``g`` a slim complete graph?"""
    if g.fat_count:
        return False
    full = g.slim_mask
    return all(g.adj[v] == full ^ (1 << v) for v in range(g.slim_count))


def _is_cycle_slim(g):
    """Is ``g`` a slim cycle (n >= 3, connected, 2-regular)?"""
    if g.fat_count or g.slim_count < 3:
        return False
    if any(g.adj[v].bit_count() != 2 for v in range(g.slim_count)):
        return False
    return g.is_connected()


def _find_deletable_nonadjacent_pair(g):
    """A non-adjacent pair whose removal keeps the graph connected.

    Defined for connected slim graphs.  Complete graphs and cycles have
    no such pair and yield ``None``; every other connected graph has
    one.  Returns the lexicographically first pair found.
    """
    if g.fat_count:
        raise HoffmanGraphError("defined for slim graphs only")
    if not g.is_connected():
        raise NotConnected("input graph must be connected")
    if _is_complete_slim(g) or _is_cycle_slim(g):
        return None
    full = g.slim_mask
    for x in range(g.slim_count):
        non = full & ~g.adj[x] & ~(1 << x)
        for y in _iter_bits(non):
            if y <= x:
                continue
            rest = full & ~(1 << x) & ~(1 << y)
            if len(g._components_within(rest)) <= 1:
                return (x, y)
    return None


def test_connected_components_basic():
    assert family_graph("H3").is_connected()
    two_h1 = HoffmanGraph.build(2, 2, [(0, 2), (1, 3)])
    assert len(two_h1.connected_components()) == 2


def test_deletable_pair_examples():
    assert _find_deletable_nonadjacent_pair(slim_complete(4)) is None
    assert _find_deletable_nonadjacent_pair(slim_cycle(6)) is None
    pair = _find_deletable_nonadjacent_pair(slim_path(4))
    assert pair is not None
    x, y = pair
    assert not slim_path(4).adjacent(x, y)


def test_deletable_pair_requires_connected():
    g = HoffmanGraph.build(4, 0, [(0, 1), (2, 3)])
    with pytest.raises(NotConnected):
        _find_deletable_nonadjacent_pair(g)


def test_deletable_pair_exhaustive_small():
    # succeeds exactly on connected graphs that are neither complete nor
    # cycles, for every connected graph with at most 7 vertices
    for n in range(1, 8):
        for g in connected_slim_graphs(n):
            pair = _find_deletable_nonadjacent_pair(g)
            special = _is_complete_slim(g) or _is_cycle_slim(g)
            if special:
                assert pair is None
            else:
                assert pair is not None
                x, y = pair
                assert not g.adjacent(x, y)
                rest = g.slim_mask & ~(1 << x) & ~(1 << y)
                assert len(g._components_within(rest)) <= 1


# -- text formats -------------------------------------------------------


def test_text_round_trip():
    for name in ("H1", "H2", "H3", "H5", "F4"):
        g = family_graph(name)
        assert HoffmanGraph.from_text(g.to_text()) == g


def test_text_round_trip_bit_exact():
    g = family_graph("F7")
    assert HoffmanGraph.from_text(g.to_text()).to_text() == g.to_text()


def test_dot_export_mentions_all_vertices():
    g = family_graph("H5")
    dot = g.to_dot()
    assert dot.count("--") == g.edge_count()
    assert "style=filled" in dot


@pytest.mark.parametrize("build, error, message", [
    (lambda: HoffmanGraph(2, 0, (0,)), IndexOutOfRange, "adjacency length"),
    (lambda: HoffmanGraph(2, 0, (0b100, 0)), IndexOutOfRange, "outside range"),
    (lambda: HoffmanGraph(2, 0, (0b01, 0)), HoffmanGraphError, "self-loops"),
    (lambda: HoffmanGraph(2, 0, (0b10, 0)), HoffmanGraphError, "not symmetric"),
    (lambda: HoffmanGraph(1, 1, (0b10, 0b01)).delete_slim({1}), IndexOutOfRange,
     "1 is not a slim vertex"),
    (lambda: slim_path(3).induced_on([0, 3]), IndexOutOfRange, "vertex 3 outside graph"),
], ids=["adj-length", "bit-past-last", "self-loop", "asymmetric", "delete-fat", "induce-outside"])
def test_refusals(build, error, message):
    with pytest.raises(error, match=message):
        build()
