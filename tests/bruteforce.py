"""Independent oracles for the test suite.

Everything here recomputes results straight from definitions with no
pruning insight shared with the production code: isomorphism by trying
all colour-respecting permutations, embeddings by trying all injections,
line-graph recognition by enumerating candidate covers and validating
them end to end, characteristic polynomials by permutation expansion
of the determinant, fat graphs by every multiset of fat
neighbourhoods over every slim base, and sum decompositions by every
partition of the slim vertices into closures of the allowed classes,
with rule (iv) checked pair by pair (``decompose``).

Five oracles are searches, not definitions, each kept as the reference
for a prune of the production search:

- ``cover_structures_unpruned`` is the strict-cover cell search as it
  stood before cells were required to be uniform when created (it runs
  on ``_fat_phase``, the fat phase as it stood before its cells and
  blocks became bitmasks).  Recognition no longer searches: it builds
  the cover classes one vertex at a time.  ``strict_covers_reference``
  turns the structures of this search into covers as recognition did
  when it searched, and the tests hold ``enumerate_strict_covers`` and
  ``is_h_line`` to it, order included;
- ``sum_family_unpruned`` is the sum-family loop as it stood before a
  cell partition whose multiset of classes was already seen, or a slot
  partition that a permutation of like cells maps onto an earlier one,
  was skipped (it builds each host with ``_assemble_sum``, the assembly as it stood
  before sums were built from blocks, and runs on
  ``_cell_partitions``, every typed cell partition as it stood before
  one layout per class multiset was built, and on
  ``fat_neighbourhoods_labelled``, the slot partitions as they stood
  before interchangeable slots and blocks were told apart);
- ``enumerate_sums_unpruned`` is the composition loop as it stood before
  only the least fat map of each orbit under the automorphisms of K and
  F was glued (it shares ``sum_graphs`` and ``_compose`` with the
  production code);
- ``canonical_data_unpruned`` is the canonical labelling search as it
  stood before refinement counted only into the cells of the previous
  split and candidates were pruned by the orbits of the stored
  automorphisms (it shares the starting partition and the leaf key with
  the production code);
- ``canonical_search_lists`` is the canonical search as it stood before
  its cells became bitmasks, orbit pruning, incremental refinement and
  the return to the first path on an automorphism included;
- ``canonical_children_unpruned`` is the canonical augmentation step as
  it stood before a parent was extended once per orbit of its
  automorphism group, its cut vertices were found once per parent and
  children were rejected by degree before they were labelled: it labels
  every child and applies McKay's orbit test alone (it shares
  ``_extend`` and ``canonical_data`` with the production code).

Two more are the production kernels as they stood before their per-call
set-up was taken out, kept as references for the mappings and intervals
the rewritten kernels must reproduce exactly: ``find_embedding_per_call``
and ``smallest_root_interval_fractions`` (see the end of this module).
``extensions_reference`` is the recognizer's extension step as it stood
before it skipped the loop over a class's cells and checked fat counts
on the classes it returns, the reference for its classes and their
order.
The latter splits off the integer roots first with ``_integer_roots``,
a frozen copy of the Newton-bounded scan that the package dropped when
it began to bisect the square-free part itself.  It scans the radical
that ``square_free`` gives, a frozen copy too: it runs a chain of its
own for gcd(p, p'), which the package now reads off the one chain of p.
``char_poly_berkowitz`` is the characteristic polynomial as it stood
before it came from power sums, the reference on matrices too large
for ``charpoly_bruteforce``.

Last, two constructions of the paper that no code of the package runs:
``delete_vertex_from_cover``, the deletion lemma (cases i-iv) on a
cover, which ``recognition._extensions`` runs backwards, and
``build_sum``, a sum glued from its parts with no recognition code.
"""

import itertools
import math
import operator
from collections import Counter
from fractions import Fraction

from hoffline.core import (
    HoffmanGraph,
    HoffmanGraphError,
    IndexOutOfRange,
    _adjacency_key,
    _find,
    _iter_bits,
    _mask_of,
    _union,
    canonical_data,
    canonical_form,
)
from hoffline.enumeration import (
    EMPTY_GRAPH,
    _compose,
    _extend,
    all_slim_graphs,
    sum_graphs,
)
from hoffline.families import classify_part, family_graph
from hoffline.spectral import (
    BRACKET_WIDTH,
    EmptyGraph,
    _degree,
    _divmod_poly,
    _primitive,
    _require,
    _sign_at,
    _sign_at_neg_inf,
    _variations,
    sturm_chain,
)
from hoffline.recognition import StrictCover
from hoffline.sums import SharedFatConflict, _block_sum, _sum_adjacency, validate_sum

from helpers import automorphism_orbits


def iso_bruteforce(g, h):
    """Colour-preserving isomorphism by exhausting permutations."""
    if (g.slim_count, g.fat_count) != (h.slim_count, h.fat_count):
        return False
    if sorted(r.bit_count() for r in g.adj) != sorted(r.bit_count() for r in h.adj):
        return False
    slims = range(g.slim_count)
    fats = range(g.slim_count, g.n)
    for ps in itertools.permutations(slims):
        for pf in itertools.permutations(fats):
            perm = list(ps) + list(pf)
            if all(
                ((g.adj[u] >> v) & 1) == ((h.adj[perm[u]] >> perm[v]) & 1)
                for u in range(g.n)
                for v in range(u + 1, g.n)
            ):
                return True
    return False


def embed_bruteforce(pattern, host):
    """Induced colour-preserving embedding by exhausting injections."""
    ps, pf = pattern.slim_count, pattern.fat_count
    slims = range(host.slim_count)
    fats = range(host.slim_count, host.n)
    for ms in itertools.permutations(slims, ps):
        for mf in itertools.permutations(fats, pf):
            m = list(ms) + list(mf)
            if all(
                ((pattern.adj[u] >> v) & 1) == ((host.adj[m[u]] >> m[v]) & 1)
                for u in range(pattern.n)
                for v in range(u + 1, pattern.n)
            ):
                return m
    return None


# the three hosts, built inline so this module shares nothing with the
# shipped data files
_H2 = HoffmanGraph.build(1, 2, [(0, 1), (0, 2)])
_H3 = HoffmanGraph.build(2, 1, [(0, 2), (1, 2)])
_H5 = HoffmanGraph.build(3, 1, [(0, 3), (1, 3), (2, 3), (1, 2)])


def _partitions_upto3(items):
    if not items:
        yield []
        return
    first = items[0]
    rest = items[1:]
    for size in (1, 2, 3):
        for extra in itertools.combinations(rest, size - 1):
            cell = (first,) + extra
            remaining = [x for x in rest if x not in extra]
            for tail in _partitions_upto3(remaining):
                yield [cell] + tail


def hline_bruteforce(g):
    """Is the slim graph ``g`` a line graph of {H2, H3, H5}?

    Enumerates strict-cover candidates from the definition: partitions of
    the vertices into cells of size at most three (each cell one part;
    singletons carry two fat slots, pairs and triples one), then set
    partitions of the slots into fat vertices.  During slot assignment
    only definitional constraints are applied (a part's fats are
    distinct, two parts share at most one fat, slim vertices joined
    through a shared fat must be adjacent).  A completed assignment must
    meet rule (iv) as a biconditional, checked on bitmasks: outside its
    cell, a slim vertex is adjacent exactly to the cells that share a fat
    with its own.  Each candidate that does is materialized as a Hoffman
    graph and validated from scratch: the sum conditions, part classes by
    brute-force isomorphism, and the slim subgraph matching the input.
    """
    assert g.fat_count == 0
    n = g.slim_count

    def check(cells, blocks):
        slots_of = []
        for ci, cell in enumerate(cells):
            count = 2 if len(cell) == 1 else 1
            slots_of.extend([ci] * count)
        nf = len(blocks)
        adj = [g.adj[v] for v in range(n)] + [0] * nf
        for bi, block in enumerate(blocks):
            fv = n + bi
            for si in block:
                for v in cells[slots_of[si]]:
                    adj[fv] |= 1 << v
                    adj[v] |= 1 << fv
        try:
            host = HoffmanGraph(n, nf, adj)
        except Exception:
            return False
        parts = []
        for ci, cell in enumerate(cells):
            fats = [
                n + bi
                for bi, block in enumerate(blocks)
                if any(slots_of[si] == ci for si in block)
            ]
            parts.append(set(cell) | set(fats))
        ok, _why = validate_sum(host, parts)
        if not ok:
            return False
        for p in parts:
            sub, _ = host.induced_on(sorted(p))
            if not (
                iso_bruteforce(sub, _H2)
                or iso_bruteforce(sub, _H3)
                or iso_bruteforce(sub, _H5)
            ):
                return False
        slim = host.slim_subgraph()
        return slim.adj == g.adj

    for cells in _partitions_upto3(list(range(n))):
        slots_of = []
        for ci, cell in enumerate(cells):
            count = 2 if len(cell) == 1 else 1
            slots_of.extend([ci] * count)
        nslots = len(slots_of)
        cell_masks = [_mask_of(cell) for cell in cells]

        def respects_iv(block_parts):
            shared = [0] * len(cells)
            for bp in block_parts:
                for p in bp:
                    for q in bp:
                        if q != p:
                            shared[p] |= cell_masks[q]
            return all(
                g.adj[x] & ~cell_masks[p] == shared[p]
                for p, cell in enumerate(cells)
                for x in cell
            )

        found = []

        def assign(i, blocks, block_parts, pair_seen):
            if found:
                return
            if i == nslots:
                if respects_iv(block_parts) and check(cells, [tuple(b) for b in blocks]):
                    found.append(True)
                return
            p = slots_of[i]
            for bi in range(len(blocks)):
                bp = block_parts[bi]
                if p in bp:
                    continue
                pairs = [(min(p, q), max(p, q)) for q in bp]
                if any(pr in pair_seen for pr in pairs):
                    continue
                # slim vertices joined through this fat must be adjacent
                if any(
                    not (g.adj[x] >> y) & 1
                    for q in bp
                    for x in cells[p]
                    for y in cells[q]
                ):
                    continue
                blocks[bi].append(i)
                bp.add(p)
                pair_seen.update(pairs)
                assign(i + 1, blocks, block_parts, pair_seen)
                pair_seen.difference_update(pairs)
                bp.remove(p)
                blocks[bi].pop()
                if found:
                    return
            blocks.append([i])
            block_parts.append({p})
            assign(i + 1, blocks, block_parts, pair_seen)
            block_parts.pop()
            blocks.pop()

        assign(0, [], [], set())
        if found:
            return True
    return False


def fat_graphs_bruteforce(slim_count, fat_max):
    """Connected graphs with ``slim_count`` slim and 1 .. ``fat_max`` fat
    vertices, one per class: every multiset of non-empty fat
    neighbourhoods over every slim graph, deduplicated by canonical form.
    """
    nonempty = range(1, 1 << slim_count)
    seen = set()
    for base in all_slim_graphs(slim_count):
        for fcount in range(1, fat_max + 1):
            for combo in itertools.combinations_with_replacement(nonempty, fcount):
                adj = list(base.adj) + list(combo)
                for i, m in enumerate(combo):
                    for v in range(slim_count):
                        if (m >> v) & 1:
                            adj[v] |= 1 << (slim_count + i)
                g = HoffmanGraph(slim_count, fcount, adj)
                if g.is_connected():
                    form = canonical_form(g)
                    if form not in seen:
                        seen.add(form)
                        yield g


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def charpoly_bruteforce(matrix):
    """det(xI - M) by permutation expansion; low-degree-first coeffs."""
    n = len(matrix)
    total = [0] * (n + 1)
    for perm in itertools.permutations(range(n)):
        sign = 1
        seen = [False] * n
        for i in range(n):
            if seen[i]:
                continue
            j = i
            length = 0
            while not seen[j]:
                seen[j] = True
                j = perm[j]
                length += 1
            if length % 2 == 0:
                sign = -sign
        term = [sign]
        for i in range(n):
            entry = (
                [-matrix[i][perm[i]], 1] if perm[i] == i else [-matrix[i][perm[i]]]
            )
            term = _poly_mul(term, entry)
        for k, c in enumerate(term):
            total[k] += c
    return tuple(total)


def char_poly_berkowitz(matrix):
    """det(xI - M) by the Berkowitz recurrence (Inf. Process. Lett. 18,
    1984), division-free; low-degree-first coeffs.  The package's
    characteristic polynomial as it stood before it came from power
    sums, kept as the reference for matrices too large to expand."""
    n = len(matrix)
    if n == 0:
        return (1,)
    mul = operator.mul
    vec = [1, -matrix[0][0]]  # leading-first for the recurrence
    for i in range(1, n):
        row = matrix[i][:i]
        sub = [matrix[r][:i] for r in range(i)]
        v = [matrix[r][i] for r in range(i)]
        t = [1, -matrix[i][i], -sum(map(mul, row, v))]
        for _ in range(i - 1):
            v = [sum(map(mul, s, v)) for s in sub]
            t.append(-sum(map(mul, row, v)))
        new = [0] * (i + 2)
        for k in range(i + 2):
            acc = 0
            for j in range(max(0, k - len(t) + 1), min(k, len(vec) - 1) + 1):
                acc += t[k - j] * vec[j]
            new[k] = acc
        vec = new
    return tuple(reversed(vec))


# -- the fat phase as it stood before its blocks became bitmasks ---------
#
# Copied word for word: cells as vertex tuples, blocks as tuples of part
# indices.  ``_cover_fats`` was the padding step of recognition then.


def _fat_phase(cells, dadj, pinned_parts):
    """Assign fat vertices to a complete cell partition.

    cells       -- the cells; a singleton owns two fat slots, others one
    dadj        -- per part: bitmask of cross-complete partner parts
    pinned_parts-- per input fat vertex, the tuple of parts it must span

    Yields block tuples: ``blocks[i]`` for i < len(pinned_parts) realizes
    input fat i; later entries are new shared blocks.  Private padding is
    left to ``_cover_fats``.
    """
    p = len(cells)
    budget = [2 if len(c) == 1 else 1 for c in cells]
    covered = [0] * p
    blocks = []

    def add(members):
        """Open a fat vertex spanning ``members`` if every member has a
        free slot and every pair of them is an uncovered D-edge."""
        m = _mask_of(members)
        for a in members:
            if budget[a] <= 0 or m & ~(1 << a) & (covered[a] | ~dadj[a]):
                return False
        for a in members:
            budget[a] -= 1
            covered[a] |= m & ~(1 << a)
        blocks.append(tuple(members))
        return True

    def remove():
        members = blocks.pop()
        m = _mask_of(members)
        for a in members:
            budget[a] += 1
            covered[a] &= ~m

    # pinned fat vertices of the input, in original order; a pinned
    # private fat is a one-member block
    for members in pinned_parts:
        if not add(members):
            return

    # forced blocks: a budget-1 part's single slot must cover all its
    # edges, so a part whose slot is already spent is consistent iff that
    # block covered its whole D-neighbourhood
    for part in range(p):
        if len(cells[part]) == 1 or dadj[part] == 0:
            continue
        if budget[part] == 0:
            if covered[part] != dadj[part]:
                return
        elif not add(sorted({part, *_iter_bits(dadj[part])})):
            return

    # exact clique partition of the remaining edges (budget-2 parts only)
    def bt():
        for i in range(p):
            rem = dadj[i] & ~covered[i] & ~((2 << i) - 1)
            if rem:
                break
        else:
            yield tuple(blocks)
            return
        j = (rem & -rem).bit_length() - 1
        if budget[i] <= 0 or budget[j] <= 0:
            return
        # edge ij goes into exactly one new block: ij plus some common
        # D-neighbours that still have a free slot
        candidates = [k for k in _iter_bits(dadj[i] & dadj[j]) if budget[k] > 0]

        def grow(members, start):
            if add(members):
                yield from bt()
                remove()
            m = _mask_of(members)
            for ci in range(start, len(candidates)):
                k = candidates[ci]
                if not m & (covered[k] | ~dadj[k]):
                    yield from grow(members + [k], ci + 1)

        yield from grow([i, j], 0)

    yield from bt()


def cover_structures_unpruned(g):
    """Yield (cells, blocks) pairs describing strict covers.

    cells  -- tuple of vertex tuples partitioning the slim vertices
    blocks -- per fat vertex of the cover (pinned input fats first),
              the tuple of part indices it spans; private padding fats
              are implied by the budgets and not listed.
    """
    s = g.slim_count
    smask = g.slim_mask
    sadj = [g.adj[v] & smask for v in range(s)]
    pinned = [g.adj[f] & smask for f in range(s, g.n)]
    cells = []
    masks = []
    dadj = []

    def try_cell(verts):
        """The cell's mask and D-row, or None if some earlier cell is
        neither complete nor empty to it or an input fat splits it."""
        cm = _mask_of(verts)
        for pf in pinned:
            if cm & pf not in (0, cm):
                return None
        seen_any, seen_all = 0, smask
        for v in verts:
            seen_any |= sadj[v]
            seen_all &= sadj[v]
        bits = 0
        for i, m in enumerate(masks):
            if seen_any & m:
                if seen_all & m != m:
                    return None
                bits |= 1 << i
        return cm, bits

    def push(verts, cm, bits):
        idx = len(cells)
        cells.append(verts)
        masks.append(cm)
        for i in _iter_bits(bits):
            dadj[i] |= 1 << idx
        dadj.append(bits)

    def pop(bits):
        idx = len(cells) - 1
        cells.pop()
        masks.pop()
        dadj.pop()
        for i in _iter_bits(bits):
            dadj[i] &= ~(1 << idx)

    def rec(uncovered):
        if not uncovered:
            pinned_parts = [
                tuple(i for i, m in enumerate(masks) if m & pf) for pf in pinned
            ]
            for blocks in _fat_phase(cells, dadj, pinned_parts):
                yield tuple(cells), blocks
            return
        v = (uncovered & -uncovered).bit_length() - 1
        rest = uncovered & ~(1 << v)

        # singleton cell
        r = try_cell((v,))
        if r:
            push((v,), *r)
            yield from rec(rest)
            pop(r[1])

        # non-adjacent pair cells
        for u in _iter_bits(rest & ~sadj[v]):
            r = try_cell((v, u))
            if r:
                push((v, u), *r)
                yield from rec(rest & ~(1 << u))
                pop(r[1])

        # one-edge triple cells
        pool = list(_iter_bits(rest))
        for ai, a in enumerate(pool):
            va = (sadj[v] >> a) & 1
            for b in pool[ai + 1:]:
                if va + ((sadj[v] >> b) & 1) + ((sadj[a] >> b) & 1) != 1:
                    continue
                r = try_cell((v, a, b))
                if r:
                    push((v, a, b), *r)
                    yield from rec(rest & ~(1 << a) & ~(1 << b))
                    pop(r[1])

    yield from rec((1 << s) - 1)


def strict_covers_reference(g):
    """The strict covers of ``cover_structures_unpruned(g)``, one per
    structure and in its order.  Host fat order: the pinned input fats,
    the new shared blocks ordered by their sorted parts, then private
    padding filling each part's fat slots; a singleton owns two slots,
    or ``max(1, blocks)`` when ``g`` has fat vertices."""
    s, pinned = g.slim_count, g.fat_count
    for cells, blocks in cover_structures_unpruned(g):
        count = Counter(part for block in blocks for part in block)
        padding, classes = [], []
        for part, cell in enumerate(cells):
            if len(cell) > 1:
                want = 1
                classes.append("H3" if len(cell) == 2 else "H5")
            else:
                want = max(1, count[part]) if pinned else 2
                classes.append("H2" if want == 2 else "H1")
            padding += [(part,)] * (want - count[part])
        fats = [*blocks[:pinned], *sorted(blocks[pinned:]), *padding]
        host, parts = _block_sum(g.adj[:s], [_mask_of(c) for c in cells], [_mask_of(b) for b in fats])
        yield StrictCover(g, host, parts, tuple(classes))


# -- the deletion lemma and glued sums --------------------------------------
#
# ``delete_vertex_from_cover`` is the paper's deletion lemma on a cover,
# the oracle that ``recognition._extensions`` (the lemma run backwards)
# is tested against.  ``build_sum`` builds a sum from its parts with no
# recognition code, the independent generator of
# ``test_random_sums_are_found_among_covers``.


class VertexNotInGraph(HoffmanGraphError):
    pass


class NotConnected(HoffmanGraphError):
    """A connected graph was required."""


def delete_vertex_from_cover(host, parts, x):
    """Transform a cover of H into one of H - x; returns (cover, case).

    ``host`` is a connected sum with the part vertex sets ``parts``, of
    classes in {H2, H3, H5}, and ``x`` a slim vertex of it (lying in
    part H0).  The resulting strict cover of H - x keeps every other
    part and replaces H0 according to exactly one of four cases:

      i    H0 was a copy of H2 (cell {x}); it vanishes.
      ii   H0 was a copy of H3; the leftover slim vertex keeps the hub
           and gains a fresh pendant fat vertex, forming a copy of H2.
      iii  H0 was a copy of H5 and x was its isolated slim vertex; the
           remaining adjacent pair becomes two copies of H2 sharing the
           hub, each padded by a fresh pendant fat vertex.
      iv   H0 was a copy of H5 and x an endpoint of its slim edge; the
           remaining non-adjacent pair keeps the hub as a copy of H3.
    """
    if not 0 <= x < host.slim_count:
        raise VertexNotInGraph(f"{x} is not a slim vertex of the host")
    if not host.is_connected():
        raise NotConnected("the cover must be connected")
    part_of = None
    part_classes = []
    for i, p in enumerate(parts):
        sub, _ = host.induced_on(sorted(p))
        cls = classify_part(sub)
        if cls not in ("H2", "H3", "H5"):
            raise HoffmanGraphError("part classes must lie in {H2, H3, H5}")
        part_classes.append(cls)
        if x in p:
            part_of = i
    if part_of is None:
        raise VertexNotInGraph(f"{x} not covered by any part")
    ok, why = validate_sum(host, parts)
    if not ok:
        raise HoffmanGraphError(f"the parts are not a sum: condition ({why}) fails")

    s = host.slim_count
    low = (1 << x) - 1

    def drop_x(mask):
        """A slim mask without x, higher slim indices moved down."""
        return mask & low | mask >> 1 & ~low

    # the cells (host indices) and classes replacing H0; a new H2 cell
    # is padded by a fresh pendant fat vertex
    home = sorted(v for v in parts[part_of] if v < s and v != x)
    if part_classes[part_of] == "H2":
        case, home_cells, home_classes = "i", [], []
    elif part_classes[part_of] == "H3":
        case, home_cells, home_classes = "ii", [home], ["H2"]
    elif host.adjacent(*home):
        case, home_cells, home_classes = "iii", [[v] for v in home], ["H2", "H2"]
    else:
        case, home_cells, home_classes = "iv", [home], ["H3"]
    padded = home if case in ("ii", "iii") else []
    cells = [_mask_of(p) & host.slim_mask for i, p in enumerate(parts) if i != part_of]
    cells += [_mask_of(c) for c in home_cells]
    classes = [c for i, c in enumerate(part_classes) if i != part_of] + home_classes

    fat_nbhds = [drop_x(host.adj[f] & host.slim_mask) for f in range(s, host.n)]
    fat_nbhds = [m for m in fat_nbhds if m] + [drop_x(1 << v) for v in padded]
    adj, new_parts = _sum_adjacency(
        [drop_x(host.adj[v]) for v in range(s) if v != x],
        [drop_x(c) for c in cells],
        fat_nbhds,
    )
    new_host = HoffmanGraph(s - 1, len(fat_nbhds), adj)
    base = host.delete_slim({x})
    cover = StrictCover(base, new_host, tuple(new_parts), tuple(classes))
    return cover, case


def _by_least_slim(host, parts):
    """``parts`` as frozensets sorted by their least slim vertex, so that
    two lists of the same parts compare equal."""
    return tuple(
        sorted(
            (frozenset(p) for p in parts),
            key=lambda p: min((v for v in p if v < host.slim_count), default=host.n),
        )
    )


def build_sum(components, fat_glue=()):
    """Assemble the sum of ``components`` with fat vertices identified;
    returns (host, parts), the parts sorted by their least slim vertex.

    ``fat_glue`` is an iterable of groups; each group is a collection of
    ``(component_index, fat_vertex)`` pairs that become a single fat
    vertex of the host.  Ungrouped fat vertices stay private to their
    component.  Cross-component slim adjacency is derived from rule (iv).

    Raises HoffmanGraphError when a group holds two fat vertices of one
    component (merging them would change that component), and
    SharedFatConflict when two slim vertices of different components
    would share two fat vertices.
    """
    components = list(components)
    groups = [list(g) for g in fat_glue]
    used = set()
    for g in groups:
        if len(g) < 2:
            raise HoffmanGraphError("a glue group needs at least two fat vertices")
        group_comps = set()
        for ci, fv in g:
            if not 0 <= ci < len(components):
                raise IndexOutOfRange(f"no component {ci}")
            comp = components[ci]
            if not comp.slim_count <= fv < comp.n:
                raise IndexOutOfRange(f"{fv} is not a fat vertex of component {ci}")
            if (ci, fv) in used:
                raise HoffmanGraphError(f"fat vertex ({ci},{fv}) glued twice")
            if ci in group_comps:
                raise HoffmanGraphError(
                    f"a glue group holds two fat vertices of component {ci}"
                )
            used.add((ci, fv))
            group_comps.add(ci)

    offsets = []
    next_slim = 0
    for comp in components:
        offsets.append(next_slim)
        next_slim += comp.slim_count
    slim_rows = [
        row << off for comp, off in zip(components, offsets) for row in comp.adj[: comp.slim_count]
    ]
    cells = [comp.slim_mask << off for comp, off in zip(components, offsets)]
    fat_nbhds = [0] * len(groups)
    for gi, g in enumerate(groups):
        for ci, fv in g:
            fat_nbhds[gi] |= components[ci].adj[fv] << offsets[ci]
    for ci, comp in enumerate(components):
        for fv in range(comp.slim_count, comp.n):
            if (ci, fv) not in used:
                fat_nbhds.append(comp.adj[fv] << offsets[ci])
    adj, parts = _sum_adjacency(slim_rows, cells, fat_nbhds)
    host = HoffmanGraph(next_slim, len(fat_nbhds), adj)
    return host, _by_least_slim(host, parts)


# -- the typed cell partitions as they stood before one layout per class ---
#
# Copied word for word: every partition of range(k) into typed cells,
# with the fat-slot count of each class.


_CELL_KINDS = {"H1": 1, "H2": 2, "H3": 1, "H5": 1}


def _cell_partitions(k, classes):
    """Yield typed slim-cell partitions of range(k).

    Each item: list of (cell_tuple, class_name, internal_edges) where
    internal_edges is a tuple of slim edges inside the cell (only H5
    cells have one).
    """
    singles = [cl for cl in ("H1", "H2") if cl in classes]

    def rec(remaining, acc):
        if not remaining:
            yield list(acc)
            return
        v = remaining[0]
        rest = remaining[1:]
        for cl in singles:
            acc.append(((v,), cl, ()))
            yield from rec(rest, acc)
            acc.pop()
        if "H3" in classes:
            for i, u in enumerate(rest):
                acc.append(((v, u), "H3", ()))
                yield from rec(rest[:i] + rest[i + 1:], acc)
                acc.pop()
        if "H5" in classes:
            for i, u in enumerate(rest):
                for j in range(i + 1, len(rest)):
                    w = rest[j]
                    cell = (v, u, w)
                    others = rest[:i] + rest[i + 1: j] + rest[j + 1:]
                    for edge in ((u, w), (v, u), (v, w)):
                        acc.append((cell, "H5", (edge,)))
                        yield from rec(others, acc)
                        acc.pop()
        return

    yield from rec(list(range(k)), [])


# -- the slot partitions as they stood before symmetry breaking -----------
#
# Copied word for word but for their names: every labelled set partition
# of the fat slots, so the two slots of an H2 cell and two blocks with
# the same parts are told apart.


def slot_partitions_labelled(slot_parts):
    """Partition fat slots into blocks: at most one slot per part per
    block, and two parts never share more than one block."""
    nslots = len(slot_parts)
    nparts = max(slot_parts) + 1 if nslots else 0

    def rec(i, blocks, block_parts, pair_used):
        if i == nslots:
            yield [tuple(b) for b in blocks]
            return
        p = slot_parts[i]
        for bi in range(len(blocks)):
            bp = block_parts[bi]
            if p in bp:
                continue
            pairs = [(min(p, q), max(p, q)) for q in bp]
            if any(pr in pair_used for pr in pairs):
                continue
            blocks[bi].append(i)
            bp.add(p)
            pair_used.update(pairs)
            yield from rec(i + 1, blocks, block_parts, pair_used)
            pair_used.difference_update(pairs)
            bp.remove(p)
            blocks[bi].pop()
        blocks.append([i])
        block_parts.append({p})
        yield from rec(i + 1, blocks, block_parts, pair_used)
        block_parts.pop()
        blocks.pop()

    yield from rec(0, [], [], set())


def fat_neighbourhoods_labelled(cells):
    """Yield the slim neighbourhoods of the fat vertices, one list per way
    to merge the fat slots of ``cells`` into fat vertices."""
    masks = [_mask_of(cell) for cell, _cls, _edges in cells]
    slot_parts = [
        p for p, (_cell, cls, _edges) in enumerate(cells) for _ in range(_CELL_KINDS[cls])
    ]
    for blocks in slot_partitions_labelled(slot_parts):
        fat_nbhds = []
        for block in blocks:
            nbhd = 0
            for slot in block:
                nbhd |= masks[slot_parts[slot]]
            fat_nbhds.append(nbhd)
        yield fat_nbhds


# -- the sum assembly as it stood before sums were built from blocks ----
#
# Copied word for word: a typed cell partition and the slim neighbourhoods
# of its fat vertices make the host.


def _assemble_sum(k, cells, fat_nbhds):
    """Build the Hoffman graph of a typed cell partition whose fat
    vertices have the slim neighbourhoods ``fat_nbhds``.

    Returns (graph, parts) with parts the vertex sets of the summands.
    """
    slim_rows = [0] * k
    for _cell, _cls, edges in cells:
        for u, v in edges:
            slim_rows[u] |= 1 << v
            slim_rows[v] |= 1 << u
    masks = [_mask_of(cell) for cell, _cls, _edges in cells]
    adj, parts = _sum_adjacency(slim_rows, masks, fat_nbhds)
    return HoffmanGraph(k, len(fat_nbhds), adj, _checked=True), tuple(parts)


def sum_family_unpruned(slim_count, classes, component_count):
    """The sums K of ``sum_graphs``, one per class, over every typed cell
    partition (no class-multiset key)."""
    if slim_count == 0:
        return ((EMPTY_GRAPH, ()),) if component_count in (None, 0) else ()
    family = []
    seen = set()
    for cells in _cell_partitions(slim_count, classes):
        # Within one cell partition the slim edges inside the parts are
        # fixed and rule (iv) derives every other slim edge from the fat
        # neighbourhoods; fat vertices are pairwise non-adjacent.  So the
        # multiset of fat neighbourhoods fixes the graph up to a
        # permutation of its fat vertices, and a repeated multiset is
        # isomorphic to a structure already seen.  Across partitions the
        # same multiset can belong to different graphs, hence one key set
        # per partition.
        keys = set()
        for fat_nbhds in fat_neighbourhoods_labelled(cells):
            key = tuple(sorted(fat_nbhds))
            if key in keys:
                continue
            keys.add(key)
            g, parts = _assemble_sum(slim_count, cells, fat_nbhds)
            if component_count is not None:
                if len(g.connected_components()) != component_count:
                    continue
            form = canonical_form(g)
            if form in seen:
                continue
            seen.add(form)
            family.append((g, parts))
    return tuple(family)


def enumerate_sums_unpruned(f_graph, slim_count_k, classes=("H1", "H2", "H3", "H5"),
                            component_count_k=None):
    """The graphs of ``enumerate_sums``, gluing F onto each sum K by every
    fat map (no orbit skip): the first graph of each class, in order."""
    seen = set()
    for k_graph, _parts in sum_graphs(slim_count_k, classes, component_count_k):
        kfats = range(k_graph.slim_count, k_graph.n)
        for fat_map in itertools.permutations(kfats, f_graph.fat_count):
            try:
                g = _compose(f_graph, k_graph, fat_map)
            except SharedFatConflict:
                continue
            if not g.is_connected():
                continue
            form = canonical_form(g)
            if form not in seen:
                seen.add(form)
                yield g


def _refine(adj, cells):
    """Equitable refinement of an ordered partition.

    Cells split by their neighbour counts into every current cell; split
    parts are ordered by count vector, which is label-invariant, so two
    isomorphic graphs refine to corresponding partitions.
    """
    cells = [c[:] for c in cells]
    changed = True
    while changed:
        changed = False
        masks = [_mask_of(c) for c in cells]
        new_cells = []
        for c in cells:
            if len(c) == 1:
                new_cells.append(c)
                continue
            groups = {}
            for v in c:
                row = adj[v]
                sig = tuple((row & m).bit_count() for m in masks)
                groups.setdefault(sig, []).append(v)
            if len(groups) == 1:
                new_cells.append(c)
            else:
                changed = True
                for sig in sorted(groups):
                    new_cells.append(groups[sig])
        cells = new_cells
    return cells


class _CanonSearch:
    __slots__ = ("adj", "first", "best", "autos")

    def __init__(self, adj):
        self.adj = adj
        self.first = None
        self.best = None
        self.autos = []

    def _record_auto(self, lab1, lab2):
        n = len(lab1)
        perm = [0] * n
        for i in range(n):
            perm[lab1[i]] = lab2[i]
        if any(perm[i] != i for i in range(n)):
            self.autos.append(perm)

    def _leaf(self, cells):
        lab = [c[0] for c in cells]
        key = _adjacency_key(self.adj, lab)
        if self.first is None:
            self.first = (key, lab)
            self.best = (key, lab)
            return
        if key == self.first[0]:
            self._record_auto(self.first[1], lab)
        if key < self.best[0]:
            self.best = (key, lab)
        elif key == self.best[0] and self.best is not self.first:
            self._record_auto(self.best[1], lab)

    def run(self, cells, fixed):
        cells = _refine(self.adj, cells)
        target = -1
        for i, c in enumerate(cells):
            if len(c) > 1:
                target = i
                break
        if target < 0:
            self._leaf(cells)
            return
        cell = cells[target]
        rest_template = cells[:target]
        tail = cells[target + 1:]
        tried = []
        for v in cell:
            pruned = False
            for a in self.autos:
                if all(a[x] == x for x in fixed):
                    for u in tried:
                        if a[u] == v:
                            pruned = True
                            break
                if pruned:
                    break
            if pruned:
                continue
            tried.append(v)
            sub = rest_template + [[v], [u for u in cell if u != v]] + tail
            fixed.append(v)
            self.run(sub, fixed)
            fixed.pop()


def canonical_data_unpruned(g):
    """(form, labelling, orbits) by the reference search: the form and
    labelling that ``core.canonical_data`` returns, and the orbits of
    the automorphism group, which ``helpers.automorphism_orbits``
    builds from its stored automorphisms."""
    n = g.n
    header = bytes([g.slim_count, g.fat_count])
    if n == 0:
        return header, [], []
    search = _CanonSearch(g.adj)
    search.run(_colour_cells_lists(g), [])
    key, lab = search.best
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a in search.autos:
        for v in range(n):
            ra, rb = find(v), find(a[v])
            if ra != rb:
                parent[ra] = rb
    groups = {}
    for v in range(n):
        groups.setdefault(find(v), []).append(v)
    orbits = sorted(groups.values())
    return header + key, lab, orbits


# -- the canonical search as it stood before its cells became bitmasks -----
#
# Copied word for word but for their names, so the block comments their
# docstrings point to are those of ``core``: an ordered partition is a
# list of ascending vertex lists, and refinement groups each cell by its
# tuple of counts into the fresh cells.  The search has since gained the
# return to the first path on an automorphism (``core._CanonSearch.run``),
# and so has this copy, so that the two store the same automorphisms;
# ``canonical_data_unpruned`` has no such return and stays the reference
# for forms, labellings and orbits.


def _refine_lists(adj, cells, fresh):
    """Equitable refinement of an ordered partition.

    Each round splits every cell by its neighbour counts into the cells
    of ``fresh`` and orders the parts by count vector, which is
    label-invariant, so two isomorphic graphs refine to corresponding
    partitions.  The next round counts into the parts of each split but
    the last; refinement stops when a round splits nothing.  ``fresh``
    must be every cell at the root and the new singleton below a split
    of an equitable partition (see the block comment above).
    """
    cells = [c[:] for c in cells]
    while fresh:
        masks = [_mask_of(c) for c in fresh]
        fresh = []
        new_cells = []
        for c in cells:
            if len(c) == 1:
                new_cells.append(c)
                continue
            groups = {}
            for v in c:
                row = adj[v]
                sig = tuple((row & m).bit_count() for m in masks)
                groups.setdefault(sig, []).append(v)
            if len(groups) == 1:
                new_cells.append(c)
            else:
                parts = [groups[sig] for sig in sorted(groups)]
                new_cells.extend(parts)
                fresh.extend(parts[:-1])
        cells = new_cells
    return cells


def _colour_cells_lists(g):
    """The partition canonical labelling starts from: the slim vertices,
    then the fat ones, leaving out an empty cell."""
    cells = []
    if g.slim_count:
        cells.append(list(range(g.slim_count)))
    if g.fat_count:
        cells.append(list(range(g.slim_count, g.n)))
    return cells


class _CanonSearchLists:
    __slots__ = ("adj", "first", "first_path", "best", "autos")

    def __init__(self, adj):
        self.adj = adj
        self.first = None
        self.first_path = None
        self.best = None
        self.autos = []

    def _record_auto(self, lab1, lab2):
        n = len(lab1)
        perm = [0] * n
        for i in range(n):
            perm[lab1[i]] = lab2[i]
        if any(perm[i] != i for i in range(n)):
            self.autos.append(perm)

    def _leaf(self, cells, fixed):
        lab = [c[0] for c in cells]
        key = _adjacency_key(self.adj, lab)
        if self.first is None:
            self.first = self.best = (key, lab)
            self.first_path = fixed[:]
            return len(fixed)
        if key < self.best[0]:
            self.best = (key, lab)
        elif key == self.best[0] and self.best is not self.first:
            self._record_auto(self.best[1], lab)
        if key == self.first[0]:
            self._record_auto(self.first[1], lab)
            shared = 0
            for v, w in zip(fixed, self.first_path):
                if v != w:
                    break
                shared += 1
            return shared
        return len(fixed)

    def run(self, cells, fresh, fixed):
        cells = _refine_lists(self.adj, cells, fresh)
        target = -1
        for i, c in enumerate(cells):
            if len(c) > 1:
                target = i
                break
        if target < 0:
            return self._leaf(cells, fixed)
        depth = len(fixed)
        cell = cells[target]
        rest_template = cells[:target]
        tail = cells[target + 1:]
        # the orbits on the target cell of the group that the stored
        # automorphisms fixing the prefix generate
        parent = {v: v for v in cell}
        folded = 0
        tried = []
        for v in cell:
            for a in self.autos[folded:]:
                if all(a[x] == x for x in fixed):
                    for u in cell:
                        _union(parent, u, a[u])
            folded = len(self.autos)
            root = _find(parent, v)
            if any(_find(parent, u) == root for u in tried):
                continue
            tried.append(v)
            sub = rest_template + [[v], [u for u in cell if u != v]] + tail
            fixed.append(v)
            back = self.run(sub, [[v]], fixed)
            fixed.pop()
            if back < depth:
                return back
        return depth


def canonical_search_lists(g):
    """The canonical search of a non-empty ``g``: (form bytes, labelling,
    stored automorphisms), which generate the colour-preserving
    automorphism group (see the block comment above)."""
    cells = _colour_cells_lists(g)
    search = _CanonSearchLists(g.adj)
    search.run(cells, cells, [])
    key, lab = search.best
    return bytes([g.slim_count, g.fat_count]) + key, lab, search.autos


def allowed_targets(child, connected, fat):
    """The deletion targets of a child of canonical augmentation, as a
    bitmask: its fat vertices for a new fat vertex, else its slim ones,
    only those whose removal keeps it connected when ``connected``."""
    if fat:
        return child.fat_mask
    if not connected:
        return child.slim_mask
    out = 0
    for v in _iter_bits(child.slim_mask):
        if len(child._components_within(child.slim_mask & ~(1 << v))) <= 1:
            out |= 1 << v
    return out


def canonical_children_unpruned(parent, connected=True, fat=False):
    """(child, canonical form) for the one-vertex extensions of
    ``parent`` whose canonical parent it is, one per class.

    A new slim vertex extends a slim parent, and the deletion target
    ranges over non-cut vertices, or all when not ``connected``.  A new
    fat vertex sees a non-empty set of slim vertices, and the deletion
    target ranges over the fat vertices: deleting a fat vertex always
    leaves a Hoffman graph, so every graph with a fat vertex has its
    canonical parent one layer down.  Every child is labelled."""
    new = parent.n
    emitted = set()
    for nbhd in range(1 if connected or fat else 0, 1 << parent.slim_count):
        child = _extend(parent, nbhd, fat)
        allowed = allowed_targets(child, connected, fat)
        form, lab, autos = canonical_data(child)
        orbits = automorphism_orbits(child, autos)
        if form in emitted:
            continue
        pos = {v: i for i, v in enumerate(lab)}
        target = max(_iter_bits(allowed), key=pos.__getitem__)
        if any(new in orb and target in orb for orb in orbits):
            emitted.add(form)
            yield child, form


# -- the two kernels as they stood before their per-call set-up moved ------
#
# Copied word for word but for their names: ``find_embedding_per_call``
# builds the pattern's domains and order on every call, and
# ``smallest_root_interval_fractions`` bisects on ``Fraction``s, counting
# roots with the whole Sturm chain at every midpoint.


def find_embedding_per_call(pattern, host):
    """An injective colour-preserving induced embedding, or ``None``.

    Both adjacency and non-adjacency are preserved (induced subgraph
    semantics).  Uses degree/colour pruning and bitset domain filtering.
    Returns a tuple ``m`` with ``m[v]`` the host vertex of pattern
    vertex ``v``.
    """
    pn = pattern.n
    if pn == 0:
        return ()
    if pattern.slim_count > host.slim_count or pattern.fat_count > host.fat_count:
        return None
    host_slim = host.slim_mask
    host_fat = host.fat_mask
    domains = []
    for v in range(pn):
        color_mask = host_slim if v < pattern.slim_count else host_fat
        deg = pattern.adj[v].bit_count()
        dom = 0
        for w in _iter_bits(color_mask):
            if host.adj[w].bit_count() >= deg:
                dom |= 1 << w
        if not dom:
            return None
        domains.append(dom)
    order = sorted(range(pn), key=lambda v: (-pattern.adj[v].bit_count(), v))
    padj = pattern.adj
    hadj = host.adj
    full = (1 << host.n) - 1
    mapping = [-1] * pn

    def rec(i, doms):
        if i == pn:
            return True
        v = order[i]
        cand = doms[v]
        later = order[i + 1:]
        while cand:
            low = cand & -cand
            cand ^= low
            w = low.bit_length() - 1
            mapping[v] = w
            ok = True
            new = list(doms)
            for u in later:
                if (padj[v] >> u) & 1:
                    d = new[u] & hadj[w]
                else:
                    d = new[u] & ~hadj[w] & full & ~low
                if not d:
                    ok = False
                    break
                new[u] = d
            if ok and rec(i + 1, new):
                return True
            mapping[v] = -1
        return False

    if rec(0, domains):
        return tuple(mapping)
    return None


def square_free(p):
    """The radical of the monic integer polynomial ``p``: same roots,
    multiplicity one, monic.  Its coefficients are integers, since a
    monic integer polynomial has only monic integer factors."""
    # the last member of the Sturm chain is a multiple of gcd(p, p')
    gcd = _primitive(sturm_chain(p)[-1])
    q, r = _divmod_poly(p, gcd if gcd[-1] > 0 else [-c for c in gcd])
    _require(not any(r), "gcd(p, p') does not divide p")
    return q


def _integer_roots(p, bound):
    """The integer roots of the square-free monic ``p``, ascending, and
    ``p`` with them divided out; ``bound`` is the Cauchy bound of ``p``."""
    d = _degree(p)
    # Newton's identities: the roots of x^d + c_{d-1} x^{d-1} + c_{d-2}
    # x^{d-2} + ... have sum of squares c_{d-1}^2 - 2 c_{d-2}.  They are
    # all real, so each |root| is at most the square root of that sum,
    # and no integer root lies outside [-top, top].
    squares = p[d - 1] ** 2 - 2 * (p[d - 2] if d >= 2 else 0)
    _require(squares >= 0, "the squared roots have a negative sum")
    top = min(bound + 1, math.isqrt(squares) + 1)
    roots, work = [], p
    for k in range(-top, top + 1):
        if _sign_at(work, k) == 0:
            roots.append(k)
            work, r = _divmod_poly(work, [-k, 1])
            _require(not any(r), "x - k does not divide a polynomial vanishing at k")
    return roots, work


def _count_leq(chain, x):
    """Roots <= x of the square-free polynomial behind ``chain``, for a
    rational x that is not itself a root."""
    signs = [_sign_at(q, x.numerator, x.denominator) for q in chain]
    _require(signs[0] != 0, "a bisection point is a root")
    return _variations([_sign_at_neg_inf(q) for q in chain]) - _variations(signs)


def smallest_root_interval_fractions(poly, tolerance=BRACKET_WIDTH):
    """Bracket the smallest real root of a monic integer polynomial whose
    roots are all real.  Width <= tolerance (zero when the root is an
    integer)."""
    p = square_free(poly)
    if _degree(p) == 0:
        raise EmptyGraph("constant polynomial has no roots")
    # Cauchy: every root lies strictly inside (-bound, bound)
    bound = 1 + max(abs(c) for c in p[:-1])
    # split off integer roots: a monic integer polynomial has no other
    # rational roots, so the remaining bisection never meets one
    int_roots, work = _integer_roots(p, bound)
    best_int = int_roots[0] if int_roots else None
    if _degree(work) == 0:
        _require(best_int is not None, "constant polynomial left without a root")
        return Fraction(best_int), Fraction(best_int)
    chain = sturm_chain(work)
    lo, hi = Fraction(-bound - 1), Fraction(bound + 1)
    _require(_count_leq(chain, lo) == 0, "a root lies below the lower root bound")
    _require(_count_leq(chain, hi) >= 1, "no root lies below the upper root bound")
    # decide exactly which side of the integer root the irrational
    # minimum lies on; they can never coincide
    if best_int is not None and _count_leq(chain, Fraction(best_int)) == 0:
        return Fraction(best_int), Fraction(best_int)
    while hi - lo > tolerance:
        mid = (lo + hi) / 2
        if _count_leq(chain, mid) >= 1:
            hi = mid
        else:
            lo = mid
    return lo, hi


# -- decomposition into parts from a class set ------------------------------
#
# A definition-level reference for the sum conditions: ``decompose``
# tries every partition of the slim vertices into closures whose classes
# lie in a given set, and ``_cells_respect_iv`` checks rule (iv) pair by
# pair.  Over {H2, H3, H5} a host has at most one decomposition; the tests
# verify that uniqueness on the strict covers.

#: the recognition family: the sums are built from copies of these three
LINE_FAMILY_NAMES = ("H2", "H3", "H5")


def line_family_forms():
    """Canonical forms of {H2, H3, H5}, for decomposition class filters."""
    return frozenset(canonical_form(family_graph(name)) for name in LINE_FAMILY_NAMES)


def _cells_respect_iv(host, cells):
    """Condition (iv) across slim cells of a candidate decomposition."""
    for a, b in itertools.combinations(cells, 2):
        for x in a:
            fx = host.fat_neighbors(x)
            for y in b:
                common = (fx & host.fat_neighbors(y)).bit_count()
                if common > 1:
                    return False
                if (common == 1) != host.adjacent(x, y):
                    return False
    return True


def decompose(host, allowed_classes):
    """All decompositions of ``host`` into parts with isomorphism class in
    ``allowed_classes`` (a set of canonical forms), up to part order, as
    (host, parts) pairs with the parts sorted by their least slim vertex.

    Every part is the closure of its slim cell, so the search partitions
    the slim vertex set; a part's class is checked by canonical form.
    An empty result means the host is not decomposable over the classes.
    """
    allowed = {bytes(c) for c in allowed_classes}
    if not allowed:
        raise HoffmanGraphError("allowed_classes must be nonempty")
    sizes = sorted({c[0] for c in allowed})
    if host.slim_count == 0:
        if host.fat_count == 0:
            return [(host, ())]
        return []
    slim = host.slim_count
    results = []

    def rec(uncovered, cells):
        if not uncovered:
            if _cells_respect_iv(host, cells):
                parts = [
                    frozenset(host.closure_vertices(c)) for c in cells
                ]
                results.append(_by_least_slim(host, parts))
            return
        v = min(uncovered)
        rest = sorted(uncovered - {v})
        for size in sizes:
            if size == 0 or size - 1 > len(rest):
                continue
            for extra in itertools.combinations(rest, size - 1):
                cell = (v,) + extra
                part = host.induced_slim_closure(cell)
                if canonical_form(part) not in allowed:
                    continue
                cells.append(cell)
                rec(uncovered - set(cell), cells)
                cells.pop()

    rec(frozenset(range(slim)), [])
    uniq = sorted(set(results), key=lambda parts: tuple(sorted(tuple(sorted(p)) for p in parts)))
    return [(host, parts) for parts in uniq]


# -- the extension step as it stood before it skipped the cell loop -------
#
# Copied word for word but for its name and the degree test's name in a
# comment: ``extensions_reference`` runs the loop over the cells of every
# class it reads and checks the fat count of each cell there, where
# ``recognition._extensions`` runs that loop only when some fat holds
# N(v) and one or two vertices more and checks the fat counts of the
# classes it returns.


def extensions_reference(classes, v, nbhd):
    """The cover classes of P + v, where P is a slim graph with the
    (cells, fats) classes ``classes`` and ``v`` a slim vertex outside P
    with the slim neighbourhood ``nbhd`` in P; each class once (see the
    block comment above), its cells in no fixed order.  An empty list
    means P + v is no line graph.
    """
    bit = 1 << v
    out = []

    def emit(cells, fats, old, new):
        """The class with ``cells`` whose fats are ``fats`` with one copy
        of each fat in ``old`` dropped and the masks ``new`` added."""
        rest = list(fats)
        for g in old:
            rest.remove(g)
        out.append((cells, tuple(sorted(rest + list(new)))))

    for cells, fats in classes:
        # inverse of i: a new singleton in at most two disjoint fats,
        # padded to two
        single = cells + (bit,)
        if not nbhd:
            emit(single, fats, (), (bit, bit))
        distinct = set(fats)
        if nbhd in distinct:
            emit(single, fats, (nbhd,), (nbhd | bit, bit))
        for g in distinct:
            h = nbhd & ~g
            if g < h and nbhd & g == g and h in distinct:
                emit(single, fats, (g, h), (g | bit, h | bit))

        # H2 singletons with a pad, by their other fat
        padded = {}
        for ci, c in enumerate(cells):
            own = [g for g in fats if g & c]
            singleton = not c & (c - 1)
            if len(own) != 1 + singleton:
                raise HoffmanGraphError("not a cover class: a cell has the wrong fat count")
            if singleton:
                if c in own:
                    own.remove(c)
                    padded.setdefault(own[0], []).append(ci)
            elif c.bit_count() == 2:
                # inverse of iv: v sees the H3 cell's fat but for w
                f = own[0]
                for w in _iter_bits(c):
                    if nbhd == f & ~(1 << w):
                        grown = cells[:ci] + (c | bit,) + cells[ci + 1:]
                        emit(grown, fats, (f,), (f | bit,))

        for g, members in padded.items():
            # inverse of ii: v a non-adjacent twin of a padded singleton
            for ci in members:
                u = cells[ci]
                if nbhd == g & ~u:
                    grown = cells[:ci] + (u | bit,) + cells[ci + 1:]
                    emit(grown, fats, (u, g), (g | bit,))
            # inverse of iii: v sees the common fat of two padded
            # singletons but neither of them.  Inside ``verify._layer``
            # this never fires: a and b see v's neighbours and each
            # other, so neither is a cut vertex and both have a higher
            # degree than v, and the degree test of
            # ``enumeration._degree_tested_child`` drops the child before
            # it is built.  It is kept so that the step is exact for any
            # P + v.
            for i, ai in enumerate(members):
                for bi in members[i + 1:]:
                    a, b = cells[ai], cells[bi]
                    if nbhd == g & ~(a | b):
                        merged = cells[:ai] + (a | b | bit,) + cells[ai + 1:bi] + cells[bi + 1:]
                        emit(merged, fats, (a, b, g), (g | bit,))
    return out
