"""Seeded inputs for the ``stream`` workload, built without importing hoffline.

A slim {H2, H3, H5}-line graph is the slim part of a sum of copies of
H2 (one slim vertex, two fat slots), H3 (a non-adjacent slim pair, one
fat slot) and H5 (a slim triple carrying one edge, one fat slot).  The
generator draws random cells, glues their fat slots into shared fat
vertices, and derives adjacency by rule (iv) of a sum: slim vertices of
different cells are adjacent exactly when their cells share a fat
vertex.  Two cells share at most one fat vertex and no cell uses one
slot twice, so every graph built here is a line graph by construction.
The other half of the stream toggles one vertex pair of such a graph,
which gives near-misses that are mostly not line graphs.

The generator is independent of the program under test on purpose: it
states the definition directly, so a recognition bug cannot hide by
being shared with the input builder.
"""

from __future__ import annotations

import random

SLOTS = {"H2": 2, "H3": 1, "H5": 1}
SIZE = {"H2": 1, "H3": 2, "H5": 3}

#: cells per shared fat vertex.  Larger blocks make near-complete graphs
#: with big twin classes, on which canonical labelling at the seed takes
#: from seconds to minutes per input (see README.md); one such input
#: would decide a whole run.
MAX_BLOCK = 3


def _cells(rng, n):
    kinds = []
    left = n
    while left:
        kind = rng.choice([k for k in SIZE if SIZE[k] <= left])
        kinds.append(kind)
        left -= SIZE[kind]
    rng.shuffle(kinds)
    return kinds


def _blocks(rng, kinds, extra):
    """Shared fat vertices as sets of cell indices connecting all cells,
    or None when the draw leaves a cell with nothing to join."""
    free = [SLOTS[k] for k in kinds]
    blocks = []
    order = list(range(len(kinds)))
    rng.shuffle(order)

    def shares(c, block):
        return any(c in b and (b & block) for b in blocks)

    def join(c, choices):
        i = rng.randrange(len(choices))
        kind, target = choices[i]
        if kind == "block":
            target.add(c)
        else:
            blocks.append({c, target})
            free[target] -= 1
        free[c] -= 1

    for pos, c in enumerate(order[1:], start=1):
        choices = [("block", b) for b in blocks if len(b) < MAX_BLOCK]
        choices += [("pair", d) for d in order[:pos] if free[d]]
        if not choices:
            return None
        join(c, choices)
    # extra shared fat vertices close cycles where slots are left
    for _ in range(extra):
        c = rng.randrange(len(kinds))
        if not free[c]:
            continue
        choices = [
            ("block", b) for b in blocks
            if len(b) < MAX_BLOCK and c not in b and not shares(c, b)
        ]
        choices += [
            ("pair", d) for d in range(len(kinds))
            if d != c and free[d] and not shares(c, {d})
        ]
        if choices:
            join(c, choices)
    return blocks


def random_line_graph(rng, n):
    """Adjacency bitmasks of a connected slim {H2,H3,H5}-line graph."""
    blocks = None
    while blocks is None:
        kinds = _cells(rng, n)
        blocks = _blocks(rng, kinds, extra=rng.randrange(len(kinds) + 1))
    verts = []
    v = 0
    for kind in kinds:
        verts.append(list(range(v, v + SIZE[kind])))
        v += SIZE[kind]
    perm = list(range(n))
    rng.shuffle(perm)
    adj = [0] * n

    def edge(a, b):
        a, b = perm[a], perm[b]
        adj[a] |= 1 << b
        adj[b] |= 1 << a

    for kind, vs in zip(kinds, verts):
        if kind == "H5":
            a, b = rng.sample(vs, 2)
            edge(a, b)
    for block in blocks:
        cells = sorted(block)
        for i, c in enumerate(cells):
            for d in cells[i + 1:]:
                for a in verts[c]:
                    for b in verts[d]:
                        edge(a, b)
    return adj


def _connected(adj):
    seen = 1
    todo = 1
    while todo:
        low = todo & -todo
        todo ^= low
        new = adj[low.bit_length() - 1] & ~seen
        seen |= new
        todo |= new
    return seen == (1 << len(adj)) - 1


def perturb(rng, adj):
    """Toggle one vertex pair, keeping the graph connected."""
    n = len(adj)
    while True:
        a, b = rng.sample(range(n), 2)
        out = list(adj)
        out[a] ^= 1 << b
        out[b] ^= 1 << a
        if _connected(out):
            return out


def graph6(adj):
    """Short-form graph6 of a graph on at most 62 vertices."""
    n = len(adj)
    bits = [(adj[i] >> j) & 1 for j in range(1, n) for i in range(j)]
    bits += [0] * (-len(bits) % 6)
    out = [chr(n + 63)]
    for k in range(0, len(bits), 6):
        val = 0
        for bit in bits[k:k + 6]:
            val = (val << 1) | bit
        out.append(chr(val + 63))
    return "".join(out)


def stream(seed, count, n_lo, n_hi):
    """``count`` (graph6, built_as_line) pairs; sizes cycle over n_lo..n_hi
    so every seed gets the same size mix, and line inputs alternate with
    one-pair perturbations of fresh line graphs."""
    rng = random.Random(seed)
    sizes = list(range(n_lo, n_hi + 1))
    out = []
    for i in range(count):
        n = sizes[(i // 2) % len(sizes)]
        adj = random_line_graph(rng, n)
        if i % 2:
            out.append((graph6(perturb(rng, adj)), False))
        else:
            out.append((graph6(adj), True))
    return out
