"""Shared generators for the test suite.

Test modules import it by name.  It holds no fixtures, and it is not a
`conftest.py`, so it cannot clash with the benchmark tests' conftest when
both directories run in one session.
"""

from __future__ import annotations

import random
from collections import Counter
from itertools import combinations, permutations

from oddcover.core import Graph, cycle_edges, norm_edge, path_edges


def xor_members(members, kind="path"):
    """Independent edge-parity XOR of a member list."""
    par = Counter()
    for vs in members:
        edges = cycle_edges(vs) if kind == "cycle" else path_edges(vs)
        for e in edges:
            par[e] += 1
    return {e for e, c in par.items() if c % 2 == 1}


def all_graphs(n):
    """Every labeled graph on n vertices."""
    pairs = list(combinations(range(n), 2))
    for bits in range(1 << len(pairs)):
        yield Graph(n, [pairs[i] for i in range(len(pairs)) if bits >> i & 1])


def all_even_graphs(n):
    for g in all_graphs(n):
        if g.is_even():
            yield g


def random_graph(n, p, rng):
    return Graph(
        n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    )


def random_cycle_set(n, rng, max_cycles=3):
    verts = list(range(n))
    rng.shuffle(verts)
    cycles = []
    i = 0
    for _ in range(rng.randrange(0, max_cycles + 1)):
        if len(verts) - i < 3:
            break
        size = rng.randrange(3, len(verts) - i + 1)
        cycles.append(tuple(verts[i : i + size]))
        i += size
    return cycles


def cycle_partitions(vertices):
    """Unordered sets of vertex-disjoint cycles using exactly `vertices`."""
    if not vertices:
        yield []
        return
    v0 = vertices[0]
    rest = vertices[1:]
    for size in range(2, len(rest) + 1):
        for subset in combinations(rest, size):
            remaining = tuple(x for x in rest if x not in subset)
            for perm in permutations(subset):
                if perm[0] < perm[-1]:
                    for tail in cycle_partitions(remaining):
                        yield [(v0,) + perm] + tail


def hamiltonian_cycles(n, k, seed):
    """k edge-disjoint random Hamiltonian cycles on n vertices, as vertex orders.

    Each cycle is a shuffled vertex order; a position whose closing edge is
    already used is swapped with a random one until no edge repeats.
    """
    rng = random.Random(seed)
    used = set()
    orders = []
    for _ in range(k):
        order = rng.sample(range(n), n)
        while True:
            bad = [i for i in range(n) if norm_edge(order[i - 1], order[i]) in used]
            if not bad:
                break
            for i in bad:
                j = rng.randrange(n)
                order[i], order[j] = order[j], order[i]
        used.update(norm_edge(order[i - 1], order[i]) for i in range(n))
        orders.append(order)
    return orders


def hamiltonian_union(n, k, seed):
    """Union of k edge-disjoint random Hamiltonian cycles on n vertices."""
    orders = hamiltonian_cycles(n, k, seed)
    return Graph(n, [norm_edge(o[i - 1], o[i]) for o in orders for i in range(n)])


def hamiltonian_forests(n, seed):
    """Two edge-disjoint Hamiltonian cycles split into three linear forests:
    every fifth edge of each cycle moves to the third forest, so each vertex
    has at most one edge of it per cycle."""
    forests = [[], [], []]
    for c, order in enumerate(hamiltonian_cycles(n, 2, seed)):
        for i in range(n):
            forests[2 if i % 5 == 0 else c].append(norm_edge(order[i - 1], order[i]))
    return Graph(n, [e for f in forests for e in f]), forests


def linear_forest_pair(n, r, seed):
    """An even graph split into two linear forests, each of r paths.

    The first forest cuts a shuffled vertex order into r paths.  The second
    pairs the 2r ends afresh and joins each pair through a few interior
    vertices of the first forest, each used at most once; a draw that
    repeats an edge of the first forest is redrawn.  Every end then has
    degree 2 and every other vertex degree 2 or 4.
    """
    rng = random.Random(seed)
    while True:
        order = rng.sample(range(n), n)
        cuts = sorted(rng.sample(range(2, n - 1, 2), r - 1))
        first = [order[a:b] for a, b in zip([0] + cuts, cuts + [n])]
        ends = [v for p in first for v in (p[0], p[-1])]
        inner = [v for p in first for v in p[1:-1]]
        rng.shuffle(ends)
        rng.shuffle(inner)
        second = []
        for i in range(r):
            k = rng.randrange(0, min(3, len(inner)) + 1)
            second.append([ends[2 * i]] + inner[:k] + [ends[2 * i + 1]])
            inner = inner[k:]
        f1 = [norm_edge(a, b) for p in first for a, b in zip(p, p[1:])]
        f2 = [norm_edge(a, b) for p in second for a, b in zip(p, p[1:])]
        if not set(f1) & set(f2):
            return Graph(n, f1 + f2), f1, f2


def gnm(n, m, seed):
    """m distinct edges drawn as uniform vertex pairs."""
    rng = random.Random(seed)
    edges = set()
    while len(edges) < m:
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            edges.add(norm_edge(u, v))
    return Graph(n, edges)


def rng_for(name: str) -> random.Random:
    return random.Random(name)  # str seeding is deterministic across runs
