"""Shared generators for the test suite.

Test modules import it by name.  It holds no fixtures, and it is not a
`conftest.py`, so it cannot clash with the benchmark tests' conftest when
both directories run in one session.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
from collections import Counter
from itertools import combinations, permutations
from pathlib import Path

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


def star(n):
    """K_{1,n}: hub 0 joined to leaves 1..n."""
    return Graph(n + 1, [(0, v) for v in range(1, n + 1)])


def windmill(t):
    """t triangles sharing the hub 0: m = 3t, hub degree 2t."""
    return Graph(
        2 * t + 1,
        [e for i in range(t) for e in ((0, 2 * i + 1), (0, 2 * i + 2), (2 * i + 1, 2 * i + 2))],
    )


def complete(n):
    """K_n."""
    return Graph(n, combinations(range(n), 2))


def k2n(n):
    """K_{2,n}: hubs 0 and 1 joined to 2..n+1."""
    return Graph(n + 2, [(h, v) for h in (0, 1) for v in range(2, n + 2)])


def book(n):
    """n triangles on the spine edge 0-1."""
    return Graph(n + 2, [(0, 1)] + [(h, v) for h in (0, 1) for v in range(2, n + 2)])


def caterpillar(spine, legs):
    """A path 0..spine-1 with `legs` leaves hung on every spine vertex."""
    edges = [(i, i + 1) for i in range(spine - 1)]
    edges += [(i, spine + i * legs + j) for i in range(spine) for j in range(legs)]
    return Graph(spine * (legs + 1), edges)


def hub_gnm(n, m, seed):
    """Hub 0 joined to every vertex of gnm(n, m, seed) shifted to 1..n."""
    edges = [(0, v) for v in range(1, n + 1)]
    edges += [(u + 1, v + 1) for u, v in gnm(n, m, seed).edges]
    return Graph(n + 1, edges)


def skew_graphs(max_n):
    """The degree-skew set: stars, windmills, K_{2,N}, books, caterpillars,
    hubs over gnm graphs and complete graphs, every member with at most max_n
    vertices, each edge set once."""
    members = [star(k) for k in range(1, max_n)]
    members += [windmill(t) for t in range(1, (max_n + 1) // 2)]
    members += [f(k) for f in (k2n, book) for k in range(1, max_n - 1)]
    members += [
        caterpillar(s, legs)
        for s in range(2, max_n + 1)
        for legs in range(1, max_n)
        if s * (legs + 1) <= max_n
    ]
    members += [
        hub_gnm(k, m, seed=k) for k in range(3, max_n) for m in (k // 2, k - 1, k)
    ]
    members += [complete(k) for k in range(2, max_n + 1)]
    unique = {}
    for g in members:
        unique.setdefault((g.n, frozenset(g.edges)), g)
    return list(unique.values())


def reference_odd_matching(g):
    """The quadratic greedy that `cycles.odd_matching` must agree with: the
    smallest unmatched odd u takes the least v by (class, id), where class 0
    is an edge meeting a maximum-degree vertex, class 1 a nonedge avoiding
    both, class 2 anything else."""
    deg = g.degrees()
    delta = max(deg, default=0)
    unmatched = [v for v in range(g.n) if deg[v] % 2]
    pairs = set()
    while unmatched:
        u = unmatched.pop(0)

        def priority(v):
            is_edge = g.has_edge(u, v)
            touches_max = deg[u] == delta or deg[v] == delta
            if is_edge and touches_max:
                return (0, v)
            return (1 if not is_edge and not touches_max else 2, v)

        v = min(unmatched, key=priority)
        unmatched.remove(v)
        pairs.add(norm_edge(u, v))
    return frozenset(pairs)


def reference_peel_cycle_layers(g):
    """The layer loop that `cycles.peel_cycle_layers` must agree with: one
    balanced orientation, then for every layer a fresh copy of all n
    out-rows, with a self-edge at each vertex below the maximum degree, a
    perfect matching over all of them, and its nontrivial orbits."""
    from oddcover.cycles import _bipartite_perfect_matching, balanced_orientation

    deg = g.degrees()
    out = [[] for _ in range(g.n)]
    for u, v in balanced_orientation(g):
        out[u].append(v)
    for row in out:
        row.sort()
    layers = []
    left = g.m
    while left:
        delta = max(deg)
        rows = [row if deg[v] == delta else sorted(row + [v]) for v, row in enumerate(out)]
        mate = _bipartite_perfect_matching(rows, range(g.n))
        seen = [False] * g.n
        layer = []
        for s in range(g.n):
            if seen[s] or mate[s] == s:
                continue
            orbit = [s]
            seen[s] = True
            while mate[orbit[-1]] != s:
                orbit.append(mate[orbit[-1]])
                seen[orbit[-1]] = True
            layer.append(tuple(orbit))
        layers.append(layer)
        for cyc in layer:
            for i, u in enumerate(cyc):
                out[u].remove(cyc[i + 1 - len(cyc)])
                deg[u] -= 2
            left -= len(cyc)
    return layers


def reference_linear_forests(g, k):
    """The union-find search that `oracle.exact_linear_forests` must agree
    with: the same edge order, class order and pruning, with acyclicity
    tested by per-class disjoint-set forests."""
    if g.m == 0:
        return [[] for _ in range(k)]
    deg = g.degrees()
    if k * (sum(1 for d in deg if d) - 1) < g.m:
        return None
    edges = sorted(g.edges, key=lambda e: (-(deg[e[0]] + deg[e[1]]), e))
    m = len(edges)
    color = [-1] * m
    cdeg = [[0] * g.n for _ in range(k)]
    root = [list(range(g.n)) for _ in range(k)]

    def find(c, x):
        while root[c][x] != x:
            x = root[c][x]
        return x

    def assign(i, used):
        if i == m:
            return True
        u, v = edges[i]
        for c in range(min(k, used + 1)):
            if cdeg[c][u] >= 2 or cdeg[c][v] >= 2:
                continue
            ru, rv = find(c, u), find(c, v)
            if ru == rv:
                continue
            root[c][ru] = rv
            cdeg[c][u] += 1
            cdeg[c][v] += 1
            color[i] = c
            if assign(i + 1, max(used, c + 1)):
                return True
            color[i] = -1
            cdeg[c][u] -= 1
            cdeg[c][v] -= 1
            root[c][ru] = ru
        return False

    if not assign(0, 0):
        return None
    out = [[] for _ in range(k)]
    for i, e in enumerate(edges):
        out[color[i]].append(e)
    return [sorted(f) for f in out]


def run_with_deadline(code: str, seconds: float) -> subprocess.CompletedProcess:
    """Run `code` in a child interpreter that imports the package from `src`
    and this module by name.  A stall past the deadline raises
    subprocess.TimeoutExpired, so it fails a test instead of hanging the suite."""
    here = Path(__file__).resolve().parent
    path = [str(here.parent / "src"), str(here), os.environ.get("PYTHONPATH")]
    return subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        timeout=seconds,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))},
    )


def rng_for(name: str) -> random.Random:
    return random.Random(name)  # str seeding is deterministic across runs
