"""Graph families: random models and the structured constructions.

The headline construction (`counterexample`) separates the plain cover
number from its isolated-vertex relaxation: start from the classical
decomposition of K_{2k+1} into k Hamiltonian cycles (vertices Z_2k plus a
hub; cycle i uses the edges v_j v_{2i-j} for j != i, i+k, the edges
v_j v_{2i+1-j}, and the hub edges at v_i and v_{i+k}), delete one chosen
edge per cycle to get k paths, and wire two copies of the result together
at the odd-degree path endpoints.  For odd k >= 3 the doubled graph is
Eulerian with maximum degree 2k, decomposes into k+1 paths and into k
linear forests, yet no k paths can odd-cover it: every path must use one of
the k-1 crossing edges, forcing a repeat whose double-counted edges push
the total edge budget past k(4k+1).
"""

from __future__ import annotations

import random

from .core import (
    Edge,
    Graph,
    InternalInvariantError,
    cycle_edges,
    degree2_components,
    norm_edge,
    path_edges,
)
from .twopaths import Cycle


def gnp(n: int, p: float, seed: int) -> Graph:
    """Erdos-Renyi G(n, p) from a seeded generator."""
    if n < 0 or not 0 <= p <= 1:
        raise ValueError("need n >= 0 and 0 <= p <= 1")
    rng = random.Random(seed)
    edges = [
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
    ]
    return Graph(n, edges)


def disjoint_cycles(k: int, length: int = 4) -> Graph:
    """k vertex-disjoint cycles of the given length."""
    if k < 1 or length < 3:
        raise ValueError("need k >= 1 cycles of length >= 3")
    edges = []
    for i in range(k):
        base = i * length
        edges += [
            norm_edge(base + t, base + (t + 1) % length) for t in range(length)
        ]
    return Graph(k * length, edges)


def cycles_on_path(k: int, length: int = 4) -> Graph:
    """k disjoint cycles, each glued to one of k consecutive interior
    vertices of a path with pendant ends (v_odd = 2, delta = 4)."""
    if k < 1 or length < 3:
        raise ValueError("need k >= 1 cycles of length >= 3")
    edges = [(t, t + 1) for t in range(k + 1)]  # path 0..k+1
    nxt = k + 2
    for i in range(k):
        attach = i + 1
        ring = [attach] + list(range(nxt, nxt + length - 1))
        nxt += length - 1
        edges += [norm_edge(ring[t], ring[(t + 1) % length]) for t in range(length)]
    return Graph(nxt, edges)


def eulerian_random(n: int, seed: int, rounds: int | None = None) -> Graph:
    """Random even-degree graph: the XOR of random cycles is always even."""
    if n < 0:
        raise ValueError("need n >= 0")
    if n < 3:
        return Graph(n)
    rng = random.Random(seed)
    rounds = rounds if rounds is not None else max(2, n)
    edges: set[Edge] = set()
    for _ in range(rounds):
        size = rng.randrange(3, n + 1)
        vs = rng.sample(range(n), size)
        for t in range(size):
            e = norm_edge(vs[t], vs[(t + 1) % size])
            edges ^= {e}
    return Graph(n, edges)


def walecki_cycles(k: int) -> list[Cycle]:
    """k Hamiltonian cycles partitioning E(K_{2k+1}); vertex 2k is the hub."""
    if k < 1:
        raise ValueError("need k >= 1")
    n = 2 * k + 1
    hub = 2 * k
    cycles = []
    for i in range(k):
        es: set[Edge] = set()
        for j in range(2 * k):
            if j not in (i, (i + k) % (2 * k)):
                es.add(norm_edge(j, (2 * i - j) % (2 * k)))
            es.add(norm_edge(j, (2 * i + 1 - j) % (2 * k)))
        es.add(norm_edge(i, hub))
        es.add(norm_edge(i + k, hub))
        paths, cyc = degree2_components(n, es)
        if paths or len(cyc) != 1:
            raise InternalInvariantError("cycle edges are not a single cycle")
        cycles.append(cyc[0])
    return cycles


def counterexample(k: int) -> tuple[Graph, list[tuple[int, ...]], list[list[Edge]], dict]:
    """The doubled Hamiltonian-decomposition graph separating the plain and
    isolated-vertex cover numbers (odd k >= 3).

    Returns the graph G on 4k+2 vertices, a (k+1)-path decomposition, a
    k-linear-forest decomposition, and the counting certificate showing k
    paths cannot odd-cover G: they would traverse the k-1 crossing edges
    with a repeat, needing >= |E(G)| + 2 = 4k^2+k+1 edge slots while k paths
    offer at most k(4k+1) = 4k^2+k.
    """
    if k < 3 or k % 2 == 0:
        raise ValueError("construction needs odd k >= 3")
    n1 = 2 * k + 1
    cycles = walecki_cycles(k)
    removed = [norm_edge(0, 2 * i + 1) for i in range(k - 1)]
    removed.append(norm_edge(1, 2 * k - 2))
    paths_one = []
    for cyc, e in zip(cycles, removed):
        # the cycle minus e: one path, which starts at its smaller end e[0]
        (path,), _ = degree2_components(n1, set(cycle_edges(cyc)) - {e})
        paths_one.append(path)

    h_edges = {
        norm_edge(u, v) for u in range(n1) for v in range(u + 1, n1)
    } - set(removed)
    deg = Graph(n1, h_edges).degrees()

    cross = []
    for i in range(1, k):
        ends = removed[i]
        odd_ends = [v for v in ends if deg[v] % 2 == 1]
        if len(odd_ends) != 1:
            raise InternalInvariantError("path should have one odd endpoint")
        cross.append(odd_ends[0])

    edges = sorted(h_edges) + sorted(
        norm_edge(u + n1, v + n1) for u, v in h_edges
    )
    edges += [norm_edge(j, j + n1) for j in cross]
    g = Graph(2 * n1, edges)

    def shift(p: tuple[int, ...]) -> tuple[int, ...]:
        return tuple(v + n1 for v in p)

    paths = [paths_one[0], shift(paths_one[0])]
    for i in range(1, k):
        p = paths_one[i]
        j = cross[i - 1]
        left = list(p) if p[-1] == j else list(p)[::-1]
        right = shift(p)
        right = list(right) if right[0] == j + n1 else list(right)[::-1]
        paths.append(tuple(left + right))

    forests: list[list[Edge]] = [
        sorted(path_edges(paths[0]) + path_edges(paths[1]))
    ]
    forests += [sorted(path_edges(p)) for p in paths[2:]]

    lhs = 4 * k * k + k + 1
    rhs = k * (4 * k + 1)
    certificate = {
        "edges": g.m,
        "slots_needed": lhs,
        "slots_available": rhs,
        "holds": lhs > rhs,
    }
    if g.m + 2 != lhs:
        raise InternalInvariantError("edge count disagrees with the certificate")
    return g, paths, forests, certificate


FAMILIES = (
    "gnp",
    "cycles",
    "cycles-on-path",
    "walecki",
    "counterexample",
    "eulerian-random",
)


def generate(family: str, **params) -> Graph:
    """Build a named family member; parameters are family-specific."""

    def need(key: str):
        if key not in params:
            raise ValueError(f"family {family!r} needs --{key}")
        return params[key]

    if family == "gnp":
        return gnp(int(need("n")), float(need("p")), int(params.get("seed", 0)))
    if family == "cycles":
        return disjoint_cycles(int(need("k")), int(params.get("len", 4)))
    if family == "cycles-on-path":
        return cycles_on_path(int(need("k")), int(params.get("len", 4)))
    if family == "walecki":
        k = int(need("k"))
        n = 2 * k + 1
        return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])
    if family == "counterexample":
        return counterexample(int(need("k")))[0]
    if family == "eulerian-random":
        return eulerian_random(int(need("n")), int(params.get("seed", 0)))
    raise ValueError(f"unknown family {family!r}; choose from {FAMILIES}")
