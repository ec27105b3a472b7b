"""Eulerization and layer-by-layer extraction of vertex-disjoint cycle sets.

The workhorse here is the reduction from "cover all maximum-degree vertices
of an even-degree graph by vertex-disjoint cycles" to a perfect matching in
an auxiliary bipartite graph: orient each component along an Euler circuit
(so in-degree = out-degree everywhere), build a bipartite graph on out/in
copies of the vertices with one edge per arc plus a self-edge for every
vertex that is *not* of maximum degree, and read a perfect matching back as
a successor function whose nontrivial orbits are the desired cycles.
Repeating until no edges remain peels the graph into exactly delta/2 layers,
each dropping the maximum degree by two.
"""

from __future__ import annotations

from .core import (
    Edge,
    Graph,
    InternalInvariantError,
    cycle_edges,
    degree_profile,
    norm_edge,
)

Cycle = tuple[int, ...]


def odd_matching(g: Graph) -> frozenset[Edge]:
    """Perfect matching on the odd-degree vertices (nonedges allowed).

    XORing the result into g makes every degree even.  Pairs are chosen
    greedily: prefer existing edges meeting a maximum-degree vertex (taking
    such an edge lowers that vertex's degree), then nonedge pairs avoiding
    maximum-degree endpoints (adding one elsewhere cannot raise the maximum
    past the even-rounded ceiling); vertex ids break ties.
    """
    delta, _, odd = degree_profile(g)
    deg = g.degrees()
    unmatched = list(odd)
    pairs = set()
    while unmatched:
        u = unmatched.pop(0)

        def priority(v: int) -> tuple[int, int]:
            is_edge = g.has_edge(u, v)
            touches_max = deg[u] == delta or deg[v] == delta
            if is_edge and touches_max:
                cls = 0
            elif not is_edge and not touches_max:
                cls = 1
            else:
                cls = 2
            return (cls, v)

        v = min(unmatched, key=priority)
        unmatched.remove(v)
        pairs.add(norm_edge(u, v))
    return frozenset(pairs)


def balanced_orientation(g: Graph) -> list[tuple[int, int]]:
    """Orient every edge so that in-degree equals out-degree at each vertex.

    Requires all degrees even; each component with edges is traversed along
    an Euler circuit (Hierholzer) and oriented in walk order.
    """
    if not g.is_even():
        raise ValueError("balanced orientation needs all degrees even")
    adj = {v: rows for v, rows in enumerate(g.adjacency())}
    # Mutable multiset view of remaining edges per vertex.
    remaining = {v: list(adj[v]) for v in range(g.n)}
    used: set[Edge] = set()
    arcs: list[tuple[int, int]] = []
    for start in range(g.n):
        if not remaining[start]:
            continue
        # Hierholzer with an explicit stack; sorted adjacency keeps it
        # deterministic.
        stack = [start]
        walk = []
        while stack:
            v = stack[-1]
            while remaining[v] and norm_edge(v, remaining[v][0]) in used:
                remaining[v].pop(0)
            if remaining[v]:
                w = remaining[v].pop(0)
                used.add(norm_edge(v, w))
                stack.append(w)
            else:
                walk.append(stack.pop())
        walk.reverse()
        arcs.extend((walk[i], walk[i + 1]) for i in range(len(walk) - 1))
    if len(arcs) != g.m:
        raise InternalInvariantError("Euler orientation missed edges")
    return arcs


def _bipartite_perfect_matching(n_left: int, adj: list[list[int]]) -> list[int]:
    """Maximum bipartite matching by augmenting paths; returns mate of each
    left vertex or raises if the matching is not perfect.

    Hopcroft-Karp style BFS layering guides the DFS; scan order is by id, so
    the result is deterministic.
    """
    INF = n_left + 1
    mate_left = [-1] * n_left
    mate_right = [-1] * n_left

    def bfs() -> bool:
        dist = [INF] * n_left
        queue = [u for u in range(n_left) if mate_left[u] == -1]
        for u in queue:
            dist[u] = 0
        found = False
        i = 0
        while i < len(queue):
            u = queue[i]
            i += 1
            for v in adj[u]:
                w = mate_right[v]
                if w == -1:
                    found = True
                elif dist[w] == INF:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        self_dist[:] = dist
        return found

    self_dist = [INF] * n_left

    def dfs(u: int) -> bool:
        for v in adj[u]:
            w = mate_right[v]
            if w == -1 or (self_dist[w] == self_dist[u] + 1 and dfs(w)):
                mate_left[u] = v
                mate_right[v] = u
                return True
        self_dist[u] = INF
        return False

    matched = 0
    while bfs():
        for u in range(n_left):
            if mate_left[u] == -1 and dfs(u):
                matched += 1
    if matched != n_left:
        raise InternalInvariantError("bipartite graph has no perfect matching")
    return mate_left


def max_degree_cycle_cover(g: Graph) -> list[Cycle]:
    """Vertex-disjoint cycles of g covering every maximum-degree vertex.

    Requires all degrees even and at least one edge.  Builds the bipartite
    out/in graph of a balanced orientation, adds a self-edge for each vertex
    that is not of maximum degree, and converts a perfect matching into the
    orbits of a successor permutation.
    """
    if g.m == 0:
        raise ValueError("graph has no edges")
    if not g.is_even():
        raise ValueError("cycle extraction needs all degrees even")
    delta, _, _ = degree_profile(g)
    deg = g.degrees()
    arcs = balanced_orientation(g)
    adj: list[list[int]] = [[] for _ in range(g.n)]
    for u, v in arcs:
        adj[u].append(v)
    for v in range(g.n):
        if deg[v] != delta:
            adj[v].append(v)  # self-edge: v may stay off the cycles
        adj[v].sort()
    mate = _bipartite_perfect_matching(g.n, adj)

    cycles: list[Cycle] = []
    seen = [False] * g.n
    for s in range(g.n):
        if seen[s] or mate[s] == s:
            seen[s] = True
            continue
        orbit = [s]
        seen[s] = True
        v = mate[s]
        while v != s:
            orbit.append(v)
            seen[v] = True
            v = mate[v]
        if len(orbit) < 3:
            raise InternalInvariantError("orientation produced a 2-cycle")
        cycles.append(tuple(orbit))

    covered = {v for c in cycles for v in c}
    for v in range(g.n):
        if deg[v] == delta and v not in covered:
            raise InternalInvariantError(f"maximum-degree vertex {v} left uncovered")
    return cycles


def peel_cycle_layers(g: Graph) -> list[list[Cycle]]:
    """Partition the edges of an even-degree graph into delta/2 cycle layers.

    Layer i covers every vertex whose degree is still maximal, so the
    maximum degree drops by exactly two per layer and the layer count is
    exactly delta(g)/2.
    """
    if not g.is_even():
        raise ValueError("layer peeling needs all degrees even")
    layers: list[list[Cycle]] = []
    current = g
    while current.m:
        layer = max_degree_cycle_cover(current)
        layers.append(layer)
        drop = [e for cyc in layer for e in cycle_edges(cyc)]
        current = current.remove_edges(drop)
    delta, _, _ = degree_profile(g)
    if len(layers) != delta // 2:
        raise InternalInvariantError(
            f"expected {delta // 2} layers, produced {len(layers)}"
        )
    return layers
