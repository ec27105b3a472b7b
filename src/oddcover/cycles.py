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

from bisect import insort

from .core import (
    Edge,
    Graph,
    InternalInvariantError,
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

    The smallest unmatched u takes the least partner of the first class that
    has one: an unmatched neighbour from u's own row, else the first
    unmatched vertex below the maximum that is not u's neighbour (a walk of
    at most deg(u) + 1 steps), else the least unmatched vertex.  O(n + m).
    """
    deg = g.degrees()
    delta = max(deg, default=0)
    odd = [v for v in range(g.n) if deg[v] % 2]
    row: dict[int, list[int]] = {v: [] for v in odd}
    for a, b in g.edges:
        if deg[a] % 2 and deg[b] % 2:
            row[a].append(b)
            row[b].append(a)
    # id-ordered linked lists of the unmatched odd vertices (all of them, and
    # those below delta) as successor and predecessor maps; -1 is the head
    chains = [
        (dict(zip([-1] + vs, vs + [-1])), dict(zip(vs + [-1], [-1] + vs)))
        for vs in (odd, [v for v in odd if deg[v] != delta])
    ]
    unmatched, low = chains[0][0], chains[1][0]

    def take(v: int) -> None:
        for nxt, prv in chains:
            if v in nxt:
                p, q = prv.pop(v), nxt.pop(v)
                nxt[p], prv[q] = q, p

    pairs = set()
    while unmatched[-1] != -1:
        u = unmatched[-1]
        take(u)
        top = deg[u] == delta
        near = [v for v in row[u] if v in unmatched and (top or deg[v] == delta)]
        if near:
            v = min(near)
        else:
            v = -1
            if not top:
                adjacent = set(row[u])
                v = low[-1]
                while v in adjacent:
                    v = low[v]
            if v == -1:
                v = unmatched[-1]
        take(v)
        pairs.add(norm_edge(u, v))
    return frozenset(pairs)


def balanced_orientation(g: Graph) -> list[tuple[int, int]]:
    """Orient every edge so that in-degree equals out-degree at each vertex.

    Requires all degrees even; each component with edges is traversed along
    an Euler circuit (Hierholzer) and oriented in walk order.  Edge i of
    sorted(g.edges) is marked used by id, and each adjacency row lists its
    neighbours in increasing order, so the walk is deterministic.
    """
    adj: list[list[int]] = [[] for _ in range(g.n)]
    ids: list[list[int]] = [[] for _ in range(g.n)]
    # Sorted edges fill every row in increasing order: first the smaller
    # neighbours (edges (u, v) ending at v), then the larger ones.
    for i, (u, v) in enumerate(sorted(g.edges)):
        adj[u].append(v)
        ids[u].append(i)
        adj[v].append(u)
        ids[v].append(i)
    if any(len(row) % 2 for row in adj):
        raise ValueError("balanced orientation needs all degrees even")
    # Cursor into each row: entries before it are used edges.
    nxt = [0] * g.n
    used = bytearray(g.m)
    arcs: list[tuple[int, int]] = []
    for start in range(g.n):
        if nxt[start] == len(adj[start]):
            continue
        # Hierholzer with an explicit stack.
        stack = [start]
        walk = []
        while stack:
            v = stack[-1]
            row_ids = ids[v]
            end = len(row_ids)
            i = nxt[v]
            while i < end and used[row_ids[i]]:
                i += 1
            if i < end:
                nxt[v] = i + 1
                used[row_ids[i]] = 1
                stack.append(adj[v][i])
            else:
                nxt[v] = i
                walk.append(stack.pop())
        walk.reverse()
        arcs.extend(zip(walk, walk[1:]))
    if len(arcs) != g.m:
        raise InternalInvariantError("Euler orientation missed edges")
    return arcs


def _bipartite_perfect_matching(n_left: int, adj: list[list[int]]) -> list[int]:
    """Maximum bipartite matching by augmenting paths; returns mate of each
    left vertex or raises if the matching is not perfect.

    The first phase is a greedy pass: each row in turn takes its first free
    column, which is what a Hopcroft-Karp phase does on an empty matching.
    Later phases use Hopcroft-Karp BFS layering to guide the DFS.  Scan
    order is by id, so the result is deterministic.  The DFS runs on an
    explicit stack, so augmenting paths may be as long as the graph.
    """
    INF = n_left + 1
    mate_left = [-1] * n_left
    mate_right = [-1] * n_left
    dist = [INF] * n_left
    pos = [0] * n_left  # scan position of each vertex on the DFS stack

    def bfs() -> bool:
        dist[:] = [INF] * n_left
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
        return found

    def augment(root: int) -> bool:
        # Each frame scans its row from pos[u]; descending into w = mate of
        # row[pos[u]] is the recursive call, and a dead end marks w with INF
        # and resumes its caller at the next entry.
        stack = [root]
        pos[root] = 0
        while stack:
            u = stack[-1]
            row = adj[u]
            end = len(row)
            next_dist = dist[u] + 1
            i = pos[u]
            while i < end:
                w = mate_right[row[i]]
                if w == -1 or dist[w] == next_dist:
                    break
                i += 1
            pos[u] = i
            if i == end:
                dist[u] = INF
                stack.pop()
                if stack:
                    pos[stack[-1]] += 1
                continue
            w = mate_right[row[i]]
            if w != -1:
                stack.append(w)
                pos[w] = 0
                continue
            for x in reversed(stack):
                v = adj[x][pos[x]]
                mate_left[x] = v
                mate_right[v] = x
            return True
        return False

    matched = 0
    for u in range(n_left):
        for v in adj[u]:
            if mate_right[v] == -1:
                mate_left[u] = v
                mate_right[v] = u
                matched += 1
                break
    while matched < n_left and bfs():
        for u in range(n_left):
            if mate_left[u] == -1 and augment(u):
                matched += 1
    if matched != n_left:
        raise InternalInvariantError("bipartite graph has no perfect matching")
    return mate_left


def _layer_cycles(out: list[list[int]], deg: list[int]) -> list[Cycle]:
    """Vertex-disjoint directed cycles along the arcs `out` that cover
    every vertex whose degree in `deg` is maximal.

    The bipartite out/in graph has one edge per arc plus a self-edge for
    each vertex not of maximum degree; a perfect matching is a successor
    permutation whose nontrivial orbits are the cycles.  Every row of `out`
    must be sorted; it is read, never changed.
    """
    delta = max(deg)
    rows = []
    for v, arcs in enumerate(out):
        if deg[v] == delta:
            rows.append(arcs)
        else:
            # self-edge: v may stay off the cycles
            row = arcs.copy()
            insort(row, v)
            rows.append(row)
    mate = _bipartite_perfect_matching(len(out), rows)

    cycles: list[Cycle] = []
    seen = [False] * len(out)
    for s in range(len(out)):
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

    for v, d in enumerate(deg):
        if d == delta and mate[v] == v:
            raise InternalInvariantError(f"maximum-degree vertex {v} left uncovered")
    return cycles


def _out_arcs(g: Graph) -> list[list[int]]:
    """Sorted out-neighbours of each vertex in a balanced orientation."""
    out: list[list[int]] = [[] for _ in range(g.n)]
    for u, v in balanced_orientation(g):
        out[u].append(v)
    for row in out:
        row.sort()
    return out


def max_degree_cycle_cover(g: Graph) -> list[Cycle]:
    """Vertex-disjoint cycles of g covering every maximum-degree vertex.

    Requires all degrees even and at least one edge.  Builds the bipartite
    out/in graph of a balanced orientation, adds a self-edge for each vertex
    that is not of maximum degree, and converts a perfect matching into the
    orbits of a successor permutation.
    """
    if g.m == 0:
        raise ValueError("graph has no edges")
    deg = g.degrees()
    if any(d % 2 for d in deg):
        raise ValueError("cycle extraction needs all degrees even")
    return _layer_cycles(_out_arcs(g), deg)


def peel_cycle_layers(g: Graph) -> list[list[Cycle]]:
    """Partition the edges of an even-degree graph into delta/2 cycle layers.

    Layer i covers every vertex whose degree is still maximal, so the
    maximum degree drops by exactly two per layer and the layer count is
    exactly delta(g)/2.  One balanced orientation serves every layer: a
    layer's cycles are directed cycles of it, so deleting their arcs keeps
    in-degree equal to out-degree.
    """
    deg = g.degrees()
    if any(d % 2 for d in deg):
        raise ValueError("layer peeling needs all degrees even")
    delta = max(deg, default=0)
    # list.remove keeps each row of out sorted for the next layer.
    out = _out_arcs(g)
    left = g.m
    layers: list[list[Cycle]] = []
    while left:
        layer = _layer_cycles(out, deg)
        layers.append(layer)
        for cyc in layer:
            for i, u in enumerate(cyc):
                out[u].remove(cyc[i + 1 - len(cyc)])
                deg[u] -= 2
            left -= len(cyc)
    if len(layers) != delta // 2:
        raise InternalInvariantError(
            f"expected {delta // 2} layers, produced {len(layers)}"
        )
    return layers
