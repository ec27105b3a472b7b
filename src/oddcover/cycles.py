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

Every step runs on sorted adjacency rows (`Graph.adjacency`), the residual
a solver pipeline builds once and edits in place; the Graph-taking
functions build the rows and run the same step.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from typing import Iterator, Sequence

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
    return _odd_matching(g.adjacency())


def _odd_matching(adj: list[list[int]]) -> frozenset[Edge]:
    """odd_matching on adjacency rows; only sets and minima of a row are
    taken, so their order does not matter."""
    deg = list(map(len, adj))
    delta = max(deg, default=0)
    odd = [v for v, d in enumerate(deg) if d % 2]
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
        near = [v for v in adj[u] if v in unmatched and (top or deg[v] == delta)]
        if near:
            v = min(near)
        else:
            v = -1
            if not top:
                adjacent = set(adj[u])
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
    an Euler circuit (Hierholzer) and oriented in walk order.  Each adjacency
    row lists its neighbours in increasing order, so the walk is
    deterministic.
    """
    return _orient(g.adjacency())[0]


def _orient(adj: list[list[int]]) -> tuple[list[tuple[int, int]], list[list[int]]]:
    """balanced_orientation on sorted adjacency rows: (arcs in walk order,
    sorted out-neighbours of each vertex).  The walk leaves each vertex in
    row order, so out-rows fill sorted; an edge walked from v to w is marked
    used at v's place in w's row, found by bisection.
    """
    if any(len(row) % 2 for row in adj):
        raise ValueError("balanced orientation needs all degrees even")
    n = len(adj)
    # Cursor into each row: entries before it, and marked ones, are used.
    nxt = [0] * n
    used = [bytearray(len(row)) for row in adj]
    out: list[list[int]] = [[] for _ in range(n)]
    arcs: list[tuple[int, int]] = []
    for start in range(n):
        if nxt[start] == len(adj[start]):
            continue
        # Hierholzer with an explicit stack.
        stack = [start]
        walk = []
        while stack:
            v = stack[-1]
            row_used = used[v]
            end = len(row_used)
            i = nxt[v]
            while i < end and row_used[i]:
                i += 1
            if i < end:
                nxt[v] = i + 1
                w = adj[v][i]
                used[w][bisect_left(adj[w], v)] = 1
                out[v].append(w)
                stack.append(w)
            else:
                nxt[v] = i
                walk.append(stack.pop())
        walk.reverse()
        arcs.extend(zip(walk, walk[1:]))
    if 2 * len(arcs) != sum(map(len, adj)):
        raise InternalInvariantError("Euler orientation missed edges")
    return arcs, out


def _bipartite_perfect_matching(adj: list[list[int]], left: Sequence[int]) -> list[int]:
    """Maximum bipartite matching by augmenting paths of the rows `left` of
    adj (ids increasing) into the columns 0..len(adj)-1; returns the mate of
    each row, -1 off `left`, or raises if the matching is not perfect.  No
    row of `left` may hold a row off it as a column.

    The first phase is a greedy pass: each row in turn takes its first free
    column, which is what a Hopcroft-Karp phase does on an empty matching.
    Later phases use Hopcroft-Karp BFS layering to guide the DFS.  Scan
    order is by id, so the result is deterministic.  The DFS runs on an
    explicit stack, so augmenting paths may be as long as the graph.
    """
    n_left = len(adj)
    INF = n_left + 1
    mate_left = [-1] * n_left
    mate_right = [-1] * n_left
    dist = [INF] * n_left
    pos = [0] * n_left  # scan position of each vertex on the DFS stack

    def bfs() -> bool:
        dist[:] = [INF] * n_left
        queue = [u for u in left if mate_left[u] == -1]
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
    for u in left:
        for v in adj[u]:
            if mate_right[v] == -1:
                mate_left[u] = v
                mate_right[v] = u
                matched += 1
                break
    while matched < len(left) and bfs():
        for u in left:
            if mate_left[u] == -1 and augment(u):
                matched += 1
    if matched != len(left):
        raise InternalInvariantError("bipartite graph has no perfect matching")
    return mate_left


def max_degree_cycle_cover(g: Graph) -> list[Cycle]:
    """Vertex-disjoint cycles of g covering every maximum-degree vertex.

    Requires all degrees even and at least one edge.  This is the first
    layer of peel_cycle_layers: a perfect matching of the bipartite out/in
    graph of a balanced orientation, with a self-edge for each vertex that
    is not of maximum degree, read as a successor permutation.
    """
    if g.m == 0:
        raise ValueError("graph has no edges")
    adj = g.adjacency()
    if any(len(row) % 2 for row in adj):
        raise ValueError("cycle extraction needs all degrees even")
    return next(_peel_layers(adj))


def peel_cycle_layers(g: Graph) -> list[list[Cycle]]:
    """Partition the edges of an even-degree graph into delta/2 cycle layers.

    Layer i covers every vertex whose degree is still maximal, so the
    maximum degree drops by exactly two per layer and the layer count is
    exactly delta(g)/2.  One balanced orientation serves every layer: a
    layer's cycles are directed cycles of it, so deleting their arcs keeps
    in-degree equal to out-degree.  The work is _peel_layers on g's rows.
    """
    adj = g.adjacency()
    if any(len(row) % 2 for row in adj):
        raise ValueError("layer peeling needs all degrees even")
    return list(_peel_layers(adj))


def _peel_layers(adj: list[list[int]]) -> Iterator[list[Cycle]]:
    """The cycle layers of peel_cycle_layers, one at a time, from the sorted
    rows of an even-degree graph (read, never changed).

    A layer is the nontrivial orbits of a perfect matching whose row v holds
    v's out-arcs, plus v itself while deg(v) is below the current maximum
    (a self-edge: v may stay off the cycles).  The rows are built once and
    kept from layer to layer.  After each layer its arcs leave the rows, a
    vertex off its cycles whose degree equals the new maximum loses its
    self-edge (a vertex on them drops with the maximum, so only these can
    newly reach it), and a vertex left without arcs leaves `active`.  The
    matching runs over `active` only: an isolated vertex's one column is
    itself, and no other row holds it.
    """
    deg = list(map(len, adj))
    delta = max(deg, default=0)
    expected = delta // 2
    _, rows = _orient(adj)
    active = [v for v, d in enumerate(deg) if d]
    for v in active:
        if deg[v] < delta:
            insort(rows[v], v)
    produced = 0
    while active:
        mate = _bipartite_perfect_matching(rows, active)
        seen = bytearray(len(adj))
        layer: list[Cycle] = []
        still: list[int] = []
        for v in active:
            w = mate[v]
            if w == v:
                if deg[v] == delta:
                    raise InternalInvariantError(f"maximum-degree vertex {v} left uncovered")
                if deg[v] == delta - 2:
                    rows[v].remove(v)
                still.append(v)
                continue
            rows[v].remove(w)
            deg[v] -= 2
            if deg[v]:
                still.append(v)
            if not seen[v]:
                # v is the smallest vertex of its orbit
                orbit = [v]
                seen[v] = 1
                while w != v:
                    orbit.append(w)
                    seen[w] = 1
                    w = mate[w]
                if len(orbit) < 3:
                    raise InternalInvariantError("orientation produced a 2-cycle")
                layer.append(tuple(orbit))
        active = still
        delta -= 2
        produced += 1
        yield layer
    if produced != expected:
        raise InternalInvariantError(f"expected {expected} layers, produced {produced}")
