"""End-to-end odd-cover solvers built from the cycle layers and the kit.

The main pipeline covers any graph with at most max{v_odd/2, 2*ceil(delta/2)}
paths: pair the odd-degree vertices by a matching M (peeling explicit odd
paths first when v_odd/2 exceeds the even-rounded degree), XOR M in to get
an even-degree graph, peel that into cycle layers, and spend two paths per
layer while integrating up to two matching edges alongside each layer.  A
first, simpler pipeline gives the additive delta + v_odd/2 bound; variants
produce cycle odd-covers (at most delta cycles) and isolated-vertex covers
driven by linear-forest decompositions.

Each pipeline builds one residual, the sorted adjacency rows of its input,
and every step (odd-path peeling, the odd matching, the XOR with M, the
orientation and the layer loop) reads and edits those rows in place.
"""

from __future__ import annotations

from bisect import insort
from collections import deque
from typing import Sequence

from .core import (
    Edge,
    Graph,
    InternalInvariantError,
    OddCover,
    certified,
    cycle_edges,
    degree2_components,
    degree_profile,
    path_edges,
)
from .cycles import _odd_matching, _peel_layers, peel_cycle_layers
from .oracle import MAX_FOREST_N, exact_linear_arboricity
from .systems import iso_cover_from_forests
from .twopaths import (
    Cycle,
    _close_loose,
    _disjoint_edges,
    _Layer,
    choose_integrable_pair,
    cover_cycles,
    integrate_four_edges,
    integrate_one_edge,
)


def _bfs(adj: list[list[int]], roots: Sequence[int]) -> tuple[list[int], list[int]]:
    """Breadth-first order and parent of every vertex reachable from roots.

    Each root not reached from an earlier one starts a new tree; parent is
    -1 at the roots and at vertices never reached.
    """
    parent = [-1] * len(adj)
    seen = [False] * len(adj)
    order: list[int] = []
    for root in roots:
        if seen[root]:
            continue
        seen[root] = True
        i = len(order)
        order.append(root)
        while i < len(order):
            x = order[i]
            i += 1
            for w in adj[x]:
                if not seen[w]:
                    seen[w] = True
                    parent[w] = x
                    order.append(w)
    return order, parent


def peel_odd_path(g: Graph) -> tuple[tuple[int, ...], Graph]:
    """Remove one path joining two odd-degree vertices; v_odd drops by 2.

    Breadth-first from the smallest odd vertex to the smallest odd vertex
    reachable from it (one always exists in its component).
    """
    _, v_odd, odd = degree_profile(g)
    if v_odd == 0:
        raise ValueError("graph has no odd-degree vertices")
    _, parent = _bfs(g.adjacency(), odd[:1])
    targets = [v for v in odd[1:] if parent[v] != -1]
    if not targets:
        raise InternalInvariantError("odd vertex isolated from all others")
    walk = [min(targets)]
    while parent[walk[-1]] != -1:
        walk.append(parent[walk[-1]])
    walk.reverse()
    return tuple(walk), g.remove_edges(path_edges(walk))


def peel_odd_paths(g: Graph, p: int) -> tuple[list[tuple[int, ...]], Graph]:
    """Remove p edge-disjoint paths, each joining two odd-degree vertices;
    v_odd drops by 2p.  Returns the paths and what is left of g."""
    adj = g.adjacency()
    paths = _peel_odd_paths(adj, p)
    return paths, Graph(g.n, _edges(adj))


def _peel_odd_paths(adj: list[list[int]], p: int) -> list[tuple[int, ...]]:
    """peel_odd_paths on sorted adjacency rows, which lose the paths' edges.

    The paths split the T-join of the odd vertices T in a breadth-first
    spanning forest: the edge from v to its parent is in the join exactly
    when v's subtree holds an odd number of odd vertices.  Bottom-up, each
    vertex pairs the open paths arriving from its children (plus itself
    when odd) and passes at most one on to its parent, so every odd vertex
    ends exactly one path.  The first p paths closed are taken.
    """
    is_odd = [len(row) % 2 for row in adj]
    v_odd = sum(is_odd)
    if not 0 <= p <= v_odd // 2:
        raise ValueError(f"can peel 0 to {v_odd // 2} odd paths, asked for {p}")
    order, parent = _bfs(adj, range(len(adj)))
    # open_at[v]: paths running from an odd vertex up to v, still open
    open_at: list[list[list[int]]] = [[] for _ in adj]
    paths: list[tuple[int, ...]] = []
    for v in reversed(order):
        stubs = open_at[v]
        open_at[v] = []
        for stub in stubs:
            stub.append(v)
        if is_odd[v]:
            stubs.append([v])
        while len(stubs) >= 2:
            a, b = stubs.pop(), stubs.pop()
            b.pop()
            a.extend(reversed(b))
            paths.append(tuple(a))
        if stubs:
            if parent[v] == -1:
                raise InternalInvariantError("component with an odd number of odd vertices")
            open_at[parent[v]].append(stubs[0])
    taken = paths[:p]
    # one pass over each touched row, however many of its edges go
    cut: dict[int, set[int]] = {}
    for path in taken:
        for a, b in zip(path, path[1:]):
            cut.setdefault(a, set()).add(b)
            cut.setdefault(b, set()).add(a)
    for v, gone in cut.items():
        adj[v] = [w for w in adj[v] if w not in gone]
    return taken


def _edges(adj: list[list[int]]) -> list[Edge]:
    return [(u, v) for u, row in enumerate(adj) for v in row if u < v]


def _profile(adj: list[list[int]]) -> tuple[int, int]:
    """(maximum degree, number of odd-degree vertices) of adjacency rows."""
    deg = list(map(len, adj))
    return max(deg, default=0), sum(d % 2 for d in deg)


def _xor_rows(adj: list[list[int]], pairs: Sequence[Edge]) -> None:
    """XOR the edges `pairs` into sorted adjacency rows, keeping them sorted."""
    for u, v in pairs:
        for a, b in ((u, v), (v, u)):
            row = adj[a]
            if b in row:
                row.remove(b)
            else:
                insort(row, b)


def cover_first_bound(g: Graph) -> OddCover:
    """Odd-cover with at most delta + v_odd/2 paths.

    Peels v_odd/2 odd-joining paths in one pass, leaving an even-degree
    remainder, then spends two paths per cycle layer.
    """
    adj = g.adjacency()
    delta0, v_odd0 = _profile(adj)
    members = _peel_odd_paths(adj, v_odd0 // 2)
    members += _spend_layers(list(_peel_layers(adj)), [])
    cover = OddCover(g, members, "path")
    return certified(cover, cover.count <= delta0 + v_odd0 // 2, "additive-bound cover")


def _integration_rounds(matching_size: int) -> int:
    """Layers _spend_layers needs to absorb a matching of this size."""
    return 2 if matching_size == 2 else -(-matching_size // 2)


def _spend_layers(layers: list[list[Cycle]], m: list[Edge]) -> list[tuple[int, ...]]:
    """Two paths per cycle layer, integrating the sorted matching m.

    Two matching edges go into each layer while three or more remain
    (choosing a safe pair out of three, or splitting four over two layers),
    a last one or two go in alone, one per layer, and leftover layers cost
    two plain paths each.  Layer budget is max(t, len(layers)) with
    t = ceil(|M|/2) (t = 2 when |M| = 2), so the count is at most twice that.
    Unchecked: each public caller verifies its whole cover once.
    """
    rounds = max(_integration_rounds(len(m)), len(layers))
    layers = layers + [[] for _ in range(rounds - len(layers))]

    members: list[tuple[int, ...]] = []
    m = deque(m)  # each round takes from the front in O(1)
    i = 0
    while i < rounds:
        cs = layers[i]
        if len(m) >= 5 or len(m) == 3:
            three = [m.popleft() for _ in range(3)]
            pair, tp = choose_integrable_pair(cs, three)
            members += [tp.p, tp.q]
            m.extendleft(f for f in three if f not in pair)
            i += 1
        elif len(m) == 4:
            if i + 1 >= rounds:
                raise InternalInvariantError("four edges left but one round")
            members += integrate_four_edges(cs, layers[i + 1], list(m))
            m.clear()
            i += 2
        elif m:  # one or two edges left: the first goes in alone
            f = m.popleft()
            if cs:
                tp = integrate_one_edge(cs, f)
                members += [tp.p, tp.q]
            else:
                members.append(f)
            i += 1
        else:
            if cs:
                tp = cover_cycles(cs)
                members += [tp.p, tp.q]
            i += 1
    return members


def cover_eulerian_plus_matching(
    g_prime: Graph, matching: Sequence[Edge]
) -> OddCover:
    """Odd-cover E(g_prime) XOR M for an even-degree g_prime and matching M,
    with at most 2*max(t, delta/2) paths (t as in _spend_layers)."""
    if not g_prime.is_even():
        raise ValueError("matching integration needs all degrees even")
    m = sorted(_disjoint_edges(matching))
    layers = peel_cycle_layers(g_prime)
    cover = OddCover(g_prime.xor(matching), _spend_layers(layers, m), "path")
    rounds = max(_integration_rounds(len(m)), len(layers))
    return certified(cover, cover.count <= 2 * rounds, "matching integration")


def path_odd_cover(g: Graph) -> OddCover:
    """Odd-cover with at most max{v_odd/2, 2*ceil(delta/2)} paths."""
    adj = g.adjacency()
    members: list[tuple[int, ...]] = []
    delta, v_odd = _profile(adj)
    delta_e = 2 * -(-delta // 2)
    bound = max(v_odd // 2, delta_e)
    # Removing edges never raises delta, so after peeling down to
    # v_odd/2 = delta_e the rest costs at most delta_e; a batch that lowers
    # delta leaves more to peel.
    while v_odd // 2 > delta_e:
        members += _peel_odd_paths(adj, v_odd // 2 - delta_e)
        delta, v_odd = _profile(adj)
        delta_e = 2 * -(-delta // 2)

    if v_odd == 4 and delta <= 2:
        # exactly two loose paths; closing is order-sensitive, so keep them
        # in the order of their smallest vertex
        loose, cycles = degree2_components(g.n, _edges(adj))
        tp = _close_loose(_Layer.canonical(cycles), sorted(loose, key=min))
        members += [tp.p, tp.q]
    elif delta:
        m = sorted(_odd_matching(adj))
        _xor_rows(adj, m)
        members += _spend_layers(list(_peel_layers(adj)), m)

    cover = OddCover(g, members, "path")
    return certified(cover, cover.count <= bound, "degree-bound cover")


def iso_cover_general(g: Graph) -> tuple[OddCover, str]:
    """Odd-cover allowing added isolated vertices, per the 2t + la(d) budget.

    t = _integration_rounds(v_odd/2) (ceil(v_odd/4), or 2 when v_odd = 4) and
    d = 2*ceil(delta/2) - 2t; d < 0 (including v_odd = 4 with delta <= 2)
    goes to path_odd_cover.  The first t cycle layers absorb the matching;
    the residual is covered by stitching an exact minimum linear-forest
    decomposition when the graph is small enough to search (n <= MAX_FOREST_N),
    else by plain layer pairs (cost d instead of la(d)).  Returns the cover
    and which branch handled the residual.
    """
    adj = g.adjacency()
    delta, v_odd = _profile(adj)
    t = _integration_rounds(v_odd // 2)
    d = 2 * -(-delta // 2) - 2 * t

    if d < 0:
        cover = path_odd_cover(g)
        if cover.count > v_odd // 2:
            raise InternalInvariantError("direct or two-path case exceeded v_odd/2")
        return cover, "two-paths" if v_odd == 4 and delta <= 2 else "direct"

    m = sorted(_odd_matching(adj))
    _xor_rows(adj, m)
    layers = list(_peel_layers(adj))
    head, tail = layers[:t], layers[t:]
    members = _spend_layers(head, m)

    branch = "layer-pairs" if tail else "no-residual"
    target = g
    if tail and g.n <= MAX_FOREST_N:
        residual = Graph(g.n, [e for layer in tail for c in layer for e in cycle_edges(c)])
        # every maximum-degree vertex of g XOR M lies on every layer, so the
        # residual's maximum degree is 2 * len(tail) <= d; its linear
        # arboricity is at most len(tail) + 1 for n <= MAX_FOREST_N
        la, forests = exact_linear_arboricity(residual)
        if la <= d:
            isoc = iso_cover_from_forests(residual, forests)
            members += list(isoc.members)
            target = Graph(isoc.target.n, g.edges)
            branch = "linear-arboricity"
    if branch == "layer-pairs":
        members += _spend_layers(tail, [])

    cover = OddCover(target, members, "path")
    return certified(cover, cover.count <= 2 * t + d, "isolated-vertex cover"), branch


def cycle_odd_cover(g: Graph) -> OddCover:
    """Cycle odd-cover of an even-degree graph with at most delta cycles.

    Each cycle layer is covered by two paths sharing both endpoints; closing
    both with the same endpoint edge turns them into two cycles whose XOR is
    the layer.  A layer that is a single cycle is emitted as itself.
    """
    adj = g.adjacency()
    delta, v_odd = _profile(adj)
    if v_odd:
        raise ValueError("cycle odd-covers need all degrees even")
    members: list[tuple[int, ...]] = []
    for layer in _peel_layers(adj):
        if len(layer) == 1:
            members.append(layer[0])
        else:
            tp = cover_cycles(layer)
            members += [tp.p, tp.q]
    cover = OddCover(g, members, "cycle")
    return certified(cover, cover.count <= delta, "cycle cover")
