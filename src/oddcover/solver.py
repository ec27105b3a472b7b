"""End-to-end odd-cover solvers built from the cycle layers and the kit.

The main pipeline covers any graph with at most max{v_odd/2, 2*ceil(delta/2)}
paths: pair the odd-degree vertices by a matching M (peeling explicit odd
paths first when v_odd/2 exceeds the even-rounded degree), XOR M in to get
an even-degree graph, peel that into cycle layers, and spend two paths per
layer while integrating up to two matching edges alongside each layer.  A
first, simpler pipeline gives the additive delta + v_odd/2 bound; variants
produce cycle odd-covers (at most delta cycles) and isolated-vertex covers
driven by linear-forest decompositions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .core import (
    Edge,
    Graph,
    InternalInvariantError,
    OddCover,
    cycle_edges,
    degree2_components,
    degree_profile,
    norm_edge,
    path_edges,
    verify_cover,
)
from .cycles import odd_matching, peel_cycle_layers
from .systems import iso_cover_from_forests
from .twopaths import (
    Cycle,
    TwoPaths,
    _close_loose,
    _Layer,
    choose_integrable_pair,
    cover_cycles,
    integrate_four_edges,
    integrate_one_edge,
    integrate_two_edges,
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
    v_odd drops by 2p.

    The paths split the T-join of the odd vertices T in a breadth-first
    spanning forest: the edge from v to its parent is in the join exactly
    when v's subtree holds an odd number of odd vertices.  Bottom-up, each
    vertex pairs the open paths arriving from its children (plus itself
    when odd) and passes at most one on to its parent, so every odd vertex
    ends exactly one path.  The first p paths closed are removed with one
    rebuild.
    """
    _, v_odd, odd = degree_profile(g)
    if not 0 <= p <= v_odd // 2:
        raise ValueError(f"can peel 0 to {v_odd // 2} odd paths, asked for {p}")
    order, parent = _bfs(g.adjacency(), range(g.n))
    is_odd = [False] * g.n
    for v in odd:
        is_odd[v] = True
    # open_at[v]: paths running from an odd vertex up to v, still open
    open_at: list[list[list[int]]] = [[] for _ in range(g.n)]
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
    return taken, g.remove_edges(e for path in taken for e in path_edges(path))


def cover_first_bound(g: Graph) -> OddCover:
    """Odd-cover with at most delta + v_odd/2 paths.

    Peels v_odd/2 odd-joining paths in one pass, leaving an even-degree
    remainder, then spends two paths per cycle layer.
    """
    delta0, v_odd0, _ = degree_profile(g)
    members, cur = peel_odd_paths(g, v_odd0 // 2)
    members += _spend_layers(peel_cycle_layers(cur), [])
    cover = OddCover(g, members, "path")
    if not verify_cover(cover).valid or cover.count > delta0 + v_odd0 // 2:
        raise InternalInvariantError("additive-bound cover failed self-check")
    return cover


def _integration_rounds(matching_size: int) -> int:
    return 2 if matching_size == 2 else -(-matching_size // 2)


@dataclass(frozen=True)
class SolveBudget:
    """Round budget for isolated-vertex covers: t integration rounds leave a
    residual of maximum degree d inside the even-rounded ceiling delta_e."""

    t: int
    d: int
    delta_e: int


def solve_budget(g: Graph) -> SolveBudget:
    delta, v_odd, _ = degree_profile(g)
    delta_e = 2 * -(-delta // 2)
    t = 2 if (v_odd == 4 and delta >= 3) else -(-v_odd // 4)
    return SolveBudget(t=t, d=delta_e - 2 * t, delta_e=delta_e)


def _spend_layers(layers: list[list[Cycle]], m: list[Edge]) -> list[tuple[int, ...]]:
    """Two paths per cycle layer, integrating the sorted matching m.

    Two matching edges go into each layer while any remain (choosing a safe
    pair out of three, or splitting four over two layers), single edges go
    in alone, and leftover layers cost two plain paths each.  Layer budget
    is max(t, len(layers)) with t = ceil(|M|/2) (t = 2 when |M| = 2), so the
    count is at most twice that.  Unchecked: each public caller verifies
    its whole cover once.
    """
    rounds = max(_integration_rounds(len(m)), len(layers))
    layers = layers + [[] for _ in range(rounds - len(layers))]

    members: list[tuple[int, ...]] = []
    i = 0
    while i < rounds:
        cs = layers[i]
        if len(m) >= 5 or len(m) == 3:
            pair, tp = choose_integrable_pair(cs, m[:3])
            members += [tp.p, tp.q]
            m = [f for f in m if f not in pair]
            i += 1
        elif len(m) == 4:
            if i + 1 >= rounds:
                raise InternalInvariantError("four edges left but one round")
            members += integrate_four_edges(cs, layers[i + 1], m)
            m = []
            i += 2
        elif len(m) == 1:
            if cs:
                tp = integrate_one_edge(cs, m[0])
                members += [tp.p, tp.q]
            else:
                members.append(m[0])
            m = []
            i += 1
        elif len(m) == 2:
            if i != 0:
                raise InternalInvariantError("pair state can only occur first")
            for f, cs2 in zip(m, (layers[0], layers[1])):
                if cs2:
                    tp = integrate_one_edge(cs2, f)
                    members += [tp.p, tp.q]
                else:
                    members.append(f)
            m = []
            i += 2
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
    m = sorted(norm_edge(u, v) for u, v in matching)
    seen: set[int] = set()
    for e in m:
        if seen & set(e):
            raise ValueError("matching edges share a vertex")
        seen |= set(e)
    layers = peel_cycle_layers(g_prime)
    cover = OddCover(g_prime.xor(matching), _spend_layers(layers, m), "path")
    rounds = max(_integration_rounds(len(m)), len(layers))
    if not verify_cover(cover).valid or cover.count > 2 * rounds:
        raise InternalInvariantError("matching integration failed self-check")
    return cover


def disjoint_cycles_of(g: Graph) -> list[Cycle]:
    """The components of a 2-regular-or-empty graph as cycle tuples."""
    paths, cycles = degree2_components(g.n, g.edges)
    if paths:
        raise ValueError("component is not a cycle")
    return cycles


def path_odd_cover(g: Graph) -> OddCover:
    """Odd-cover with at most max{v_odd/2, 2*ceil(delta/2)} paths."""
    members: list[tuple[int, ...]] = []
    cur = g
    delta, v_odd, _ = degree_profile(cur)
    delta_e = 2 * -(-delta // 2)
    bound = max(v_odd // 2, delta_e)
    # Removing edges never raises delta, so after peeling down to
    # v_odd/2 = delta_e the rest costs at most delta_e; a batch that lowers
    # delta leaves more to peel.
    while v_odd // 2 > delta_e:
        paths, cur = peel_odd_paths(cur, v_odd // 2 - delta_e)
        members += paths
        delta, v_odd, _ = degree_profile(cur)
        delta_e = 2 * -(-delta // 2)

    m = sorted(odd_matching(cur))
    if delta <= 2 and len(m) == 2:
        g2 = cur.xor(m)
        res = integrate_two_edges(disjoint_cycles_of(g2), m[0], m[1])
        if not isinstance(res, TwoPaths):
            raise InternalInvariantError("low-degree pair case hit the obstruction")
        members += [res.p, res.q]
    elif cur.m or m:
        members += _spend_layers(peel_cycle_layers(cur.xor(m)), m)

    cover = OddCover(g, members, "path")
    if not verify_cover(cover).valid or cover.count > bound:
        raise InternalInvariantError("degree-bound cover failed self-check")
    return cover


def iso_cover_general(g: Graph) -> tuple[OddCover, str]:
    """Odd-cover allowing added isolated vertices, per the 2t + la(d) budget.

    t is ceil(v_odd/4) (or 2 when v_odd = 4 with delta >= 3) and
    d = 2*ceil(delta/2) - 2t.  The first t cycle layers absorb the matching;
    the residual is covered by stitching an exact minimum linear-forest
    decomposition when the graph is small enough to search (n <= MAX_FOREST_N),
    else by plain layer pairs (cost d instead of la(d)).  Returns the cover
    and which branch handled the residual.
    """
    from .oracle import MAX_FOREST_N, exact_linear_forests

    delta, v_odd, _ = degree_profile(g)
    budget = solve_budget(g)
    t, d = budget.t, budget.d

    if v_odd == 4 and delta <= 2:
        # exactly two loose paths; closing is order-sensitive, so keep them
        # in the order of their smallest vertex
        loose, cyc = degree2_components(g.n, g.edges)
        tp = _close_loose(_Layer.canonical(cyc), sorted(loose, key=min))
        cover = OddCover(g, [tp.p, tp.q], "path")
        if not verify_cover(cover).valid:
            raise InternalInvariantError("two-path case failed self-check")
        return cover, "two-paths"

    if d < 0:
        cover = path_odd_cover(g)
        if cover.count > v_odd // 2:
            raise InternalInvariantError("negative-budget case exceeded v_odd/2")
        return cover, "direct"

    m = sorted(odd_matching(g))
    layers = peel_cycle_layers(g.xor(m))
    head, tail = layers[:t], layers[t:]
    members = _spend_layers(head, m)

    branch = "layer-pairs"
    n_total = g.n
    if tail:
        residual = Graph(g.n, [e for layer in tail for c in layer for e in cycle_edges(c)])
        # every maximum-degree vertex of g XOR M lies on every layer, so the
        # residual's maximum degree is 2 * len(tail)
        forests = None
        if g.n <= MAX_FOREST_N:
            for k in range(len(tail), d + 1):
                forests = exact_linear_forests(residual, k)
                if forests is not None:
                    break
        if forests is not None:
            isoc = iso_cover_from_forests(residual, forests)
            members += list(isoc.members)
            n_total = isoc.target.n
            branch = "linear-arboricity"
        else:
            members += _spend_layers(tail, [])
    else:
        branch = "no-residual"

    cover = OddCover(Graph(n_total, g.edges), members, "path")
    if not verify_cover(cover).valid or cover.count > 2 * t + d:
        raise InternalInvariantError("isolated-vertex cover failed self-check")
    return cover, branch


def cycle_odd_cover(g: Graph) -> OddCover:
    """Cycle odd-cover of an even-degree graph with at most delta cycles.

    Each cycle layer is covered by two paths sharing both endpoints; closing
    both with the same endpoint edge turns them into two cycles whose XOR is
    the layer.  A layer that is a single cycle is emitted as itself.
    """
    delta, v_odd, _ = degree_profile(g)
    if v_odd:
        raise ValueError("cycle odd-covers need all degrees even")
    members: list[tuple[int, ...]] = []
    for layer in peel_cycle_layers(g):
        if len(layer) == 1:
            members.append(layer[0])
        else:
            tp = cover_cycles(layer)
            members += [tp.p, tp.q]
    cover = OddCover(g, members, "cycle")
    if not verify_cover(cover).valid or cover.count > delta:
        raise InternalInvariantError("cycle cover failed self-check")
    return cover
