"""Path k-systems and the rewriting moves that compress them to k paths.

A path k-system is k collections of vertex-disjoint paths in which every
path endpoint is either type I (endpoint of exactly one path overall) or
type II (endpoint of exactly two paths from distinct collections, with
distinct terminal edges, and appearing in no further path).  Three moves
rewrite a system while preserving the XOR of all member edge sets:

  join(u, v)    adds a doubled edge uv to merge two path pairs across the
                same two collections (the doubled edge cancels);
  insert(u, ...)  subdivides a terminal edge at u and donates the new
                one-edge path to a third collection;
  meet(u, v)    (for linear-forest covers) merges two components of one
                forest through a brand-new isolated vertex.

A well-distributed system (each collection has at most two type I
endpoints; if any has two, all have one; no multi-path collection owns a
path with two type I ends) can always be compressed until every collection
is a single path.  Seeding the system by 3-subdividing a graph and edge
coloring so that the color classes are short linear forests yields covers
of a subdivision by exactly max{v_odd/2, ceil(delta/2)} paths, and variants
of the same compression produce isolated-vertex covers and cycle covers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .core import (
    Edge,
    Graph,
    InternalInvariantError,
    OddCover,
    degree2_components,
    degree_profile,
    lower_bound,
    norm_edge,
    odd_edges,
    verify_cover,
)
from .twopaths import TwoPaths

Path = tuple[int, ...]


@dataclass
class PathSystem:
    collections: list[list[Path]]
    next_vertex: int

    @property
    def k(self) -> int:
        return len(self.collections)

    def total_paths(self) -> int:
        return sum(len(c) for c in self.collections)

    def parity_edges(self) -> set[Edge]:
        return odd_edges(p for coll in self.collections for p in coll)


def _endpoint_entries(sys: PathSystem) -> dict[int, list[tuple[int, int]]]:
    entries: dict[int, list[tuple[int, int]]] = {}
    for ci, coll in enumerate(sys.collections):
        for pi, p in enumerate(coll):
            for v in (p[0], p[-1]):
                entries.setdefault(v, []).append((ci, pi))
    return entries


def _terminal_edge(p: Path, v: int) -> Edge:
    return norm_edge(p[1], v) if p[0] == v else norm_edge(p[-2], v)


def classify_endpoints(sys: PathSystem) -> dict[int, str]:
    """Map endpoint -> 'I' | 'II'; raises if the system is not valid.

    Also enforces vertex-disjointness within each collection and the
    "appears in no other path" clause for type II endpoints.
    """
    inner: set[int] = set()  # interior vertices of all paths
    for ci, coll in enumerate(sys.collections):
        if not coll:
            raise ValueError(f"collection {ci} is empty")
        seen: set[int] = set()
        for p in coll:
            if len(p) < 2 or len(set(p)) != len(p):
                raise ValueError(f"invalid path {p}")
            if seen & set(p):
                raise ValueError(f"collection {ci} paths share vertices")
            seen |= set(p)
            inner.update(p[1:-1])
    types: dict[int, str] = {}
    for v, ents in _endpoint_entries(sys).items():
        if len(ents) == 1:
            types[v] = "I"
        elif len(ents) == 2:
            (c1, p1), (c2, p2) = ents
            if c1 == c2:
                raise ValueError(f"endpoint {v} shared within one collection")
            t1 = _terminal_edge(sys.collections[c1][p1], v)
            t2 = _terminal_edge(sys.collections[c2][p2], v)
            if t1 == t2:
                raise ValueError(f"endpoint {v} has identical terminal edges")
            if v in inner:
                raise ValueError(f"type II endpoint {v} appears inside another path")
            types[v] = "II"
        else:
            raise ValueError(f"endpoint {v} belongs to {len(ents)} paths")
    return types


def is_well_distributed(sys: PathSystem) -> bool:
    types = classify_endpoints(sys)
    ones = []
    for coll in sys.collections:
        cnt = sum(1 for p in coll for v in (p[0], p[-1]) if types[v] == "I")
        ones.append(cnt)
        if cnt > 2:
            return False
    if any(c == 2 for c in ones) and any(c == 0 for c in ones):
        return False
    for coll in sys.collections:
        for p in coll:
            if types[p[0]] == "I" and types[p[-1]] == "I" and len(coll) > 1:
                return False
    return True


def _orient_end(p: Path, v: int) -> list[int]:
    return list(p) if p[-1] == v else list(p)[::-1]


def _orient_start(p: Path, v: int) -> list[int]:
    return list(p) if p[0] == v else list(p)[::-1]


def _other_entry(
    entries: dict[int, list[tuple[int, int]]], v: int, not_this: tuple[int, int]
) -> tuple[int, int]:
    others = [e for e in entries[v] if e != not_this]
    if len(others) != 1:
        raise InternalInvariantError(f"endpoint {v} is not type II")
    return others[0]


def join(sys: PathSystem, u: int, v: int) -> PathSystem:
    """Merge the two path pairs meeting at u and v with a doubled edge uv.

    u and v must be type II endpoints shared by the same two collections in
    four distinct paths; the total path count drops by two and the edge-set
    XOR is unchanged.
    """
    types = classify_endpoints(sys)
    if types.get(u) != "II" or types.get(v) != "II":
        raise ValueError("join needs two type II endpoints")
    entries = _endpoint_entries(sys)
    cols_u = {ci for ci, _ in entries[u]}
    cols_v = {ci for ci, _ in entries[v]}
    if cols_u != cols_v or len(cols_u) != 2:
        raise ValueError("join endpoints must be shared by the same two collections")
    i, j = sorted(cols_u)

    def path_at(ci: int, vertex: int) -> int:
        return next(pi for c, pi in entries[vertex] if c == ci)

    pi_u, pi_v = path_at(i, u), path_at(i, v)
    pj_u, pj_v = path_at(j, u), path_at(j, v)
    if pi_u == pi_v or pj_u == pj_v:
        raise ValueError("join needs four distinct paths")
    before = sys.parity_edges()
    new_colls = [list(c) for c in sys.collections]
    merged_i = tuple(
        _orient_end(sys.collections[i][pi_u], u)
        + _orient_start(sys.collections[i][pi_v], v)
    )
    merged_j = tuple(
        _orient_end(sys.collections[j][pj_u], u)
        + _orient_start(sys.collections[j][pj_v], v)
    )
    new_colls[i] = [p for t, p in enumerate(new_colls[i]) if t not in (pi_u, pi_v)]
    new_colls[i].append(merged_i)
    new_colls[j] = [p for t, p in enumerate(new_colls[j]) if t not in (pj_u, pj_v)]
    new_colls[j].append(merged_j)
    out = PathSystem(new_colls, sys.next_vertex)
    if not is_well_distributed(out):
        raise ValueError("join would break well-distributedness")
    if out.parity_edges() != before:
        raise InternalInvariantError("join changed the XOR of the system")
    return out


def insert(
    sys: PathSystem, u: int, ci: int, cr: int
) -> tuple[PathSystem, tuple[int, int, int]]:
    """Subdivide the terminal edge at u of the collection-ci path and donate
    the new one-edge piece to collection cr.

    Returns the new system and the subdivision event (z, u, z') recording
    that edge zu became z-z'-u.  The path count grows by one.
    """
    types = classify_endpoints(sys)
    if types.get(u) != "II":
        raise ValueError("insert needs a type II endpoint")
    if sys.k < 3:
        raise ValueError("insert needs at least three collections")
    entries = _endpoint_entries(sys)
    cols = {c for c, _ in entries[u]}
    if ci not in cols:
        raise ValueError(f"collection {ci} has no path ending at {u}")
    cj = (cols - {ci}).pop()
    if cr in (ci, cj):
        raise ValueError("receiving collection must differ from both sharers")
    if not any(
        types[v] == "II"
        for p in sys.collections[cr]
        for v in (p[0], p[-1])
    ):
        raise ValueError("receiving collection has no type II endpoint")
    pi = next(p for c, p in entries[u] if c == ci)
    path = sys.collections[ci][pi]
    z = path[1] if path[0] == u else path[-2]
    z_new = sys.next_vertex
    replaced = (
        (z_new,) + path[1:] if path[0] == u else path[:-1] + (z_new,)
    )
    new_colls = [list(c) for c in sys.collections]
    new_colls[ci][pi] = replaced
    new_colls[cr].append((z_new, u))
    out = PathSystem(new_colls, sys.next_vertex + 1)
    if not is_well_distributed(out):
        raise ValueError("insert would break well-distributedness")
    expected = sys.parity_edges()
    expected.discard(norm_edge(z, u))
    expected |= {norm_edge(z, z_new), norm_edge(z_new, u)}
    if out.parity_edges() != expected:
        raise InternalInvariantError("insert changed the XOR inconsistently")
    return out, (z, u, z_new)


def reduce_system(
    sys: PathSystem,
) -> tuple[PathSystem, list[tuple[int, int, int]]]:
    """Compress a well-distributed system until every collection is one path.

    Follows the structural case split on the largest collection; each round
    applies join once, possibly preceded by one insert, so the total path
    count strictly decreases.  Returns the final system and the list of
    subdivision events performed by inserts.
    """
    if not is_well_distributed(sys):
        raise ValueError("system is not well-distributed")
    events: list[tuple[int, int, int]] = []
    budget = sys.total_paths() + 16
    guard = 0
    while sys.total_paths() > sys.k:
        guard += 1
        if guard > budget:
            raise InternalInvariantError("reduction failed to make progress")
        types = classify_endpoints(sys)
        entries = _endpoint_entries(sys)
        sizes = [len(c) for c in sys.collections]
        c1 = sizes.index(max(sizes))
        coll1 = sys.collections[c1]

        if sizes[c1] >= 3:
            p_idx = next(
                t
                for t, p in enumerate(coll1)
                if types[p[0]] == "II" and types[p[-1]] == "II"
            )
            pp_idx, u = next(
                (t, e)
                for t, p in enumerate(coll1)
                if t != p_idx
                for e in (p[0], p[-1])
                if types[e] == "II"
            )
            v, v2 = coll1[p_idx][0], coll1[p_idx][-1]
            q_ent = _other_entry(entries, u, (c1, pp_idx))
            r_ent = _other_entry(entries, v, (c1, p_idx))
            r2_ent = _other_entry(entries, v2, (c1, p_idx))
            i = q_ent[0]
            if r_ent[0] != i:
                sys, ev = insert(sys, v, r_ent[0], i)
                events.append(ev)
                sys = join(sys, u, v)
            elif r2_ent[0] != i:
                sys, ev = insert(sys, v2, r2_ent[0], i)
                events.append(ev)
                sys = join(sys, u, v2)
            else:
                q_path = sys.collections[i][q_ent[1]]
                y = q_path[0] if q_path[-1] == u else q_path[-1]
                if types[y] == "II":
                    if r_ent == q_ent:
                        v = v2  # the path at the other end differs from Q
                    sys = join(sys, u, v)
                else:
                    r_path = sys.collections[i][r_ent[1]]
                    z = r_path[0] if r_path[-1] == v else r_path[-1]
                    if types[z] != "II":
                        v = v2  # then the path at v2 ends at a type II vertex
                    sys = join(sys, u, v)
        else:
            p, pp = coll1[0], coll1[1]
            u = p[0] if types[p[0]] == "II" else p[-1]
            v = pp[0] if types[pp[0]] == "II" else pp[-1]
            x = p[-1] if u == p[0] else p[0]
            w = pp[-1] if v == pp[0] else pp[0]
            q_ent = _other_entry(entries, u, (c1, 0))
            r_ent = _other_entry(entries, v, (c1, 1))
            if q_ent == r_ent and not (types[x] == "I" and types[w] == "I"):
                if types[x] == "II":
                    u = x
                    q_ent = _other_entry(entries, u, (c1, 0))
                else:
                    v = w
                    r_ent = _other_entry(entries, v, (c1, 1))
            if q_ent != r_ent:
                if q_ent[0] == r_ent[0]:
                    sys = join(sys, u, v)
                else:
                    sys, ev = insert(sys, v, r_ent[0], q_ent[0])
                    events.append(ev)
                    sys = join(sys, u, v)
            else:
                i = q_ent[0]
                y_star = next(
                    end
                    for t, p2 in enumerate(sys.collections[i])
                    if t != q_ent[1]
                    for end, other in ((p2[0], p2[-1]), (p2[-1], p2[0]))
                    if types[end] == "II" and types[other] == "I"
                )
                sys, ev = insert(sys, y_star, i, c1)
                events.append(ev)
                sys = join(sys, u, ev[2])
    return sys, events


# ---------------------------------------------------------------------------
# seeding a well-distributed system from a 3-subdivision


def is_exceptional_family(g: Graph) -> bool:
    """Disjoint union of at least one cycle with at most one path.

    For these graphs the degree parameters promise one path but any
    subdivision still needs two.
    """
    delta, _, _ = degree_profile(g)
    if delta != 2:
        return False
    paths, cycles = degree2_components(g.n, g.edges)
    return len(cycles) >= 1 and len(paths) <= 1


def _subdivide3(g: Graph) -> tuple[dict[Edge, list[int]], int]:
    chains: dict[Edge, list[int]] = {}
    nxt = g.n
    for u, v in sorted(g.edges):
        chains[(u, v)] = [u, nxt, nxt + 1, v]
        nxt += 2
    return chains, nxt


def _color_tripled_edges(g: Graph, chains: dict[Edge, list[int]], k: int) -> dict[Edge, int]:
    """k-color the 3-subdivision so color classes form a well-distributed
    path k-system.

    At every original vertex of even degree the incident stubs are paired
    per color; the j-th odd vertex gets one stub of color j mod k and pairs
    for the rest.  Every middle edge takes a color distinct from its first
    stub (and from both stubs when k >= 3), so classes decompose into paths
    of length at most two and monochromatic cycles are impossible.
    """
    _, _, odd = degree_profile(g)
    odd_rank = {v: r for r, v in enumerate(odd)}
    deg = g.degrees()
    color: dict[Edge, int] = {}
    for v in range(g.n):
        inc = sorted(e for e in g.edges if v in e)
        stubs = []
        for e in inc:
            ch = chains[e]
            stub = norm_edge(ch[0], ch[1]) if ch[0] == v else norm_edge(ch[2], ch[3])
            stubs.append(stub)
        if deg[v] % 2 == 1:
            s = odd_rank[v] % k
            color[stubs[0]] = s
            palette = [c for c in range(k) if c != s]
            rest = stubs[1:]
            for t in range(len(rest) // 2):
                color[rest[2 * t]] = palette[t]
                color[rest[2 * t + 1]] = palette[t]
        else:
            for t in range(deg[v] // 2):
                color[stubs[2 * t]] = t
                color[stubs[2 * t + 1]] = t
    spread = 0
    for e in sorted(g.edges):
        ch = chains[e]
        cu = color[norm_edge(ch[0], ch[1])]
        cv = color[norm_edge(ch[2], ch[3])]
        pool = [c for c in range(k) if c not in (cu, cv)]
        if pool:
            cm = pool[spread % len(pool)]
            spread += 1
        else:
            cm = next(c for c in range(k) if c != cu)
        color[norm_edge(ch[1], ch[2])] = cm
    return color


def _classes_to_collections(
    color: dict[Edge, int], k: int, n_total: int
) -> list[list[Path]]:
    classes: list[list[Edge]] = [[] for _ in range(k)]
    for e, c in color.items():
        classes[c].append(e)
    collections: list[list[Path]] = []
    for c, edges in enumerate(classes):
        try:
            paths, cycles = degree2_components(n_total, edges)
        except ValueError as exc:
            raise InternalInvariantError(f"color class {c}: {exc}") from exc
        if cycles:
            raise InternalInvariantError(f"color class {c} contains a cycle")
        if not paths:
            raise InternalInvariantError(f"color class {c} is empty")
        collections.append(paths)
    return collections


def _reduced_topological_paths(
    g: Graph,
) -> tuple[list[Path], dict[Edge, list[int]], dict[Edge, Edge], int]:
    """k reduced paths over a subdivision of g, with the chain map."""
    k = lower_bound(g)
    chains, n_total = _subdivide3(g)
    color = _color_tripled_edges(g, chains, k)
    collections = _classes_to_collections(color, k, n_total)
    sys = PathSystem(collections, n_total)
    if not is_well_distributed(sys):
        raise InternalInvariantError("subdivision coloring is not well-distributed")
    sys, events = reduce_system(sys)
    edge2orig: dict[Edge, Edge] = {}
    for e, ch in chains.items():
        for t in range(len(ch) - 1):
            edge2orig[norm_edge(ch[t], ch[t + 1])] = e
    for z, u, z_new in events:
        _apply_subdivision(chains, edge2orig, z, u, z_new)
    paths = [coll[0] for coll in sys.collections]
    return paths, chains, edge2orig, sys.next_vertex


def _apply_subdivision(
    chains: dict[Edge, list[int]],
    edge2orig: dict[Edge, Edge],
    z: int,
    u: int,
    z_new: int,
) -> None:
    he = norm_edge(z, u)
    orig = edge2orig.pop(he)
    ch = chains[orig]
    t = next(i for i in range(len(ch) - 1) if {ch[i], ch[i + 1]} == {z, u})
    ch.insert(t + 1, z_new)
    edge2orig[norm_edge(z, z_new)] = orig
    edge2orig[norm_edge(z_new, u)] = orig


def _graph_from_chains(chains: dict[Edge, list[int]], n: int) -> Graph:
    edges = [
        norm_edge(ch[t], ch[t + 1])
        for ch in chains.values()
        for t in range(len(ch) - 1)
    ]
    return Graph(n, edges)


def topological_cover(
    g: Graph,
) -> tuple[Graph, OddCover, dict[Edge, list[int]]]:
    """Cover a subdivision of g with exactly max{v_odd/2, ceil(delta/2)} paths.

    Returns the subdivided graph H, the verified cover, and the map from
    original edges to their vertex chains in H.  Rejects the one family for
    which the degree bound is unattainable topologically: a disjoint union
    of cycles plus at most one path.
    """
    if is_exceptional_family(g):
        raise ValueError(
            "graph is a disjoint union of cycles (plus at most one path); "
            "no subdivision meets the degree bound"
        )
    k = lower_bound(g)
    if k == 0:
        return g, OddCover(g, [], "path"), {}
    if k == 1:
        paths, cycles = degree2_components(g.n, g.edges)
        if len(paths) != 1 or cycles:
            raise ValueError("graph is not a single path")
        path = paths[0]
        chains = {e: [e[0], e[1]] for e in sorted(g.edges)}
        return g, OddCover(g, [path], "path"), chains
    paths, chains, _, n_total = _reduced_topological_paths(g)
    h = _graph_from_chains(chains, n_total)
    cover = OddCover(h, paths, "path")
    report = verify_cover(cover)
    if not report.valid or cover.count != k:
        raise InternalInvariantError("topological cover failed self-check")
    return h, cover, chains


# ---------------------------------------------------------------------------
# linear forests: the meet operation and two-forest compression


def linear_forest_components(n: int, edges: Iterable[Edge]) -> list[Path]:
    """Path components of a linear forest; raises if it is not one."""
    paths, cycles = degree2_components(n, edges)
    if cycles:
        raise ValueError("edge set contains a cycle: not a linear forest")
    return paths


def _check_forest_partition(g: Graph, forests: Sequence[Iterable[Edge]]) -> list[list[Path]]:
    comps = []
    all_edges: list[Edge] = []
    for f in forests:
        es = [norm_edge(u, v) for u, v in f]
        if not es:
            raise ValueError("empty forest in decomposition")
        all_edges.extend(es)
        comps.append(linear_forest_components(g.n, es))
    if len(all_edges) != len(set(all_edges)) or set(all_edges) != g.edges:
        raise ValueError("forests do not partition the edge set")
    return comps


def two_path_cover_la2(
    g: Graph, forest1: Iterable[Edge], forest2: Iterable[Edge]
) -> TwoPaths:
    """Compress a 2-linear-forest partition of an even-degree graph into a
    verified two-path odd-cover, adding no vertices.

    Because all degrees are even, every path endpoint is shared by the two
    forests, so the system has no type I endpoints and join alone finishes.
    """
    if not g.is_even():
        raise ValueError("two-forest compression needs all degrees even")
    if g.m == 0:
        raise ValueError("graph has no edges")
    comps = _check_forest_partition(g, [forest1, forest2])
    sys = PathSystem([comps[0], comps[1]], g.n)
    types = classify_endpoints(sys)
    if any(t == "I" for t in types.values()):
        raise ValueError("decomposition has an unmatched endpoint")
    while len(sys.collections[0]) > 1:
        entries = _endpoint_entries(sys)
        p = sys.collections[0][0]
        v, u = p[0], p[-1]
        q_ent = _other_entry(entries, v, (0, 0))
        q = sys.collections[q_ent[0]][q_ent[1]]
        w = q[0] if q[-1] == v else q[-1]
        pp = sys.collections[0][1]
        x = pp[0] if pp[0] not in (u, v, w) else pp[-1]
        sys = join(sys, v, x)
    p, q = sys.collections[0][0], sys.collections[1][0]
    if odd_edges((p, q)) != g.edges:
        raise InternalInvariantError("two-forest compression failed self-check")
    return TwoPaths(p, q)


@dataclass
class ForestState:
    """Path components of k linear forests, plus the id allocator for the
    isolated vertices the meet move creates."""

    forests: list[list[Path]]
    next_vertex: int

    def parity_edges(self) -> set[Edge]:
        return odd_edges(p for coll in self.forests for p in coll)


def _forest_entry(
    state: ForestState, v: int, skip: tuple[int, int] | None = None
) -> list[tuple[int, int]]:
    out = []
    for j, coll in enumerate(state.forests):
        for pj, q in enumerate(coll):
            if v in (q[0], q[-1]) and (j, pj) != skip:
                out.append((j, pj))
    return out


def meet(state: ForestState, u: int, v: int) -> ForestState:
    """Merge two components of one forest through a new isolated vertex.

    u and v must be endpoints of two distinct components P, P' of the same
    forest, each also met there by a path from some other forest (distinct
    ones for u and v); the new vertex w receives edges uw and vw, each
    landing in two forests so the XOR is unchanged, and P-w-P' becomes one
    component.
    """
    host = None
    for j, coll in enumerate(state.forests):
        pu = [t for t, q in enumerate(coll) if u in (q[0], q[-1])]
        pv = [t for t, q in enumerate(coll) if v in (q[0], q[-1])]
        if pu and pv and pu[0] != pv[0]:
            host = (j, pu[0], pv[0])
            break
    if host is None:
        raise ValueError(
            f"{u} and {v} are not endpoints of two components of one forest"
        )
    i, t1, t2 = host
    others_u = [e for e in _forest_entry(state, u) if e[0] != i]
    others_v = [e for e in _forest_entry(state, v) if e[0] != i]
    pick = next(
        ((e1, e2) for e1 in others_u for e2 in others_v if e1 != e2), None
    )
    if pick is None:
        raise ValueError("no two distinct witness paths meet u and v")
    (j1, q1), (j2, q2) = pick
    p1, p2 = state.forests[i][t1], state.forests[i][t2]
    w = state.next_vertex
    before = state.parity_edges()
    forests = [list(c) for c in state.forests]
    merged = tuple(_orient_end(p1, u) + [w] + _orient_start(p2, v))
    forests[i] = [c for t, c in enumerate(forests[i]) if t not in (t1, t2)]
    forests[i].insert(0, merged)
    if j1 == j2:
        # both witness paths live in one forest: its components also glue
        glued = tuple(
            _orient_end(forests[j1][q1], u) + [w] + _orient_start(forests[j2][q2], v)
        )
        forests[j1] = [
            c for t, c in enumerate(forests[j1]) if t not in (q1, q2)
        ] + [glued]
    else:
        forests[j1][q1] = tuple(_orient_end(forests[j1][q1], u) + [w])
        forests[j2][q2] = tuple(_orient_end(forests[j2][q2], v) + [w])
    out = ForestState(forests, w + 1)
    if out.parity_edges() != before:
        raise InternalInvariantError("meet changed the XOR of the forests")
    return out


def iso_cover_from_forests(
    g: Graph, forests: Sequence[Iterable[Edge]]
) -> OddCover:
    """Turn a k-linear-forest partition of an even-degree graph into a
    k-path odd-cover over g plus added isolated vertices.

    Repeatedly merges two components of one forest through a fresh vertex
    (the meet move): the two new edges each land in two forests and cancel.
    """
    if not g.is_even():
        raise ValueError("forest stitching needs all degrees even")
    state = ForestState(_check_forest_partition(g, forests), g.n)
    while True:
        i = next((t for t, c in enumerate(state.forests) if len(c) > 1), None)
        if i is None:
            break
        p1, p2 = state.forests[i][0], state.forests[i][1]

        def anchored(path: Path) -> list[tuple[int, tuple[int, int]]]:
            return [
                (end, e)
                for end in (path[0], path[-1])
                for e in _forest_entry(state, end)
                if e[0] != i
            ]

        u, v = next(
            (uu, vv)
            for uu, e1 in anchored(p1)
            for vv, e2 in anchored(p2)
            if e1 != e2
        )
        state = meet(state, u, v)
    members = [coll[0] for coll in state.forests]
    target = Graph(state.next_vertex, g.edges)
    cover = OddCover(target, members, "path")
    report = verify_cover(cover)
    if not report.valid or cover.count != len(forests):
        raise InternalInvariantError("forest stitching failed self-check")
    return cover


def cycle_iso_cover(g: Graph, forests: Sequence[Iterable[Edge]]) -> OddCover:
    """Close a forest-stitched path cover into cycles through one apex vertex.

    Every vertex of an even-degree graph occurs an even number of times as a
    path endpoint, so the closing edges through the apex cancel pairwise.
    """
    base = iso_cover_from_forests(g, forests)
    w = base.target.n
    members = [tuple(p) + (w,) for p in base.members]
    target = Graph(w + 1, g.edges)
    cover = OddCover(target, members, "cycle")
    report = verify_cover(cover)
    if not report.valid:
        raise InternalInvariantError("apex closing failed self-check")
    return cover


# ---------------------------------------------------------------------------
# cycle covers of a subdivision


def cycle_top_cover(
    g: Graph,
) -> tuple[Graph, OddCover, dict[Edge, list[int]]]:
    """Cover a subdivision of an even-degree graph with delta/2 cycles.

    The reduced path system of the subdivision has no type I endpoints, so
    each path either closes directly against its partner (when both its
    ends meet the same path) or closes after one terminal-edge subdivision.
    Unions of two or more disjoint cycles are rejected: for them delta/2 = 1
    but no subdivision is a single cycle.
    """
    if not g.is_even():
        raise ValueError("cycle covers need all degrees even")
    delta, _, _ = degree_profile(g)
    if delta == 2:
        _, cycles = degree2_components(g.n, g.edges)
        if len(cycles) >= 2:
            raise ValueError("union of two or more disjoint cycles is excluded")
        chains = {e: [e[0], e[1]] for e in sorted(g.edges)}
        cover = OddCover(g, cycles, "cycle")
        if not verify_cover(cover).valid:
            raise InternalInvariantError("single-cycle cover failed self-check")
        return g, cover, chains
    if g.m == 0:
        return g, OddCover(g, [], "cycle"), {}

    paths, chains, edge2orig, nxt = _reduced_topological_paths(g)
    paths = [tuple(p) for p in paths]
    cycles_out: list[Path] = []
    while paths:
        base_i = next(
            (t for t, p in enumerate(paths) if len(p) >= 3), None
        )
        if base_i is None:
            raise InternalInvariantError("only single-edge paths remain")
        base = paths[base_i]
        u, v = base[0], base[-1]

        def partner(vertex: int) -> int:
            hits = [
                t
                for t, p in enumerate(paths)
                if t != base_i and vertex in (p[0], p[-1])
            ]
            if len(hits) != 1:
                raise InternalInvariantError("endpoint lost its partner")
            return hits[0]

        pu, pv = partner(u), partner(v)
        if pu == pv:
            other = paths[pu]
            cycles_out.append(base)
            if len(other) >= 3:
                cycles_out.append(other)
            paths = [p for t, p in enumerate(paths) if t not in (base_i, pu)]
        else:
            side = _orient_start(paths[pu], u)
            z = side[1]
            z_new = nxt
            nxt += 1
            _apply_subdivision(chains, edge2orig, z, u, z_new)
            shortened = tuple([z_new] + side[1:])
            extended = tuple([z_new, u] + _orient_start(paths[pv], v))
            cycles_out.append(base)
            keep = [
                p for t, p in enumerate(paths) if t not in (base_i, pu, pv)
            ]
            paths = keep + [shortened, extended]
    h = _graph_from_chains(chains, nxt)
    cover = OddCover(h, cycles_out, "cycle")
    report = verify_cover(cover)
    if not report.valid or cover.count > delta // 2:
        raise InternalInvariantError("cycle cover of subdivision failed self-check")
    return h, cover, chains
