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
from itertools import islice
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


Entry = tuple[int, int]  # (collection, path id)


class _EndpointIndex:
    """Mutable path system on which join and insert touch only their paths.

    Each collection is an insertion-ordered dict from path id to path, so a
    removed path disappears, a merged path is appended and a replaced path
    keeps its slot, as in a list.  `ends` maps every endpoint to its entries
    (one for type I, two for type II) and `ones[c]` counts the type I ends of
    collection c, so a move re-checks well-distributedness on its own
    collections plus O(k) counts.
    """

    def __init__(self, sys: PathSystem):
        self.colls: list[dict[int, Path]] = [{} for _ in sys.collections]
        self.ends: dict[int, list[Entry]] = {}
        self.ones = [0] * sys.k
        self.next_vertex = sys.next_vertex
        self.total = 0
        self._ids = 0
        for c, coll in enumerate(sys.collections):
            for p in coll:
                self._add(c, p)

    @property
    def k(self) -> int:
        return len(self.colls)

    def system(self) -> PathSystem:
        return PathSystem([list(c.values()) for c in self.colls], self.next_vertex)

    def is_two(self, v: int) -> bool:
        return len(self.ends[v]) == 2

    def other(self, v: int, not_this: Entry) -> Entry:
        others = [e for e in self.ends[v] if e != not_this]
        if len(others) != 1:
            raise InternalInvariantError(f"endpoint {v} is not type II")
        return others[0]

    def _link(self, v: int, ent: Entry) -> None:
        ents = self.ends.setdefault(v, [])
        if len(ents) == 1:
            self.ones[ents[0][0]] -= 1
        ents.append(ent)
        if len(ents) == 1:
            self.ones[ent[0]] += 1

    def _unlink(self, v: int, ent: Entry) -> None:
        ents = self.ends[v]
        if len(ents) == 1:
            self.ones[ents[0][0]] -= 1
        ents.remove(ent)
        if len(ents) == 1:
            self.ones[ents[0][0]] += 1
        elif not ents:
            del self.ends[v]

    def _add(self, c: int, p: Path) -> None:
        pid = self._ids
        self._ids += 1
        self.colls[c][pid] = p
        self.total += 1
        self._link(p[0], (c, pid))
        self._link(p[-1], (c, pid))

    def _remove(self, c: int, pid: int) -> None:
        p = self.colls[c].pop(pid)
        self.total -= 1
        self._unlink(p[0], (c, pid))
        self._unlink(p[-1], (c, pid))

    def _replace(self, c: int, pid: int, p: Path) -> None:
        old = self.colls[c][pid]
        self._unlink(old[0], (c, pid))
        self._unlink(old[-1], (c, pid))
        self.colls[c][pid] = p
        self._link(p[0], (c, pid))
        self._link(p[-1], (c, pid))

    def well_distributed(self, cols: Iterable[int]) -> bool:
        """The count clauses over all collections; the clause on paths with
        two type I ends over `cols` only."""
        if any(c > 2 for c in self.ones):
            return False
        if 2 in self.ones and 0 in self.ones:
            return False
        for c in cols:
            coll = self.colls[c]
            if len(coll) > 1 and any(
                len(self.ends[p[0]]) == 1 and len(self.ends[p[-1]]) == 1
                for p in coll.values()
            ):
                return False
        return True

    def require_well_distributed(self, move: str, cols: Iterable[int]) -> None:
        if not self.well_distributed(cols):
            raise ValueError(f"{move} would break well-distributedness")

    def join(self, u: int, v: int) -> None:
        """Merge the two path pairs meeting at u and v with a doubled edge uv."""
        eu, ev = self.ends.get(u, ()), self.ends.get(v, ())
        if len(eu) != 2 or len(ev) != 2:
            raise ValueError("join needs two type II endpoints")
        cols_u = {c for c, _ in eu}
        if cols_u != {c for c, _ in ev} or len(cols_u) != 2:
            raise ValueError("join endpoints must be shared by the same two collections")
        i, j = sorted(cols_u)
        pi_u, pj_u = (next(pid for c, pid in eu if c == x) for x in (i, j))
        pi_v, pj_v = (next(pid for c, pid in ev if c == x) for x in (i, j))
        if pi_u == pi_v or pj_u == pj_v:
            raise ValueError("join needs four distinct paths")
        touched = ((i, pi_u), (i, pi_v), (j, pj_u), (j, pj_v))
        old = [self.colls[c][pid] for c, pid in touched]
        merged_i = tuple(_orient_end(old[0], u) + _orient_start(old[1], v))
        merged_j = tuple(_orient_end(old[2], u) + _orient_start(old[3], v))
        # untouched paths are unchanged, so the touched ones carry the XOR
        if odd_edges((merged_i, merged_j)) != odd_edges(old):
            raise InternalInvariantError("join changed the XOR of the system")
        for c, pid in touched:
            self._remove(c, pid)
        self._add(i, merged_i)
        self._add(j, merged_j)
        self.require_well_distributed("join", (i, j))

    def insert(self, u: int, ci: int, cr: int) -> tuple[int, int, int]:
        """Subdivide the terminal edge at u of the collection-ci path and
        donate the new one-edge piece to collection cr; returns (z, u, z')."""
        ents = self.ends.get(u, ())
        if len(ents) != 2:
            raise ValueError("insert needs a type II endpoint")
        if self.k < 3:
            raise ValueError("insert needs at least three collections")
        cols = {c for c, _ in ents}
        if ci not in cols:
            raise ValueError(f"collection {ci} has no path ending at {u}")
        cj = (cols - {ci}).pop()
        if cr in (ci, cj):
            raise ValueError("receiving collection must differ from both sharers")
        if 2 * len(self.colls[cr]) == self.ones[cr]:
            raise ValueError("receiving collection has no type II endpoint")
        pi = next(p for c, p in ents if c == ci)
        path = self.colls[ci][pi]
        z = path[1] if path[0] == u else path[-2]
        z_new = self.next_vertex
        replaced = (z_new,) + path[1:] if path[0] == u else path[:-1] + (z_new,)
        piece = (z_new, u)
        expected = odd_edges((path,)) ^ {
            norm_edge(z, u), norm_edge(z, z_new), norm_edge(z_new, u)
        }
        if odd_edges((replaced, piece)) != expected:
            raise InternalInvariantError("insert changed the XOR inconsistently")
        self._replace(ci, pi, replaced)
        self._add(cr, piece)
        self.next_vertex += 1
        self.require_well_distributed("insert", (ci, cr))
        return z, u, z_new


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
    idx = _EndpointIndex(sys)
    types: dict[int, str] = {}
    for v, ents in idx.ends.items():
        if len(ents) == 1:
            types[v] = "I"
        elif len(ents) == 2:
            (c1, p1), (c2, p2) = ents
            if c1 == c2:
                raise ValueError(f"endpoint {v} shared within one collection")
            t1 = _terminal_edge(idx.colls[c1][p1], v)
            t2 = _terminal_edge(idx.colls[c2][p2], v)
            if t1 == t2:
                raise ValueError(f"endpoint {v} has identical terminal edges")
            if v in inner:
                raise ValueError(f"type II endpoint {v} appears inside another path")
            types[v] = "II"
        else:
            raise ValueError(f"endpoint {v} belongs to {len(ents)} paths")
    return types


def is_well_distributed(sys: PathSystem) -> bool:
    classify_endpoints(sys)
    return _EndpointIndex(sys).well_distributed(range(sys.k))


def _orient_end(p: Path, v: int) -> list[int]:
    return list(p) if p[-1] == v else list(p)[::-1]


def _orient_start(p: Path, v: int) -> list[int]:
    return list(p) if p[0] == v else list(p)[::-1]


def join(sys: PathSystem, u: int, v: int) -> PathSystem:
    """Merge the two path pairs meeting at u and v with a doubled edge uv.

    u and v must be type II endpoints shared by the same two collections in
    four distinct paths; the total path count drops by two and the edge-set
    XOR is unchanged.
    """
    classify_endpoints(sys)
    idx = _EndpointIndex(sys)
    idx.join(u, v)
    idx.require_well_distributed("join", range(idx.k))
    return idx.system()


def insert(
    sys: PathSystem, u: int, ci: int, cr: int
) -> tuple[PathSystem, tuple[int, int, int]]:
    """Subdivide the terminal edge at u of the collection-ci path and donate
    the new one-edge piece to collection cr.

    Returns the new system and the subdivision event (z, u, z') recording
    that edge zu became z-z'-u.  The path count grows by one.
    """
    classify_endpoints(sys)
    idx = _EndpointIndex(sys)
    event = idx.insert(u, ci, cr)
    idx.require_well_distributed("insert", range(idx.k))
    return idx.system(), event


def reduce_system(
    sys: PathSystem,
) -> tuple[PathSystem, list[tuple[int, int, int]]]:
    """Compress a well-distributed system until every collection is one path.

    Follows the structural case split on the largest collection; each round
    applies join once, possibly preceded by one insert, so the total path
    count strictly decreases.  Returns the final system and the list of
    subdivision events performed by inserts.

    The moves run on one endpoint index and check only the paths they touch;
    the whole system is validated once at entry and once at exit.
    """
    if not is_well_distributed(sys):
        raise ValueError("system is not well-distributed")
    start = sys.parity_edges()
    idx = _EndpointIndex(sys)
    events: list[tuple[int, int, int]] = []
    try:
        _reduce(idx, events)
        out = idx.system()
        ok = is_well_distributed(out)
    except ValueError as exc:  # the input was valid, so this is a bug
        raise InternalInvariantError(f"reduction failed: {exc}") from exc
    if not ok:
        raise InternalInvariantError("reduced system is not well-distributed")
    for z, u, z_new in events:
        start ^= {norm_edge(z, u), norm_edge(z, z_new), norm_edge(z_new, u)}
    if out.parity_edges() != start:
        raise InternalInvariantError("reduction changed the XOR of the system")
    return out, events


def _reduce(idx: _EndpointIndex, events: list[tuple[int, int, int]]) -> None:
    two = idx.is_two
    budget = idx.total + 16
    guard = 0
    while idx.total > idx.k:
        guard += 1
        if guard > budget:
            raise InternalInvariantError("reduction failed to make progress")
        sizes = [len(c) for c in idx.colls]
        c1 = sizes.index(max(sizes))
        coll1 = idx.colls[c1]

        if sizes[c1] >= 3:
            p_idx = next(t for t, p in coll1.items() if two(p[0]) and two(p[-1]))
            pp_idx, u = next(
                (t, e)
                for t, p in coll1.items()
                if t != p_idx
                for e in (p[0], p[-1])
                if two(e)
            )
            v, v2 = coll1[p_idx][0], coll1[p_idx][-1]
            q_ent = idx.other(u, (c1, pp_idx))
            r_ent = idx.other(v, (c1, p_idx))
            r2_ent = idx.other(v2, (c1, p_idx))
            i = q_ent[0]
            if r_ent[0] != i:
                events.append(idx.insert(v, r_ent[0], i))
                idx.join(u, v)
            elif r2_ent[0] != i:
                events.append(idx.insert(v2, r2_ent[0], i))
                idx.join(u, v2)
            else:
                q_path = idx.colls[i][q_ent[1]]
                y = q_path[0] if q_path[-1] == u else q_path[-1]
                if two(y):
                    if r_ent == q_ent:
                        v = v2  # the path at the other end differs from Q
                else:
                    r_path = idx.colls[i][r_ent[1]]
                    z = r_path[0] if r_path[-1] == v else r_path[-1]
                    if not two(z):
                        v = v2  # then the path at v2 ends at a type II vertex
                idx.join(u, v)
        else:
            (a, p), (b, pp) = islice(coll1.items(), 2)
            u = p[0] if two(p[0]) else p[-1]
            v = pp[0] if two(pp[0]) else pp[-1]
            x = p[-1] if u == p[0] else p[0]
            w = pp[-1] if v == pp[0] else pp[0]
            q_ent = idx.other(u, (c1, a))
            r_ent = idx.other(v, (c1, b))
            if q_ent == r_ent and (two(x) or two(w)):
                if two(x):
                    u = x
                    q_ent = idx.other(u, (c1, a))
                else:
                    v = w
                    r_ent = idx.other(v, (c1, b))
            if q_ent != r_ent:
                if q_ent[0] != r_ent[0]:
                    events.append(idx.insert(v, r_ent[0], q_ent[0]))
                idx.join(u, v)
            else:
                i = q_ent[0]
                y_star = next(
                    end
                    for t, p2 in idx.colls[i].items()
                    if t != q_ent[1]
                    for end, other in ((p2[0], p2[-1]), (p2[-1], p2[0]))
                    if two(end) and not two(other)
                )
                ev = idx.insert(y_star, i, c1)
                events.append(ev)
                idx.join(u, ev[2])


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
    adj = g.adjacency()
    color: dict[Edge, int] = {}
    for v in range(g.n):
        stubs = []
        for w in adj[v]:  # ascending neighbours: incident edges in sorted order
            ch = chains[norm_edge(v, w)]
            stub = norm_edge(ch[0], ch[1]) if ch[0] == v else norm_edge(ch[2], ch[3])
            stubs.append(stub)
        if len(stubs) % 2 == 1:
            s = odd_rank[v] % k
            color[stubs[0]] = s
            palette = [c for c in range(k) if c != s]
            rest = stubs[1:]
            for t in range(len(rest) // 2):
                color[rest[2 * t]] = palette[t]
                color[rest[2 * t + 1]] = palette[t]
        else:
            for t in range(len(stubs) // 2):
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
    idx = _EndpointIndex(sys)
    while len(idx.colls[0]) > 1:
        (a, p), (_, pp) = islice(idx.colls[0].items(), 2)
        v, u = p[0], p[-1]
        q_ent = idx.other(v, (0, a))
        q = idx.colls[q_ent[0]][q_ent[1]]
        w = q[0] if q[-1] == v else q[-1]
        x = pp[0] if pp[0] not in (u, v, w) else pp[-1]
        idx.join(v, x)
    p, q = (next(iter(c.values())) for c in idx.colls)
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
