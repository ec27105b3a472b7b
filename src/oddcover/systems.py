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

All three moves run on one endpoint index and cost O(1) amortised plus the
copy of the paths they build: well-distributedness is read off counters the
index keeps, and each move's XOR check looks only at the seams where it
joins old paths to new edges.  The whole system is validated and its XOR
compared once on entry and once on exit.

The subdivision covers track no chains while they reduce: one shared exit
reads the subdivision H (the XOR of the members) and each edge's chain off
the certified cover.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heapify, heappop, heappush, heapreplace
from itertools import count
from typing import Iterable, Sequence

from .core import (
    Edge,
    Graph,
    InternalInvariantError,
    OddCover,
    certified,
    degree2_components,
    degree_profile,
    lower_bound,
    norm_edge,
    odd_edges,
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

    def parity_edges(self) -> set[Edge]:
        return odd_edges(p for coll in self.collections for p in coll)


Entry = tuple[int, int]  # (collection, path id)


class _EndpointIndex:
    """Mutable path system on which join, insert and meet touch only their
    paths.

    Each collection maps path id to path and is ordered by ascending id: a
    merged or donated path takes a fresh, larger id and comes last, a
    replaced path keeps its id and its place, and meet's merged path takes
    an id below all others and comes first.  `ends` maps every endpoint to
    its entries (one for type I, two for type II).

    join and insert change no vertex's type: join drops two type II
    vertices whole and hands each far end's entry from an old path to the
    merged one, and insert hands a type II entry to the donated piece and
    adds the new vertex as type II.  So the type I end count of each
    collection (`ones`), and with it the two count clauses of
    well-distributedness, are fixed once the index is built.  Only the
    third clause moves: the index keeps, per collection, the number of
    paths with two type I ends (`lonely`), so `well_distributed` is O(1)
    amortised.  Lazy heaps answer the reduction's "largest collection",
    "first two paths" and "first path with two type II ends" queries in
    O(log k) amortised.  meet works on linear forests, where no clause
    applies: it keeps paths, ends and order exact and leaves the counts.

    No move recomputes an XOR.  Each new path is old paths, each kept whole
    or reversed, joined by new edges at its seams, so the XOR of the touched
    paths is unchanged exactly when every new edge appears twice; checking
    the few vertices at the seams is that same check in O(1).
    """

    def __init__(self, sys: PathSystem):
        self.colls: list[dict[int, Path]] = [{} for _ in sys.collections]
        self.ends: dict[int, list[Entry]] = {}
        ends = self.ends
        pid = 0
        for c, coll in enumerate(sys.collections):
            paths = self.colls[c]
            for p in map(tuple, coll):
                paths[pid] = p
                ends.setdefault(p[0], []).append((c, pid))
                ends.setdefault(p[-1], []).append((c, pid))
                pid += 1
        self._ids = pid
        self._front = 0  # meet's merged paths count down from -1
        self.total = pid
        self.next_vertex = sys.next_vertex
        self.ones = [0] * sys.k
        for ents in ends.values():
            if len(ents) == 1:
                self.ones[ents[0][0]] += 1
        self.counts_ok = _counts_ok(self.ones)
        self.lonely = [
            sum(len(ends[p[0]]) == 1 and len(ends[p[-1]]) == 1 for p in paths.values())
            for paths in self.colls
        ]
        self.flagged = [
            n > 0 and len(paths) > 1 for n, paths in zip(self.lonely, self.colls)
        ]
        self.bad = sum(self.flagged)
        self._dirty: list[int] = []  # collections whose flag may be stale
        # ids ascend within each collection, so these lists are already heaps
        self.order = [list(paths) for paths in self.colls]
        self.both_two = [
            [t for t, p in paths.items() if len(ends[p[0]]) == 2 and len(ends[p[-1]]) == 2]
            for paths in self.colls
        ]
        # collection c has an entry keyed -size_key[c], and size_key[c] is at
        # least its size: growth pushes a new key, `largest` lowers stale ones
        self.size_key = [len(paths) for paths in self.colls]
        self.by_size = [(-n, c) for c, n in enumerate(self.size_key)]
        heapify(self.by_size)

    @property
    def k(self) -> int:
        return len(self.colls)

    def system(self) -> PathSystem:
        return PathSystem(
            [[p for _, p in sorted(c.items())] for c in self.colls], self.next_vertex
        )

    def is_two(self, v: int) -> bool:
        return len(self.ends[v]) == 2

    def other(self, v: int, not_this: Entry) -> Entry:
        ents = self.ends[v]
        if len(ents) != 2 or not_this not in ents:
            raise InternalInvariantError(f"endpoint {v} is not type II")
        return ents[1] if ents[0] == not_this else ents[0]

    def _retarget(self, v: int, old: Entry, new: Entry) -> None:
        """Hand old's entry at v to new; v keeps its type."""
        ents = self.ends[v]
        ents[ents.index(old)] = new

    def _drop(self, v: int, ent: Entry) -> None:
        ents = self.ends[v]
        ents.remove(ent)
        if not ents:
            del self.ends[v]

    def _settle(self, c: int, pid: int, p: Path) -> None:
        """Count a new path of collection c whose ends are all linked."""
        n0, n1 = len(self.ends[p[0]]), len(self.ends[p[-1]])
        if n0 == 1 and n1 == 1:
            self.lonely[c] += 1
        elif n0 == 2 and n1 == 2:
            heappush(self.both_two[c], pid)
        self._dirty.append(c)

    def _new_id(self, c: int, first: bool = False) -> int:
        """A fresh id placing its path last in collection c, or first."""
        if first:
            self._front -= 1
            pid = self._front
        else:
            pid = self._ids
            self._ids += 1
        heappush(self.order[c], pid)
        return pid

    def well_distributed(self) -> bool:
        for c in self._dirty:
            flag = self.lonely[c] > 0 and len(self.colls[c]) > 1
            if flag != self.flagged[c]:
                self.flagged[c] = flag
                self.bad += 1 if flag else -1
        self._dirty.clear()
        return self.counts_ok and not self.bad

    def require_well_distributed(self, move: str) -> None:
        if not self.well_distributed():
            raise ValueError(f"{move} would break well-distributedness")

    def largest(self) -> int:
        """The largest collection, the lowest index among equals."""
        heap, size_key = self.by_size, self.size_key
        while True:
            key, c = heap[0]
            n = len(self.colls[c])
            if -key != size_key[c]:
                heappop(heap)  # superseded by a later push for c
            elif n == size_key[c]:
                return c
            else:
                size_key[c] = n
                heapreplace(heap, (-n, c))

    def first_two(self, c: int) -> tuple[int, int]:
        """Ids of the first two paths of collection c."""
        heap, paths = self.order[c], self.colls[c]
        while heap[0] not in paths:
            heappop(heap)
        first = heappop(heap)
        while heap[0] not in paths:
            heappop(heap)
        second = heap[0]
        heappush(heap, first)
        return first, second

    def first_both_two(self, c: int) -> int:
        """Id of the first path of collection c with two type II ends."""
        heap, paths, ends = self.both_two[c], self.colls[c], self.ends
        while heap:
            p = paths.get(heap[0])
            if p is not None and len(ends[p[0]]) == 2 and len(ends[p[-1]]) == 2:
                return heap[0]
            heappop(heap)
        raise InternalInvariantError(f"collection {c} has no path with two type II ends")

    def join(self, u: int, v: int) -> None:
        """Merge the two path pairs meeting at u and v with a doubled edge uv."""
        eu, ev = self.ends.get(u, ()), self.ends.get(v, ())
        if len(eu) != 2 or len(ev) != 2:
            raise ValueError("join needs two type II endpoints")
        (i, pi_u), (j, pj_u) = sorted(eu)
        (i2, pi_v), (j2, pj_v) = sorted(ev)
        if i == j or (i, j) != (i2, j2):
            raise ValueError("join endpoints must be shared by the same two collections")
        if pi_u == pi_v or pj_u == pj_v:
            raise ValueError("join needs four distinct paths")
        coll_i, coll_j = self.colls[i], self.colls[j]
        old = (coll_i[pi_u], coll_i[pi_v], coll_j[pj_u], coll_j[pj_v])
        merged_i = _orient_end(old[0], u) + _orient_start(old[1], v)
        merged_j = _orient_end(old[2], u) + _orient_start(old[3], v)
        far = [p[-1] if p[0] == shared else p[0] for p, shared in zip(old, (u, v, u, v))]
        # Orienting a path keeps its edge multiset, so each merged path holds
        # the edges of its two old paths plus the one seam edge between them,
        # and the untouched paths are unchanged.  The XOR of the system thus
        # changes by {seam_i} ^ {seam_j}: it is unchanged exactly when the two
        # seams are one edge, and both being uv makes that edge the doubled
        # edge the move adds.  Each merged path must also end at the far ends
        # of its old paths, whose entries it takes over.
        si, sj = len(old[0]), len(old[2])
        if (merged_i[0], merged_i[si - 1], merged_i[si], merged_i[-1]) != (
            far[0], u, v, far[1]
        ) or (merged_j[0], merged_j[sj - 1], merged_j[sj], merged_j[-1]) != (
            far[2], u, v, far[3]
        ):
            raise InternalInvariantError("join changed the XOR of the system")
        # u and v (type II, ending only the four old paths) vanish, and each
        # far end passes from its old path to the merged one: no vertex
        # changes type, and no old path was lonely, having a type II end.
        ni = self._join_through(i, pi_u, pi_v, u, v, merged_i)
        nj = self._join_through(j, pj_u, pj_v, u, v, merged_j)
        self._settle(i, ni, merged_i)
        self._settle(j, nj, merged_j)
        self.require_well_distributed("join")

    def insert(self, u: int, ci: int, cr: int) -> tuple[int, int, int]:
        """Subdivide the terminal edge at u of the collection-ci path and
        donate the new one-edge piece to collection cr; returns (z, u, z')."""
        ents = self.ends.get(u, ())
        if len(ents) != 2:
            raise ValueError("insert needs a type II endpoint")
        if self.k < 3:
            raise ValueError("insert needs at least three collections")
        (c1, p1), (c2, p2) = ents
        if ci == c1:
            pi, cj = p1, c2
        elif ci == c2:
            pi, cj = p2, c1
        else:
            raise ValueError(f"collection {ci} has no path ending at {u}")
        if cr in (ci, cj):
            raise ValueError("receiving collection must differ from both sharers")
        if 2 * len(self.colls[cr]) == self.ones[cr]:
            raise ValueError("receiving collection has no type II endpoint")
        path = self.colls[ci][pi]
        z_new = self.next_vertex
        # Trading the terminal edge uz for zz' and donating z'u changes the
        # XOR by exactly {uz, zz', z'u} when u is an end of the path and z its
        # neighbour there; at an inner u the edge dropped would not be uz.
        if path[0] == u:
            z, replaced = path[1], (z_new,) + path[1:]
        elif path[-1] == u:
            z, replaced = path[-2], path[:-1] + (z_new,)
        else:
            raise InternalInvariantError("insert changed the XOR inconsistently")
        # u stays type II with the piece in place of the path, and the new z'
        # is type II too; the path keeps its far end, so no type changes.
        piece = self._new_id(cr)
        self.colls[ci][pi] = replaced
        self.colls[cr][piece] = (z_new, u)
        self._retarget(u, (ci, pi), (cr, piece))
        self.ends[z_new] = [(ci, pi), (cr, piece)]
        self.total += 1
        self.next_vertex += 1
        self._settle(cr, piece, (z_new, u))
        if len(self.colls[cr]) > self.size_key[cr]:
            self.size_key[cr] = len(self.colls[cr])
            heappush(self.by_size, (-self.size_key[cr], cr))
        self.require_well_distributed("insert")
        return z, u, z_new

    def meet(self, u: int, v: int) -> int:
        """Merge the components of one forest ending at u and v through a new
        vertex w, and end a witness path of another forest at w on each
        side; returns w.  The collections are forests here, so a vertex may
        end any number of paths; the type counts are left as they were."""
        at_u = {c: pid for c, pid in self.ends.get(u, ())}
        at_v = {c: pid for c, pid in self.ends.get(v, ())}
        hosts = [c for c in at_u if c in at_v and at_u[c] != at_v[c]]
        if not hosts:
            raise ValueError(
                f"{u} and {v} are not endpoints of two components of one forest"
            )
        i = min(hosts)
        others_u = sorted(e for e in self.ends[u] if e[0] != i)
        others_v = sorted(e for e in self.ends[v] if e[0] != i)
        pick = next(
            ((e1, e2) for e1 in others_u for e2 in others_v if e1 != e2), None
        )
        if pick is None:
            raise ValueError("no two distinct witness paths meet u and v")
        (j1, q1), (j2, q2) = pick
        w = self.next_vertex
        # Each new path is old paths, whole or reversed, plus edges at w:
        # merged gains uw and wv, and the witness paths gain uw and wv between
        # them (glued into one path when they share a forest).  Each edge at w
        # then lands twice and cancels, so the XOR is unchanged exactly when
        # every seam reads u-w-v, u-w or v-w.  A new path must also keep the
        # far ends of its old paths, whose entries it takes over.
        old_u, old_v = self.colls[i][at_u[i]], self.colls[i][at_v[i]]
        wit_u, wit_v = self.colls[j1][q1], self.colls[j2][q2]
        far = [
            p[-1] if p[0] == x else p[0]
            for p, x in ((old_u, u), (old_v, v), (wit_u, u), (wit_v, v))
        ]
        merged = _orient_end(old_u, u) + (w,) + _orient_start(old_v, v)
        s = len(old_u)
        ok = (merged[0], merged[-1]) == (far[0], far[1])
        ok = ok and merged[s - 1 : s + 2] == (u, w, v)
        if j1 == j2:
            glued = _orient_end(wit_u, u) + (w,) + _orient_start(wit_v, v)
            s = len(wit_u)
            ok = ok and (glued[0], glued[-1]) == (far[2], far[3])
            ok = ok and glued[s - 1 : s + 2] == (u, w, v)
        else:
            new_u = _orient_end(wit_u, u) + (w,)
            new_v = _orient_end(wit_v, v) + (w,)
            ok = ok and new_u[0] == far[2] and new_u[-2:] == (u, w)
            ok = ok and new_v[0] == far[3] and new_v[-2:] == (v, w)
        if not ok:
            raise InternalInvariantError("meet changed the XOR of the forests")
        self._join_through(i, at_u[i], at_v[i], u, v, merged, first=True)
        if j1 == j2:
            self._join_through(j1, q1, q2, u, v, glued)
        else:
            self.colls[j1][q1], self.colls[j2][q2] = new_u, new_v
            self._drop(u, (j1, q1))
            self._drop(v, (j2, q2))
            self.ends[w] = [(j1, q1), (j2, q2)]
        self.next_vertex = w + 1
        return w

    def _join_through(
        self, c: int, pu: int, pv: int, u: int, v: int, merged: Path, first: bool = False
    ) -> int:
        """Replace the paths pu (ending at u) and pv (ending at v) of
        collection c by `merged`, which runs between their far ends; returns
        its id."""
        new = self._new_id(c, first)
        del self.colls[c][pu], self.colls[c][pv]
        self.colls[c][new] = merged
        self.total -= 1
        self._retarget(merged[0], (c, pu), (c, new))
        self._retarget(merged[-1], (c, pv), (c, new))
        self._drop(u, (c, pu))
        self._drop(v, (c, pv))
        return new


def _counts_ok(ones: list[int]) -> bool:
    """The count clauses of well-distributedness, given each collection's
    number of type I endpoints."""
    return max(ones, default=0) <= 2 and not (2 in ones and 0 in ones)


def _terminal_edge(p: Path, v: int) -> Edge:
    return norm_edge(p[1], v) if p[0] == v else norm_edge(p[-2], v)


def _validated_index(sys: PathSystem) -> _EndpointIndex:
    """Index of a valid path system; raises ValueError at the first defect.

    Checks every clause: nonempty collections of simple paths that are
    vertex-disjoint within each collection, and every endpoint either type
    I or type II, a type II endpoint lying inside no path.
    """
    inner: set[int] = set()  # interior vertices of all paths
    for ci, coll in enumerate(sys.collections):
        if not coll:
            raise ValueError(f"collection {ci} is empty")
        seen: set[int] = set()
        for p in coll:
            vs = set(p)
            if len(p) < 2 or len(vs) != len(p):
                raise ValueError(f"invalid path {p}")
            if not seen.isdisjoint(vs):
                raise ValueError(f"collection {ci} paths share vertices")
            seen |= vs
            inner.update(p[1:-1])
    idx = _EndpointIndex(sys)
    for v, ents in idx.ends.items():
        if len(ents) == 2:
            (c1, p1), (c2, p2) = ents
            if c1 == c2:
                raise ValueError(f"endpoint {v} shared within one collection")
            t1 = _terminal_edge(idx.colls[c1][p1], v)
            t2 = _terminal_edge(idx.colls[c2][p2], v)
            if t1 == t2:
                raise ValueError(f"endpoint {v} has identical terminal edges")
            if v in inner:
                raise ValueError(f"type II endpoint {v} appears inside another path")
        elif len(ents) > 2:
            raise ValueError(f"endpoint {v} belongs to {len(ents)} paths")
    return idx


def classify_endpoints(sys: PathSystem) -> dict[int, str]:
    """Map endpoint -> 'I' | 'II'; raises if the system is not valid.

    Also enforces vertex-disjointness within each collection and the
    "appears in no other path" clause for type II endpoints.
    """
    return {
        v: "I" if len(ents) == 1 else "II"
        for v, ents in _validated_index(sys).ends.items()
    }


def is_well_distributed(sys: PathSystem) -> bool:
    return _validated_index(sys).well_distributed()


def _orient_end(p: Path, v: int) -> Path:
    return p if p[-1] == v else p[::-1]


def _orient_start(p: Path, v: int) -> Path:
    return p if p[0] == v else p[::-1]


def join(sys: PathSystem, u: int, v: int) -> PathSystem:
    """Merge the two path pairs meeting at u and v with a doubled edge uv.

    u and v must be type II endpoints shared by the same two collections in
    four distinct paths; the total path count drops by two and the edge-set
    XOR is unchanged.
    """
    idx = _validated_index(sys)
    idx.join(u, v)
    return idx.system()


def insert(
    sys: PathSystem, u: int, ci: int, cr: int
) -> tuple[PathSystem, tuple[int, int, int]]:
    """Subdivide the terminal edge at u of the collection-ci path and donate
    the new one-edge piece to collection cr.

    Returns the new system and the subdivision event (z, u, z') recording
    that edge zu became z-z'-u.  The path count grows by one.
    """
    idx = _validated_index(sys)
    event = idx.insert(u, ci, cr)
    return idx.system(), event


def reduce_system(
    sys: PathSystem,
) -> tuple[PathSystem, list[tuple[int, int, int]]]:
    """Compress a well-distributed system until every collection is one path.

    Follows the structural case split on the largest collection; each round
    applies join once, possibly preceded by one insert, so the total path
    count strictly decreases.  Returns the final system and the list of
    subdivision events performed by inserts.

    The index that validates the input is the one the moves run on; each
    move checks only the paths it touches, and the whole system is validated
    and its XOR compared once at entry and once at exit.
    """
    idx = _validated_index(sys)
    if not idx.well_distributed():
        raise ValueError("system is not well-distributed")
    start = sys.parity_edges()
    events: list[tuple[int, int, int]] = []
    try:
        _reduce(idx, events)
        out = idx.system()
        types = classify_endpoints(out)
    except ValueError as exc:  # the input was valid, so this is a bug
        raise InternalInvariantError(f"reduction failed: {exc}") from exc
    # k paths in k nonempty collections: each collection is one path, so of
    # the three clauses only the counts can fail
    ones = [
        sum(types[v] == "I" for p in coll for v in (p[0], p[-1]))
        for coll in out.collections
    ]
    if not _counts_ok(ones):
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
        c1 = idx.largest()
        coll1 = idx.colls[c1]

        if len(coll1) >= 3:
            p_idx = idx.first_both_two(c1)
            # well-distributedness leaves no path here with two type I ends,
            # so the first path other than P has a type II end
            first, second = idx.first_two(c1)
            pp_idx = second if first == p_idx else first
            pp = coll1[pp_idx]
            u = pp[0] if two(pp[0]) else pp[-1]
            if not two(u):
                raise InternalInvariantError(f"path {pp} has two type I ends")
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
            a, b = idx.first_two(c1)
            p, pp = coll1[a], coll1[b]
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


def _seed_collections(g: Graph, k: int) -> list[list[Path]]:
    """k-color the 3-subdivision of g so the color classes form a
    well-distributed path k-system; returns each class's paths, and raises
    ValueError if a class is no linear forest.

    Sorted edge i = (u, v) becomes the chain u, g.n + 2i, g.n + 2i + 1, v,
    and each stub and middle edge goes straight into its class.  At every
    original vertex of even degree the incident stubs are paired per color;
    the j-th odd vertex gets one stub of color j mod k and pairs for the
    rest.  Every middle edge takes a color distinct from its first stub (and
    from both stubs when k >= 3), so classes decompose into paths of length
    at most two and monochromatic cycles are impossible.  Each pick is the
    r-th colour of range(k) minus one or two colours, found by index
    arithmetic in O(1).
    """
    n, edges = g.n, sorted(g.edges)
    # sorted edge order lists each vertex's stubs by ascending neighbour
    stubs: list[list[int]] = [[] for _ in range(n)]
    for i, (u, v) in enumerate(edges):
        stubs[u].append(n + 2 * i)
        stubs[v].append(n + 2 * i + 1)
    classes: list[list[Edge]] = [[] for _ in range(k)]
    stub_color = [0] * (2 * len(edges))  # of the stub ending at new vertex n + j
    odd = 0
    for v, ends in enumerate(stubs):
        lone, s = len(ends) % 2, k  # s: the lone stub's colour, which pairs skip
        if lone:
            s = odd % k
            odd += 1
        for t, x in enumerate(ends):
            c = (t - lone) // 2  # the pair x is in, -1 for the lone stub
            c = s if c < 0 else c + (c >= s)  # the c-th colour other than s
            stub_color[x - n] = c
            classes[c].append((v, x))
    spread = 0
    for i in range(len(edges)):
        cu, cv = stub_color[2 * i], stub_color[2 * i + 1]
        lo, hi = min(cu, cv), max(cu, cv)
        free = k - 1 - (lo != hi)  # colours other than cu and cv
        if free:
            cm = spread % free  # the cm-th free colour: step over lo, then hi
            spread += 1
            if cm >= lo:
                cm += 1
                if lo != hi and cm >= hi:
                    cm += 1
        else:
            cm = 1 if cu == 0 else 0
        classes[cm].append((n + 2 * i, n + 2 * i + 1))
    return [linear_forest_components(n + 2 * len(edges), c) for c in classes]


def _reduced_topological_paths(g: Graph, k: int) -> tuple[list[Path], int]:
    """k reduced paths over a subdivision of g, and its vertex count."""
    try:
        sys, _ = reduce_system(PathSystem(_seed_collections(g, k), g.n + 2 * g.m))
    except ValueError as exc:  # a class is no linear forest, or the entry check failed
        raise InternalInvariantError("subdivision coloring is not well-distributed") from exc
    return [coll[0] for coll in sys.collections], sys.next_vertex


def _certified_subdivision(
    g: Graph, members: list[Path], n: int, kind: str, count_ok: bool, what: str
) -> tuple[Graph, OddCover, dict[Edge, list[int]]]:
    """The exit of both subdivision covers: H, the certified cover of H and
    the chain map, all read off the members.

    H is the XOR of the members on n vertices.  The walks from each original
    vertex through new vertices (ids >= g.n) of degree 2 must be exactly g's
    edges and hold every new vertex once: then H subdivides g, and the walks
    are its chains, in sorted edge order.
    """
    bad = f"{what}: the members do not odd-cover a subdivision"
    try:
        h = Graph(n, odd_edges(members, closed=kind == "cycle"))
    except ValueError as exc:
        raise InternalInvariantError(bad) from exc
    adj = h.adjacency()
    found: list[tuple[Edge, list[int]]] = []
    read = bytearray(n)  # the new vertices of the walks so far
    for u in range(g.n):
        for x in adj[u]:
            if x < u or read[x]:
                continue  # the walk was read from its other end
            chain = [u]
            while x >= g.n and len(adj[x]) == 2:
                read[x] = 1
                chain.append(x)
                a, b = adj[x]
                x = b if a == chain[-2] else a
            chain.append(x)
            found.append(((u, x), chain))
    chains = dict(sorted(found))
    if len(chains) != len(found) or chains.keys() != g.edges or read.count(1) != n - g.n:
        raise InternalInvariantError(bad)
    return h, certified(OddCover(h, members, kind), count_ok, what), chains


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
    members: list[Path] = []
    n = g.n
    if k == 1:
        members, cycles = degree2_components(g.n, g.edges)
        if len(members) != 1 or cycles:
            raise ValueError("graph is not a single path")
    elif k >= 2:
        members, n = _reduced_topological_paths(g, k)
    return _certified_subdivision(g, members, n, "path", len(members) == k, "topological cover")


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
    forests: the system has no type I endpoints, so its reduction only joins
    (an insert would add a vertex).
    """
    if not g.is_even():
        raise ValueError("two-forest compression needs all degrees even")
    if g.m == 0:
        raise ValueError("graph has no edges")
    comps = _check_forest_partition(g, [forest1, forest2])
    sys, events = reduce_system(PathSystem(comps, g.n))
    if events:
        raise InternalInvariantError("two-forest compression subdivided an edge")
    p, q = (coll[0] for coll in sys.collections)
    if odd_edges((p, q)) != g.edges:
        raise InternalInvariantError("two-forest compression failed self-check")
    return TwoPaths(p, q)


def meet(state: PathSystem, u: int, v: int) -> PathSystem:
    """Merge two components of one forest through a new isolated vertex.

    The collections of `state` are linear forests.  u and v must be
    endpoints of two distinct components P, P' of the same forest, each
    also met there by a path from some other forest (distinct ones for u and
    v); the new vertex w receives edges uw and vw, each landing in two
    forests so the XOR is unchanged, and P-w-P' becomes one component, the
    first of its forest.
    """
    before = state.parity_edges()
    idx = _EndpointIndex(state)
    idx.meet(u, v)
    out = idx.system()
    if out.parity_edges() != before:
        raise InternalInvariantError("meet changed the XOR of the forests")
    return out


def iso_cover_from_forests(
    g: Graph, forests: Sequence[Iterable[Edge]]
) -> OddCover:
    """Turn a k-linear-forest partition of an even-degree graph into a
    k-path odd-cover over g plus added isolated vertices.

    Repeatedly merges the first two components of the first forest with
    several through a fresh vertex (the meet move): the two new edges each
    land in two forests and cancel.
    """
    if not g.is_even():
        raise ValueError("forest stitching needs all degrees even")
    idx = _EndpointIndex(PathSystem(_check_forest_partition(g, forests), g.n))
    i = 0
    while True:
        # meets never grow a forest, so the first one with several
        # components only moves forward
        while i < idx.k and len(idx.colls[i]) == 1:
            i += 1
        if i == idx.k:
            break
        a, b = idx.first_two(i)

        def anchored(path: Path) -> list[tuple[int, Entry]]:
            return [
                (end, e)
                for end in (path[0], path[-1])
                for e in sorted(idx.ends[end])
                if e[0] != i
            ]

        u, v = next(
            (uu, vv)
            for uu, e1 in anchored(idx.colls[i][a])
            for vv, e2 in anchored(idx.colls[i][b])
            if e1 != e2
        )
        idx.meet(u, v)
    members = [next(iter(coll.values())) for coll in idx.colls]
    target = Graph(idx.next_vertex, g.edges)
    cover = OddCover(target, members, "path")
    return certified(cover, cover.count == len(forests), "forest stitching")


def cycle_iso_cover(g: Graph, forests: Sequence[Iterable[Edge]]) -> OddCover:
    """Close a forest-stitched path cover into cycles through one apex vertex.

    Every vertex of an even-degree graph occurs an even number of times as a
    path endpoint, so the closing edges through the apex cancel pairwise.
    """
    base = iso_cover_from_forests(g, forests)
    w = base.target.n
    members = [tuple(p) + (w,) for p in base.members]
    target = Graph(w + 1, g.edges)
    return certified(OddCover(target, members, "cycle"), True, "apex closing")


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
    members: list[Path] = []
    n, what = g.n, "cycle cover of subdivision"
    if delta == 2:
        _, members = degree2_components(g.n, g.edges)
        if len(members) >= 2:
            raise ValueError("union of two or more disjoint cycles is excluded")
        what = "single-cycle cover"
    elif g.m:
        members, n = _closed_cycles(*_reduced_topological_paths(g, delta // 2))
    return _certified_subdivision(g, members, n, "cycle", len(members) <= delta // 2, what)


def _closed_cycles(reduced: list[Path], nxt: int) -> tuple[list[Path], int]:
    """Close reduced paths with no type I endpoints into cycles, subdividing
    with new vertices from nxt on; returns the cycles and the vertex count."""
    # Live paths by id; a new path takes the next id, so ascending ids are
    # the order the paths were made.  ends[x] holds the ids of the live
    # paths ending at x, and the lazy heap `longs` the ids of paths on >= 3
    # vertices: its least live id is the next base.
    paths: dict[int, Path] = {}
    ends: dict[int, set[int]] = {}
    longs: list[int] = []
    ids = count()

    def add(p: Sequence[int]) -> None:
        i = next(ids)
        paths[i] = p = tuple(p)
        for x in (p[0], p[-1]):
            ends.setdefault(x, set()).add(i)
        if len(p) >= 3:
            heappush(longs, i)

    def drop(i: int) -> Path:
        p = paths.pop(i)
        ends[p[0]].discard(i)
        ends[p[-1]].discard(i)
        return p

    def partner(x: int) -> int:
        if len(ends[x]) != 1:
            raise InternalInvariantError("endpoint lost its partner")
        return next(iter(ends[x]))

    for p in reduced:
        add(p)
    cycles_out: list[Path] = []
    while paths:
        while longs and longs[0] not in paths:
            heappop(longs)
        if not longs:
            raise InternalInvariantError("only single-edge paths remain")
        base = drop(heappop(longs))
        u, v = base[0], base[-1]
        pu, pv = partner(u), partner(v)
        cycles_out.append(base)
        if pu == pv:
            other = drop(pu)
            if len(other) >= 3:
                cycles_out.append(other)
        else:
            add((nxt,) + _orient_start(drop(pu), u)[1:])
            add((nxt, u) + _orient_start(drop(pv), v))
            nxt += 1
    return cycles_out, nxt
