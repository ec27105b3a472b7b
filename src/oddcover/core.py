"""Graph, path, and cycle primitives with GF(2) edge-set algebra.

A graph lives on a fixed vertex universe {0, ..., n-1}, and a collection of
paths (or cycles) odd-covers it when the XOR of their edge sets equals the
graph's edge set -- every edge hit an odd number of times, every nonedge an
even number.  Covers may freely use nonedges of the target; that freedom is
what separates odd-covers from ordinary path decompositions.  The solvers
work on edge sets: a `Graph` holds a frozenset of edges, and `odd_edges`
and `verify_cover` take parities with sets.

Conventions:
  Vertices are ints 0..n-1.  Edges are normalized tuples (u, v) with u < v.
  Paths and cycles are tuples of distinct vertex ids (a cycle does not
  repeat its first vertex at the end).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

Edge = tuple[int, int]


class InternalInvariantError(RuntimeError):
    """A structural guarantee failed; indicates a bug, not bad input."""


def norm_edge(u: int, v: int) -> Edge:
    if u == v:
        raise ValueError(f"self-loop at vertex {u}")
    return (u, v) if u < v else (v, u)


class Graph:
    """Simple undirected graph on the fixed universe {0, ..., n-1}.

    Isolated vertices are first-class: covers routinely route paths through
    vertices that carry no edges.
    """

    __slots__ = ("n", "edges")

    def __init__(self, n: int, edges: Iterable[Edge] = ()):
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        es = set()
        for u, v in edges:
            e = norm_edge(u, v)
            if e[1] >= n or e[0] < 0:
                raise ValueError(f"edge {e} outside universe of size {n}")
            if e in es:
                raise ValueError(f"duplicate edge {e}")
            es.add(e)
        self.n = n
        self.edges: frozenset[Edge] = frozenset(es)

    @property
    def m(self) -> int:
        return len(self.edges)

    def __eq__(self, other) -> bool:
        return isinstance(other, Graph) and self.n == other.n and self.edges == other.edges

    def __hash__(self) -> int:
        return hash((self.n, self.edges))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"

    def has_edge(self, u: int, v: int) -> bool:
        return norm_edge(u, v) in self.edges

    def adjacency(self) -> list[list[int]]:
        """The neighbours of each vertex, every row sorted."""
        adj: list[list[int]] = [[] for _ in range(self.n)]
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        for row in adj:
            row.sort()
        return adj

    def degrees(self) -> list[int]:
        deg = [0] * self.n
        for u, v in self.edges:
            deg[u] += 1
            deg[v] += 1
        return deg

    def xor(self, edges: Iterable[Edge]) -> "Graph":
        """Graph whose edge set is the symmetric difference with `edges`."""
        es = set(self.edges)
        for u, v in edges:
            e = norm_edge(u, v)
            if e in es:
                es.remove(e)
            else:
                es.add(e)
        return Graph(self.n, es)

    def remove_edges(self, edges: Iterable[Edge]) -> "Graph":
        drop = {norm_edge(u, v) for u, v in edges}
        missing = drop - self.edges
        if missing:
            raise ValueError(f"edges not present: {sorted(missing)}")
        return Graph(self.n, self.edges - drop)

    def is_even(self) -> bool:
        """All degrees even (the structural prerequisite for cycle covers)."""
        return all(d % 2 == 0 for d in self.degrees())


def path_edges(vertices: Sequence[int]) -> list[Edge]:
    return [norm_edge(vertices[i], vertices[i + 1]) for i in range(len(vertices) - 1)]


def cycle_edges(vertices: Sequence[int]) -> list[Edge]:
    k = len(vertices)
    return [norm_edge(vertices[i], vertices[(i + 1) % k]) for i in range(k)]


def check_path(
    vertices: Sequence[int], n: int | None = None, closed: bool = False
) -> None:
    """Validate a path (a cycle when closed): at least 2 (3) distinct
    vertices, all inside the universe."""
    kind, least = ("cycle", 3) if closed else ("path", 2)
    if len(vertices) < least:
        raise ValueError(f"{kind} needs at least {least} vertices, got {list(vertices)}")
    if len(set(vertices)) != len(vertices):
        raise ValueError(f"{kind} repeats a vertex: {list(vertices)}")
    if n is not None and any(v < 0 or v >= n for v in vertices):
        raise ValueError(f"{kind} leaves universe of size {n}: {list(vertices)}")


def odd_edges(members: Iterable[Sequence[int]], closed: bool = False) -> set[Edge]:
    """Edges traversed an odd number of times by the members, read as paths
    (as cycles when closed): the XOR of their edge sets.

    Parity is toggled edge by edge, so a walk that repeats an edge counts
    every traversal.
    """
    edges_of = cycle_edges if closed else path_edges
    odd: set[Edge] = set()
    for vs in members:
        for e in edges_of(vs):
            if e in odd:
                odd.remove(e)
            else:
                odd.add(e)
    return odd


def degree2_components(
    n: int, edges: Iterable[Edge]
) -> tuple[list[tuple[int, ...]], list[tuple[int, ...]]]:
    """(paths, cycles): the components of a graph of maximum degree <= 2.

    Paths start at their smaller end.  Cycles start at their smallest vertex
    and step first to its smaller neighbour.  Both lists are sorted, and
    isolated vertices appear in neither.  Raises ValueError at a vertex of
    degree 3 or more, or at one outside the universe {0, ..., n-1}.
    """
    adj: dict[int, list[int]] = {}
    for u, v in {norm_edge(u, v) for u, v in edges}:
        for a, b in ((u, v), (v, u)):
            if not 0 <= a < n:
                raise ValueError(f"vertex {a} outside universe of size {n}")
            row = adj.setdefault(a, [])
            row.append(b)
            if len(row) > 2:
                raise ValueError(f"degree {len(row)} at {a}: maximum degree exceeds 2")
    seen: set[int] = set()

    def walk(start: int, first: int) -> tuple[int, ...]:
        out = [start]
        prev, cur = start, first
        while cur != start:
            out.append(cur)
            nxt = [w for w in adj[cur] if w != prev]
            if not nxt:
                break
            prev, cur = cur, nxt[0]
        seen.update(out)
        return tuple(out)

    ends = sorted(v for v, row in adj.items() if len(row) == 1)
    paths = [walk(s, adj[s][0]) for s in ends if s not in seen]
    cycles = [walk(s, min(adj[s])) for s in sorted(adj) if s not in seen]
    return sorted(paths), cycles


def degree_profile(g: Graph) -> tuple[int, int, list[int]]:
    """(max degree, number of odd-degree vertices, sorted odd vertices)."""
    deg = g.degrees()
    odd = [v for v in range(g.n) if deg[v] % 2 == 1]
    return (max(deg, default=0), len(odd), odd)


@dataclass
class OddCover:
    """A claimed odd-cover: members XOR to the target's edge set."""

    target: Graph
    members: list[tuple[int, ...]]
    kind: str = "path"  # "path" | "cycle"

    @property
    def count(self) -> int:
        return len(self.members)


@dataclass
class VerificationReport:
    valid: bool
    member_errors: list[str] = field(default_factory=list)
    xor_ok: bool = False
    missing_edges: list[Edge] = field(default_factory=list)
    excess_edges: list[Edge] = field(default_factory=list)


def verify_cover(cover: OddCover) -> VerificationReport:
    """Check an odd-cover claim; failures are reported, never raised.

    The XOR test toggles per-edge parity (odd_edges), so it is independent
    of the bitset algebra the oracle searches in.
    """
    if cover.kind not in ("path", "cycle"):
        return VerificationReport(valid=False, member_errors=[f"unknown kind {cover.kind!r}"])
    closed = cover.kind == "cycle"
    errors = []
    members = []
    for i, vs in enumerate(cover.members):
        try:
            check_path(vs, cover.target.n, closed)
        except ValueError as exc:
            errors.append(f"member {i}: {exc}")
            continue
        members.append(vs)
    odd = odd_edges(members, closed)
    missing = sorted(cover.target.edges - odd)
    excess = sorted(odd - cover.target.edges)
    xor_ok = not missing and not excess
    return VerificationReport(
        valid=xor_ok and not errors,
        member_errors=errors,
        xor_ok=xor_ok,
        missing_edges=missing,
        excess_edges=excess,
    )


def certified(cover: OddCover, count_ok: bool, what: str) -> OddCover:
    """The exit of every public solver: the cover, once its count holds and
    verify_cover accepts it; otherwise InternalInvariantError naming `what`."""
    if count_ok and verify_cover(cover).valid:
        return cover
    raise InternalInvariantError(f"{what} failed self-check")


MAX_DENSITY_N = 12  # largest n the subset scan of max_subgraph_density accepts


def max_subgraph_density(g: Graph) -> int:
    """ceil of max over subgraphs H (v(H) >= 2) of e(H) / (v(H) - 1).

    The maximum of the ratio is attained on an induced subgraph, so vertex
    subsets suffice.  Exponential in n; guarded by MAX_DENSITY_N.
    """
    if g.n > MAX_DENSITY_N:
        raise ValueError(f"density bound needs n <= {MAX_DENSITY_N}, got n={g.n}")
    adj_bits = [0] * g.n
    for u, v in g.edges:
        adj_bits[u] |= 1 << v
        adj_bits[v] |= 1 << u
    best_num, best_den = 0, 1  # max of num/den as a fraction
    for s in range(1, 1 << g.n):
        nv = s.bit_count()
        if nv < 2:
            continue
        ne = 0
        t = s
        while t:
            low = t & -t
            v = low.bit_length() - 1
            ne += (adj_bits[v] & s).bit_count()
            t ^= low
        ne //= 2
        if ne * best_den > best_num * (nv - 1):
            best_num, best_den = ne, nv - 1
    return -(-best_num // best_den)  # ceil


def lower_bound(g: Graph) -> int:
    """Floor on the path odd-cover number.

    Each path has at most two odd-degree vertices and maximum degree 2, so
    max{v_odd/2, ceil(delta/2)} paths are always necessary.  For
    n <= MAX_DENSITY_N, callers raise it to max_subgraph_density(g), the
    Nash-Williams arboricity bound.
    """
    return degree_bounds(g)[0]


def degree_bound(g: Graph) -> int:
    """max{v_odd/2, 2*ceil(delta/2)}: the path count the degree pipeline
    (path_odd_cover) never exceeds."""
    return degree_bounds(g)[1]


def degree_bounds(g: Graph) -> tuple[int, int]:
    """(lower_bound(g), degree_bound(g)) from one degree pass."""
    delta, v_odd, _ = degree_profile(g)
    half = -(-delta // 2)
    return max(v_odd // 2, half), max(v_odd // 2, 2 * half)
