"""Exact minimum odd-covers and linear-forest decompositions at desk scale.

Minimum path (or cycle) odd-covers are shortest XOR-combinations of the
generator vectors (all paths, or all cycles, on the universe) reaching the
target edge vector.  One lazy breadth-first search over the 2^C(n,2) edge
space fills a byte distance table and keeps each layer D, the vectors at
distance exactly D.  A minimum k splits as k = h + (k - h) with h =
ceil(k/2), so only layers up to h are built, and each k is tested from the
smaller side: some y in layer k - h has y ^ target at distance h.  At n = 7
(2^21 states, 6846 path generators) layer 2 holds 940 229 states and layer
1 only 6846, so k <= 3 never scans layer 2.  The witness is rebuilt by
walking each half back to 0 through the distance table.

The table is filled in numpy blocks of at most _BLOCK candidates.  Layer 2
is built from pairs of layer 1, each unordered pair once (23.4 M candidates
at n = 7 instead of 46.9 M), and every layer is read off the table, so a
fill holds about a MiB beside the table and layers it keeps.

Engines are cached per (n, kind): the table is target-independent, so
exhaustive sweeps over many graphs on the same universe reuse one search.

The search runs on a bitset view of the C(n, 2) vertex pairs: `edge_index`
maps pair (u, v) with u < v to bit u*n - u*(u+1)/2 + (v - u - 1), and
`_mask` ORs an edge set into a plain int, so oracle witnesses are
bit-exact across implementations.  `_generators(n, kind)` lists the path or
cycle generators once per universe, as masks and vertex sequences.

numpy is imported inside `_XorSearch` alone, so it loads on the first exact
query and `import oddcover` (and every CLI verb but `exact`) runs without it.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations, permutations
from typing import Iterable, Sequence

from .core import (
    Edge,
    Graph,
    InternalInvariantError,
    OddCover,
    certified,
    degree_profile,
    lower_bound,
    max_subgraph_density,
    norm_edge,
)

MAX_ORACLE_N = 7
MAX_FOREST_N = 10  # largest n the linear-forest backtracking accepts
_BLOCK = 1 << 16  # candidates per numpy call, and table slice, in _XorSearch


def edge_index(n: int, u: int, v: int) -> int:
    """Bit position of edge (u, v) in the C(n, 2)-bit edge vector."""
    u, v = norm_edge(u, v)
    if v >= n:
        raise ValueError(f"edge ({u},{v}) outside universe of size {n}")
    return u * n - u * (u + 1) // 2 + (v - u - 1)


def _mask(n: int, edges: Iterable[Edge]) -> int:
    """The C(n, 2)-bit vector of an edge set, as an int."""
    mask = 0
    for u, v in edges:
        mask |= 1 << edge_index(n, u, v)
    return mask


@lru_cache(maxsize=None)
def _generators(n: int, kind: str) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """(masks, seqs) of every path (kind "path") or cycle ("cycle") on n vertices.

    A path keeps the orientation with first vertex < last, a cycle starts at
    its smallest vertex with second vertex < last.  Both are listed by
    length, then in itertools order; witnesses index into this order.
    """
    if kind == "path":
        seqs = [
            perm
            for k in range(2, n + 1)
            for perm in permutations(range(n), k)
            if perm[0] < perm[-1]
        ]
    else:
        seqs = [
            (vs[0],) + perm
            for k in range(3, n + 1)
            for vs in combinations(range(n), k)
            for perm in permutations(vs[1:])
            if perm[0] < perm[-1]
        ]
    closed = kind == "cycle"
    masks = tuple(_mask(n, zip(s, s[1:] + s[:closed])) for s in seqs)
    return masks, tuple(seqs)


class _XorSearch:
    """Layered BFS over the edge space generated by a fixed vector set.

    Each numpy call XORs a block of frontier rows against the generators
    with `np.bitwise_xor.outer`, at most _BLOCK candidates at a time, and
    writes depth d into `dist` at the unseen ones.  Layer 1 is exactly the
    distinct nonzero generators, so layer 2 XORs pairs from layer 1 and
    takes each unordered pair once.  A finished layer is read off the table,
    `dist == d` in _BLOCK-sized slices, into one sorted uint32 array.  So an
    extension holds, beside what it keeps (`dist`, `layers`, `gens`), one
    block of intp candidates or one slice's indices: about a MiB.
    """

    def __init__(self, n_bits: int, masks: Sequence[int]):
        import numpy as np

        self.size = 1 << n_bits
        self.gens = np.asarray(masks, dtype=np.intp)  # intp gathers run fastest
        self.dist = np.full(self.size, 255, dtype=np.uint8)
        self.dist[0] = 0
        self.layers: list[np.ndarray] = [np.zeros(1, dtype=np.uint32)]
        self.exhausted = False

    def _extend(self) -> None:
        import numpy as np

        if self.exhausted:
            return
        frontier = self.layers[-1]
        d = len(self.layers)
        cols = frontier.astype(np.intp) if d == 2 else self.gens
        i = 0
        while i < len(frontier):
            # In layer 2 row i meets only the columns after it.
            rest = cols[i + 1 :] if d == 2 else cols
            rows = max(1, _BLOCK // max(1, len(rest)))
            cand = np.bitwise_xor.outer(frontier[i : i + rows], rest).ravel()
            self.dist[cand[self.dist[cand] == 255]] = d
            i += rows
        starts = range(0, self.size, _BLOCK)
        counts = [np.count_nonzero(self.dist[s : s + _BLOCK] == d) for s in starts]
        layer = np.empty(sum(counts), dtype=np.uint32)
        at = 0
        for s, c in zip(starts, counts):
            if c:
                layer[at : at + c] = np.flatnonzero(self.dist[s : s + _BLOCK] == d) + s
                at += c
        self.layers.append(layer)
        if layer.size == 0:
            self.exhausted = True

    def solve(self, target: int, max_k: int) -> tuple[int, list[int]] | None:
        """Fewest generators XORing to target, as (k, indices); None past max_k."""
        import numpy as np

        if target == 0:
            return 0, []
        t = np.uint32(target)
        for k in range(1, max_k + 1):
            h = (k + 1) // 2
            while len(self.layers) - 1 < h and not self.exhausted:
                self._extend()
            if len(self.layers) - 1 < h:
                # Exhausted: any reachable target sits at depth < h and was
                # met by an earlier k, so this one is unreachable.
                return None
            # Every k' < k is ruled out and dist is exact to depth h, so y in
            # the smaller layer k - h meets the target iff y ^ target is at h.
            small = self.layers[k - h]
            hits = small[self.dist[small ^ t] == h]
            if hits.size:
                # Always split, even if dist[target] == k already: the
                # witness then reads only depths <= h and depends on the
                # target alone, not on how deep earlier queries built the table.
                x = int((hits ^ t).min())
                return k, self._walk(x) + self._walk(x ^ target)
        return None

    def _walk(self, x: int) -> list[int]:
        out = []
        while x:
            step = self.dist[self.gens ^ x] == int(self.dist[x]) - 1
            gi = int(step.argmax())
            if not step[gi]:
                raise InternalInvariantError("witness walk lost its predecessor")
            out.append(gi)
            x ^= int(self.gens[gi])
        return out


@lru_cache(maxsize=None)
def _engine(n: int, kind: str) -> _XorSearch:
    return _XorSearch(n * (n - 1) // 2, _generators(n, kind)[0])


def _solve(g: Graph, kind: str, max_k: int | None) -> tuple[int, OddCover] | None:
    if g.n > MAX_ORACLE_N:
        raise ValueError(f"exact search capped at n <= {MAX_ORACLE_N}, got {g.n}")
    if g.n < 2:  # no pairs, so no edges
        cover = OddCover(g, [], kind)
        return 0, certified(cover, cover.count == 0, "oracle witness")
    budget = max_k if max_k is not None else max(1, g.m)
    eng = _engine(g.n, kind)
    res = eng.solve(_mask(g.n, g.edges), budget)
    if res is None:
        return None
    k, picks = res
    seqs = _generators(g.n, kind)[1]
    cover = OddCover(g, [seqs[i] for i in picks], kind)
    return k, certified(cover, cover.count == k, "oracle witness")


def exact_p2(g: Graph, max_k: int | None = None) -> tuple[int, OddCover] | None:
    """Minimum path odd-cover with witness; None when it exceeds max_k."""
    res = _solve(g, "path", max_k)
    if res is not None and res[0] < lower_bound(g):
        raise InternalInvariantError("oracle beat the degree lower bound")
    return res


def exact_c2(g: Graph, max_k: int | None = None) -> tuple[int, OddCover] | None:
    """Minimum cycle odd-cover with witness; requires all degrees even."""
    delta, v_odd, _ = degree_profile(g)
    if v_odd:
        raise ValueError("cycle odd-covers exist only for even-degree graphs")
    res = _solve(g, "cycle", max_k)
    if res is not None and res[0] < delta // 2:
        raise InternalInvariantError("oracle beat the cycle lower bound")
    return res


def exact_p2_iso(g: Graph, extra: int) -> tuple[int, OddCover] | None:
    """Minimum of exact_p2 over g with 0..extra isolated vertices added."""
    if g.n + extra > MAX_ORACLE_N:
        raise ValueError(f"padding would exceed n = {MAX_ORACLE_N}")
    best: tuple[int, OddCover] | None = None
    for pad in range(extra + 1):
        res = exact_p2(Graph(g.n + pad, g.edges))
        if res is not None and (best is None or res[0] < best[0]):
            best = res
    return best


def exact_linear_forests(g: Graph, k: int) -> list[list[Edge]] | None:
    """Partition E(g) into k linear forests, or None if impossible.

    Backtracking over edges in decreasing degree-sum order, pruning on
    per-color degrees (<= 2) and per-color acyclicity, with canonical color
    order to break class symmetry.  Acyclicity uses path-end pointers: both
    ends of a tried edge have class degree < 2, so they are path ends, and
    the edge closes a cycle exactly when they end the same path.
    """
    if g.n > MAX_FOREST_N:
        raise ValueError(f"linear-forest search capped at n <= {MAX_FOREST_N}")
    if k < 0:
        raise ValueError("negative class count")
    if g.m == 0:
        return [[] for _ in range(k)]
    deg = g.degrees()
    # a linear forest on the v vertices that carry edges has <= v - 1 edges
    if k * (sum(1 for d in deg if d) - 1) < g.m:
        return None
    edges = sorted(g.edges, key=lambda e: (-(deg[e[0]] + deg[e[1]]), e))
    m = len(edges)
    color = [-1] * m
    cdeg = [[0] * g.n for _ in range(k)]
    # far[c][x]: the other end of the class-c path ending at x (x if isolated)
    far = [list(range(g.n)) for _ in range(k)]

    def assign(i: int, used: int) -> bool:
        if i == m:
            return True
        u, v = edges[i]
        for c in range(min(k, used + 1)):
            dc, fc = cdeg[c], far[c]
            if dc[u] >= 2 or dc[v] >= 2 or fc[u] == v:
                continue
            a, b = fc[u], fc[v]
            fc[a], fc[b] = b, a
            dc[u] += 1
            dc[v] += 1
            color[i] = c
            if assign(i + 1, max(used, c + 1)):
                return True
            color[i] = -1
            dc[u] -= 1
            dc[v] -= 1
            fc[a], fc[b] = u, v
        return False

    if not assign(0, 0):
        return None
    out: list[list[Edge]] = [[] for _ in range(k)]
    for i, e in enumerate(edges):
        out[color[i]].append(e)
    return [sorted(f) for f in out]


def exact_linear_arboricity(g: Graph) -> tuple[int, list[list[Edge]]]:
    """Smallest k admitting a k-linear-forest partition, with a witness."""
    if g.m == 0:
        return 0, []
    delta, _, _ = degree_profile(g)
    lo = max(1, -(-delta // 2))
    for k in range(lo, g.m + 1):
        forests = exact_linear_forests(g, k)
        if forests is not None:
            return k, forests
    raise InternalInvariantError("no linear-forest partition up to the cap")


def bound_gap_scan(n_exhaustive: int = 5) -> dict:
    """Largest observed gap of exact_p2 over max{v_odd/2, ceil(d/2), density}
    across every graph with n <= n_exhaustive.

    Whether the gap can exceed one is open; this reports, never asserts.
    """
    worst = {"gap": 0, "graphs": 0, "example": None}

    def probe(g: Graph) -> None:
        res = exact_p2(g)
        if res is None:
            return
        base = max(lower_bound(g), max_subgraph_density(g))
        gap = res[0] - base
        worst["graphs"] += 1
        if gap > worst["gap"]:
            worst["gap"] = gap
            worst["example"] = sorted(g.edges)

    for n in range(2, n_exhaustive + 1):
        pairs = list(combinations(range(n), 2))
        for bits in range(1 << len(pairs)):
            edges = [pairs[i] for i in range(len(pairs)) if bits >> i & 1]
            probe(Graph(n, edges))
    return dict(worst)
