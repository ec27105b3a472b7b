"""Seeded input generators for the benchmark.

The benchmark makes its own graphs instead of calling ``oddcover.families``,
so a change to the library's generators can never change a workload.  Every
round of every workload is drawn from its own ``random.Random`` seeded by
``(workload, seed, round)``, so the same seed always gives the same rounds,
and a round can be drawn when a run reaches it.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass

Edge = tuple[int, int]


@dataclass(frozen=True)
class Instance:
    """One call into the library: which entry point, on which graph."""

    kind: str
    n: int
    edges: tuple[Edge, ...]

    @property
    def m(self) -> int:
        return len(self.edges)


def gnm(n: int, p: float, rng: random.Random) -> tuple[Edge, ...]:
    """Uniform random graph with exactly round(p * C(n, 2)) edges.

    A fixed edge count, rather than G(n, p)'s binomial one, keeps the work
    per instance, and so the run-to-run spread, small.
    """
    m = round(p * n * (n - 1) / 2)
    es: set[Edge] = set()
    while len(es) < m:
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            es.add((u, v) if u < v else (v, u))
    return tuple(sorted(es))


def eulerian(n: int, rng: random.Random) -> tuple[Edge, ...]:
    """Even-degree graph: the XOR of n random cycles on the n vertices,
    redrawn until it has round(0.45 * C(n, 2)) edges, give or take
    3 % of C(n, 2).

    The XOR's own edge count varies by up to 11 % of C(n, 2) at small n;
    fixing it, as gnm does, keeps the work per instance steady.
    """
    pairs = n * (n - 1) / 2
    target, slack = round(0.45 * pairs), max(1.0, 0.03 * pairs)
    for _ in range(1000):
        es: set[Edge] = set()
        for _ in range(n):
            size = rng.randrange(3, n + 1)
            vs = rng.sample(range(n), size)
            for t in range(size):
                a, b = vs[t], vs[(t + 1) % size]
                es ^= {(a, b) if a < b else (b, a)}
        if abs(len(es) - target) <= slack:
            return tuple(sorted(es))
    raise RuntimeError(f"no Eulerian graph on {n} vertices with about {target} edges")


def degree_stats(n: int, edges) -> tuple[int, int]:
    """(maximum degree, number of odd-degree vertices)."""
    deg = [0] * n
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    return max(deg, default=0), sum(d % 2 for d in deg)


def lower_bound(n: int, edges) -> int:
    """max(v_odd/2, ceil(delta/2)): no path odd-cover is smaller."""
    delta, v_odd = degree_stats(n, edges)
    return max(v_odd // 2, -(-delta // 2))


def sizes(lo: int, hi: int, k: int, r: int) -> list[int]:
    """k sizes in [lo, hi], one in each of k equal strata, at an offset
    that moves with the round r along the golden-ratio sequence.

    Over many rounds the sizes fill the range evenly, so the quantiles of
    per-instance time have no gaps for the median to jump across.
    """
    u = (r * 0.6180339887498949) % 1.0
    return [round(lo + (hi - lo) * (i + u) / k) for i in range(k)]


def draw(make, accept, rng: random.Random) -> tuple[Edge, ...]:
    """First edge list from make(rng) that accept() takes."""
    for _ in range(1000):
        edges = make(rng)
        if accept(edges):
            return edges
    raise RuntimeError("generator found no acceptable graph")


def round_rng(workload: str, seed: int, r: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{r}")


def fingerprint(rounds: list[list[Instance]]) -> str:
    """Hash of every instance's kind, n and sorted edge list, in order."""
    h = hashlib.sha256()
    for rnd in rounds:
        for inst in rnd:
            h.update(f"{inst.kind} {inst.n}:".encode())
            h.update(",".join(f"{u}-{v}" for u, v in sorted(inst.edges)).encode())
            h.update(b";")
    return h.hexdigest()[:16]
