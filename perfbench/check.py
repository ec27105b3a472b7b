"""The benchmark's own witness checker.

It shares no code with ``oddcover.verify_cover``: every member is walked
here, its edges are toggled into a parity set, and the odd edges must be
exactly the target's edge set.  Each function returns None when the witness
holds and a one-line reason when it does not.
"""

from __future__ import annotations

from gen import Edge, degree_stats


def _edge(u: int, v: int) -> Edge:
    return (u, v) if u < v else (v, u)


def check_members(n: int, kind: str, members, target: set[Edge]) -> str | None:
    """Members are paths (or cycles) on {0..n-1} whose edges XOR to target."""
    shortest = 3 if kind == "cycle" else 2
    odd: set[Edge] = set()
    for i, vs in enumerate(members):
        if len(vs) < shortest:
            return f"member {i} has {len(vs)} vertices"
        if len(set(vs)) != len(vs):
            return f"member {i} repeats a vertex"
        if any(not 0 <= v < n for v in vs):
            return f"member {i} leaves the universe of size {n}"
        steps = list(zip(vs, vs[1:]))
        if kind == "cycle":
            steps.append((vs[-1], vs[0]))
        for u, v in steps:
            odd ^= {_edge(u, v)}
    if odd != target:
        return f"parity: {len(target - odd)} edges missing, {len(odd - target)} extra"
    return None


def check_subdivision(
    n: int, edges, chains, h_n: int, h_edges: set[Edge]
) -> str | None:
    """chains maps each edge of G to a path of H through new vertices only,
    the chains share no new vertex, and H is exactly their union."""
    want = {_edge(u, v) for u, v in edges}
    if {_edge(*e) for e in chains} != want:
        return "chain map keys differ from the input edges"
    union: set[Edge] = set()
    inner_seen: set[int] = set()
    for (u, v), chain in chains.items():
        if {chain[0], chain[-1]} != {u, v}:
            return f"chain of {(u, v)} does not join its ends"
        inner = chain[1:-1]
        if any(not n <= x < h_n for x in inner) or inner_seen & set(inner):
            return f"chain of {(u, v)} reuses or misplaces a subdivision vertex"
        if len(set(inner)) != len(inner):
            return f"chain of {(u, v)} repeats a vertex"
        inner_seen |= set(inner)
        union |= {_edge(a, b) for a, b in zip(chain, chain[1:])}
    if union != h_edges:
        return "subdivided graph differs from the union of the chains"
    return None


def path_bound(n: int, edges) -> int:
    """README guarantee of path_odd_cover: max(v_odd/2, 2 ceil(delta/2))."""
    delta, v_odd = degree_stats(n, edges)
    return max(v_odd // 2, 2 * -(-delta // 2))


def iso_bound(n: int, edges) -> int:
    """README guarantee of iso_cover_general: 2t plus the residual budget d.

    t = ceil(v_odd/4), or 2 when v_odd = 4 and delta >= 3, and
    d = 2 ceil(delta/2) - 2t; a negative d leaves v_odd/2.
    """
    delta, v_odd = degree_stats(n, edges)
    t = 2 if (v_odd == 4 and delta >= 3) else -(-v_odd // 4)
    d = 2 * -(-delta // 2) - 2 * t
    return v_odd // 2 if d < 0 else 2 * t + d


def check_count(count: int, lo: int, hi: int) -> str | None:
    if not lo <= count <= hi:
        return f"count {count} outside [{lo}, {hi}]"
    return None


def check_witness_doc(doc, n: int, edges) -> str | None:
    """A path-cover JSON witness as the CLI writes it, read back from disk."""
    if doc.get("kind") != "path" or doc.get("n") != n or doc.get("valid") is not True:
        return "witness header is wrong"
    members = [tuple(m) for m in doc.get("members", [])]
    if doc.get("count") != len(members):
        return "witness count disagrees with its members"
    target = {_edge(u, v) for u, v in edges}
    return check_members(n, "path", members, target) or check_count(
        len(members), 0, path_bound(n, edges)
    )
