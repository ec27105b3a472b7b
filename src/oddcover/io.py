"""Graph and witness serialization.

Edge-list text: first line "n m", then m lines "u v" with 0 <= u < v < n;
blank lines and '#' comments are ignored.  graph6 is read-only (standard
6-bit packed upper triangle, offset 63, column-major).  Witnesses are JSON
objects {"n", "kind", "members", "valid", "count"} plus optional extras
such as bounds or a subdivision map.
"""

from __future__ import annotations

import json
from typing import Any

from .core import Graph, OddCover, verify_cover

# Largest vertex count an edge list may declare.  Solvers allocate O(n)
# lists whatever the edge count, so a larger header would exhaust memory
# instead of failing as bad input.
MAX_VERTICES = 10**6


def parse_edge_list(text: str) -> Graph:
    n = m = None
    edges: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if n is None:
            if len(parts) != 2:
                raise ValueError(f"line {lineno}: expected 'n m' header")
            n, m = int(parts[0]), int(parts[1])
            if n > MAX_VERTICES:
                raise ValueError(f"line {lineno}: n = {n} exceeds the limit {MAX_VERTICES}")
            continue
        if len(parts) != 2:
            raise ValueError(f"line {lineno}: expected 'u v'")
        u, v = int(parts[0]), int(parts[1])
        if u == v:
            raise ValueError(f"line {lineno}: self-loop {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"line {lineno}: vertex outside 0..{n - 1}")
        e = (u, v) if u < v else (v, u)
        if e in seen:
            raise ValueError(f"line {lineno}: duplicate edge {e}")
        seen.add(e)
        edges.append(e)
    if n is None:
        raise ValueError("empty input: missing 'n m' header")
    if len(edges) != m:
        raise ValueError(f"header announced {m} edges, found {len(edges)}")
    return Graph(n, edges)


def emit_edge_list(g: Graph, comments: list[str] | None = None) -> str:
    lines = [f"{g.n} {g.m}"]
    lines += [f"{u} {v}" for u, v in sorted(g.edges)]
    for c in comments or []:
        lines.append(f"# {c}")
    return "\n".join(lines) + "\n"


def parse_graph6(text: str) -> Graph:
    """Decode one graph6 line (short or long n form)."""
    line = text.strip()
    if line.startswith(">>graph6<<"):
        line = line[len(">>graph6<<") :]
    if not line:
        raise ValueError("empty graph6 input")
    data = [ord(ch) - 63 for ch in line]
    if any(b < 0 or b > 63 for b in data):
        raise ValueError("graph6 byte out of range")
    if data[0] < 63:
        n = data[0]
        body = data[1:]
    elif len(data) >= 4 and data[1] < 63:
        n = (data[1] << 12) | (data[2] << 6) | data[3]
        body = data[4:]
    elif len(data) >= 8:
        n = 0
        for b in data[2:8]:
            n = (n << 6) | b
        body = data[8:]
    else:
        raise ValueError("truncated graph6 header")
    need = (n * (n - 1) // 2 + 5) // 6
    if len(body) != need:
        raise ValueError(f"graph6 body has {len(body)} bytes, expected {need}")
    bits = []
    for b in body:
        bits += [(b >> s) & 1 for s in range(5, -1, -1)]
    edges = []
    idx = 0
    for v in range(1, n):
        for u in range(v):
            if bits[idx]:
                edges.append((u, v))
            idx += 1
    return Graph(n, edges)


def witness_json(
    cover: OddCover,
    bounds: dict[str, Any] | None = None,
    extra: dict[str, Any] | None = None,
) -> dict[str, Any]:
    report = verify_cover(cover)
    doc: dict[str, Any] = {
        "n": cover.target.n,
        "kind": cover.kind,
        "members": [list(p) for p in cover.members],
        "valid": report.valid,
        "count": cover.count,
    }
    if bounds is not None:
        doc["bounds"] = bounds
    if extra:
        doc.update(extra)
    return doc


def load_witness(text: str, target: Graph) -> OddCover:
    """Read a witness object; a wrongly shaped one is bad input (ValueError)."""
    doc = json.loads(text)
    if not isinstance(doc, dict):
        raise ValueError("witness must be a JSON object")
    members = doc.get("members")
    if not isinstance(members, list) or not all(isinstance(p, list) for p in members):
        raise ValueError("witness members must be a list of vertex lists")
    if not all(type(v) is int for p in members for v in p):
        raise ValueError("witness vertices must be integers")
    kind = doc.get("kind", "path")
    if kind not in ("path", "cycle"):
        raise ValueError(f"unknown witness kind {kind!r}")
    n = doc.get("n", target.n)
    if type(n) is not int or n != target.n:
        raise ValueError(f"witness universe n={n!r} does not match graph n={target.n}")
    return OddCover(target, [tuple(p) for p in members], kind)
