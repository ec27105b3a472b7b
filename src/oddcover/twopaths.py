"""Two-path odd-covers of vertex-disjoint cycle sets, with edge integration.

A set of vertex-disjoint cycles is odd-covered by exactly two paths: split
each cycle at two chosen vertices into complementary arcs, then chain the
arc pairs together with connector edges that appear in both paths and so
cancel.  Both paths share both endpoints, and the final endpoint can be
pinned to any prescribed vertex.

On top of that threading, this module integrates up to two extra edges into
the same two paths: the symmetric difference of a cycle set and one edge is
always two-path coverable, and for two disjoint edges it is coverable
except in a single sharp obstruction -- some cycle plus the two edges forms
a K4-subdivision in which at most one of the four chord-demarcated arcs has
an internal vertex.  `is_exceptional_k4` recognizes the obstruction,
`choose_integrable_pair` dodges it when three candidate edges are on offer
(at most one of the three pairs can be obstructed), and
`integrate_four_edges` distributes four edges over two cycle sets.

Each public call indexes its canonical, sorted cycles once as a private
`_Layer` (the cycle and position of every vertex, and the arcs between two
vertices), and every construction reads where a vertex or an edge sits from
it; a reduction that recurses on a rebuilt cycle set indexes that set in the
order it built it.  One private routine, `_close_loose`, covers a layer plus
two loose paths off it through stand-in edges; the two-cut-edges case here
and the solver's two-loose-paths case both use it.  Likewise `_thread_to`
is the only threading of all cycles but one to a pinned common end, and
`_plus_one_then` the only one-edge cover that runs on along a walk.

Every public function re-checks its own output: the returned paths must be
simple and their edge-parity XOR must equal the requested target, else an
InternalInvariantError is raised.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence, Union

from .core import (
    Edge,
    InternalInvariantError,
    check_path,
    cycle_edges,
    norm_edge,
    odd_edges,
    path_edges,
)

Cycle = tuple[int, ...]


class TwoPaths(NamedTuple):
    p: tuple[int, ...]
    q: tuple[int, ...]


@dataclass(frozen=True)
class ExceptionalCase:
    """The K4-subdivision obstruction: which cycle, and the four arc sizes."""

    cycle_index: int
    demarcation: tuple[int, int, int, int]  # internal-vertex count per arc


class ExceptionalEndpointError(ValueError):
    """Requested common endpoint z shares a cycle with both edge endpoints."""


IntegrationResult = Union[TwoPaths, ExceptionalCase]


# ---------------------------------------------------------------------------
# cycle bookkeeping


def canon_cycle(cycle: Sequence[int]) -> Cycle:
    """Rotate/reflect so the smallest vertex comes first, smaller neighbor second."""
    vs = list(cycle)
    if len(vs) < 3 or len(set(vs)) != len(vs):
        raise ValueError(f"not a cycle: {vs}")
    i = vs.index(min(vs))
    vs = vs[i:] + vs[:i]
    if vs[-1] < vs[1]:
        vs = [vs[0]] + vs[1:][::-1]
    return tuple(vs)


class _Layer:
    """A vertex-disjoint cycle set, indexed once.

    `owner[v]` is the index of the cycle through v and `pos[v]` its position
    there.  The cycles keep the order and orientation they are given in.
    """

    __slots__ = ("cycles", "owner", "pos")

    def __init__(self, cycles: list[Cycle]):
        owner: dict[int, int] = {}
        pos: dict[int, int] = {}
        for j, c in enumerate(cycles):
            for i, v in enumerate(c):
                owner[v] = j
                pos[v] = i
        if len(owner) != sum(map(len, cycles)):
            raise ValueError("cycles are not vertex-disjoint")
        self.cycles, self.owner, self.pos = cycles, owner, pos

    def has_edge(self, f: Edge) -> bool:
        """Is f an edge of one of the cycles?"""
        a, b = f
        j = self.owner.get(a)
        if j is None or self.owner.get(b) != j:
            return False
        gap = abs(self.pos[a] - self.pos[b])
        return gap == 1 or gap == len(self.cycles[j]) - 1

    @classmethod
    def canonical(cls, cycles: Iterable[Sequence[int]]) -> _Layer:
        """The layer of the canonical cycles in sorted order."""
        return cls(sorted(canon_cycle(c) for c in cycles))

    def without(self, *js: int) -> _Layer:
        """The layer of every cycle but those with the given indices."""
        return _Layer([c for i, c in enumerate(self.cycles) if i not in js])

    def arcs(self, a: int, b: int) -> tuple[list[int], list[int]]:
        """Both arcs from a to b of the cycle through both, as vertex lists."""
        cycle = self.cycles[self.owner[a]]
        ia, ib, ell = self.pos[a], self.pos[b], len(cycle)
        ring = cycle + cycle
        fwd = list(ring[ia : ia + (ib - ia) % ell + 1])
        bwd = list(ring[ib : ib + (ia - ib) % ell + 1])[::-1]
        return fwd, bwd

    def cut(self, f: Edge) -> list[int]:
        """The cycle through the edge f as a path from f[0] to f[1] avoiding f."""
        return max(self.arcs(*f), key=len)


def _seg(path: Sequence[int], a: int, b: int) -> list[int]:
    """Contiguous portion of a path between two of its vertices, from a to b."""
    ia, ib = path.index(a), path.index(b)
    if ia <= ib:
        return list(path[ia : ib + 1])
    return list(path[ib : ia + 1])[::-1]


def _interior(arc: Sequence[int]) -> list[int]:
    return list(arc[1:-1])


# ---------------------------------------------------------------------------
# output checking


def _checked(
    layer: _Layer, p: Sequence[int], q: Sequence[int], extra: Sequence[Edge] = ()
) -> TwoPaths:
    """The two paths, once they are simple, stay on the cycles and the extra
    edges' endpoints, and XOR to the cycle edges toggled by the extra edges."""
    paths = (tuple(p), tuple(q))
    for vs in paths:
        try:
            check_path(vs)
        except ValueError as exc:  # the kit built it: a bug, not bad input
            raise InternalInvariantError(str(exc)) from exc
        stray = set(vs).difference(layer.owner, *extra)
        if stray:
            raise InternalInvariantError(
                f"path strays outside the instance: {sorted(stray)}"
            )
    odd = odd_edges(paths)
    target = set().union(*map(cycle_edges, layer.cycles)) ^ set(extra)
    if odd != target:
        raise InternalInvariantError(
            f"two-path XOR mismatch: missing {sorted(target - odd)}, "
            f"excess {sorted(odd - target)}"
        )
    return TwoPaths(*paths)


def splice_stand_ins(
    paths: Sequence[Sequence[int]],
    stand_ins: Iterable[tuple[Edge, Sequence[int]]],
) -> TwoPaths:
    """Expand each stand-in edge u-v into its u..v walk.

    A stand-in is a normalized edge that replaced a walk with fresh interior
    while the two paths were built; it must lie on exactly one of them.
    """
    out = [list(p) for p in paths]
    for edge, walk in stand_ins:
        hits = [j for j, p in enumerate(out) if edge in path_edges(p)]
        if len(hits) != 1:
            raise InternalInvariantError(
                f"stand-in edge {edge} lies on {len(hits)} paths"
            )
        out[hits[0]] = _splice(out[hits[0]], edge, walk)
    return TwoPaths(*map(tuple, out))


def _splice(path: Sequence[int], edge: Edge, walk: Sequence[int]) -> list[int]:
    """Replace the normalized edge u-v of the path by a u..v walk, turned
    to run the way the path crosses the edge."""
    p = list(path)
    i = path_edges(p).index(edge)
    w = list(walk) if walk[0] == p[i] else list(walk)[::-1]
    return p[:i] + w + p[i + 2 :]


# ---------------------------------------------------------------------------
# threading


def _thread(
    layer: _Layer,
    cycles: Sequence[Cycle],
    x_first: int | None = None,
    y_last: int | None = None,
    avoid: int | None = None,
) -> tuple[list[int], list[int]]:
    """Chain ordered cycles of the layer into two paths sharing both endpoints.

    Per cycle two split vertices x_i, y_i are chosen (never `avoid`), the two
    complementary arcs go one to each output path, and consecutive cycles are
    linked by a connector edge y_i -> x_{i+1} present in both paths.  x_first
    pins the first split vertex, y_last the final one.
    """
    k = len(cycles)
    P: list[int] = []
    Q: list[int] = []
    for i, cyc in enumerate(cycles):
        pool = [v for v in sorted(cyc) if v != avoid]
        x = x_first if i == 0 and x_first is not None else None
        y = y_last if i == k - 1 and y_last is not None else None
        if x is None:
            x = next(v for v in pool if v != y)
        if y is None:
            y = next(v for v in pool if v != x)
        arc1, arc2 = layer.arcs(x, y)
        if avoid is not None and avoid in arc1:
            p_arc, q_arc = arc2, arc1
        elif avoid is not None and avoid in arc2:
            p_arc, q_arc = arc1, arc2
        else:
            p_arc, q_arc = (arc1, arc2) if arc1[1] <= arc2[1] else (arc2, arc1)
        P.extend(p_arc)
        Q.extend(q_arc)
    return P, Q


def cover_cycles(cycles: Iterable[Sequence[int]]) -> TwoPaths:
    """Odd-cover a nonempty set of vertex-disjoint cycles with two paths."""
    layer = _Layer.canonical(cycles)
    if not layer.cycles:
        raise ValueError("empty cycle set")
    return _checked(layer, *_thread(layer, layer.cycles))


# ---------------------------------------------------------------------------
# one-edge integration


def _theta_two_paths(
    layer: _Layer, u: int, v: int, z: int | None
) -> tuple[list[int], list[int]]:
    """The cycle through u and v plus the chord uv, split into two paths both
    ending at z."""
    arc_a, arc_b = layer.arcs(u, v)
    if z is None:
        z = min(_interior(arc_a) + _interior(arc_b))
    if z in _interior(arc_a):
        arc_a, arc_b = arc_b, arc_a
    elif z not in _interior(arc_b):
        raise ValueError(f"endpoint {z} not usable on the chorded cycle")
    iz = arc_b.index(z)
    p = [u] + arc_b[iz:][::-1]  # the chord u-v, then v ..B.. z
    q = arc_a[::-1] + arc_b[1:iz + 1]  # v ..A.. u, then u ..B.. z
    return p, q


def _plus_one(
    layer: _Layer, f: Edge, z: int | None
) -> tuple[list[int], list[int]]:
    """Two paths covering {f} union E(layer) for f outside the cycle edges.

    Both paths share their last vertex (z when given).  Raises
    ExceptionalEndpointError when z is requested on the same cycle that
    carries both endpoints of f while other cycles exist.
    """
    u, v = f
    cycles, owner = layer.cycles, layer.owner
    if z is not None and (z in f or z not in owner):
        raise ValueError(f"common endpoint {z} must lie on a cycle, off {f}")
    cu, cv = owner.get(u), owner.get(v)
    jz = None if z is None else owner[z]

    if cu is not None and cu == cv:
        if len(cycles) == 1:
            return _theta_two_paths(layer, u, v, z)
        if jz == cu:
            raise ExceptionalEndpointError(
                f"z={z} shares a cycle with both endpoints of {f}"
            )
    elif (jz is not None and jz == cv) or (z is None and cv is None and cu is not None):
        u, v = v, u
        cu, cv = cv, cu
    order = [c for i, c in enumerate(cycles) if i != cv and i != jz]
    if cv is not None:
        order.insert(0, cycles[cv])
    if jz is not None:
        order.append(cycles[jz])
    zz = z if z is not None else min(set(order[-1]) - {u, v})
    p0, q0 = _thread(
        layer, order, x_first=(v if cv is not None else None), y_last=zz, avoid=u
    )
    if cv is not None:
        return [u] + p0, q0
    return [u, v] + p0, [v] + q0


def _minus_one(layer: _Layer, f: Edge) -> tuple[list[int], list[int]]:
    """Two paths covering E(layer) minus one cycle edge f."""
    walk = layer.cut(f)
    if len(layer.cycles) == 1:
        w = min(walk[1:-1])
        iw = walk.index(w)
        return walk[: iw + 1], walk[iw:]
    rest = layer.without(layer.owner[f[0]])
    return splice_stand_ins(_plus_one(rest, f, None), [(f, walk)])


def integrate_one_edge(
    cycles: Iterable[Sequence[int]], f: Edge, z: int | None = None
) -> TwoPaths:
    """Odd-cover {f} XOR E(cycles) with two paths.

    For f outside the cycle edges the two paths share a common endpoint,
    which can be pinned to z (see ExceptionalEndpointError for the one
    unavailable request).  For f on a cycle the construction dispatches to
    the edge-removal variant and z must be omitted.
    """
    layer = _Layer.canonical(cycles)
    if not layer.cycles:
        raise ValueError("empty cycle set")
    f = norm_edge(*f)
    if layer.has_edge(f):
        if z is not None:
            raise ValueError("common endpoint is not supported when f lies on a cycle")
        p, q = _minus_one(layer, f)
    else:
        p, q = _plus_one(layer, f, z)
    return _checked(layer, p, q, (f,))


# ---------------------------------------------------------------------------
# two-edge integration


def _disjoint_edges(edges: Iterable[Edge]) -> list[Edge]:
    """The edges, normalized; raises ValueError if two share a vertex."""
    fs = [norm_edge(*f) for f in edges]
    if len({v for f in fs for v in f}) != 2 * len(fs):
        raise ValueError("edges share a vertex")
    return fs


def is_exceptional_k4(
    cycles: Iterable[Sequence[int]], f1: Edge, f2: Edge
) -> bool:
    """Does {f1, f2} + some cycle form the obstructed K4-subdivision?

    True iff at least two cycles exist, one of them carries all four edge
    endpoints in alternating (crossing) cyclic order, and at most one of the
    four demarcated arcs has an internal vertex.
    """
    f1, f2 = _disjoint_edges((f1, f2))
    return _k4_obstruction(_Layer.canonical(cycles), f1, f2) is not None


def _demarcation(
    layer: _Layer, f1: Edge, f2: Edge
) -> tuple[list[int], list[list[int]], bool]:
    """The four endpoints in cyclic order on their common cycle, the four
    arcs between them, and whether the two edges cross (their endpoints
    alternate)."""
    order = sorted((*f1, *f2), key=layer.pos.__getitem__)
    arcs = [layer.arcs(order[t], order[(t + 1) % 4])[0] for t in range(4)]
    return order, arcs, {order[0], order[2]} in (set(f1), set(f2))


def _k4_obstruction(layer: _Layer, f1: Edge, f2: Edge) -> ExceptionalCase | None:
    """The obstruction on a layer and disjoint edges, or None.

    It needs a second cycle, and a cycle carrying all four endpoints
    crosswise with at most one demarcated arc holding an internal vertex.
    Every caller asks here, so the test and the kit cannot disagree.
    """
    if len(layer.cycles) < 2:
        return None
    homes = {layer.owner.get(v) for v in (*f1, *f2)}
    if len(homes) != 1 or None in homes:
        return None
    _, arcs, crossing = _demarcation(layer, f1, f2)
    inter = tuple(len(a) - 2 for a in arcs)
    if crossing and sum(1 for c in inter if c > 0) <= 1:
        return ExceptionalCase(homes.pop(), inter)
    return None


def _case_all_on_one_cycle(layer: _Layer, j: int, f1: Edge, f2: Edge) -> TwoPaths:
    """All four endpoints on cycle j, off the obstruction."""
    others = [c for i, c in enumerate(layer.cycles) if i != j]
    pts, S, crossing = _demarcation(layer, f1, f2)
    inter = [len(a) - 2 for a in S]

    if crossing:
        if not others:
            a0, a1, a2, a3 = pts
            p = S[0] + S[1][1:] + S[2][1:]
            q = [a2] + S[3][::-1] + [a1]
            return TwoPaths(tuple(p), tuple(q))
        P, Q = _thread(layer, others)
        for i in range(2):
            if inter[i] and inter[i + 2]:
                u1, u2, v1, v2 = (pts[(i + t) % 4] for t in range(4))
                ru, r2, rv, r1 = (S[(i + t) % 4] for t in range(4))
                zu, zv = min(_interior(ru)), min(_interior(rv))
                p = (
                    r1[::-1]
                    + [u2]
                    + _seg(ru, u2, zu)[1:]
                    + P
                    + _seg(rv, zv, v1)
                )
                q = r2 + [u1] + _seg(ru, u1, zu)[1:] + Q + _seg(rv, zv, v2)
                return TwoPaths(tuple(p), tuple(q))
        for i in range(4):
            if inter[i] and inter[(i + 1) % 4]:
                v2, u1, u2, v1 = (pts[(i + t) % 4] for t in range(4))
                r1, ru, r2, rv = (S[(i + t) % 4] for t in range(4))
                z1, zu = min(_interior(r1)), min(_interior(ru))
                p = [v1, u1] + _seg(ru, u1, zu)[1:] + P + _seg(r1, z1, v2) + [u2]
                q = (
                    rv[::-1]
                    + r2[::-1][1:]
                    + _seg(ru, u2, zu)[1:]
                    + Q
                    + _seg(r1, z1, u1)
                )
                return TwoPaths(tuple(p), tuple(q))
        raise InternalInvariantError("no usable arc pair in crossing case")

    P, Q = _thread(layer, others)
    r = 0 if {pts[0], pts[1]} in (set(f1), set(f2)) else 1
    b = [pts[(r + t) % 4] for t in range(4)]
    T = [S[(r + t) % 4] for t in range(4)]
    u1, v1, v2, u2 = b
    r1, rv, r2, ru = T
    z1, z2 = min(_interior(r1)), min(_interior(r2))
    p = [u1] + _seg(r1, v1, z1) + P + _seg(r2, z2, u2) + [v2]
    q = (
        _seg(ru, u2, u1)
        + _seg(r1, u1, z1)[1:]
        + Q
        + _seg(r2, z2, v2)
        + _seg(rv, v2, v1)[1:]
    )
    return TwoPaths(tuple(p), tuple(q))


def _case_three_on_one_cycle(
    layer: _Layer, j: int, f1: Edge, f2: Edge
) -> TwoPaths:
    owner = layer.owner
    f_on, f_mix = (f1, f2) if owner.get(f1[0]) == owner.get(f1[1]) == j else (f2, f1)
    u1, v1 = f_mix if owner.get(f_mix[0]) == j else f_mix[::-1]
    u2, v2 = f_on
    q3 = sorted((u1, u2, v2), key=layer.pos.__getitem__)
    T = {frozenset((q3[t], q3[(t + 1) % 3])): layer.arcs(q3[t], q3[(t + 1) % 3])[0] for t in range(3)}
    r2 = T[frozenset((u2, v2))]
    ru = T[frozenset((u1, u2))]
    rv = T[frozenset((u1, v2))]
    y1 = min(_interior(r2))
    tail1, tail2 = _thread_to(layer, j, v1)
    p = [u2] + _seg(r2, v2, y1) + tail1 + [u1]
    q = _seg(rv, v2, u1) + _seg(ru, u1, u2)[1:] + _seg(r2, u2, y1)[1:] + tail2
    return TwoPaths(tuple(p), tuple(q))


def _thread_to(layer: _Layer, skip: int, v: int) -> tuple[list[int], list[int]]:
    """Thread every cycle but cycle `skip` into two paths both ending at v:
    v's own cycle goes last, or v is appended when it lies off the layer."""
    hit = layer.owner.get(v)
    order = [c for i, c in enumerate(layer.cycles) if i != skip and i != hit]
    if hit is None:
        p, q = _thread(layer, order)
        return p + [v], q + [v]
    return _thread(layer, order + [layer.cycles[hit]], y_last=v)


def _plus_one_then(layer: _Layer, f: Edge, walk: Sequence[int]) -> TwoPaths:
    """_plus_one at a common end its exceptional clause cannot refuse, then
    both paths step to the walk's first vertex and p runs along the walk."""
    cu = layer.owner.get(f[0])
    if cu is not None and cu == layer.owner.get(f[1]) and len(layer.cycles) >= 2:
        z = min(w for w, j in layer.owner.items() if j != cu)
    else:
        z = min(w for w in layer.owner if w not in f)
    p, q = _plus_one(layer, f, z)
    return TwoPaths(tuple(p + list(walk)), tuple(q + [walk[0]]))


def _case_spread(
    layer: _Layer, f1: Edge, f2: Edge, counts: list[int]
) -> TwoPaths:
    """Every cycle holds at most two of the four endpoints (counts[i] of
    them on cycle i)."""
    owner = layer.owner
    pts = [*f1, *f2]
    off = [v for v in pts if v not in owner]
    if off:
        fa, fb = (f1, f2) if (f1[0] in off or f1[1] in off) else (f2, f1)
        ua = min(v for v in fa if v in off)
        va = fa[0] if fa[1] == ua else fa[1]
        if va in owner:
            p, q = _plus_one(layer, fb, z=va)
            return TwoPaths(tuple(p + [ua]), tuple(q))
        return _plus_one_then(layer, fb, [va, ua])

    if counts.count(2) == 2:
        return _case_two_plus_two(layer, f1, f2, counts)

    lone = counts.index(1)
    w = next(v for v in pts if owner[v] == lone)
    fa, fb = (f1, f2) if w in f1 else (f2, f1)
    va = fa[0] if fa[1] == w else fa[1]
    p, q = _plus_one(layer.without(lone), fb, z=va)
    shared = sorted(set(path_edges(p)) & set(path_edges(q)))
    if not shared:
        raise InternalInvariantError("reroute case found no shared edge")
    e = shared[0]
    pool = sorted(v for v in layer.cycles[lone] if v != w)
    arc1, arc2 = layer.arcs(pool[0], pool[1])
    p_arc, q_arc = (arc1, arc2) if w not in arc1 else (arc2, arc1)
    # the same two connector edges go onto both paths and cancel in the XOR
    new_p = _splice(p, e, [e[0], *p_arc, e[1]])
    new_q = _splice(q, e, [e[0], *q_arc, e[1]])
    return TwoPaths(tuple(new_p + [w]), tuple(new_q))


def _case_two_plus_two(
    layer: _Layer, f1: Edge, f2: Edge, counts: list[int]
) -> TwoPaths:
    owner = layer.owner
    j1, j2 = [i for i, c in enumerate(counts) if c == 2]
    rest = [c for i, c in enumerate(layer.cycles) if i not in (j1, j2)]

    if owner[f1[0]] == owner[f1[1]]:
        # each edge is a chord of its own cycle: two thetas around the rest
        p1, q1 = _theta_two_paths(layer, *f1, None)  # both end at one z1 off f1
        p2, q2 = _theta_two_paths(layer, *f2, None)  # both end at one z2 off f2
        mid_p, mid_q = _thread(layer, rest)
        return TwoPaths(tuple(p1 + mid_p + p2[::-1]), tuple(q1 + mid_q + q2[::-1]))

    a1, b1 = f1 if owner[f1[0]] == j1 else f1[::-1]
    a2, b2 = f2 if owner[f2[0]] == j1 else f2[::-1]
    arc1, arc1b = layer.arcs(a1, a2)
    p1_arc, q1_arc = (arc1, arc1b) if len(arc1) > 2 else (arc1b, arc1)
    arc2, arc2b = layer.arcs(b2, b1)
    p2_arc, q2_arc = (arc2, arc2b) if len(arc2) > 2 else (arc2b, arc2)
    cstar = tuple(p1_arc + p2_arc)  # a1..a2, f2 jump, b2..b1, f1 closes
    fa, fb = norm_edge(a1, a2), norm_edge(b1, b2)
    sub = _integrate_two(_Layer(rest + [cstar]), fa, fb)
    if not isinstance(sub, TwoPaths):
        raise InternalInvariantError("parallel-chord reduction hit the obstruction")
    return splice_stand_ins(sub, [(fa, q1_arc), (fb, q2_arc)])


def _minus_two(layer: _Layer, f1: Edge, f2: Edge) -> TwoPaths:
    broken = (layer.owner[f1[0]], layer.owner[f2[0]])
    if broken[0] == broken[1]:
        cyc = layer.cycles[broken[0]]
        k = len(cyc)
        pos = layer.pos  # each edge is cut at its first position along cyc
        a, b = sorted(
            pos[x] if (pos[x] + 1) % k == pos[y] else pos[y] for x, y in (f1, f2)
        )
        segs = [
            [cyc[(a + 1 + t) % k] for t in range(b - a)],
            [cyc[(b + 1 + t) % k] for t in range(k - (b - a))],
        ]
    else:
        segs = [layer.cut(f1), layer.cut(f2)]
    rest = layer.without(*broken)
    if not rest.cycles:
        return TwoPaths(tuple(segs[0]), tuple(segs[1]))
    return _close_loose(rest, segs)


def _close_loose(layer: _Layer, loose: Sequence[Sequence[int]]) -> TwoPaths:
    """Two paths covering the layer plus two disjoint loose paths off it.

    Each loose path is stood in for by the edge joining its ends; those ends
    lie off every cycle, so the obstruction cannot occur.  The stand-ins are
    then expanded back.  Unchecked: the caller checks what it builds.
    """
    fps = [norm_edge(w[0], w[-1]) for w in loose]
    sub = _integrate_two(layer, fps[0], fps[1])
    if not isinstance(sub, TwoPaths):
        raise InternalInvariantError("loose-path closing hit the obstruction")
    return splice_stand_ins(sub, zip(fps, loose))


def _plus_minus(layer: _Layer, f_in: Edge, f_out: Edge) -> TwoPaths:
    """f_in lies on a cycle, f_out does not; cover E(C) - f_in + f_out."""
    owner = layer.owner
    j = owner[f_in[0]]
    s_walk = layer.cut(f_in)  # u1 .. v1
    rest = [c for i, c in enumerate(layer.cycles) if i != j]
    u2 = next((v for v in f_out if owner.get(v) == j), None)

    if u2 is None:
        if not rest:
            return TwoPaths(tuple(s_walk), tuple(f_out))
        return _plus_one_then(layer.without(j), f_out, s_walk)

    v2 = f_out[0] if f_out[1] == u2 else f_out[1]
    if not rest:
        if owner.get(v2) == j:
            ia, ib = sorted((s_walk.index(u2), s_walk.index(v2)))
            return TwoPaths(
                tuple(s_walk[: ia + 1] + s_walk[ib:]),
                tuple(s_walk[ia : ib + 1]),
            )
        iu = s_walk.index(u2)
        return TwoPaths(tuple(s_walk[: iu + 1] + [v2]), tuple(s_walk[iu:]))

    if owner.get(v2) == j:
        if s_walk.index(u2) > s_walk.index(v2):
            s_walk.reverse()
        u1, v1 = s_walk[0], s_walk[-1]
        p0, q0 = _thread(layer, rest)
        p = _seg(s_walk, u2, v1) + p0 + [u1]
        q = [v1] + q0 + s_walk[: s_walk.index(u2) + 1] + [v2]
        return TwoPaths(tuple(p), tuple(q))

    p0, q0 = _thread_to(layer, j, v2)
    return TwoPaths(tuple(s_walk + p0), tuple([s_walk[-1]] + q0 + [u2]))


def _integrate_two(layer: _Layer, f1: Edge, f2: Edge) -> IntegrationResult:
    """Dispatch on where the two edges sit on the layer."""
    if not layer.cycles:
        return TwoPaths(tuple(f1), tuple(f2))
    in1, in2 = layer.has_edge(f1), layer.has_edge(f2)
    if in1 and in2:
        return _minus_two(layer, f1, f2)
    if in1 or in2:
        f_in, f_out = (f1, f2) if in1 else (f2, f1)
        return _plus_minus(layer, f_in, f_out)
    counts = [0] * len(layer.cycles)
    for v in (*f1, *f2):
        j = layer.owner.get(v)
        if j is not None:
            counts[j] += 1
    if 4 in counts:
        obstruction = _k4_obstruction(layer, f1, f2)
        if obstruction is not None:
            return obstruction
        return _case_all_on_one_cycle(layer, counts.index(4), f1, f2)
    if 3 in counts:
        return _case_three_on_one_cycle(layer, counts.index(3), f1, f2)
    return _case_spread(layer, f1, f2, counts)


def _two_edges(layer: _Layer, f1: Edge, f2: Edge) -> IntegrationResult:
    """integrate_two_edges on a prepared layer."""
    f1, f2 = _disjoint_edges((f1, f2))
    res = _integrate_two(layer, f1, f2)
    if isinstance(res, ExceptionalCase):
        return res
    return _checked(layer, res.p, res.q, (f1, f2))


def integrate_two_edges(
    cycles: Iterable[Sequence[int]], f1: Edge, f2: Edge
) -> IntegrationResult:
    """Odd-cover {f1, f2} XOR E(cycles) with two paths, or report the
    K4-subdivision obstruction.

    The two edges must be vertex-disjoint but may lie on, touch, or avoid
    the cycles in any combination.
    """
    return _two_edges(_Layer.canonical(cycles), f1, f2)


def choose_integrable_pair(
    cycles: Iterable[Sequence[int]], edges: Sequence[Edge]
) -> tuple[tuple[Edge, Edge], TwoPaths]:
    """Pick two of three disjoint edges whose integration succeeds.

    At most one of the three unordered pairs can be obstructed, so a fixed
    scan order always finds a working pair.
    """
    fs = _disjoint_edges(edges)
    if len(fs) != 3:
        raise ValueError("exactly three candidate edges required")
    layer = _Layer.canonical(cycles)
    for a, b in ((0, 1), (0, 2), (1, 2)):
        res = _two_edges(layer, fs[a], fs[b])
        if isinstance(res, TwoPaths):
            return (fs[a], fs[b]), res
    raise InternalInvariantError("all three edge pairs were obstructed")


def integrate_four_edges(
    cycles_a: Iterable[Sequence[int]],
    cycles_b: Iterable[Sequence[int]],
    edges: Sequence[Edge],
) -> list[tuple[int, ...]]:
    """Odd-cover {f1..f4} XOR E(A) XOR E(B) with four paths.

    Two edges are routed into each cycle set; the split is chosen so that
    neither pairing is obstructed (possible for any four disjoint edges).
    """
    fs = _disjoint_edges(edges)
    if len(fs) != 4:
        raise ValueError("exactly four edges required")
    la, lb = _Layer.canonical(cycles_a), _Layer.canonical(cycles_b)

    def ok(layer: _Layer, i: int, j: int) -> bool:
        return _k4_obstruction(layer, fs[i], fs[j]) is None

    hub = next(
        x for x in range(3) if all(ok(la, x, y) for y in range(3) if y != x)
    )
    y, z = [t for t in range(3) if t != hub]
    if ok(lb, y, 3):
        pair_a, pair_b = (hub, z), (y, 3)
    elif ok(lb, z, 3):
        pair_a, pair_b = (hub, y), (z, 3)
    else:
        raise InternalInvariantError("no workable pairing for the second set")
    res_a = _two_edges(la, fs[pair_a[0]], fs[pair_a[1]])
    res_b = _two_edges(lb, fs[pair_b[0]], fs[pair_b[1]])
    if not isinstance(res_a, TwoPaths) or not isinstance(res_b, TwoPaths):
        raise InternalInvariantError("chosen pairings were obstructed after all")
    return [res_a.p, res_a.q, res_b.p, res_b.q]
