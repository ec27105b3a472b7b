import hashlib
from itertools import combinations

import pytest

from oddcover.core import Graph, InternalInvariantError, norm_edge
from oddcover.solver import iso_cover_general
from oddcover.twopaths import (
    ExceptionalCase,
    ExceptionalEndpointError,
    TwoPaths,
    canon_cycle,
    choose_integrable_pair,
    cover_cycles,
    integrate_four_edges,
    integrate_one_edge,
    integrate_two_edges,
    is_exceptional_k4,
    splice_stand_ins,
)

from support import cycle_partitions, random_cycle_set, rng_for, xor_members


def cycle_edges_of(cycles):
    out = set()
    for c in cycles:
        k = len(c)
        out |= {norm_edge(c[i], c[(i + 1) % k]) for i in range(k)}
    return out


def brute_exceptional(cycles, f1, f2):
    """Independent demarcation check: walk the four chord-cut arcs."""
    if len(cycles) < 2:
        return False
    pts = set(f1) | set(f2)
    for cyc in cycles:
        if not pts <= set(cyc):
            continue
        k = len(cyc)
        idx = {v: i for i, v in enumerate(cyc)}
        order = sorted(pts, key=lambda v: idx[v])
        labels = [0 if v in f1 else 1 for v in order]
        crossing = labels in ([0, 1, 0, 1], [1, 0, 1, 0])
        internal_arcs = 0
        for t in range(4):
            a, b = idx[order[t]], idx[order[(t + 1) % 4]]
            if (b - a) % k > 1:
                internal_arcs += 1
        return crossing and internal_arcs <= 1
    return False


def test_canon_cycle():
    assert canon_cycle((3, 1, 2)) == (1, 2, 3)
    assert canon_cycle((4, 2, 7, 5)) == (2, 4, 5, 7)  # reflect to smaller neighbor
    with pytest.raises(ValueError):
        canon_cycle((1, 2))


def test_cover_triangle_forced_split():
    tp = cover_cycles([(0, 1, 2)])
    sizes = sorted(len(p) - 1 for p in tp)
    assert sizes == [1, 2]
    assert xor_members(tp) == {(0, 1), (1, 2), (0, 2)}


def test_cover_four_disjoint_cycles():
    cycles = [tuple(range(4 * i, 4 * i + 4)) for i in range(4)]
    tp = cover_cycles(cycles)
    assert xor_members(tp) == cycle_edges_of(cycles)
    assert tp.p[0] == tp.q[0] and tp.p[-1] == tp.q[-1]


def test_cover_two_squares_connector_cancels():
    cycles = [(0, 1, 2, 3), (4, 5, 6, 7)]
    tp = cover_cycles(cycles)
    # the connector between the squares is traversed by both paths
    shared = set(xor_members([tp.p])) & set(xor_members([tp.q]))
    assert not shared & xor_members(tp)
    assert xor_members(tp) == cycle_edges_of(cycles)


def test_cover_rejects_empty():
    with pytest.raises(ValueError):
        cover_cycles([])


def test_integrate_one_pendant_edge():
    tp = integrate_one_edge([(0, 1, 2)], (0, 3))
    assert xor_members(tp) == {(0, 1), (1, 2), (0, 2), (0, 3)}


def test_integrate_one_edge_inside_single_cycle():
    # removing an edge leaves a path, split into two pieces
    tp = integrate_one_edge([(0, 1, 2, 3, 4)], (0, 1))
    assert xor_members(tp) == {(1, 2), (2, 3), (3, 4), (0, 4)}


def test_integrate_one_edge_endpoint_request():
    tp = integrate_one_edge([(0, 1, 2), (3, 4, 5)], (0, 3), z=4)
    assert tp.p[-1] == 4 and tp.q[-1] == 4
    assert xor_members(tp) == cycle_edges_of([(0, 1, 2), (3, 4, 5)]) | {(0, 3)}


def test_integrate_one_edge_exceptional_endpoint():
    # u, v, z on one cycle while another cycle exists
    with pytest.raises(ExceptionalEndpointError):
        integrate_one_edge([(0, 1, 2, 3), (4, 5, 6)], (0, 2), z=1)
    # same request with a single cycle is fine
    tp = integrate_one_edge([(0, 1, 2, 3)], (0, 2), z=1)
    assert tp.p[-1] == 1 and tp.q[-1] == 1


def test_integrate_one_edge_bad_z():
    with pytest.raises(ValueError):
        integrate_one_edge([(0, 1, 2)], (0, 3), z=3)  # z on the edge
    with pytest.raises(ValueError):
        integrate_one_edge([(0, 1, 2)], (0, 3), z=7)  # z off the cycles
    with pytest.raises(ValueError):
        integrate_one_edge([(0, 1, 2)], (0, 1), z=2)  # z with an edge on a cycle


def test_integrate_two_edges_opposite_on_square():
    res = integrate_two_edges([(0, 1, 2, 3)], (0, 1), (2, 3))
    assert isinstance(res, TwoPaths)
    assert xor_members(res) == {(1, 2), (0, 3)}


def test_integrate_two_edges_smallest_exceptional():
    cycles = [(0, 1, 2, 3), (4, 5, 6)]
    res = integrate_two_edges(cycles, (0, 2), (1, 3))
    assert isinstance(res, ExceptionalCase)
    assert res.demarcation == (0, 0, 0, 0)
    assert is_exceptional_k4(cycles, (0, 2), (1, 3))
    # without the second cycle the K4 is fine
    res = integrate_two_edges([(0, 1, 2, 3)], (0, 2), (1, 3))
    assert isinstance(res, TwoPaths)
    assert not is_exceptional_k4([(0, 1, 2, 3)], (0, 2), (1, 3))


def test_exceptional_needs_sparse_arcs():
    # 6-cycle with crossing chords: every demarcated arc has an internal vertex
    cycles = [(0, 1, 2, 3, 4, 5), (6, 7, 8)]
    assert not is_exceptional_k4(cycles, (0, 3), (1, 4))
    res = integrate_two_edges(cycles, (0, 3), (1, 4))
    assert isinstance(res, TwoPaths)
    assert xor_members(res) == cycle_edges_of(cycles) | {(0, 3), (1, 4)}


def test_exceptional_rejects_shared_vertex():
    with pytest.raises(ValueError):
        is_exceptional_k4([(0, 1, 2)], (0, 1), (1, 2))
    with pytest.raises(ValueError):
        integrate_two_edges([(0, 1, 2)], (0, 3), (3, 2))


def test_integrate_two_edges_one_in_each_cycle():
    cycles = [(0, 1, 2, 3, 4), (5, 6, 7, 8, 9)]
    res = integrate_two_edges(cycles, (0, 2), (5, 7))
    assert isinstance(res, TwoPaths)
    assert xor_members(res) == cycle_edges_of(cycles) | {(0, 2), (5, 7)}


def test_integrate_two_edges_reroute_case():
    # a lone endpoint on its own cycle needs >= 3 cycles (so > 8 vertices,
    # beyond the exhaustive sweep): the shared connector edge is rerouted
    # through the lone cycle
    cycles = [(0, 1, 2), (3, 4, 5), (6, 7, 8)]
    res = integrate_two_edges(cycles, (0, 3), (4, 6))
    assert isinstance(res, TwoPaths)
    assert xor_members(res) == cycle_edges_of(cycles) ^ {(0, 3), (4, 6)}
    cycles = [(0, 1, 2), (3, 4, 5), (6, 7, 8), (9, 10, 11)]
    res = integrate_two_edges(cycles, (0, 3), (6, 9))
    assert isinstance(res, TwoPaths)
    assert xor_members(res) == cycle_edges_of(cycles) ^ {(0, 3), (6, 9)}


def test_integrate_two_edges_randomized_stress():
    # module invariant: 10^4 random instances at n <= 12; the construction
    # either verifies or reports the obstruction, matching the brute check
    rng = rng_for("two-edge-stress")
    exceptional = 0
    for _ in range(10_000):
        n = rng.randrange(4, 13)
        cycles = random_cycle_set(n, rng)
        pts = rng.sample(range(n), 4)
        f1, f2 = norm_edge(pts[0], pts[1]), norm_edge(pts[2], pts[3])
        exc = is_exceptional_k4(cycles, f1, f2)
        assert exc == brute_exceptional(cycles, f1, f2)
        res = integrate_two_edges(cycles, f1, f2)
        if isinstance(res, ExceptionalCase):
            exceptional += 1
            assert exc
        else:
            assert not exc
            assert xor_members(res) == cycle_edges_of(cycles) ^ {f1, f2}
    assert exceptional > 0


def test_choose_pair_prefers_first():
    cycles = [(0, 1, 2, 3, 4, 5)]
    fs = [(6, 7), (8, 9), (10, 11)]
    pair, tp = choose_integrable_pair(cycles, fs)
    assert pair == ((6, 7), (8, 9))


def test_choose_pair_dodges_obstruction():
    cycles = [(0, 1, 2, 3), (4, 5, 6)]
    fs = [(0, 2), (1, 3), (7, 8)]  # first pair is the K4 obstruction
    pair, tp = choose_integrable_pair(cycles, fs)
    assert set(pair) != {(0, 2), (1, 3)}
    assert xor_members(tp) == cycle_edges_of(cycles) ^ set(pair)


def test_choose_pair_random():
    rng = rng_for("choose-pair")
    for _ in range(1500):
        n = rng.randrange(6, 13)
        cycles = random_cycle_set(n, rng)
        pts = rng.sample(range(n), 6)
        fs = [norm_edge(pts[2 * i], pts[2 * i + 1]) for i in range(3)]
        pair, tp = choose_integrable_pair(cycles, fs)
        assert xor_members(tp) == cycle_edges_of(cycles) ^ set(pair)


def test_four_edges_basic():
    ca = [(0, 1, 2)]
    cb = [(3, 4, 5)]
    fs = [(6, 7), (8, 9), (10, 11), (12, 13)]
    quad = integrate_four_edges(ca, cb, fs)
    assert len(quad) == 4
    assert xor_members(quad) == cycle_edges_of(ca) ^ cycle_edges_of(cb) ^ set(fs)


def test_four_edges_reroutes_around_obstruction():
    ca = [(0, 1, 2, 3), (8, 9, 10)]
    cb = [(4, 5, 6, 7)]
    fs = [(0, 2), (1, 3), (4, 6), (5, 7)]  # the first pair is obstructed on ca
    quad = integrate_four_edges(ca, cb, fs)
    assert xor_members(quad) == cycle_edges_of(ca) ^ cycle_edges_of(cb) ^ set(fs)


def test_four_edges_random():
    rng = rng_for("four-edges")
    for _ in range(800):
        n = rng.randrange(8, 15)
        verts = list(range(n))
        rng.shuffle(verts)
        size_a = rng.randrange(3, 6)
        ca = [tuple(verts[:size_a])]
        cb = []
        if n - size_a >= 3:
            size_b = rng.randrange(3, min(6, n - size_a + 1))
            cb = [tuple(verts[size_a : size_a + size_b])]
        pts = rng.sample(range(n), 8)
        fs = [norm_edge(pts[2 * i], pts[2 * i + 1]) for i in range(4)]
        quad = integrate_four_edges(ca, cb, fs)
        assert xor_members(quad) == cycle_edges_of(ca) ^ cycle_edges_of(cb) ^ set(fs)


def test_splice_needs_the_stand_in_on_exactly_one_path():
    paths = TwoPaths((0, 1, 2), (3, 4))
    # the walk is turned to meet the path in either orientation
    for walk in ((1, 5, 2), (2, 5, 1)):
        assert splice_stand_ins(paths, [((1, 2), walk)]) == ((0, 1, 5, 2), (3, 4))
    with pytest.raises(InternalInvariantError, match="on 0 paths"):
        splice_stand_ins(paths, [((0, 5), (0, 6, 5))])
    with pytest.raises(InternalInvariantError, match="on 2 paths"):
        splice_stand_ins(TwoPaths((0, 1, 2), (2, 1, 3)), [((1, 2), (1, 5, 2))])


def _matchings(vertices):
    """Perfect matchings of an even vertex tuple, as ordered edge lists."""
    if not vertices:
        yield []
        return
    a = vertices[0]
    for b in vertices[1:]:
        rest = tuple(v for v in vertices[1:] if v != b)
        for tail in _matchings(rest):
            yield [(a, b)] + tail


def _kit_digest():
    """sha256 over every public kit result on a fixed corpus.

    The corpus is criterion 9's (cycle set, edge pair) sweep cut to six
    vertices, with one-edge, three-edge and four-edge calls on the same cycle
    sets; a few wider cycle sets, swept with up to two vertices off the
    cycles, for the branches six vertices cannot reach (the K4 obstruction,
    two chorded 4-cycles, a lone endpoint on a third cycle); and the
    loose-path case of iso_cover_general.  Rejected calls record their exception class.
    """
    h = hashlib.sha256()

    def put(fn, *args):
        try:
            out = fn(*args)
        except ValueError as exc:
            out = type(exc).__name__
        h.update(f"{fn.__name__}{args!r}={out!r}\n".encode())

    def sweep_pairs(cset, m):
        for quad in combinations(range(m), 4):
            if not set(range(sum(map(len, cset)), m)) <= set(quad):
                continue
            for split in ((0, 1, 2, 3), (0, 2, 1, 3), (0, 3, 1, 2)):
                f1 = (quad[split[0]], quad[split[1]])
                f2 = (quad[split[2]], quad[split[3]])
                put(is_exceptional_k4, cset, f1, f2)
                put(integrate_two_edges, cset, f1, f2)

    csets = [cs for c in (0, 3, 4, 5, 6) for cs in cycle_partitions(tuple(range(c)))]
    six = list(_matchings(tuple(range(6))))
    eight = list(_matchings(tuple(range(8))))[::7]
    for i, cset in enumerate(csets):
        for m in range(4, 7):
            sweep_pairs(cset, m)
        if not cset:
            continue
        put(cover_cycles, cset)
        for f in combinations(range(6), 2):
            for z in (None, *range(6)):
                put(integrate_one_edge, cset, f, z)
        for fs in six:
            put(choose_integrable_pair, cset, fs)
            put(choose_integrable_pair, cset, fs[1:] + fs[:1])
        for fs in eight:
            put(integrate_four_edges, cset, csets[-1 - i], fs)

    wider = [
        [(3, 2, 1, 0), (6, 5, 4)],
        [(0, 2, 1, 3), (4, 5, 6)],
        [(0, 1, 2, 3, 4), (5, 6, 7)],
        [(0, 1, 2, 3, 4, 5), (6, 7, 8)],
        [(0, 1, 2, 3), (4, 5, 6, 7)],
        [(0, 1, 2), (3, 4, 5), (6, 7, 8)],
        [(0, 1, 2, 3), (4, 5, 6, 7), (8, 9, 10)],
    ]
    for cset in wider:
        c = sum(map(len, cset))
        for m in range(c, c + 3):
            sweep_pairs(cset, m)
        for fs in ([(0, 2), (1, 3), (4, 6)], [(0, 3), (1, 4), (5, 7)]):
            put(choose_integrable_pair, cset, fs)
        put(integrate_four_edges, cset, [(9, 10, 11)], [(0, 2), (1, 3), (4, 6), (5, 7)])
        put(integrate_four_edges, [(9, 10, 11)], cset, [(0, 2), (1, 3), (4, 6), (5, 7)])
    put(
        integrate_four_edges,
        [(9, 10, 11)],
        [(0, 1, 2, 3), (4, 5, 6)],
        [(12, 13), (0, 2), (7, 8), (1, 3)],
    )

    for edges in (
        [(0, 1), (1, 2), (3, 4), (5, 6), (6, 7), (7, 8), (5, 8)],
        [(0, 1), (1, 2), (2, 3), (4, 5), (5, 6), (4, 6), (7, 8)],
        [(0, 1), (2, 3), (3, 4), (4, 2), (5, 6), (6, 7)],
    ):
        cover, branch = iso_cover_general(Graph(9, edges))
        h.update(f"iso{edges!r}={branch}:{cover.members!r}\n".encode())
    return h.hexdigest()


def test_kit_outputs_are_pinned():
    # one hash over the whole corpus: any change to a kit path, split or
    # endpoint choice shows here, even when the result still verifies
    assert _kit_digest() == (
        "89ec019b0e41cddcb67faa5153512fe68d72d015a012fea75a15e886b55bacfa"
    )
