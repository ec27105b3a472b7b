import pytest

from oddcover.core import norm_edge
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
)

from conftest import random_cycle_set, rng_for, xor_members


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
