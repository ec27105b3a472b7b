import pytest

from oddcover import core
from oddcover.core import (
    Graph,
    InternalInvariantError,
    OddCover,
    VerificationReport,
    certified,
    degree2_components,
    degree_profile,
    lower_bound,
    max_subgraph_density,
    verify_cover,
)
from oddcover.families import counterexample, disjoint_cycles
from oddcover.oracle import _mask, edge_index, exact_c2, exact_p2
from oddcover.solver import (
    cover_eulerian_plus_matching,
    cover_first_bound,
    cycle_odd_cover,
    iso_cover_general,
    path_odd_cover,
)
from oddcover.systems import (
    cycle_iso_cover,
    cycle_top_cover,
    iso_cover_from_forests,
    topological_cover,
)
from oddcover.twopaths import cover_cycles

from support import all_graphs, complete, random_graph, rng_for, xor_members


def test_edge_index_is_bit_exact():
    # index(u, v) = u*n - u(u+1)/2 + (v - u - 1), row by row
    n = 6
    expected = 0
    for u in range(n):
        for v in range(u + 1, n):
            assert edge_index(n, u, v) == expected
            assert _mask(n, [(v, u)]) == 1 << expected
            expected += 1
    assert expected == 15


def test_edge_index_rejects_bad_pairs():
    with pytest.raises(ValueError):
        edge_index(4, 2, 2)
    with pytest.raises(ValueError):
        edge_index(4, 1, 4)


def test_xor_examples():
    tri = _mask(3, [(0, 1), (1, 2), (0, 2)])
    assert tri ^ tri == 0
    a = _mask(3, [(0, 1), (1, 2)])
    b = _mask(3, [(1, 2), (0, 2)])
    assert a ^ b == _mask(3, [(0, 1), (0, 2)])
    acc = 0
    for e in [(0, 1), (1, 2), (0, 2)]:
        acc ^= _mask(3, [e])
    assert acc == tri


def test_graph_validation():
    with pytest.raises(ValueError):
        Graph(3, [(0, 0)])
    with pytest.raises(ValueError):
        Graph(3, [(0, 3)])
    with pytest.raises(ValueError):
        Graph(3, [(0, 1), (1, 0)])


def test_equal_graphs_hash_equal():
    a = Graph(4, [(2, 3), (0, 1)])
    b = Graph(4, [(1, 0), (3, 2)])
    assert a == b and hash(a) == hash(b)
    assert len({a, b, Graph(5, [(0, 1), (2, 3)])}) == 2


def test_degree2_components_mixed():
    # paths 5-2-7 and 9-4, cycles 1-3-8 and 0-6-10-11, isolated 12 and 13
    edges = [(7, 2), (2, 5), (4, 9), (8, 1), (3, 8), (1, 3)]
    edges += [(6, 0), (10, 6), (11, 10), (0, 11)]
    paths, cycles = degree2_components(14, edges)
    assert paths == [(4, 9), (5, 2, 7)]  # each from its smaller end
    assert cycles == [(0, 6, 10, 11), (1, 3, 8)]  # smallest, then smaller neighbour
    with pytest.raises(ValueError):
        degree2_components(4, [(0, 1), (0, 2), (0, 3)])  # degree 3
    with pytest.raises(ValueError):
        degree2_components(3, [(0, 1), (1, 3)])  # vertex 3 outside 0..2


def test_degree_profile_examples():
    assert degree_profile(Graph(5)) == (0, 0, [])
    assert degree_profile(Graph(3, [(0, 1), (1, 2)])) == (2, 2, [0, 2])
    g, _, _, _ = counterexample(3)
    assert degree_profile(g) == (6, 0, [])


def test_handshake_on_random_graphs():
    rng = rng_for("handshake")
    for _ in range(200):
        g = random_graph(rng.randrange(1, 15), rng.random(), rng)
        assert degree_profile(g)[1] % 2 == 0


def test_verify_single_path_on_path_graph():
    g = Graph(4, [(0, 1), (1, 2), (2, 3)])
    assert verify_cover(OddCover(g, [(0, 1, 2, 3)], "path")).valid


def test_verify_two_path_cover_of_disjoint_cycles():
    g = disjoint_cycles(4, 5)
    tp = cover_cycles(sorted_cycles(g))
    report = verify_cover(OddCover(g, [tp.p, tp.q], "path"))
    assert report.valid and len([tp.p, tp.q]) == 2


def sorted_cycles(g):
    return degree2_components(g.n, g.edges)[1]


def test_verify_self_cancellation_is_invalid():
    g = Graph(3, [(0, 1), (1, 2)])
    report = verify_cover(OddCover(g, [(0, 1, 2), (0, 1, 2)], "path"))
    assert not report.valid
    assert report.missing_edges == [(0, 1), (1, 2)]


def test_verify_reports_member_defects():
    g = Graph(3, [(0, 1)])
    report = verify_cover(OddCover(g, [(0, 0)], "path"))
    assert not report.valid and report.member_errors


def test_verify_reports_an_unknown_kind():
    # load_witness rejects unknown kinds first, so only a direct call gets here
    report = verify_cover(OddCover(Graph(3, [(0, 1)]), [], "walk"))
    assert not report.valid
    assert report.member_errors == ["unknown kind 'walk'"]


def test_verify_against_bitset_xor_agrees():
    rng = rng_for("verify-bitset")
    for _ in range(300):
        n = rng.randrange(2, 8)
        members = []
        for _ in range(rng.randrange(0, 4)):
            size = rng.randrange(2, n + 1)
            members.append(tuple(rng.sample(range(n), size)))
        odd = xor_members(members)
        g = Graph(n, odd)
        assert verify_cover(OddCover(g, members, "path")).valid
        vec = 0
        for p in members:
            vec ^= _mask(n, zip(p, p[1:]))
        assert vec == _mask(n, g.edges)


def test_lower_bound_examples():
    assert lower_bound(Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])) == 1
    star = Graph(6, [(0, i) for i in range(1, 6)])
    assert lower_bound(star) == 3  # v_odd = 6
    k4 = Graph(4, [(u, v) for u in range(4) for v in range(u + 1, 4)])
    assert max(lower_bound(k4), max_subgraph_density(k4)) == 2


def test_density_bound_brute_force_k4():
    # independent oracle: scan all vertex subsets of K4 directly
    k4 = Graph(4, [(u, v) for u in range(4) for v in range(u + 1, 4)])
    best = 0
    from itertools import combinations

    for r in range(2, 5):
        for sub in combinations(range(4), r):
            e = sum(1 for u, v in k4.edges if u in sub and v in sub)
            best = max(best, -(-e // (r - 1)))
    assert best == 2
    assert max_subgraph_density(k4) == best


def test_density_bound_size_guard():
    with pytest.raises(ValueError):
        max_subgraph_density(Graph(13))


def test_lower_bound_never_exceeds_oracle_small():
    from oddcover.oracle import exact_p2

    for n in range(1, 5):
        for g in all_graphs(n):
            assert max(lower_bound(g), max_subgraph_density(g)) <= exact_p2(g)[0]
    rng = rng_for("lb-oracle-6")
    for _ in range(60):
        g = random_graph(6, 0.5, rng)
        assert max(lower_bound(g), max_subgraph_density(g)) <= exact_p2(g)[0]


def test_certified_needs_the_count_and_the_xor():
    g = Graph(3, [(0, 1), (1, 2)])
    cover = OddCover(g, [(0, 1, 2)], "path")
    assert certified(cover, True, "hand cover") is cover
    with pytest.raises(InternalInvariantError, match="^hand cover failed self-check$"):
        certified(cover, False, "hand cover")
    with pytest.raises(InternalInvariantError, match="^hand cover failed self-check$"):
        certified(OddCover(g, [(0, 1)], "path"), True, "hand cover")


K5 = complete(5)
_FOREST_GRAPH, _, _FORESTS, _ = counterexample(3)


def _iso(g, branch):
    cover, got = iso_cover_general(g)
    assert got == branch
    return cover


# Each public exit on a small input, with the name it fails under.  The
# topological and cycle_top rows reach every subdivision exit: k = 0, k = 1
# and reduced paths; a single cycle, no edges and closed cycles.  The last
# row is the oracle's trivial exit (n < 2).
EXITS = [
    ("additive-bound cover", lambda: cover_first_bound(K5)),
    ("matching integration", lambda: cover_eulerian_plus_matching(K5, [(0, 1)])),
    ("degree-bound cover", lambda: path_odd_cover(K5.remove_edges([(0, 1)]))),
    ("isolated-vertex cover", lambda: _iso(K5, "linear-arboricity")),
    ("isolated-vertex cover", lambda: _iso(disjoint_cycles(1, 11), "layer-pairs")),
    ("cycle cover", lambda: cycle_odd_cover(K5)),
    ("topological cover", lambda: topological_cover(K5)),
    ("forest stitching", lambda: iso_cover_from_forests(_FOREST_GRAPH, _FORESTS)),
    ("apex closing", lambda: cycle_iso_cover(_FOREST_GRAPH, _FORESTS)),
    ("single-cycle cover", lambda: cycle_top_cover(disjoint_cycles(1, 5))),
    ("cycle cover of subdivision", lambda: cycle_top_cover(K5)),
    ("oracle witness", lambda: exact_p2(complete(4))),
    ("oracle witness", lambda: exact_c2(K5)),
    ("topological cover", lambda: topological_cover(Graph(3))),
    ("topological cover", lambda: topological_cover(Graph(3, [(0, 1), (1, 2)]))),
    ("cycle cover of subdivision", lambda: cycle_top_cover(Graph(4))),
    ("oracle witness", lambda: exact_p2(Graph(1))),
]


@pytest.mark.parametrize("what, solve", EXITS, ids=[f"{i}-{w}" for i, (w, _) in enumerate(EXITS)])
def test_every_public_exit_is_certified(monkeypatch, what, solve):
    # Count the checks a clean run makes, then fail only the last one: the
    # exit itself must raise, under its own name, through core.verify_cover.
    real = core.verify_cover
    calls = []
    monkeypatch.setattr(core, "verify_cover", lambda cover: calls.append(cover) or real(cover))
    solve()
    last = len(calls)
    assert last >= 1
    calls.clear()

    def fail_last(cover):
        calls.append(cover)
        return VerificationReport(valid=False) if len(calls) == last else real(cover)

    monkeypatch.setattr(core, "verify_cover", fail_last)
    with pytest.raises(InternalInvariantError, match=f"^{what} failed self-check$"):
        solve()
    assert len(calls) == last
