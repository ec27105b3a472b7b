import pytest
from hypothesis import given
from hypothesis import strategies as st

from oddcover.core import (
    Graph,
    OddCover,
    degree2_components,
    degree_profile,
    lower_bound,
    max_subgraph_density,
    verify_cover,
)
from oddcover.families import counterexample, disjoint_cycles
from oddcover.oracle import EdgeVector, edge_index
from oddcover.twopaths import cover_cycles

from support import all_graphs, random_graph, rng_for, xor_members


def test_edge_index_is_bit_exact():
    # index(u, v) = u*n - u(u+1)/2 + (v - u - 1), row by row
    n = 6
    expected = 0
    for u in range(n):
        for v in range(u + 1, n):
            assert edge_index(n, u, v) == expected
            assert EdgeVector(n, 1 << expected).edges() == [(u, v)]
            expected += 1
    assert expected == 15


def test_edge_index_rejects_bad_pairs():
    with pytest.raises(ValueError):
        edge_index(4, 2, 2)
    with pytest.raises(ValueError):
        edge_index(4, 1, 4)


vectors = st.integers(min_value=0, max_value=(1 << 6) - 1)


@given(vectors, vectors, vectors)
def test_xor_group_laws(a, b, c):
    va, vb, vc = (EdgeVector(4, x) for x in (a, b, c))
    assert va ^ vb == vb ^ va
    assert (va ^ vb) ^ vc == va ^ (vb ^ vc)
    assert va ^ va == EdgeVector(4, 0)


def test_xor_exhaustive_tiny():
    # all pairs over the K4 edge space
    for a in range(64):
        for b in range(64):
            assert (EdgeVector(4, a) ^ EdgeVector(4, b)).bits == a ^ b


def test_xor_universe_mismatch():
    with pytest.raises(ValueError):
        EdgeVector(4, 1) ^ EdgeVector(5, 1)


def test_xor_examples():
    tri = EdgeVector.from_edges(3, [(0, 1), (1, 2), (0, 2)])
    assert (tri ^ tri).bits == 0
    a = EdgeVector.from_edges(3, [(0, 1), (1, 2)])
    b = EdgeVector.from_edges(3, [(1, 2), (0, 2)])
    assert sorted((a ^ b).edges()) == [(0, 1), (0, 2)]
    singles = [EdgeVector.from_edges(3, [e]) for e in [(0, 1), (1, 2), (0, 2)]]
    acc = EdgeVector(3, 0)
    for s in singles:
        acc = acc ^ s
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
    from oddcover.solver import disjoint_cycles_of

    return disjoint_cycles_of(g)


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
        vec = EdgeVector(n, 0)
        for p in members:
            acc = EdgeVector.from_edges(n, zip(p, p[1:]))
            vec = vec ^ acc
        assert vec == EdgeVector.from_edges(n, g.edges)


def test_lower_bound_examples():
    assert lower_bound(Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])) == 1
    star = Graph(6, [(0, i) for i in range(1, 6)])
    assert lower_bound(star) == 3  # v_odd = 6
    k4 = Graph(4, [(u, v) for u in range(4) for v in range(u + 1, 4)])
    assert lower_bound(k4, with_density=True) == 2


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
    with pytest.raises(ValueError):
        lower_bound(Graph(13), with_density=True)


def test_lower_bound_never_exceeds_oracle_small():
    from oddcover.oracle import exact_p2

    for n in range(1, 5):
        for g in all_graphs(n):
            assert lower_bound(g, with_density=True) <= exact_p2(g)[0]
    rng = rng_for("lb-oracle-6")
    for _ in range(60):
        g = random_graph(6, 0.5, rng)
        assert lower_bound(g, with_density=True) <= exact_p2(g)[0]
