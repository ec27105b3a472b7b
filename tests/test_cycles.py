import hashlib
import random

import pytest

from oddcover.core import Graph, InternalInvariantError, degree_profile, norm_edge
from oddcover.cycles import (
    _bipartite_perfect_matching,
    balanced_orientation,
    max_degree_cycle_cover,
    odd_matching,
    peel_cycle_layers,
)
from oddcover.families import eulerian_random, gnp
from oddcover.solver import cycle_odd_cover, path_odd_cover

from support import (
    complete,
    hamiltonian_union,
    random_graph,
    reference_odd_matching,
    reference_peel_cycle_layers,
    rng_for,
    run_with_deadline,
    star,
    windmill,
)


def digest(obj):
    return hashlib.sha256(repr(obj).encode()).hexdigest()[:16]


def cycle_edge_list(cycle):
    k = len(cycle)
    return [norm_edge(cycle[i], cycle[(i + 1) % k]) for i in range(k)]


def test_odd_matching_eulerian_is_empty():
    g = Graph(3, [(0, 1), (1, 2), (0, 2)])
    assert odd_matching(g) == frozenset()


def test_odd_matching_path_closes_triangle():
    g = Graph(3, [(0, 1), (1, 2)])
    m = odd_matching(g)
    assert m == frozenset({(0, 2)})
    assert g.xor(m).edges == Graph(3, [(0, 1), (1, 2), (0, 2)]).edges


def test_odd_matching_two_disjoint_edges():
    g = Graph(4, [(0, 1), (2, 3)])
    m = odd_matching(g)
    assert len(m) == 2
    assert g.xor(m).is_even()


def test_odd_matching_properties_random():
    rng = rng_for("odd-matching")
    for _ in range(300):
        g = random_graph(rng.randrange(2, 20), rng.choice([0.2, 0.5, 0.8]), rng)
        _, v_odd, odd = degree_profile(g)
        m = odd_matching(g)
        assert len(m) == v_odd // 2
        assert sorted(v for e in m for v in e) == odd
        g2 = g.xor(m)
        assert g2.is_even()


def test_odd_matching_matches_the_quadratic_greedy():
    rng = rng_for("odd-matching-reference")
    graphs = [random_graph(rng.randrange(0, 41), rng.random(), rng) for _ in range(600)]
    graphs += [star(n) for n in range(12)] + [windmill(t) for t in range(8)]
    # a pendant on the hub makes the maximum degree odd
    graphs += [Graph(2 * t + 2, windmill(t).edges | {(0, 2 * t + 1)}) for t in range(8)]
    for g in graphs:
        assert odd_matching(g) == reference_odd_matching(g)


_STAR_MATCHING = """
from oddcover.cycles import odd_matching
from support import star
m = odd_matching(star(10 ** 5))
assert m == frozenset((v, v + 1) for v in range(1, 10 ** 5, 2))
"""


def test_odd_matching_is_linear_on_a_star():
    # all 10^5 leaves are odd; a greedy that rescans the unmatched vertices
    # for every pick needs about 25 minutes at this size, so the deadline fails it
    run = run_with_deadline(_STAR_MATCHING, 30)
    assert run.returncode == 0, run.stderr


def test_balanced_orientation_triangle():
    g = Graph(3, [(0, 1), (1, 2), (0, 2)])
    arcs = balanced_orientation(g)
    heads = {v for _, v in arcs}
    tails = {u for u, _ in arcs}
    assert heads == tails == {0, 1, 2}


def test_balanced_orientation_two_squares():
    g = Graph(8, [(0, 1), (1, 2), (2, 3), (0, 3), (4, 5), (5, 6), (6, 7), (4, 7)])
    arcs = balanced_orientation(g)
    outd = [0] * 8
    ind = [0] * 8
    for u, v in arcs:
        outd[u] += 1
        ind[v] += 1
    assert outd == ind == [1] * 8


def test_balanced_orientation_k5():
    g = Graph(5, [(u, v) for u in range(5) for v in range(u + 1, 5)])
    arcs = balanced_orientation(g)
    outd = [0] * 5
    ind = [0] * 5
    for u, v in arcs:
        outd[u] += 1
        ind[v] += 1
    assert outd == ind == [2] * 5


def test_balanced_orientation_rejects_odd_degrees():
    with pytest.raises(ValueError):
        balanced_orientation(Graph(2, [(0, 1)]))


def test_max_degree_cover_single_cycle():
    g = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    cc = max_degree_cycle_cover(g)
    assert len(cc) == 1 and set(cc[0]) == {0, 1, 2, 3}


def test_max_degree_cover_mixed_degree_example():
    # 7-vertex even graph with degree-4 core {1..5} and degree-2 fringe
    edges = [
        (0, 1), (1, 4), (4, 5), (3, 5), (2, 3), (0, 2),
        (1, 3), (5, 6), (4, 6), (3, 4), (1, 2), (2, 5),
    ]
    g = Graph(7, edges)
    deg = g.degrees()
    assert sorted(deg) == [2, 2, 4, 4, 4, 4, 4]
    cc = max_degree_cycle_cover(g)
    covered = {v for c in cc for v in c}
    assert {v for v in range(7) if deg[v] == 4} <= covered
    seen = set()
    for c in cc:
        assert len(c) >= 3
        assert not (seen & set(c))
        seen |= set(c)
        for e in cycle_edge_list(c):
            assert e in g.edges


def test_max_degree_cover_k5():
    g = Graph(5, [(u, v) for u in range(5) for v in range(u + 1, 5)])
    cc = max_degree_cycle_cover(g)
    assert {v for c in cc for v in c} == {0, 1, 2, 3, 4}


def test_max_degree_cover_removal_drops_max_degree_by_two():
    rng = rng_for("cover-drop")
    for trial in range(100):
        g = eulerian_random(rng.randrange(4, 30), seed=trial)
        if g.m == 0:
            continue
        delta, _, _ = degree_profile(g)
        cc = max_degree_cycle_cover(g)
        g2 = g.remove_edges(e for c in cc for e in cycle_edge_list(c))
        deg2 = g2.degrees()
        deg1 = g.degrees()
        for v in range(g.n):
            if deg1[v] == delta:
                assert deg2[v] == delta - 2
        assert g2.is_even()


def test_peel_layers_counts():
    g4 = Graph(5, [(u, v) for u in range(5) for v in range(u + 1, 5)])
    layers = peel_cycle_layers(g4)
    assert len(layers) == 2
    edges = [e for lay in layers for c in lay for e in cycle_edge_list(c)]
    assert sorted(edges) == sorted(g4.edges)
    single = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
    assert len(peel_cycle_layers(single)) == 1


def test_peel_layers_partition_random():
    rng = rng_for("peel")
    for trial in range(120):
        g = eulerian_random(rng.randrange(3, 40), seed=1000 + trial)
        layers = peel_cycle_layers(g)
        delta, _, _ = degree_profile(g)
        assert len(layers) == delta // 2
        edges = [e for lay in layers for c in lay for e in cycle_edge_list(c)]
        assert len(edges) == g.m and set(edges) == g.edges


def test_peel_layers_rejects_odd():
    with pytest.raises(ValueError):
        peel_cycle_layers(Graph(3, [(0, 1), (1, 2)]))


def test_layer_primitives_match_reference():
    # Outputs recorded before peel_cycle_layers oriented once: the
    # orientation and the single-layer cover are unchanged by it.
    covers, orientations = [], []
    for seed in range(50):
        g = eulerian_random(4 + seed % 37, seed=seed)
        if g.m == 0:
            covers.append(None)
            continue
        covers.append(max_degree_cycle_cover(g))
        orientations.append(balanced_orientation(g))
    assert digest(covers) == "94545b0a115887f0"
    assert digest(orientations) == "487ffb4fc36a9be3"


def test_peel_outputs_are_pinned():
    # Recorded before the first matching phase became a greedy pass and the
    # Euler walk marked used edges by id.  Sparse rounds leave isolated
    # vertices; the dense graphs need augmenting paths after the first phase.
    out = []
    for n in range(3, 81):
        g = eulerian_random(n, seed=n, rounds=None if n % 3 else 2)
        out.append((peel_cycle_layers(g), cycle_odd_cover(g).members))
    g = hamiltonian_union(2000, 3, seed=0)
    out.append((peel_cycle_layers(g), cycle_odd_cover(g).members))
    for p in (0.05, 0.3, 0.6):
        for n in range(6, 61, 6):
            out.append(path_odd_cover(gnp(n, p, seed=n)).members)
    assert hashlib.sha256(repr(out).encode()).hexdigest() == (
        "b98e63ae1930f1bade3ac5ad990498386cf0c68fbd8a41d4329db9b0841af53e"
    )


def reaches_the_maximum_mid_peel(g, layers):
    """Some vertex off a layer's cycles has the new maximum degree after it."""
    deg = g.degrees()
    delta = max(deg)
    for layer in layers[:-1]:
        on = {v for c in layer for v in c}
        for v in on:
            deg[v] -= 2
        delta -= 2
        if any(deg[v] == delta for v in range(g.n) if v not in on):
            return True
    return False


def test_layer_loop_matches_the_reference():
    # The loop keeps its matching rows between layers and matches only the
    # vertices that still carry arcs; the reference rebuilds all n rows per
    # layer.  Their layers must be equal.
    rng = rng_for("layer-loop")
    graphs = [
        eulerian_random(rng.randrange(3, 60), seed=s, rounds=rng.choice([None, 2]))
        for s in range(120)
    ]
    odd = [random_graph(rng.randrange(2, 40), rng.random(), rng) for _ in range(150)]
    odd += [star(k) for k in range(1, 16)] + [windmill(t) for t in range(1, 10)]
    graphs += [g.xor(odd_matching(g)) for g in odd]
    # few edges in a large universe: most vertices are isolated throughout
    for s in range(20):
        h = eulerian_random(12, seed=s)
        graphs.append(Graph(300, [(5 * u + 2, 5 * v + 2) for u, v in h.edges]))
    # a windmill's hub sets the maximum; the K5 reaches it after some layers
    k5 = complete(5).edges
    for t in (3, 4, 5):
        w = windmill(t)
        graphs.append(Graph(w.n + 5, w.edges | {(u + w.n, v + w.n) for u, v in k5}))
    mid = 0
    for g in graphs:
        layers = peel_cycle_layers(g)
        assert layers == reference_peel_cycle_layers(g)
        mid += g.m > 0 and reaches_the_maximum_mid_peel(g, layers)
    assert reaches_the_maximum_mid_peel(graphs[-1], peel_cycle_layers(graphs[-1]))
    assert mid >= 100


def test_bipartite_matching_mates_match_reference():
    # The DFS runs on an explicit stack with the recursive scan order, so
    # the mates recorded from the recursive version are reproduced.
    rng = random.Random("bpm")
    mates = []
    for _ in range(200):
        n = rng.randrange(1, 60)
        perm = list(range(n))
        rng.shuffle(perm)
        adj = [
            sorted({perm[u]} | {v for v in range(n) if rng.random() < 0.1})
            for u in range(n)
        ]
        mates.append(_bipartite_perfect_matching(adj, range(n)))
    assert digest(mates) == "a9654fa7af810f5f"


def test_bipartite_matching_boundaries():
    assert _bipartite_perfect_matching([], range(0)) == []
    # Row 1 has no column at all, so no phase can match it.
    with pytest.raises(InternalInvariantError):
        _bipartite_perfect_matching([[0], [], [1, 2]], range(3))
    with pytest.raises(InternalInvariantError):
        _bipartite_perfect_matching([[], []], range(2))
    # Each row's first free column already gives a perfect matching.
    assert _bipartite_perfect_matching([[1, 2], [0, 1], [0, 2]], range(3)) == [1, 0, 2]


def test_bipartite_matching_long_augmenting_path():
    # Row u is [u, u + 1]: the first phase matches u -> u and leaves the
    # last row unmatched, so one augmenting path runs through every row.
    n = 5000
    adj = [[u, u + 1] for u in range(n - 1)] + [[0]]
    mate = _bipartite_perfect_matching(adj, range(n))
    assert mate == [u + 1 for u in range(n - 1)] + [0]


def test_peel_cycle_layers_orients_once(monkeypatch):
    from oddcover import cycles

    orient_calls = []
    graphs_built = []
    real_orient = cycles._orient
    real_init = Graph.__init__

    def counting_orient(adj):
        orient_calls.append([row.copy() for row in adj])
        return real_orient(adj)

    def counting_init(self, *args, **kwargs):
        graphs_built.append(1)
        real_init(self, *args, **kwargs)

    inputs = [eulerian_random(n, seed=3) for n in (8, 20, 40, 80)]
    deltas = [degree_profile(g)[0] for g in inputs]
    assert deltas == sorted(deltas) and deltas[-1] >= 5 * deltas[0]
    monkeypatch.setattr(cycles, "_orient", counting_orient)
    monkeypatch.setattr(Graph, "__init__", counting_init)
    built = []
    for g in inputs:
        orient_calls.clear()
        graphs_built.clear()
        layers = peel_cycle_layers(g)
        assert len(layers) == degree_profile(g)[0] // 2
        assert orient_calls == [g.adjacency()]
        built.append(len(graphs_built))
    assert len(set(built)) == 1
