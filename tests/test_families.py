import pytest

from oddcover.core import Graph, OddCover, degree_profile, norm_edge, path_edges, verify_cover
from oddcover.families import (
    counterexample,
    cycles_on_path,
    disjoint_cycles,
    eulerian_random,
    generate,
    gnp,
    walecki_cycles,
)
from oddcover.systems import linear_forest_components


def test_gnp_deterministic():
    assert gnp(12, 0.3, seed=7).edges == gnp(12, 0.3, seed=7).edges
    assert gnp(12, 0.3, seed=7).edges != gnp(12, 0.3, seed=8).edges


def test_disjoint_cycles_shape():
    g = disjoint_cycles(4, 4)
    assert degree_profile(g) == (2, 0, [])
    assert g.n == 16 and g.m == 16


def test_cycles_on_path_shape():
    g = cycles_on_path(3, 5)
    delta, v_odd, _ = degree_profile(g)
    assert (delta, v_odd) == (4, 2)
    # one cycle hung on a 3-vertex path: known minimum is k + 1 = 2
    small = cycles_on_path(1, 3)
    from oddcover.oracle import exact_p2

    assert exact_p2(small)[0] == 2


def test_eulerian_random_always_even():
    for seed in range(30):
        g = eulerian_random(11, seed=seed)
        assert g.is_even()


def test_eulerian_random_rejects_a_negative_vertex_count():
    with pytest.raises(ValueError, match="need n >= 0"):
        eulerian_random(-1, seed=0)
    for n in range(3):
        assert eulerian_random(n, seed=0) == Graph(n)


@pytest.mark.parametrize("k", [3, 5, 7])
def test_walecki_partitions_complete_graph(k):
    n = 2 * k + 1
    cycles = walecki_cycles(k)
    assert len(cycles) == k and all(len(c) == n for c in cycles)
    edges = [
        norm_edge(c[i], c[(i + 1) % n]) for c in cycles for i in range(n)
    ]
    assert len(edges) == k * n
    assert set(edges) == {(u, v) for u in range(n) for v in range(u + 1, n)}


def test_counterexample_k3_structure():
    g, paths, forests, cert = counterexample(3)
    assert g.n == 14
    delta, v_odd, _ = degree_profile(g)
    assert delta == 6 and v_odd == 0
    assert cert["holds"] and cert["edges"] == 38
    assert cert["slots_needed"] == 40 and cert["slots_available"] == 39


def test_counterexample_witnesses_verify():
    for k in (3, 5):
        g, paths, forests, cert = counterexample(k)
        cover = OddCover(g, paths, "path")
        assert verify_cover(cover).valid and cover.count == k + 1
        # the path witness is a decomposition: edges are disjoint
        used = [e for p in cover.members for e in path_edges(p)]
        assert len(used) == len(set(used)) == g.m
        flat = [e for f in forests for e in f]
        assert len(flat) == g.m and set(flat) == g.edges
        assert len(forests) == k
        for f in forests:
            linear_forest_components(g.n, f)
        assert cert["slots_needed"] == 4 * k * k + k + 1
        assert cert["slots_available"] == k * (4 * k + 1)
        assert cert["slots_needed"] > cert["slots_available"]


def test_counterexample_rejects_even_or_small():
    with pytest.raises(ValueError):
        counterexample(2)
    with pytest.raises(ValueError):
        counterexample(1)


def test_generate_dispatch():
    assert generate("gnp", n=6, p=0.5, seed=1).n == 6
    assert generate("cycles", k=2, len=3).m == 6
    assert generate("cycles-on-path", k=2, len=3).n > 4
    assert generate("walecki", k=3).m == 21
    assert generate("counterexample", k=3).n == 14
    assert generate("eulerian-random", n=8, seed=0).is_even()
    with pytest.raises(ValueError):
        generate("nope")
