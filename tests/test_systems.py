import io

import pytest

from oddcover import cli, systems
from oddcover.core import (
    Graph,
    InternalInvariantError,
    degree_profile,
    lower_bound,
    norm_edge,
    verify_cover,
)
from oddcover.families import eulerian_random, gnp
from oddcover.oracle import exact_linear_forests
from oddcover.systems import (
    ForestState,
    PathSystem,
    classify_endpoints,
    cycle_iso_cover,
    cycle_top_cover,
    insert,
    is_exceptional_family,
    is_well_distributed,
    iso_cover_from_forests,
    join,
    linear_forest_components,
    meet,
    reduce_system,
    topological_cover,
    two_path_cover_la2,
)

from conftest import random_graph, rng_for, xor_members


def square_system():
    # two collections of two one-edge paths around a 4-cycle; all type II
    return PathSystem([[(0, 1), (2, 3)], [(1, 2), (3, 0)]], 4)


def test_classify_square():
    sys = square_system()
    types = classify_endpoints(sys)
    assert set(types.values()) == {"II"}
    assert is_well_distributed(sys)


def test_classify_rejects_triple_endpoint():
    bad = PathSystem([[(0, 1)], [(1, 2)], [(1, 3)]], 4)
    with pytest.raises(ValueError):
        classify_endpoints(bad)


def test_classify_rejects_identical_terminal_edges():
    bad = PathSystem([[(0, 1)], [(2, 1, 0)]], 3)
    with pytest.raises(ValueError):
        classify_endpoints(bad)


def test_join_merges_square_into_two_paths():
    sys = square_system()
    before = sys.parity_edges()
    out = join(sys, 1, 3)
    assert out.total_paths() == 2
    assert out.parity_edges() == before
    # the doubled edge 1-3 cancels but appears in both merged paths
    for coll in out.collections:
        assert len(coll) == 1
        assert {1, 3} <= set(coll[0])


def test_join_rejects_type_I():
    sys = PathSystem([[(0, 1), (2, 3)], [(1, 2)]], 4)
    with pytest.raises(ValueError):
        join(sys, 0, 2)


def test_insert_bookkeeping():
    # three collections; insert donates a one-edge path to the third
    sys = PathSystem([[(0, 1, 2)], [(2, 3, 4)], [(4, 5, 0)]], 6)
    out, (z, u, z2) = insert(sys, 2, 0, 2)
    assert (z, u, z2) == (1, 2, 6)
    assert len(out.collections[0]) == 1
    assert len(out.collections[2]) == 2
    assert (6, 2) in out.collections[2] or (2, 6) in out.collections[2]
    assert is_well_distributed(out)


def test_insert_rejects_receiver_among_sharers():
    sys = PathSystem([[(0, 1, 2)], [(2, 3, 4)], [(4, 5, 0)]], 6)
    with pytest.raises(ValueError):
        insert(sys, 2, 0, 1)


def test_reduce_square_system():
    sys = square_system()
    out, events = reduce_system(sys)
    assert out.total_paths() == 2 and not events
    members = [c[0] for c in out.collections]
    assert xor_members(members) == square_system().parity_edges()


def test_reduction_validates_whole_system_a_constant_number_of_times(monkeypatch):
    # the moves check only the paths they touch; the whole system is
    # classified at entry and exit, however many joins run in between
    counts = {"classify": 0, "join": 0}
    real_classify = systems.classify_endpoints
    real_join = systems._EndpointIndex.join

    def classify(sys):
        counts["classify"] += 1
        return real_classify(sys)

    def join(self, u, v):
        counts["join"] += 1
        return real_join(self, u, v)

    monkeypatch.setattr(systems, "classify_endpoints", classify)
    monkeypatch.setattr(systems._EndpointIndex, "join", join)
    h, cover, chains = topological_cover(gnp(100, 0.1, seed=1))
    assert verify_cover(cover).valid
    assert counts["join"] > 100
    assert counts["classify"] <= 4


def test_topological_cover_gnp_400():
    g = gnp(400, 0.02, seed=1)
    h, cover, chains = topological_cover(g)
    assert verify_cover(cover).valid and cover.count == lower_bound(g)


def test_broken_move_is_an_internal_error(monkeypatch, capsys):
    # a join that loses a vertex changes the XOR of the paths it touches
    real = systems._orient_start

    def drop_last(p, v):
        return real(p, v)[:-1]

    monkeypatch.setattr(systems, "_orient_start", drop_last)
    with pytest.raises(InternalInvariantError):
        reduce_system(square_system())
    k5 = [(u, v) for u in range(5) for v in range(u + 1, 5)]
    with pytest.raises(InternalInvariantError):
        topological_cover(Graph(5, k5))
    lines = "".join(f"{u} {v}\n" for u, v in k5)
    monkeypatch.setattr("sys.stdin", io.StringIO(f"5 {len(k5)}\n{lines}"))
    assert cli.main(["top-cover", "-"]) == 3


def test_exceptional_family_detection():
    cyc = Graph(3, [(0, 1), (1, 2), (0, 2)])
    assert is_exceptional_family(cyc)
    cyc_path = Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5)])
    assert is_exceptional_family(cyc_path)
    two_paths = Graph(7, [(0, 1), (1, 2), (0, 2), (3, 4), (5, 6)])
    assert not is_exceptional_family(two_paths)  # two path components
    assert not is_exceptional_family(Graph(3, [(0, 1), (1, 2)]))


def test_topological_cover_path_graph_identity():
    g = Graph(4, [(0, 1), (1, 2), (2, 3)])
    h, cover, chains = topological_cover(g)
    assert h == g and cover.count == 1
    assert verify_cover(cover).valid


def test_topological_cover_rejects_exceptional():
    with pytest.raises(ValueError):
        topological_cover(Graph(3, [(0, 1), (1, 2), (0, 2)]))


def test_topological_cover_k4():
    g = Graph(4, [(u, v) for u in range(4) for v in range(u + 1, 4)])
    h, cover, chains = topological_cover(g)
    assert cover.count == 2  # v_odd = 4, delta = 3
    assert verify_cover(cover).valid
    # every original edge is now a chain of >= 3 edges between its endpoints
    for (u, v), ch in chains.items():
        assert ch[0] == u and ch[-1] == v and len(ch) >= 4


def test_topological_cover_k5():
    g = Graph(5, [(u, v) for u in range(5) for v in range(u + 1, 5)])
    h, cover, chains = topological_cover(g)
    assert cover.count == 2  # delta = 4, v_odd = 0
    assert verify_cover(cover).valid


def test_topological_cover_exact_count_random():
    rng = rng_for("topo")
    done = 0
    while done < 60:
        g = random_graph(rng.randrange(2, 15), rng.choice([0.2, 0.4]), rng)
        if is_exceptional_family(g):
            continue
        delta, v_odd, _ = degree_profile(g)
        k = max(v_odd // 2, -(-delta // 2))
        h, cover, chains = topological_cover(g)
        assert verify_cover(cover).valid and cover.count == k
        hedges = {
            norm_edge(ch[t], ch[t + 1])
            for ch in chains.values()
            for t in range(len(ch) - 1)
        }
        assert hedges == h.edges
        done += 1


def test_two_path_cover_la2_square():
    g = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    tp = two_path_cover_la2(g, [(0, 1), (2, 3)], [(1, 2), (0, 3)])
    assert xor_members(tp) == g.edges


def test_two_path_cover_la2_two_cycles():
    g = Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    f1 = [(0, 1), (1, 2), (3, 4), (4, 5)]
    f2 = [(0, 2), (3, 5)]
    tp = two_path_cover_la2(g, f1, f2)
    assert xor_members(tp) == g.edges


def test_two_path_cover_la2_rejects_bad_split():
    g = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    with pytest.raises(ValueError):
        two_path_cover_la2(g, [(0, 1)], [(1, 2), (0, 3)])  # not a partition
    with pytest.raises(ValueError):
        two_path_cover_la2(
            Graph(3, [(0, 1), (1, 2)]), [(0, 1)], [(1, 2)]
        )  # odd degrees


def test_linear_forest_components_validation():
    assert linear_forest_components(4, [(0, 1), (2, 3)]) == [(0, 1), (2, 3)]
    with pytest.raises(ValueError):
        linear_forest_components(3, [(0, 1), (1, 2), (0, 2)])  # cycle
    with pytest.raises(ValueError):
        linear_forest_components(4, [(0, 1), (0, 2), (0, 3)])  # degree 3


def test_meet_merges_components_through_new_vertex():
    # C4 split into opposite edge pairs; one meet fixes both forests
    state = ForestState([[(0, 1), (2, 3)], [(1, 2), (3, 0)]], 4)
    before = state.parity_edges()
    out = meet(state, 1, 3)
    assert out.next_vertex == 5
    assert all(len(coll) == 1 for coll in out.forests)
    merged = out.forests[0][0]
    assert 4 in merged and {merged[0], merged[-1]} == {0, 2}
    assert out.parity_edges() == before  # uw, vw each land in two forests


def test_meet_rejects_bad_endpoints():
    state = ForestState([[(0, 1), (2, 3)], [(1, 2, 0, 3)]], 4)
    with pytest.raises(ValueError):
        meet(state, 0, 1)  # two ends of one component
    with pytest.raises(ValueError):
        meet(state, 1, 2)  # 2 is interior to the only witness path


def test_iso_cover_from_forests_matches_class_count():
    rng = rng_for("iso-forests")
    done = 0
    trial = 0
    while done < 40:
        trial += 1
        g = eulerian_random(rng.randrange(4, 10), seed=trial)
        if g.m == 0:
            continue
        delta, _, _ = degree_profile(g)
        forests = None
        for k in range(max(1, -(-delta // 2)), delta + 2):
            forests = exact_linear_forests(g, k)
            if forests is not None and all(forests):
                break
        if forests is None or not all(forests):
            continue
        cover = iso_cover_from_forests(g, forests)
        assert verify_cover(cover).valid
        assert cover.count == len(forests)
        assert cover.target.n >= g.n
        done += 1


def test_iso_cover_forests_already_paths():
    # single-cycle split into two paths that meet at their ends: no vertex added
    g = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    cover = iso_cover_from_forests(g, [[(0, 1), (1, 2)], [(2, 3), (0, 3)]])
    assert cover.count == 2 and verify_cover(cover).valid
    assert cover.target.n == 4


def test_cycle_iso_cover_closes_through_apex():
    g = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    cover = cycle_iso_cover(g, [[(0, 1), (1, 2)], [(2, 3), (0, 3)]])
    assert cover.kind == "cycle" and verify_cover(cover).valid
    apex = cover.target.n - 1
    assert all(apex in c for c in cover.members)


def test_cycle_top_cover_single_cycle():
    g = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    h, cover, chains = cycle_top_cover(g)
    assert cover.count == 1 and verify_cover(cover).valid


def test_cycle_top_cover_rejects_two_cycles():
    g = Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    with pytest.raises(ValueError):
        cycle_top_cover(g)


def test_cycle_top_cover_k5():
    g = Graph(5, [(u, v) for u in range(5) for v in range(u + 1, 5)])
    h, cover, chains = cycle_top_cover(g)
    assert verify_cover(cover).valid and cover.count <= 2
    assert cover.kind == "cycle"


def test_cycle_top_cover_random_eulerian():
    rng = rng_for("cyc-top")
    done = 0
    trial = 0
    while done < 50:
        trial += 1
        g = eulerian_random(rng.randrange(4, 16), seed=500 + trial)
        delta, _, _ = degree_profile(g)
        if delta < 4:
            continue
        h, cover, chains = cycle_top_cover(g)
        assert verify_cover(cover).valid and cover.count <= delta // 2
        done += 1
