import hashlib
import io
import json

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
from oddcover.solver import iso_cover_general
from oddcover.systems import (
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

from support import (
    hamiltonian_forests,
    hamiltonian_union,
    linear_forest_pair,
    random_graph,
    rng_for,
    run_with_deadline,
    xor_members,
)


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


def test_well_distributed_checks_each_clause():
    three_ends = PathSystem([[(0, 1), (2, 3), (4, 5)], [(1, 6, 2)], [(5, 7, 8)]], 9)
    two_and_none = PathSystem([[(0, 1), (2, 3)], [(1, 5, 2)]], 6)
    lonely = PathSystem([[(0, 1), (2, 3)], [(1, 5, 6)], [(0, 7, 8)]], 9)
    for sys in (three_ends, two_and_none, lonely):
        classify_endpoints(sys)  # valid, but not well-distributed
        assert not is_well_distributed(sys)
    assert is_well_distributed(PathSystem([[(0, 1, 2)], [(2, 3, 4)], [(4, 5, 0)]], 6))


def test_join_merges_square_into_two_paths():
    sys = square_system()
    before = sys.parity_edges()
    out = join(sys, 1, 3)
    assert sum(len(c) for c in out.collections) == 2
    assert out.parity_edges() == before
    # the doubled edge 1-3 cancels but appears in both merged paths
    for coll in out.collections:
        assert len(coll) == 1
        assert {1, 3} <= set(coll[0])


def test_join_rejects_type_I():
    sys = PathSystem([[(0, 1), (2, 3)], [(1, 2)]], 4)
    with pytest.raises(ValueError):
        join(sys, 0, 2)


def test_join_rejects_leaving_a_lonely_path_beside_others():
    # joining at 1 and 2 merges (0, 1) and (2, 3) into a path with two type I
    # ends, while (4, 5) stays in the same collection
    sys = PathSystem([[(0, 1), (2, 3), (4, 5)], [(1, 6, 4), (2, 7, 8)], [(5, 9, 10)]], 11)
    assert is_well_distributed(sys)
    with pytest.raises(ValueError, match="well-distributedness"):
        join(sys, 1, 2)


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
    assert sum(len(c) for c in out.collections) == 2 and not events
    members = [c[0] for c in out.collections]
    assert xor_members(members) == square_system().parity_edges()


def test_reduction_validates_whole_system_a_constant_number_of_times(monkeypatch):
    # the moves check only the paths they touch; the whole system is
    # validated at entry and exit, however many joins run in between
    counts = {"classify": 0, "join": 0}
    real_classify = systems._validated_index
    real_join = systems._EndpointIndex.join

    def classify(sys):
        counts["classify"] += 1
        return real_classify(sys)

    def join(self, u, v):
        counts["join"] += 1
        return real_join(self, u, v)

    monkeypatch.setattr(systems, "_validated_index", classify)
    monkeypatch.setattr(systems._EndpointIndex, "join", join)
    h, cover, chains = topological_cover(gnp(100, 0.1, seed=1))
    assert verify_cover(cover).valid
    assert counts["join"] > 100
    assert counts["classify"] == 2


def seeded_index(g):
    """The endpoint index _reduced_topological_paths reduces for g."""
    collections = systems._seed_collections(g, lower_bound(g))
    return systems._EndpointIndex(PathSystem(collections, g.n + 2 * g.m))


def recount(idx):
    """From scratch: every endpoint's entries, and per collection its type I
    ends and its paths with two of them."""
    ones, lonely = [0] * idx.k, [0] * idx.k
    ends = {}
    for c, paths in enumerate(idx.colls):
        for pid, p in paths.items():
            ends.setdefault(p[0], []).append((c, pid))
            ends.setdefault(p[-1], []).append((c, pid))
    for c, paths in enumerate(idx.colls):
        for p in paths.values():
            t0, t1 = len(ends[p[0]]) == 1, len(ends[p[-1]]) == 1
            ones[c] += t0 + t1
            lonely[c] += t0 and t1
    return {v: sorted(e) for v, e in ends.items()}, ones, lonely


def check_ends(idx):
    ends, _, _ = recount(idx)
    assert {v: sorted(e) for v, e in idx.ends.items()} == ends
    assert idx.total == sum(len(paths) for paths in idx.colls)


def check_index(idx):
    check_ends(idx)
    _, ones, lonely = recount(idx)
    assert (idx.ones, idx.lonely) == (ones, lonely)
    wd = max(ones) <= 2 and not (2 in ones and 0 in ones) and not any(
        n and len(paths) > 1 for n, paths in zip(lonely, idx.colls)
    )
    assert idx.well_distributed() == wd


def checked_moves(monkeypatch, check, names=("join", "insert", "meet"), moves=None):
    moves = [] if moves is None else moves
    for name in names:
        real = getattr(systems._EndpointIndex, name)

        def move(self, *args, real=real, name=name):
            out = real(self, *args)
            moves.append(name)
            check(self)
            return out

        monkeypatch.setattr(systems._EndpointIndex, name, move)
    return moves


def test_index_counters_match_a_recount_after_every_move(monkeypatch):
    # join and insert keep the counts exact; meet, on forests, keeps the ends
    moves = checked_moves(monkeypatch, check_index, ("join", "insert"))
    checked_moves(monkeypatch, check_ends, ("meet",), moves)
    rng = rng_for("index-recount")
    graphs = [
        gnp(rng.randrange(6, 30), rng.choice([0.15, 0.3]), rng.randrange(10**6))
        for _ in range(25)
    ]
    graphs += [eulerian_random(rng.randrange(6, 16), seed=rng.randrange(10**6)) for _ in range(15)]
    graphs += [hamiltonian_union(60, 3, seed=2)]
    reduced = 0
    for g in graphs:
        if is_exceptional_family(g) or lower_bound(g) < 2:
            continue
        idx = seeded_index(g)
        check_index(idx)
        before = len(moves)
        systems._reduce(idx, [])
        assert len(moves) > before and idx.total == idx.k
        reduced += 1
    assert reduced >= 30
    g, forests = hamiltonian_forests(200, seed=1)
    iso_cover_from_forests(g, forests)
    assert moves.count("meet") > 50


def test_reduction_picks_match_a_scan(monkeypatch):
    # the lazy heaps pick what a scan of the collections in order would
    def scan(idx):
        sizes = [len(c) for c in idx.colls]
        c1 = sizes.index(max(sizes))
        assert idx.largest() == c1
        coll = idx.colls[c1]
        if len(coll) >= 2:
            assert list(idx.first_two(c1)) == list(coll)[:2]
        if len(coll) >= 3:
            two = idx.is_two
            first = next(t for t, p in coll.items() if two(p[0]) and two(p[-1]))
            assert idx.first_both_two(c1) == first

    moves = checked_moves(monkeypatch, scan)
    for g in (gnp(60, 0.1, seed=5), eulerian_random(14, seed=3), hamiltonian_union(80, 3, seed=1)):
        systems._reduce(seeded_index(g), [])
    assert len(moves) > 100


class CountingDict(dict):
    def __init__(self, *args):
        super().__init__(*args)
        self.lookups = 0

    def __getitem__(self, key):
        self.lookups += 1
        return super().__getitem__(key)


def test_endpoint_work_per_move_does_not_grow_with_m(monkeypatch):
    # each move and each well-distributedness check reads a constant number
    # of endpoints, however long the collections are (k = 3 here)
    moves = checked_moves(monkeypatch, lambda idx: None, ("join", "insert"))
    per_move = []
    for n in (100, 1600):
        idx = seeded_index(hamiltonian_union(n, 3, seed=4))
        idx.ends = CountingDict(idx.ends)
        before = len(moves)
        systems._reduce(idx, [])
        per_move.append(idx.ends.lookups / (len(moves) - before))
    assert per_move[1] < 40 and per_move[1] < 1.5 * per_move[0], per_move


def subdivision_witness(h, cover, chains):
    return [h.n, cover.members, sorted([list(e), ch] for e, ch in chains.items())]


def pin_subdivision_graphs(rng):
    """The inputs of the pinned topological_cover and cycle_top_cover rows."""
    top, cyc = [], []
    while len(top) < 40:
        g = random_graph(rng.randrange(4, 22), rng.choice([0.15, 0.3, 0.5]), rng)
        if not is_exceptional_family(g) and lower_bound(g) >= 2:
            top.append(g)
    top.append(gnp(120, 0.05, seed=3))
    trial = 0
    while len(cyc) < 40:
        trial += 1
        g = eulerian_random(rng.randrange(5, 16), seed=900 + trial)
        if degree_profile(g)[0] >= 4:
            cyc.append(g)
    cyc.append(hamiltonian_union(200, 3, seed=4))
    return top, cyc


def test_witness_bytes_pinned():
    # sha256 of seeded outputs of every caller of join, insert and meet,
    # recorded before the moves ran on counters and heaps
    rng = rng_for("pin-systems")
    top_graphs, cyc_graphs = pin_subdivision_graphs(rng)
    top = [subdivision_witness(*topological_cover(g)) for g in top_graphs]
    cyc = [subdivision_witness(*cycle_top_cover(g)) for g in cyc_graphs]
    iso = []
    while len(iso) < 60:
        n = rng.randrange(5, 11)
        if len(iso) % 2:
            g = random_graph(n, rng.choice([0.3, 0.5]), rng)
        else:
            g = eulerian_random(n, seed=rng.randrange(10**6))
        if g.m:
            cover, branch = iso_cover_general(g)
            iso.append([branch, cover.target.n, cover.members])
    assert sum(row[0] == "linear-arboricity" for row in iso) == 38  # meets ran
    forest = [
        iso_cover_from_forests(*hamiltonian_forests(300, seed)).members for seed in (1, 2, 3)
    ]
    sizes = [(8, 2), (12, 3), (20, 4), (40, 6), (120, 10), (300, 20)] * 3
    la2 = [
        list(two_path_cover_la2(*linear_forest_pair(n, r, seed)))
        for seed, (n, r) in enumerate(sizes)
    ]
    digests = {
        name: hashlib.sha256(json.dumps(rows).encode()).hexdigest()
        for name, rows in (
            ("top", top), ("cycle_top", cyc), ("iso", iso), ("forest", forest), ("la2", la2)
        )
    }
    assert digests == {
        "top": "54ae4546d67a8db565eb8252d312c7d48126ce9a251b462a6f8aa87f3fe7f9cc",
        "cycle_top": "177c76ce69c7a28d518dfb6f2c48a968e05f72ced4534d569d089255ddb89876",
        "iso": "58dc6a56964fe027dbbc75a09bd70b3b8b4d82c7531a1c98afa5ac5baa041ad4",
        "forest": "9c39589b1804fe19ffabae557cc0e9a433718cd04638ab49ee744fff9eac3981",
        "la2": "69c47cf80d103cd4272f5d8dde75be1f45452eb876fd61cb71bf970f3d1ad837",
    }


def test_every_subdivision_vertex_knows_its_home_edge():
    # the returned chains run along H's edges, one per edge of g, and hold
    # every new vertex of H exactly once
    top_graphs, cyc_graphs = pin_subdivision_graphs(rng_for("pin-systems"))
    for solve, graphs in ((topological_cover, top_graphs), (cycle_top_cover, cyc_graphs)):
        for g in graphs:
            h, cover, chains = solve(g)
            assert list(chains) == sorted(g.edges)
            assert all((ch[0], ch[-1]) == e for e, ch in chains.items())
            steps = {norm_edge(a, b) for ch in chains.values() for a, b in zip(ch, ch[1:])}
            assert steps == h.edges
            inner = sorted(x for ch in chains.values() for x in ch[1:-1])
            assert inner == list(range(g.n, h.n))


def test_seed_class_paths_are_longest_at_two_colours():
    # From three colours on, every middle edge avoids both stub colours, so a
    # class path has at most two edges.  At k = 2 a middle edge whose stubs
    # differ takes the second stub's colour, and a class path can run middle,
    # stub, original vertex, stub, middle: four edges.
    rng = rng_for("seed-class-paths")
    longest, seeded = {}, 0
    for _ in range(200):
        if rng.random() < 0.7:
            g = gnp(rng.randrange(4, 25), rng.choice([0.1, 0.2, 0.35, 0.6]), rng.randrange(10**6))
        else:
            g = eulerian_random(rng.randrange(6, 16), seed=rng.randrange(10**6))
        k = lower_bound(g)
        if k < 2:
            continue
        seeded += 1
        edges = max(len(p) - 1 for coll in systems._seed_collections(g, k) for p in coll)
        longest[k] = max(longest.get(k, 0), edges)
    assert seeded >= 150
    assert longest == {2: 4, **{k: 2 for k in range(3, 11)}}


def test_subdivision_exit_rejects_members_that_subdivide_nothing():
    g = Graph(3, [(0, 1), (1, 2)])
    h, cover, chains = systems._certified_subdivision(
        g, [(0, 3, 4, 1, 5, 2)], 6, "path", True, "hand cover"
    )
    assert chains == {(0, 1): [0, 3, 4, 1], (1, 2): [1, 5, 2]} and h.n == 6
    for members, n in (
        ([(0, 3, 4, 1, 5, 2), (3, 6)], 7),  # new vertex 3 has degree 3
        ([(0, 3, 2), (1, 4, 2)], 5),  # the chain from 0 ends at 2, not 1
        ([(0, 3, 4, 1, 5, 2)], 7),  # new vertex 6 lies on no chain
        ([(0, 3, 1)], 4),  # edge (1, 2) has no chain
    ):
        with pytest.raises(InternalInvariantError, match="^hand cover: .* subdivision$"):
            systems._certified_subdivision(g, members, n, "path", True, "hand cover")


_WINDMILL_CYCLE_TOP = """
from oddcover.core import verify_cover
from oddcover.systems import cycle_top_cover
from support import windmill
h, cover, chains = cycle_top_cover(windmill(15000))
assert verify_cover(cover).valid and cover.count == 15000
"""


def test_cycle_top_cover_is_linear_on_a_windmill():
    # every triangle ends at the hub; a closing loop that scans all paths for
    # each base's partners takes about a minute at this size, so the deadline fails it
    run = run_with_deadline(_WINDMILL_CYCLE_TOP, 30)
    assert run.returncode == 0, run.stderr


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
    state = PathSystem([[(0, 1), (2, 3)], [(1, 2), (3, 0)]], 4)
    before = state.parity_edges()
    out = meet(state, 1, 3)
    assert out.next_vertex == 5
    assert all(len(coll) == 1 for coll in out.collections)
    merged = out.collections[0][0]
    assert 4 in merged and {merged[0], merged[-1]} == {0, 2}
    assert out.parity_edges() == before  # uw, vw each land in two forests


def test_meet_rejects_bad_endpoints():
    state = PathSystem([[(0, 1), (2, 3)], [(1, 2, 0, 3)]], 4)
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


def test_cycle_top_cover_edgeless():
    g = Graph(5)
    h, cover, chains = cycle_top_cover(g)
    assert h == g and cover.members == [] and cover.kind == "cycle" and chains == {}


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
