import hashlib
import subprocess
import sys
from itertools import combinations

import pytest

from oddcover import core, solver, twopaths
from oddcover.core import (
    Graph,
    InternalInvariantError,
    OddCover,
    degree_profile,
    path_edges,
    verify_cover,
)
from oddcover.families import (
    counterexample,
    cycles_on_path,
    disjoint_cycles,
    eulerian_random,
    gnp,
)
from oddcover.solver import (
    cover_eulerian_plus_matching,
    cover_first_bound,
    cycle_odd_cover,
    iso_cover_general,
    path_odd_cover,
    peel_odd_path,
    peel_odd_paths,
)
from oddcover.systems import iso_cover_from_forests

from support import gnm, hamiltonian_union, rng_for, run_with_deadline


def K(n):
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def test_peel_odd_path_whole_path():
    g = Graph(4, [(0, 1), (1, 2), (2, 3)])
    p, rest = peel_odd_path(g)
    assert p in ((0, 1, 2, 3), (3, 2, 1, 0))
    assert rest.m == 0


def test_peel_odd_path_star():
    # center last so the two smallest odd ids are leaves: leaf-to-leaf path
    g = Graph(4, [(3, 0), (3, 1), (3, 2)])
    p, rest = peel_odd_path(g)
    assert p == (0, 3, 1) and rest.m == 1
    assert degree_profile(rest)[1] == 2


def test_peel_odd_path_drops_two():
    rng = rng_for("peel-odd")
    done = 0
    while done < 60:
        g = gnp(rng.randrange(4, 25), 0.3, seed=rng.randrange(10_000))
        _, v_odd, _ = degree_profile(g)
        if v_odd < 2:
            continue
        _, rest = peel_odd_path(g)
        assert degree_profile(rest)[1] == v_odd - 2
        done += 1


def test_peel_odd_path_requires_odd_vertices():
    with pytest.raises(ValueError):
        peel_odd_path(Graph(3, [(0, 1), (1, 2), (0, 2)]))


def test_peel_odd_paths_whole_path():
    g = Graph(4, [(0, 1), (1, 2), (2, 3)])
    paths, rest = peel_odd_paths(g, 1)
    assert paths in ([(0, 1, 2, 3)], [(3, 2, 1, 0)])
    assert rest.m == 0


def test_peel_odd_paths_star():
    # all four vertices are odd: one path joins two of them, two stay odd
    g = Graph(4, [(3, 0), (3, 1), (3, 2)])
    (p,), rest = peel_odd_paths(g, 1)
    odd = degree_profile(g)[2]
    assert p[0] != p[-1] and p[0] in odd and p[-1] in odd
    assert rest.edges == g.edges - set(path_edges(p)) and rest.m == g.m - (len(p) - 1)
    assert degree_profile(rest)[1] == 2


def test_peel_odd_paths_one_drops_two():
    rng = rng_for("peel-odd")
    done = 0
    while done < 60:
        g = gnp(rng.randrange(4, 25), 0.3, seed=rng.randrange(10_000))
        _, v_odd, _ = degree_profile(g)
        if v_odd < 2:
            continue
        _, rest = peel_odd_paths(g, 1)
        assert degree_profile(rest)[1] == v_odd - 2
        done += 1


def test_peel_odd_paths_requires_odd_vertices():
    with pytest.raises(ValueError):
        peel_odd_paths(Graph(3, [(0, 1), (1, 2), (0, 2)]), 1)


def test_peel_odd_paths_split_the_odd_set():
    rng = rng_for("peel-odd-batch")
    for trial in range(120):
        n = rng.randrange(2, 60)
        g = gnp(n, min(1.0, rng.choice([1.0, 2.0, 4.0]) / n), seed=trial)
        _, v_odd, odd = degree_profile(g)
        paths, rest = peel_odd_paths(g, v_odd // 2)
        assert len(paths) == v_odd // 2
        assert sorted(v for p in paths for v in (p[0], p[-1])) == odd
        used = [e for p in paths for e in path_edges(p)]
        assert len(used) == len(set(used)) and set(used) <= g.edges
        assert all(len(p) >= 2 and len(set(p)) == len(p) for p in paths)
        assert rest.edges == g.edges - set(used) and rest.is_even()
        k = rng.randrange(v_odd // 2 + 1)
        part, rest_k = peel_odd_paths(g, k)
        assert part == paths[:k]
        assert degree_profile(rest_k)[1] == v_odd - 2 * k


def test_peel_odd_paths_rejects_bad_counts():
    g = Graph(4, [(0, 1), (2, 3)])
    assert peel_odd_paths(g, 0) == ([], g)
    for p in (-1, 3):
        with pytest.raises(ValueError):
            peel_odd_paths(g, p)


def test_path_odd_cover_rebatches_when_delta_drops(monkeypatch):
    # gnp(30, 0.05, seed=20): v_odd/2 = 7, delta = 5; the first batch of
    # one path lowers delta to 4, so a second batch of two follows.
    batches = []
    real = solver._peel_odd_paths

    def spy(adj, p):
        batches.append((max(map(len, adj)), p))
        return real(adj, p)

    monkeypatch.setattr(solver, "_peel_odd_paths", spy)
    g = gnp(30, 1.5 / 30, seed=20)
    _, v_odd, _ = degree_profile(g)
    cover = path_odd_cover(g)
    assert batches == [(5, 1), (4, 2)]
    assert verify_cover(cover).valid and cover.count == v_odd // 2


def test_cover_first_bound_examples():
    single = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
    assert cover_first_bound(single).count == 2
    path = Graph(4, [(0, 1), (1, 2), (2, 3)])
    assert cover_first_bound(path).count == 1
    k5 = cover_first_bound(K(5))
    assert verify_cover(k5).valid and k5.count <= 4


def test_path_odd_cover_verifies_once(monkeypatch):
    # K5 minus an edge: delta = 4 and two odd vertices, so the matching
    # edge is integrated into a cycle layer; only the whole cover is checked.
    calls = []
    real = core.verify_cover

    def spy(cover):
        calls.append(cover.count)
        return real(cover)

    monkeypatch.setattr(core, "verify_cover", spy)
    g = Graph(5, sorted(K(5).edges - {(0, 1)}))
    assert degree_profile(g)[:2] == (4, 2)
    cover = path_odd_cover(g)
    assert calls == [cover.count]


@pytest.mark.parametrize("solve", [path_odd_cover, cover_first_bound])
def test_layer_loop_faults_are_caught(monkeypatch, solve):
    # a wrong pair from the plain-layer step must still fail the self-check
    monkeypatch.setattr(solver, "cover_cycles", lambda cs: twopaths.TwoPaths((0, 1), (0, 1)))
    with pytest.raises(InternalInvariantError):
        solve(K(5))


def test_cover_eulerian_plus_matching_no_matching():
    g = K(5)  # 4-regular: two layers, two paths each
    cover = cover_eulerian_plus_matching(g, [])
    assert verify_cover(cover).valid and cover.count == 4
    assert cover.target == g


def test_cover_eulerian_plus_matching_single_edge():
    g = Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    cover = cover_eulerian_plus_matching(g, [(0, 3)])
    assert verify_cover(cover).valid and cover.count == 2
    assert cover.target.edges == g.xor([(0, 3)]).edges


def test_cover_eulerian_plus_matching_pair():
    rng = rng_for("eul-pair")
    done = 0
    trial = 0
    while done < 30:
        trial += 1
        g = eulerian_random(rng.randrange(6, 16), seed=trial)
        delta, _, _ = degree_profile(g)
        if delta != 4:
            continue
        m = [(0, 1), (2, 3)]
        if any(set(e) & set(f) for e in m for f in m if e != f):
            continue
        cover = cover_eulerian_plus_matching(g, m)
        assert verify_cover(cover).valid and cover.count <= 4
        done += 1


def test_lone_edge_layer_outputs_are_pinned():
    # Recorded before |M| = 2 became the one-edge state run twice.  Even
    # graphs with 0-3 cycle layers take 1-5 matching edges, so padded layers
    # and |M| = 2 on a single layer are reached; the G(n, p) draws pair 2, 4
    # or 6 odd vertices without peeling.
    rng = rng_for("lone-edge-pin")
    out = []
    for n in range(10, 16):
        for k in range(4):
            for g in (
                hamiltonian_union(n, k, seed=n) if k else Graph(n),
                Graph(n, disjoint_cycles(k, n // k).edges) if k else Graph(n),
                eulerian_random(n, seed=10 * n + k, rounds=k + 1),
            ):
                for size in range(1, 6):
                    ends = rng.sample(range(n), 2 * size)
                    m = list(zip(ends[::2], ends[1::2]))
                    cover = cover_eulerian_plus_matching(g, m)
                    out.append((g.n, sorted(g.edges), m, cover.members))
    paths = 0
    while paths < 60:
        g = gnp(rng.randrange(5, 13), rng.choice([0.2, 0.35, 0.5]), rng.randrange(10**6))
        delta, v_odd, _ = degree_profile(g)
        if v_odd in (2, 4, 6) and v_odd // 2 <= 2 * -(-delta // 2):
            out.append((g.n, sorted(g.edges), path_odd_cover(g).members))
            paths += 1
    assert hashlib.sha256(repr(out).encode()).hexdigest() == (
        "b83b8cbfa3b192197ce45bd78e570b206c87dfec4361f0d41e307b933453cdfe"
    )


def test_cover_eulerian_plus_matching_rejects_odd():
    with pytest.raises(ValueError):
        cover_eulerian_plus_matching(Graph(2, [(0, 1)]), [])
    with pytest.raises(ValueError):
        cover_eulerian_plus_matching(Graph(4), [(0, 1), (1, 2)])


def test_path_odd_cover_disjoint_cycles_exactly_two():
    for k in range(1, 7):
        cover = path_odd_cover(disjoint_cycles(k, 4))
        assert cover.count == 2 and verify_cover(cover).valid


def test_path_odd_cover_figure_family():
    g = cycles_on_path(3, 5)
    delta, v_odd, _ = degree_profile(g)
    assert (delta, v_odd) == (4, 2)
    cover = path_odd_cover(g)
    assert verify_cover(cover).valid
    assert cover.count <= max(v_odd // 2, 2 * -(-delta // 2)) == 4


def test_path_odd_cover_star():
    # v_odd dominates: 8 odd vertices allow 8 paths, construction returns <= 8
    g = Graph(8, [(0, i) for i in range(1, 8)])
    cover = path_odd_cover(g)
    assert verify_cover(cover).valid and cover.count <= 8
    # the true optimum is 4 = v_odd/2 - a known gap case for the bound
    hand = OddCover(g, [(1, 0, 2), (3, 0, 4), (5, 0, 6), (7, 0)], "path")
    assert verify_cover(hand).valid


def test_path_odd_cover_bound_random():
    rng = rng_for("poc")
    for trial in range(300):
        g = gnp(rng.randrange(1, 41), rng.choice([0.1, 0.3, 0.5]), seed=trial)
        cover = path_odd_cover(g)
        delta, v_odd, _ = degree_profile(g)
        assert verify_cover(cover).valid
        assert cover.count <= max(v_odd // 2, 2 * -(-delta // 2))


def test_path_odd_cover_matching_only():
    g = Graph(8, [(0, 1), (2, 3), (4, 5), (6, 7)])
    cover = path_odd_cover(g)
    assert verify_cover(cover).valid and cover.count <= 4


def test_cycle_odd_cover_small():
    single = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
    cover = cycle_odd_cover(single)
    assert cover.count == 1 and verify_cover(cover).valid
    k5 = cycle_odd_cover(K(5))
    assert verify_cover(k5).valid and k5.count <= 4


def test_cycle_odd_cover_random():
    rng = rng_for("coc")
    for trial in range(100):
        g = eulerian_random(rng.randrange(3, 31), seed=trial)
        cover = cycle_odd_cover(g)
        delta, _, _ = degree_profile(g)
        assert verify_cover(cover).valid and cover.count <= delta


def test_cycle_odd_cover_rejects_odd_degrees():
    with pytest.raises(ValueError):
        cycle_odd_cover(Graph(2, [(0, 1)]))


def test_integration_rounds_set_the_iso_budget():
    assert [solver._integration_rounds(size) for size in range(5)] == [0, 1, 2, 2, 2]
    for g, branch, t, d, delta_e in (
        (K(4), "no-residual", 2, 0, 4),  # v_odd = 4, delta = 3
        (Graph(8, [(0, 1), (2, 3), (4, 5), (6, 7)]), "direct", 2, -2, 2),  # v_odd = 8
        (K(5), "linear-arboricity", 0, 4, 4),  # Eulerian
    ):
        delta, v_odd, _ = degree_profile(g)
        assert solver._integration_rounds(v_odd // 2) == t
        assert 2 * -(-delta // 2) == delta_e and delta_e - 2 * t == d
        cover, got = iso_cover_general(g)
        assert got == branch and verify_cover(cover).valid
        assert cover.count <= (v_odd // 2 if d < 0 else 2 * t + d)


def test_iso_cover_general_eulerian_delegates_to_forests():
    g = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    cover, branch = iso_cover_general(g)
    assert verify_cover(cover).valid
    assert branch in ("linear-arboricity", "layer-pairs")
    assert cover.count == 2


def test_iso_cover_general_vodd4_low_degree():
    g = Graph(8, [(0, 1), (1, 2), (3, 4), (5, 6), (6, 7), (5, 7)])
    cover, branch = iso_cover_general(g)
    assert branch == "two-paths" and cover.count == 2
    assert verify_cover(cover).valid


def test_iso_cover_general_vodd4_high_degree_budget():
    # v_odd = 4 with delta >= 3 forces t = 2 (budget 2t + d = 4 + 0 for K4)
    g = K(4)
    delta, v_odd, _ = degree_profile(g)
    assert v_odd == 4 and delta == 3
    cover, branch = iso_cover_general(g)
    assert verify_cover(cover).valid
    assert cover.count <= 4


def test_iso_cover_general_negative_budget():
    g = Graph(8, [(0, 1), (2, 3), (4, 5), (6, 7)])  # v_odd = 8, delta = 1
    cover, branch = iso_cover_general(g)
    assert branch == "direct" and cover.count <= 4
    assert verify_cover(cover).valid


@pytest.mark.parametrize(
    "n, branch, m2",
    [(5, "linear-arboricity", 10), (6, "no-residual", 12), (7, "linear-arboricity", 21)],
)
def test_iso_cover_general_peels_once(monkeypatch, n, branch, m2):
    # the first t layers of g XOR M absorb the matching as they are; the
    # residual is the remaining layers, so nothing is peeled a second time
    calls = []
    real = solver._peel_layers

    def spy(adj):
        calls.append(sum(map(len, adj)) // 2)
        return real(adj)

    monkeypatch.setattr(solver, "_peel_layers", spy)
    cover, got = iso_cover_general(K(n))
    assert verify_cover(cover).valid and calls == [m2]
    assert got == branch


def test_iso_cover_general_random():
    rng = rng_for("iso-general")
    for trial in range(150):
        g = gnp(rng.randrange(1, 22), rng.choice([0.15, 0.35]), seed=trial)
        cover, branch = iso_cover_general(g)
        assert verify_cover(cover).valid, (sorted(g.edges), branch)


def test_solvers_on_trivial_universes():
    for n in (0, 1, 2):
        g = Graph(n)
        assert path_odd_cover(g).count == 0
        assert cover_first_bound(g).count == 0
        assert cycle_odd_cover(g).count == 0
        cover, _ = iso_cover_general(g)
        assert cover.count == 0
    single = Graph(2, [(0, 1)])
    assert path_odd_cover(single).count == 1
    assert cover_first_bound(single).count == 1


def test_counterexample_iso_cover_uses_one_extra_vertex():
    g, paths, forests, cert = counterexample(3)
    cover = iso_cover_from_forests(g, forests)
    assert cover.count == 3 and cover.target.n == g.n + 1
    assert verify_cover(cover).valid


_DENSE_SWEEP = """
from oddcover.core import Graph, verify_cover
from oddcover.families import gnp
from oddcover.oracle import exact_linear_forests
from oddcover.solver import iso_cover_general
from support import complete

graphs = [complete(n) for n in range(2, 11)]
graphs += [
    Graph(a + b, [(u, a + v) for u in range(a) for v in range(b)])
    for a in range(1, 6)
    for b in range(a, 11 - a)
]
graphs += [gnp(n, p / 10, s) for n in (8, 9, 10) for p in range(5, 10) for s in range(8)]
assert len(graphs) == 154
assert exact_linear_forests(complete(9), 4) is None  # 4 * (9 - 1) < 36 edges
for g in graphs:
    cover, _ = iso_cover_general(g)
    assert verify_cover(cover).valid
"""


def test_dense_iso_covers_return_promptly():
    # K9's residual once sent exact_linear_forests through an exhaustive
    # search; each child has a deadline, so a stall fails instead of hanging
    sweep = run_with_deadline(_DENSE_SWEEP, 60)
    assert sweep.returncode == 0, sweep.stderr
    k9 = "9 36\n" + "".join(f"{u} {v}\n" for u, v in combinations(range(9), 2))
    cli = subprocess.run(
        [sys.executable, "-m", "oddcover.cli", "iso-cover", "-"],
        input=k9,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert cli.returncode == 0, cli.stderr


# gnm(n, 1.5 n, seed) inputs whose path_odd_cover peels in three batches
THREE_BATCHES = [(100, 37), (350, 27), (400, 12), (600, 4)]


def sparse_corpus():
    """gnm(n, 1.5 n) for n = 50...900, four seeds each (39 of them peel in
    two batches), plus the three-batch inputs."""
    pairs = [(n, seed) for n in range(50, 901, 50) for seed in range(4)]
    return [gnm(n, 3 * n // 2, seed) for n, seed in pairs + THREE_BATCHES]


def test_sparse_pipelines_are_pinned():
    # Recorded before the pipelines shared one residual.  Every iso cover of
    # the sparse corpus goes to path_odd_cover; the G(n, 0.3) ones have
    # n > 10 and cover their residual with layer pairs.
    out = []
    branches = set()

    def iso(g):
        cover, branch = iso_cover_general(g)
        out.append((cover.members, cover.target.n, branch))
        return branch

    for g in sparse_corpus():
        out.append((path_odd_cover(g).members, cover_first_bound(g).members))
        iso(g)
    for n in range(11, 90, 6):
        branches.add(iso(gnp(n, 0.3, seed=n)))
    for n in range(6, 200, 7):
        out.append(cycle_odd_cover(eulerian_random(n, seed=n)).members)
    assert branches == {"layer-pairs"}
    assert hashlib.sha256(repr(out).encode()).hexdigest() == (
        "bf7a75d9454047ffe088b5488b77af5ceb4c9ba4b8fa301f7c2006796600e2b9"
    )


@pytest.mark.parametrize(
    "n, seed, batches", [(50, 0, 1), (100, 1, 2)] + [(n, s, 3) for n, s in THREE_BATCHES]
)
def test_pipelines_build_no_graph(monkeypatch, n, seed, batches):
    # one residual per call: the rows of g are peeled, XORed with M and cut
    # into layers in place, so no step builds a Graph
    g = gnm(n, 3 * n // 2, seed)
    e = eulerian_random(n, seed=seed)
    peeled, built = [], []
    real_peel, real_init = solver._peel_odd_paths, Graph.__init__

    def spy(adj, p):
        peeled.append(p)
        return real_peel(adj, p)

    def counting_init(self, *args, **kwargs):
        built.append(1)
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(solver, "_peel_odd_paths", spy)
    monkeypatch.setattr(Graph, "__init__", counting_init)
    covers = [path_odd_cover(g)]
    assert len(peeled) == batches
    covers += [cover_first_bound(g), cycle_odd_cover(e)]
    assert built == []
    assert all(verify_cover(c).valid for c in covers)
