import hashlib
import os
from functools import lru_cache

import pytest

from oddcover import oracle
from oddcover.core import (
    Graph,
    degree_profile,
    lower_bound,
    max_subgraph_density,
    verify_cover,
)
from oddcover.families import disjoint_cycles
from oddcover.oracle import (
    bound_gap_scan,
    exact_c2,
    exact_linear_arboricity,
    exact_linear_forests,
    exact_p2,
    exact_p2_iso,
)
from oddcover.solver import path_odd_cover

from support import (
    all_graphs,
    random_graph,
    reference_linear_forests,
    rng_for,
    run_with_deadline,
)


def K(n):
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def test_enumerate_paths_counts():
    # sum over k of n!/(n-k)!/2 undirected vertex sequences
    for n, count in ((2, 1), (3, 6), (6, 975), (7, 6846)):
        masks, seqs = oracle._generators(n, "path")
        assert len(masks) == len(seqs) == count


def test_enumerate_paths_distinct_vectors():
    masks, _ = oracle._generators(5, "path")
    assert len(set(masks)) == len(masks)


def test_enumerate_cycles_counts():
    # sum over k of C(n,k) (k-1)!/2
    for n, count in ((3, 1), (5, 37), (7, 1172)):
        masks, seqs = oracle._generators(n, "cycle")
        assert len(masks) == len(seqs) == count


def test_exact_p2_named_values():
    assert exact_p2(Graph(3, [(0, 1), (1, 2)]))[0] == 1
    assert exact_p2(Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)]))[0] == 2
    assert exact_p2(disjoint_cycles(2, 3))[0] == 2
    assert exact_p2(K(4))[0] == 2
    assert exact_p2(K(5))[0] == 3


def test_exact_p2_k4_plus_k3_is_gap_one():
    # the known family where the minimum beats every structural lower bound
    g = Graph(7, list(K(4).edges) + [(4, 5), (5, 6), (4, 6)])
    k, cover = exact_p2(g)
    assert verify_cover(cover).valid
    base = max(lower_bound(g), max_subgraph_density(g))
    assert k == base + 1 == 3


def test_exact_p2_budget():
    assert exact_p2(K(5), max_k=2) is None
    k, _ = exact_p2(K(5), max_k=3)
    assert k == 3


def test_exact_p2_empty():
    assert exact_p2(Graph(4))[0] == 0
    with pytest.raises(ValueError):
        exact_p2(Graph(8))


def test_exact_c2_values():
    assert exact_c2(Graph(3, [(0, 1), (1, 2), (0, 2)]))[0] == 1
    assert exact_c2(disjoint_cycles(2, 3))[0] == 2
    assert exact_c2(K(5))[0] == 2
    assert exact_c2(K(7))[0] == 3


def test_exact_c2_rejects_odd_degree():
    with pytest.raises(ValueError):
        exact_c2(Graph(2, [(0, 1)]))


def test_exact_c2_at_least_half_delta():
    rng = rng_for("c2-lb")
    from oddcover.families import eulerian_random

    for trial in range(40):
        g = eulerian_random(rng.randrange(3, 7), seed=trial)
        res = exact_c2(g)
        assert res is not None
        delta, _, _ = degree_profile(g)
        assert res[0] >= delta // 2


def test_exact_p2_iso_monotone_and_budget():
    star = Graph(5, [(0, i) for i in range(1, 5)])
    plain = exact_p2(star)[0]
    padded = exact_p2_iso(star, extra=2)[0]
    assert padded <= plain
    with pytest.raises(ValueError):
        exact_p2_iso(Graph(6), extra=2)


def test_exact_p2_iso_eulerian_la2():
    # even-degree graphs decomposing into 2 linear forests have minimum 2
    g = Graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5)])
    assert exact_linear_forests(g, 2) is not None
    assert exact_p2(g)[0] == 2
    assert exact_p2_iso(g, extra=1)[0] == 2


def test_linear_forests_exhausted_search_refuses():
    # 7 vertices carry edges and 2 * 6 = 12 = m, so the count prune lets k = 2
    # through and the backtracking itself must run out
    g = Graph(7, list(K(5).edges) + [(4, 5), (5, 6)])
    assert exact_linear_forests(g, 2) is None
    assert exact_linear_arboricity(g)[0] == 3


def test_linear_forests_match_the_union_find_search():
    # path-end pointers take the same branches as disjoint-set forests, so
    # the forests (or the refusal) are the same
    rng = rng_for("forest-reference")
    cases = [(Graph(7, list(K(5).edges) + [(4, 5), (5, 6)]), 2)]
    for _ in range(400):
        g = random_graph(rng.randrange(2, 10), rng.choice([0.3, 0.5, 0.7, 0.9]), rng)
        half = -(-degree_profile(g)[0] // 2)
        cases += [(g, half), (g, half + 1)]
    refused = 0
    for g, k in cases:
        got = exact_linear_forests(g, k)
        assert got == reference_linear_forests(g, k), (g, k)
        refused += got is None
    assert 0 < refused < len(cases)  # both outcomes are compared


def test_exact_linear_forests():
    cyc = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
    assert exact_linear_forests(cyc, 1) is None
    got = exact_linear_forests(cyc, 2)
    assert got is not None and sum(len(f) for f in got) == 5
    assert exact_linear_forests(K(4), 2) is not None
    assert exact_linear_arboricity(K(4))[0] == 2
    with pytest.raises(ValueError):
        exact_linear_forests(Graph(11), 2)


def test_arboricity_density_values():
    tree = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    assert max_subgraph_density(tree) == 1
    assert max_subgraph_density(K(4)) == 2
    assert max_subgraph_density(K(5)) == 3  # ceil(10/4)


def test_oracle_below_constructive_and_above_floor():
    for n in range(1, 5):
        for g in all_graphs(n):
            k, cover = exact_p2(g)
            assert verify_cover(cover).valid
            assert lower_bound(g) <= k <= path_odd_cover(g).count


def test_bound_chain_small():
    # p2 >= p2_iso >= la >= a on every graph up to n = 4
    for n in range(2, 5):
        for g in all_graphs(n):
            p2 = exact_p2(g)[0]
            p2i = exact_p2_iso(g, extra=min(2, 7 - g.n))[0]
            la = exact_linear_arboricity(g)[0]
            a = max_subgraph_density(g)
            assert p2 >= p2i >= la >= a


def test_bound_chain_sampled_n6():
    rng = rng_for("chain6")
    for _ in range(40):
        g = random_graph(6, 0.45, rng)
        p2 = exact_p2(g)[0]
        p2i = exact_p2_iso(g, extra=1)[0]
        la = exact_linear_arboricity(g)[0]
        assert p2 >= p2i >= la >= max_subgraph_density(g)


def test_meet_in_middle_n7():
    k, cover = exact_p2(K(7))
    assert k == 4 and verify_cover(cover).valid
    k, cover = exact_c2(K(7))
    assert k == 3 and verify_cover(cover).valid


def test_bound_gap_scan_reports():
    report = bound_gap_scan(n_exhaustive=4)
    assert report["graphs"] == 74
    assert report["gap"] >= 0  # open question: reported, never asserted


def _witness_digest():
    """sha256 over exact_p2 / exact_c2 / exact_p2_iso results on a seeded corpus."""
    rng = rng_for("oracle-witness-hash")
    h = hashlib.sha256()
    for n in range(2, 8):
        for i in range(60):
            if i % 3 == 2 and n >= 3:  # an even graph: XOR of random triangles
                edges: set = set()
                for _ in range(rng.randrange(1, 5)):
                    a, b, c = sorted(rng.sample(range(n), 3))
                    edges ^= {(a, b), (a, c), (b, c)}
                g = Graph(n, edges)
            else:
                g = random_graph(n, rng.random(), rng)
            results = [(f"p2/{k}", exact_p2(g, k)) for k in (None, 1, 2)]
            if g.is_even():
                results.append(("c2", exact_c2(g)))
            results.append(("iso", exact_p2_iso(g, extra=min(2, 7 - n))))
            for label, res in results:
                out = None if res is None else (res[0], res[1].members)
                h.update(f"{sorted(g.edges)} {n} {label} {out}\n".encode())
    return h.hexdigest()


def test_witnesses_pinned():
    # A witness depends on the graph alone, so the digest holds whatever
    # earlier queries have already built into the cached engines.
    assert _witness_digest() == "cb8af28a3ebf738a24739dbfc271b4434a0431e81097415a8a8f334f260560d4"


def test_witnesses_ignore_how_deep_the_engine_is(monkeypatch):
    monkeypatch.setattr(oracle, "_engine", lru_cache(maxsize=None)(oracle._engine.__wrapped__))
    rng = rng_for("oracle-witness-history")
    graphs = [random_graph(7, 0.3, rng) for _ in range(100)]
    before = [exact_p2(g) for g in graphs]
    assert sum(res[0] == 2 for res in before) >= 20
    exact_p2(K(7))  # k = 4 builds the n = 7 engine to depth 2
    assert [exact_p2(g) for g in graphs] == before


class _Forbidden:
    def _fail(self, *args, **kwargs):
        raise AssertionError("the larger meet-in-the-middle layer was read")

    __getattr__ = __getitem__ = __len__ = __iter__ = __array__ = __xor__ = __rxor__ = _fail


def test_odd_k_queries_never_read_the_larger_layer(monkeypatch):
    k4k3 = Graph(7, list(K(4).edges) + [(4, 5), (5, 6), (4, 6)])
    c6 = Graph(7, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5)])
    k3, cover3 = exact_p2(k4k3)  # k = 3 fills the n = 7 engine to depth 2
    k2, cover2 = exact_p2(c6)
    assert (k3, k2) == (3, 2)
    eng = oracle._engine(7, "path")
    assert len(eng.layers) == 3 and len(eng.layers[2]) == 940229
    monkeypatch.setattr(eng, "layers", [*eng.layers[:2], _Forbidden()])
    assert exact_p2(k4k3) == (3, cover3)
    assert exact_p2(c6) == (2, cover2)


def test_exhausted_search_returns_none():
    # gens {0b11} reach only 0 and 0b11: the search runs out of layers
    # before k = 5 and the unreachable target must come back as None
    assert oracle._XorSearch(2, [0b11]).solve(0b01, 5) is None
    assert oracle._XorSearch(2, [0b11]).solve(0b11, 5) == (1, [0])


def _set_bfs(masks):
    """Reference search: distances and layers by plain Python sets."""
    dist = {0: 0}
    layers = [{0}]
    while layers[-1]:
        layers.append({x ^ g for x in layers[-1] for g in masks} - dist.keys())
        dist.update(dict.fromkeys(layers[-1], len(layers) - 1))
    return dist, layers


@pytest.mark.parametrize("block", [1 << 16, 5])
@pytest.mark.parametrize(
    "n_bits, masks",
    [
        (10, oracle._generators(5, "path")[0]),
        (10, oracle._generators(5, "cycle")[0]),
        (4, [0b0011, 0b0110, 0b0011, 0, 0b1000]),  # a duplicate and a zero
    ],
    ids=["path5", "cycle5", "hand"],
)
def test_xor_search_matches_set_bfs(monkeypatch, block, n_bits, masks):
    monkeypatch.setattr(oracle, "_BLOCK", block)  # 5 splits every fill and read
    eng = oracle._XorSearch(n_bits, masks)
    while not eng.exhausted:
        eng._extend()
    dist, layers = _set_bfs(masks)
    assert eng.dist.tolist() == [dist.get(x, 255) for x in range(1 << n_bits)]
    assert [set(layer.tolist()) for layer in eng.layers] == layers
    for layer in eng.layers:
        assert (layer[1:] > layer[:-1]).all()  # sorted, no repeats


# sha256 of repr((masks, seqs)), recorded before the two generator tables
# became one: the witnesses index into seqs, so their order is pinned too.
GENERATOR_PINS = [
    ("path", 2, 1, "2c763099872038f7769c4dbeedbe936d36343ac013c8cc8ff02d37f8e33b1ff8"),
    ("path", 3, 6, "9de377072986ada2bc161774872e1836fc6881de77bcf9cd517e54819a812546"),
    ("path", 4, 30, "4f4728ff353aaffb0713933db25811412d5448a6ed4d70bf437207c61f411798"),
    ("path", 5, 160, "b7ead1e73f556a3f640da4e44d7a47867805888ee95b5c2df7e953198924a556"),
    ("path", 6, 975, "93fdb75d649f0fbeb98b2efdad591e1f9b800c055465e102c3afb9e952bc8bd5"),
    ("path", 7, 6846, "51c82b7e377fc62282b04ce304e5dd7a936efef9d3e057f20225b3afa1784d8d"),
    ("cycle", 2, 0, "56546d2909af60407f1b144ea7574bf0cb4c48af72e18baac6c9da2036df2a88"),
    ("cycle", 3, 1, "f793865a81a43546652dbaa9ba0dd49ca3851d680bd901e30ee9e483e122fc5e"),
    ("cycle", 4, 7, "423a70787cf16803ccf87ebe03aead33eda8a0f3336e163d4dc2f7cb2402ebbd"),
    ("cycle", 5, 37, "430b73b7da0575b3e3e009b64470ec802ea44c70c584b9d1358650cc677de788"),
    ("cycle", 6, 197, "ef731b026aab8d68442eda2a754e1b780000440aa90b46b4394a9db544abd9cc"),
    ("cycle", 7, 1172, "730e073ddbd07e2cba8f8d4e814a21115a3d69348d366f6da6a1acac659d6ede"),
]


@pytest.mark.parametrize("kind, n, count, digest", GENERATOR_PINS)
def test_generator_tables_pinned(kind, n, count, digest):
    table = oracle._generators(n, kind)
    assert len(table[0]) == len(table[1]) == count
    assert hashlib.sha256(repr(table).encode()).hexdigest() == digest


def test_depth_two_tables_pinned():
    # Recorded before the table fill was blocked; layers are read off dist.
    for kind, sizes, digest in (
        ("path", [1, 6846, 940229], "b06174d585cb61c1111ff03917839dc600c4743a042ff5ba1b31fda1ed8d6944"),
        ("cycle", [1, 1172, 25546], "bf9fc3786ab4d69b9a55b297a46eb2b37fb044ff60c8c63d5c5f02a07217c68c"),
    ):
        eng = oracle._XorSearch(21, oracle._generators(7, kind)[0])
        eng._extend()
        eng._extend()
        assert [len(layer) for layer in eng.layers] == sizes
        assert hashlib.sha256(eng.dist.tobytes()).hexdigest() == digest


_DEPTH_TWO_PEAK = """
import numpy
from oddcover import Graph, oracle


def peak():
    with open("/proc/self/status") as status:
        return next(int(line.split()[1]) * 1024 for line in status if line.startswith("VmHWM:"))


oracle._generators(7, "path")
before = peak()
k4 = [(u, v) for u in range(4) for v in range(u + 1, 4)]
assert oracle.exact_p2(Graph(7, k4 + [(4, 5), (5, 6), (4, 6)]))[0] == 3
added = peak() - before
eng = oracle._engine(7, "path")
assert len(eng.layers) == 3
kept = eng.dist.nbytes + eng.gens.nbytes + sum(layer.nbytes for layer in eng.layers)
assert added <= kept + 2 ** 21, (added, kept)
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs Linux VmHWM")
def test_depth_two_fill_memory_peak():
    # k = 3 fills the n = 7 path table to depth 2.  Beside the kept arrays the
    # fill may hold one block of candidates and one slice of the table, not a
    # second copy of the 940 229-entry layer.  The peak is the child's VmHWM:
    # ru_maxrss would carry over the peak of the process that spawned it.
    run = run_with_deadline(_DEPTH_TWO_PEAK, 60)
    assert run.returncode == 0, run.stderr
