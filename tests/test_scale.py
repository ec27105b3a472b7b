"""Scale regressions: solvers finish at n = 10^4 and beyond.

Only correctness and counts are asserted, never wall time.
"""

from oddcover.core import degree_profile, lower_bound, verify_cover
from oddcover.families import eulerian_random, gnp
from oddcover.solver import cycle_odd_cover, path_odd_cover
from oddcover.systems import cycle_top_cover, iso_cover_from_forests, topological_cover

from support import gnm, hamiltonian_forests, hamiltonian_union, run_with_deadline


def test_cycle_odd_cover_six_regular_20000():
    # Long augmenting paths here once overflowed a recursive matching DFS.
    g = hamiltonian_union(20_000, 3, seed=0)
    assert set(g.degrees()) == {6}
    cover = cycle_odd_cover(g)
    assert verify_cover(cover).valid and cover.count <= 6


def test_cycle_odd_cover_dense_eulerian_600():
    # Delta / 2 layers, each one matching over tens of thousands of arcs.
    g = eulerian_random(600, seed=1)
    delta, _, _ = degree_profile(g)
    cover = cycle_odd_cover(g)
    assert verify_cover(cover).valid and cover.count <= delta


def test_path_odd_cover_sparse_8000_meets_v_odd_half():
    g = gnp(8000, 3 / 8000, seed=2)
    _, v_odd, _ = degree_profile(g)
    assert v_odd // 2 == 1990
    cover = path_odd_cover(g)
    assert verify_cover(cover).valid and cover.count == v_odd // 2


# The path-system moves once rescanned whole collections (and `meet` whole
# forests) per move, which made these three rows quadratic.


def test_cycle_top_cover_three_cycles_10000():
    g = hamiltonian_union(10_000, 3, seed=4)
    h, cover, chains = cycle_top_cover(g)
    assert verify_cover(cover).valid and cover.count == 3
    assert h.n - g.n == 95_840 and len(chains) == g.m


def test_topological_cover_sparse_10000():
    g = gnm(10_000, 15_000, seed=1)
    h, cover, chains = topological_cover(g)
    assert lower_bound(g) == 2480
    assert verify_cover(cover).valid and cover.count == 2480
    assert h.n - g.n == 59_814


def test_iso_cover_from_forests_8000():
    g, forests = hamiltonian_forests(8000, seed=1)
    cover = iso_cover_from_forests(g, forests)
    assert verify_cover(cover).valid and cover.count == 3
    assert cover.target.n - g.n == 2934  # one new vertex per meet


_SPEND_MATCHING = """
from oddcover.core import Graph, OddCover, verify_cover
from oddcover.cycles import peel_cycle_layers
from oddcover.solver import _spend_layers
k = 10 ** 5
g = Graph(2 * k + 3, [(0, 1), (1, 2), (0, 2)])
m = [(2 * i + 3, 2 * i + 4) for i in range(k)]
cover = OddCover(g.xor(m), _spend_layers(peel_cycle_layers(g), m), "path")
assert verify_cover(cover).valid and cover.count == k
"""


def test_spend_layers_takes_a_large_matching_in_linear_time():
    # One layer and 10^5 matching edges: rebuilding the rest of the matching
    # every round took 4.5 s at 1.6 * 10^4 edges and grows quadratically,
    # so the deadline fails it.
    run = run_with_deadline(_SPEND_MATCHING, 30)
    assert run.returncode == 0, run.stderr


_SPARSE_PATH_COVER = """
from oddcover.core import degree_bound, verify_cover
from oddcover.solver import path_odd_cover
from support import gnm
g = gnm(10 ** 5, 15 * 10 ** 4, 1)
cover = path_odd_cover(g)
assert verify_cover(cover).valid and cover.count <= degree_bound(g)
"""


def test_path_odd_cover_sparse_100000():
    # The reference row for the sparse pipeline: peel batches, the XOR with
    # M and every layer edit the one residual in place, and an edit that
    # rescanned the residual per path or per cycle would miss the deadline.
    run = run_with_deadline(_SPARSE_PATH_COVER, 90)
    assert run.returncode == 0, run.stderr
