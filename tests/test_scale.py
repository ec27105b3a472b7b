"""Scale regressions: solvers finish at n = 10^4 and beyond.

Only correctness and counts are asserted, never wall time.
"""

import random

from oddcover.core import Graph, degree_profile, norm_edge, verify_cover
from oddcover.families import gnp
from oddcover.solver import cycle_odd_cover, path_odd_cover


def hamiltonian_union(n, k, seed):
    """Union of k edge-disjoint random Hamiltonian cycles on n vertices.

    Each cycle is a shuffled vertex order; a position whose closing edge is
    already used is swapped with a random one until no edge repeats.
    """
    rng = random.Random(seed)
    used = set()
    for _ in range(k):
        order = rng.sample(range(n), n)
        while True:
            bad = [i for i in range(n) if norm_edge(order[i - 1], order[i]) in used]
            if not bad:
                break
            for i in bad:
                j = rng.randrange(n)
                order[i], order[j] = order[j], order[i]
        used.update(norm_edge(order[i - 1], order[i]) for i in range(n))
    return Graph(n, used)


def test_cycle_odd_cover_six_regular_20000():
    # Long augmenting paths here once overflowed a recursive matching DFS.
    g = hamiltonian_union(20_000, 3, seed=0)
    assert set(g.degrees()) == {6}
    cover = cycle_odd_cover(g)
    assert verify_cover(cover).valid and cover.count <= 6


def test_path_odd_cover_sparse_8000_meets_v_odd_half():
    g = gnp(8000, 3 / 8000, seed=2)
    _, v_odd, _ = degree_profile(g)
    assert v_odd // 2 == 1990
    cover = path_odd_cover(g)
    assert verify_cover(cover).valid and cover.count == v_odd // 2
