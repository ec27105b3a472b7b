"""Differential tests of the constructive solvers against the exact oracle.

On universes of at most 7 vertices the oracle's minimum is known, so every
witness the layer peeling and odd-path peeling produce is checked to sit
between the floors, the exact minimum and the guaranteed ceiling.
"""

from itertools import combinations

from hypothesis import given, settings
from hypothesis import strategies as st

from oddcover.core import Graph, degree_bound, degree_profile, lower_bound, verify_cover
from oddcover.oracle import exact_c2, exact_p2
from oddcover.solver import cycle_odd_cover, path_odd_cover

SETTINGS = settings(derandomize=True, max_examples=60, deadline=None)


@st.composite
def graphs(draw, max_n=7):
    n = draw(st.integers(1, max_n))
    pairs = list(combinations(range(n), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph(n, [e for e, k in zip(pairs, keep) if k])


@st.composite
def even_graphs(draw, max_n=7):
    # Triangles span the cycle space of K_n, so their XORs reach every
    # even-degree graph.
    n = draw(st.integers(3, max_n))
    triples = draw(st.lists(st.sampled_from(list(combinations(range(n), 3))), max_size=6))
    edges: set = set()
    for a, b, c in triples:
        edges ^= {(a, b), (a, c), (b, c)}
    return Graph(n, edges)


def relabel(g: Graph, perm: list[int]) -> Graph:
    return Graph(len(perm), [(perm[u], perm[v]) for u, v in g.edges])


@SETTINGS
@given(graphs())
def test_path_cover_between_oracle_and_degree_bound(g):
    exact, _ = exact_p2(g)
    cover = path_odd_cover(g)
    assert verify_cover(cover).valid
    assert lower_bound(g) <= exact <= cover.count <= degree_bound(g)


@SETTINGS
@given(even_graphs())
def test_cycle_cover_between_oracle_and_delta(g):
    delta, _, _ = degree_profile(g)
    exact, _ = exact_c2(g)
    cover = cycle_odd_cover(g)
    assert verify_cover(cover).valid
    assert delta // 2 <= exact <= cover.count <= delta


@SETTINGS
@given(graphs(), st.integers(0, 2), st.randoms(use_true_random=False))
def test_relabelled_and_padded_graph_keeps_its_bounds(g, pad, rnd):
    perm = list(range(g.n + pad))
    rnd.shuffle(perm)
    h = relabel(g, perm)
    assert degree_profile(h)[:2] == degree_profile(g)[:2]
    # Added isolated vertices can lower the exact minimum, so the oracle's
    # value is a floor only for a plain relabelling.
    floor = lower_bound(g) if pad else exact_p2(g)[0]
    cover = path_odd_cover(h)
    assert verify_cover(cover).valid
    assert floor <= cover.count <= degree_bound(g)
    if g.is_even() and g.m:
        delta, _, _ = degree_profile(g)
        cycles = cycle_odd_cover(h)
        assert verify_cover(cycles).valid and cycles.count <= delta
