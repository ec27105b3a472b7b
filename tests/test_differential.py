"""Differential tests of the constructive solvers against the exact oracle.

On universes of at most 7 vertices the oracle's minimum is known, so every
witness the layer peeling and odd-path peeling produce is checked to sit
between the floors, the exact minimum and the guaranteed ceiling, and the
two-path kit's obstruction test is checked against the oracle's verdict.
The isolated-vertex, apex-closed cycle and additive-bound covers are
checked against the oracle on every nonempty graph with n <= 5 and on
seeded G(6, p), and the two-forest compression on every even graph with
n <= 6.  The degree-skew graphs on at most six vertices (stars, windmills,
K_{2,N}, books, caterpillars, hubs over gnm graphs, complete graphs) are
extra inputs to the path-cover, cycle-cover, iso and first-bound checks;
the two-forest sweep already holds them.
"""

from itertools import combinations

from hypothesis import example, given, settings
from hypothesis import strategies as st

from oddcover.core import (
    Graph,
    OddCover,
    cycle_edges,
    degree_bound,
    degree_profile,
    lower_bound,
    norm_edge,
    verify_cover,
)
from oddcover.oracle import (
    exact_c2,
    exact_linear_arboricity,
    exact_linear_forests,
    exact_p2,
    exact_p2_iso,
)
from oddcover.solver import (
    cover_first_bound,
    cycle_odd_cover,
    iso_cover_general,
    path_odd_cover,
)
from oddcover.systems import cycle_iso_cover, two_path_cover_la2
from oddcover.twopaths import (
    ExceptionalCase,
    TwoPaths,
    integrate_two_edges,
    is_exceptional_k4,
)

from support import all_graphs, random_graph, rng_for, skew_graphs

SETTINGS = settings(derandomize=True, max_examples=60, deadline=None)
SKEW = skew_graphs(6)


def skew_examples(keep=lambda g: True):
    """Add every kept degree-skew graph as an explicit example."""

    def add(test):
        for g in SKEW:
            if keep(g):
                test = example(g)(test)
        return test

    return add


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


def _cycle_sizes(n, left=None, sizes=()):
    """Every list of cycle sizes on n vertices leaving at most four uncovered."""
    left = n if left is None else left
    out = [list(sizes)] if left <= 4 else []
    for size in range(3, left + 1):
        out += _cycle_sizes(n, left - size, (*sizes, size))
    return out


@st.composite
def kit_instances(draw):
    """Vertex-disjoint cycles and two disjoint edges whose vertices are 0..n-1.

    Vertices left off the cycles are endpoints of f1 or f2, so at most four
    are; the edges may lie on, touch or avoid the cycles.  Half the draws
    put all four endpoints on a 4-cycle beside a triangle, the only shape on
    at most 7 vertices where the obstruction can occur; the pairing decides
    whether it does.
    """
    near_k4 = draw(st.booleans())
    n = 7 if near_k4 else draw(st.integers(4, 7))
    order = draw(st.permutations(range(n)))
    cycles, used = [], 0
    for size in [4, 3] if near_k4 else draw(st.sampled_from(_cycle_sizes(n))):
        cycles.append(tuple(order[used : used + size]))
        used += size
    ends = list(cycles[0]) if near_k4 else list(order[used:])
    if len(ends) < 4:
        more = 4 - len(ends)
        on_cycles = st.sampled_from(sorted(order[:used]))
        ends += draw(st.lists(on_cycles, min_size=more, max_size=more, unique=True))
    a, b, c, d = draw(st.permutations(ends))
    return n, cycles, (a, b), (c, d)


def relabel(g: Graph, perm: list[int]) -> Graph:
    return Graph(len(perm), [(perm[u], perm[v]) for u, v in g.edges])


@SETTINGS
@given(graphs())
@skew_examples()
def test_path_cover_between_oracle_and_degree_bound(g):
    exact, _ = exact_p2(g)
    cover = path_odd_cover(g)
    assert verify_cover(cover).valid
    assert lower_bound(g) <= exact <= cover.count <= degree_bound(g)


@SETTINGS
@given(even_graphs())
@skew_examples(Graph.is_even)
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


@SETTINGS
@given(kit_instances())
@example((7, [(0, 1, 2, 3), (4, 5, 6)], (0, 2), (1, 3)))  # K4 plus a disjoint C3
def test_k4_obstruction_agrees_with_the_oracle(inst):
    n, cycles, f1, f2 = inst
    edges = {e for c in cycles for e in cycle_edges(c)} ^ {norm_edge(*f1), norm_edge(*f2)}
    target = Graph(n, edges)
    res = integrate_two_edges(cycles, f1, f2)
    if is_exceptional_k4(cycles, f1, f2):
        assert isinstance(res, ExceptionalCase)
        assert exact_p2(target, max_k=2) is None
    else:
        assert isinstance(res, TwoPaths)
        assert verify_cover(OddCover(target, list(res), "path")).valid
        assert exact_p2(target, max_k=2) is not None


def _small_graphs():
    """Every nonempty graph with n <= 5, then 600 seeded G(6, p) draws, then
    the degree-skew graphs."""
    for n in range(2, 6):
        yield from (g for g in all_graphs(n) if g.m)
    rng = rng_for("oracle-differential-n6")
    for _ in range(600):
        g = random_graph(6, rng.random(), rng)
        if g.m:
            yield g
    yield from SKEW


def test_iso_cover_against_the_oracle():
    eulerian = closed = 0
    for g in _small_graphs():
        cover, _ = iso_cover_general(g)
        added = cover.target.n - g.n
        assert cover.count >= exact_p2_iso(g, extra=added)[0]
        if g.is_even():
            # the paper's match with the linear arboricity
            eulerian += 1
            la, forests = exact_linear_arboricity(g)
            assert cover.count == la
            # the same forests closed into cycles through one apex vertex
            cycles = cycle_iso_cover(g, forests)
            if cycles.target.n <= 7:
                assert exact_c2(Graph(cycles.target.n, g.edges))[0] <= cycles.count
                closed += 1
    assert eulerian > 50 and closed > 80


def test_first_bound_cover_against_the_oracle():
    for g in _small_graphs():
        assert cover_first_bound(g).count >= exact_p2(g)[0]


def test_two_forest_compression_against_the_oracle():
    # wherever two linear forests split an even graph, two paths cover it
    split = 0
    for n in range(2, 7):
        for g in all_graphs(n):
            if not g.m or not g.is_even():
                continue
            forests = exact_linear_forests(g, 2)
            if forests is None:
                continue
            tp = two_path_cover_la2(g, *forests)
            assert verify_cover(OddCover(g, list(tp), "path")).valid
            assert exact_p2(g)[0] <= 2
            split += 1
    assert split == 70 + 942  # n <= 5, then n = 6
