"""Exact minimum odd-covers on small universes.

The oracle walks the GF(2) edge space: the minimum cover size is the
shortest XOR-combination of path vectors reaching the target graph's edge
vector.  One lazy layered BFS serves every n <= 7; at n = 7 it spans 2^21
states with 6846 path generators, and each candidate k meets in the middle,
scanning the smaller of the two half-depth layers.
"""

from itertools import combinations

from oddcover import (
    Graph,
    bound_gap_scan,
    exact_c2,
    exact_linear_arboricity,
    exact_p2,
    exact_p2_iso,
    lower_bound,
    max_subgraph_density,
    verify_cover,
)


def K(n):
    return Graph(n, list(combinations(range(n), 2)))


for name, g in [
    ("path P4", Graph(4, [(0, 1), (1, 2), (2, 3)])),
    ("cycle C5", Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])),
    ("K4", K(4)),
    ("K5", K(5)),
    ("K7", K(7)),
]:
    k, cover = exact_p2(g)
    print(f"p2({name}) = {k}  (floor {lower_bound(g)}, "
          f"density {max_subgraph_density(g)}, verified {verify_cover(cover).valid})")

# The one known way the structural floors lose: K4 + K3 needs one more path
# than max(v_odd/2, ceil(delta/2), arboricity) predicts.
g = Graph(7, list(K(4).edges) + [(4, 5), (5, 6), (4, 6)])
k, _ = exact_p2(g)
base = max(lower_bound(g), max_subgraph_density(g))
print(f"\nK4 + K3: floors give {base}, true minimum is {k}")

# The parameter chain p2 >= p2_iso >= la >= a, on one Eulerian example.
g = Graph(6, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2), (4, 5), (5, 0), (0, 4)])
chain = (
    exact_p2(g)[0],
    exact_p2_iso(g, extra=1)[0],
    exact_linear_arboricity(g)[0],
    max_subgraph_density(g),
)
print(f"\nchain p2 >= p2_iso >= la >= a: {chain}")

# Cycle odd-covers exist exactly for even-degree graphs.
print(f"\nc2(C5) = {exact_c2(Graph(5, [(0,1),(1,2),(2,3),(3,4),(0,4)]))[0]}")
print(f"c2(K5) = {exact_c2(K(5))[0]}  (= delta/2: two Hamiltonian cycles)")
print(f"c2(K7) = {exact_c2(K(7))[0]}")

# How far can the minimum exceed every floor?  Open in general; the scan
# reports the worst case seen on small graphs (never asserts).
print("\nbound-gap scan over all graphs with n <= 5:", bound_gap_scan(5))
