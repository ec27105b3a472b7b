"""Constructive path and cycle odd-covers of graphs.

A path odd-cover of a graph G is a collection of paths on V(G) whose edge
sets XOR to E(G); covers may use nonedges, which is why far fewer paths are
needed than for edge-disjoint decompositions.  This package builds covers
meeting the degree bounds, exact minimum covers on small universes, and the
relaxations that allow subdividing G or adding isolated vertices.

The package exports the entry points README.md documents, with the types
they take and return; every other function stays importable from its module.
"""

from .core import (
    Graph,
    InternalInvariantError,
    OddCover,
    VerificationReport,
    degree_profile,
    lower_bound,
    max_subgraph_density,
    verify_cover,
)
from .cycles import peel_cycle_layers
from .families import (
    counterexample,
    disjoint_cycles,
    eulerian_random,
    gnp,
    walecki_cycles,
)
from .oracle import (
    bound_gap_scan,
    exact_c2,
    exact_linear_arboricity,
    exact_linear_forests,
    exact_p2,
    exact_p2_iso,
)
from .solver import (
    cover_first_bound,
    cycle_odd_cover,
    iso_cover_general,
    path_odd_cover,
    peel_odd_paths,
)
from .systems import (
    PathSystem,
    cycle_iso_cover,
    cycle_top_cover,
    iso_cover_from_forests,
    topological_cover,
    two_path_cover_la2,
)
from .twopaths import (
    ExceptionalCase,
    ExceptionalEndpointError,
    TwoPaths,
    choose_integrable_pair,
    cover_cycles,
    integrate_four_edges,
    integrate_one_edge,
    integrate_two_edges,
    is_exceptional_k4,
)

__version__ = "0.1.0"
