"""Weak majority dimension of digraphs.

A vector in Z^d beats another when it is strictly larger in more
coordinates than it is strictly smaller; a digraph is d-realizable when
its vertices can be mapped to Z^d so that arcs coincide exactly with
this relation, and its weak majority dimension is the least such d.
This package provides the digraph machinery, realizer verification, the
constructive realizers for paths, cycles, tournaments, unions and
arc-extensions, an exact search for the dimension of small digraphs, and
the correspondence with voting profiles and majority margins.
"""

from .digraph import (
    CondensationResult,
    Digraph,
    DigraphError,
    acyclic_tournament,
    build,
    condense,
    cycle,
    disjoint_union,
    empty,
    from_edge_list,
    generate,
    has_induced_two_path,
    induced,
    induced_two_paths,
    is_acyclic_tournament,
    is_tournament,
    is_transitive,
    path,
    single_arc,
    subset_family,
    to_dot,
    to_edge_list,
)
from .realizer import (
    Realizer,
    RealizerError,
    SelfCheckFailed,
    VerifyReport,
    Violation,
    extend_dims,
    margin,
    margin_lanes,
    normalize,
    realizer_from_json,
    realizer_to_json,
    verify,
)
from .constructions import (
    ConstructionError,
    CycleMatrix,
    add_arc_realizer,
    arc_cover,
    check_cycle_matrix,
    condense_lift,
    cycle_matrix,
    generic_realizer,
    realize_acyclic_tournament,
    realize_cycle,
    realize_empty,
    realize_path,
    star_forests,
    union_realizer,
)
from .solver import (
    DEFAULT_BUDGET,
    DimensionResult,
    PointError,
    SolveOutcome,
    Verdict,
    dimension,
    es_chain_or_antichain,
    is_realizable,
)
from .profiles import (
    Profile,
    ProfileError,
    majority_digraph,
    majority_margin,
    majority_margins,
    profile_from_json,
    profile_to_json,
    profile_to_realizer,
    realizer_to_profile,
)

__version__ = "0.1.0"
