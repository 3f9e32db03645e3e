"""Metarouting: algebraic meta-models for routing protocol design.

Implements the paper's Section 3.3: abstract routing algebras, the four
axioms (maximality, absorption, monotonicity, isotonicity), base algebras,
composition operators (lexical product, restrictions), mechanical discharge
of instantiation proof obligations, and the generic vectoring protocol that
turns a verified algebra into routes.

Public entry points: :class:`RoutingAlgebra` and
:func:`algebra_from_rank`, :func:`check_all_axioms` /
:func:`is_well_behaved`, the base-algebra factories in
:mod:`repro.metarouting.base`, the composition operators in
:mod:`repro.metarouting.operators`, obligation discharge in
:mod:`repro.metarouting.obligations`, and the vectoring-protocol runner in
:mod:`repro.metarouting.routing`.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "algebra": ("Label", "RoutingAlgebra", "Signature", "algebra_from_rank"),
    "axioms": (
        "AXIOM_NAMES", "AlgebraReport", "AxiomReport", "check_absorption", "check_all_axioms",
        "check_isotonicity", "check_maximality", "check_monotonicity", "is_well_behaved",
    ),
    "base": (
        "BASE_ALGEBRA_FACTORIES", "INFINITY", "add_algebra", "all_base_algebras",
        "hop_count_algebra", "local_pref_algebra", "reliability_algebra", "route_cost_algebra",
        "usable_path_algebra", "widest_path_algebra",
    ),
    "convergence": ("ConvergenceReport", "analyze_convergence", "asynchronous_routes"),
    "obligations": (
        "InstantiationResult", "instantiate", "instantiate_all", "route_algebra_theory",
    ),
    "operators": (
        "PreservationReport", "lex_product", "preservation_conditions", "restrict_labels",
        "restrict_signatures",
    ),
    "routing": (
        "LabeledEdge", "LabeledGraph", "RouteEntry", "RoutingOutcome", "compute_routes",
        "optimality_gap",
    ),
    "systems": (
        "SYSTEM_FACTORIES", "all_systems", "bgp_system", "policy_shortest_path_system",
        "safe_bgp_system", "shortest_widest_system",
    ),
})
