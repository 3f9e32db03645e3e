"""Scenario generation: scalable topologies, churn schedules, AS policies.

This package turns the hand-written 4–10 node experiment setups into a
generator that scales to hundreds of nodes across structured families, so
benchmarks and cross-validation runs can sweep shape × size × policy ×
churn from a single entry point (:func:`generate_scenario`).
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "churn": ("cost_churn_schedule", "link_churn_schedule"),
    "generator": (
        "SCENARIO_FAMILIES", "Scenario", "generate_scenario", "generate_suite",
        "scenario_families",
    ),
    "graphs": ("power_law_topology", "tree_topology", "waxman_topology"),
    "policies": (
        "POLICY_KINDS", "bfs_customer_provider", "first_triangle", "random_pref_policies",
        "scenario_policies",
    ),
    "serving": ("churn_updates", "drive_churn", "update_for_event"),
})
