"""Scenario generation: scalable topologies, churn schedules, AS policies.

This package turns the hand-written 4–10 node experiment setups into a
generator that scales to hundreds of nodes across structured families, so
benchmarks and cross-validation runs can sweep shape × size × policy ×
churn from a single entry point (:func:`generate_scenario`).
"""

from .churn import cost_churn_schedule, link_churn_schedule
from .generator import (
    SCENARIO_FAMILIES,
    Scenario,
    generate_scenario,
    generate_suite,
    scenario_families,
)
from .graphs import power_law_topology, tree_topology, waxman_topology
from .policies import (
    POLICY_KINDS,
    bfs_customer_provider,
    first_triangle,
    random_pref_policies,
    scenario_policies,
)
from .serving import churn_updates, drive_churn, update_for_event

__all__ = [
    "POLICY_KINDS",
    "SCENARIO_FAMILIES",
    "Scenario",
    "bfs_customer_provider",
    "churn_updates",
    "cost_churn_schedule",
    "drive_churn",
    "first_triangle",
    "generate_scenario",
    "generate_suite",
    "link_churn_schedule",
    "power_law_topology",
    "random_pref_policies",
    "scenario_families",
    "scenario_policies",
    "tree_topology",
    "waxman_topology",
    "update_for_event",
]
