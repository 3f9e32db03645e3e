"""Topology-and-workload scenario generation.

A :class:`Scenario` bundles everything an experiment needs: a generated
topology, an optional AS-policy table, and an optional link-churn schedule.
Scenarios are produced by family name so benchmarks and tests can sweep

>>> scenario = generate_scenario("power_law", size=60, seed=7)
>>> scenario.node_count
60

across shapes (``ring``, ``line``, ``star``, ``grid``, ``tree``,
``power_law``, ``waxman``, ``random``, ``as_hierarchy``) and sizes from the
hand-written 4–10 node examples up to hundreds of nodes, with deterministic
seeds keeping every run reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

from ..dn.network import Topology
from ..protocols.policy import PolicyTable, policy_facts
from ..workloads.events import WorkloadScript
from ..workloads.topologies import (
    as_hierarchy_topology,
    grid_topology,
    line_topology,
    random_topology,
    ring_topology,
    star_topology,
)
from .churn import link_churn_schedule
from .graphs import power_law_topology, tree_topology, waxman_topology
from .policies import scenario_policies


@dataclass
class Scenario:
    """One generated experiment setup."""

    name: str
    family: str
    seed: int
    topology: Topology
    policies: Optional[PolicyTable] = None
    churn: Optional[WorkloadScript] = None
    params: dict = field(default_factory=dict)

    @property
    def node_count(self) -> int:
        return self.topology.node_count

    @property
    def link_count(self) -> int:
        return len(self.topology.up_links())

    def link_facts(self) -> list[tuple[str, tuple]]:
        """``("link", (src, dst, cost))`` facts for the centralized evaluator."""

        return [("link", fact) for fact in self.topology.link_facts()]

    def policy_fact_list(self) -> list[tuple[str, tuple]]:
        """``importPref``/``exportDeny`` facts for the policy path-vector
        program (empty when the scenario carries no policies)."""

        if self.policies is None:
            return []
        return policy_facts(self.policies, self.topology.nodes)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Scenario({self.name!r}, {self.node_count} nodes, "
            f"{self.link_count} links, churn={len(self.churn) if self.churn else 0})"
        )


def _grid_shape(size: int) -> tuple[int, int]:
    rows = max(1, int(math.isqrt(size)))
    cols = max(1, math.ceil(size / rows))
    return rows, cols


def _hierarchy_tiers(size: int) -> tuple[int, ...]:
    top = max(2, size // 8)
    middle = max(2, size // 3)
    bottom = max(1, size - top - middle)
    return (top, middle, bottom)


def _build_as_hierarchy(size: int, seed: int, **params) -> Topology:
    topology, _ = as_hierarchy_topology(
        params.get("tiers", _hierarchy_tiers(size)), seed=seed
    )
    return topology


#: family name → builder(size, seed, **params) -> Topology
SCENARIO_FAMILIES: dict[str, Callable[..., Topology]] = {
    "ring": lambda size, seed, **p: ring_topology(size, **p),
    "line": lambda size, seed, **p: line_topology(size, **p),
    "star": lambda size, seed, **p: star_topology(size, **p),
    "grid": lambda size, seed, **p: grid_topology(*_grid_shape(size), **p),
    "tree": lambda size, seed, **p: tree_topology(size, seed=seed, **p),
    "power_law": lambda size, seed, **p: power_law_topology(size, seed=seed, **p),
    "waxman": lambda size, seed, **p: waxman_topology(size, seed=seed, **p),
    "random": lambda size, seed, **p: random_topology(size, seed=seed, **p),
    "as_hierarchy": _build_as_hierarchy,
}


def scenario_families() -> list[str]:
    """The registered scenario family names."""

    return sorted(SCENARIO_FAMILIES)


def generate_scenario(
    family: str,
    *,
    size: int,
    seed: int = 0,
    policy: Optional[str] = None,
    churn_events: int = 0,
    churn_start: float = 1.0,
    churn_spacing: float = 0.5,
    churn_restore_delay: Optional[float] = None,
    loss: float = 0.0,
    **params,
) -> Scenario:
    """Generate one scenario.

    ``family`` picks the topology shape, ``size`` the approximate node count
    (grids round up to the nearest rows×cols rectangle, hierarchies to tier
    sums).  ``policy`` optionally names a policy kind from
    :data:`repro.scenarios.policies.POLICY_KINDS`; ``churn_events > 0`` adds
    a link-churn schedule; ``loss`` sets a uniform per-message drop
    probability on every link (the lossy-channel dimension of harness
    campaigns).
    """

    if family not in SCENARIO_FAMILIES:
        raise ValueError(
            f"unknown scenario family {family!r}; expected one of {scenario_families()}"
        )
    if size < 1:
        raise ValueError("size must be positive")
    if not 0.0 <= loss < 1.0:
        raise ValueError("loss must be a probability in [0, 1)")
    topology = SCENARIO_FAMILIES[family](size, seed, **params)
    if loss:
        for link in topology.links():
            link.loss = loss
    policies = (
        scenario_policies(policy, topology, seed=seed) if policy is not None else None
    )
    churn = (
        link_churn_schedule(
            topology,
            events=churn_events,
            start=churn_start,
            spacing=churn_spacing,
            seed=seed,
            restore_delay=churn_restore_delay,
        )
        if churn_events > 0
        else None
    )
    return Scenario(
        name=f"{family}-{size}-s{seed}" + (f"-{policy}" if policy else ""),
        family=family,
        seed=seed,
        topology=topology,
        policies=policies,
        churn=churn,
        params={"size": size, **({"loss": loss} if loss else {}), **params},
    )


def generate_suite(
    families: Optional[list[str]] = None,
    *,
    size: int,
    seed: int = 0,
    policy: Optional[str] = None,
) -> list[Scenario]:
    """One scenario per family at a common size (for sweeps)."""

    return [
        generate_scenario(family, size=size, seed=seed, policy=policy)
        for family in (families or scenario_families())
    ]
