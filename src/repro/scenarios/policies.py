"""Parameterized AS-policy generation for BGP-layer scenarios.

The policy path-vector program (:mod:`repro.protocols.policy`) consumes a
:class:`~repro.protocols.policy.PolicyTable`.  Hand-written experiments use the
three-node Disagree gadget; scenario generation needs policy tables that
scale with the topology:

* ``shortest_path`` — the empty, conflict-free baseline;
* ``gao_rexford`` — valley-free customer/provider policies derived from a
  BFS orientation of the topology (provably convergent);
* ``random_pref`` — random per-neighbour import preferences (stresses route
  exploration while staying conflict-free per destination);
* ``disagree`` — the paper's conflicting gadget embedded on the topology's
  first triangle in node order (:func:`first_triangle`); a topology with no
  triangle cannot host it.
"""

from __future__ import annotations

import random
from typing import Hashable, Optional

from ..dn.network import Topology, bfs_edges
from ..protocols.policy import (
    PolicyRule,
    PolicyTable,
    disagree_policies,
    gao_rexford_policies,
    shortest_path_policies,
)

POLICY_KINDS = ("shortest_path", "gao_rexford", "random_pref", "disagree")


def bfs_customer_provider(
    topology: Topology, root: Optional[Hashable] = None
) -> list[tuple[Hashable, Hashable]]:
    """Customer→provider pairs from a BFS orientation of the topology.

    The BFS root acts as the top-tier provider; every BFS tree edge makes
    the child a customer of its parent.  This turns any connected topology
    into a Gao–Rexford-compatible hierarchy.
    """

    adjacency = topology.up_adjacency()
    if not adjacency:
        return []
    if root is None:
        root = sorted(adjacency, key=str)[0]
    elif root not in adjacency:
        raise ValueError(f"BFS root {root!r} is not a node of the topology")
    return [(child, parent) for parent, child in bfs_edges(adjacency, root)]


def first_triangle(topology: Topology) -> Optional[tuple[Hashable, Hashable, Hashable]]:
    """The first ``(a, b, c)``, ``a < b < c``, of mutually linked nodes in
    node order (numeric for integer ids), or None for a triangle-free
    topology (every tree)."""

    adjacent: dict = {}
    for link in topology.links():
        adjacent.setdefault(link.src, set()).add(link.dst)
    for a in sorted(adjacent):
        for b in sorted(n for n in adjacent[a] if n > a):
            common = [n for n in adjacent[a] & adjacent[b] if n > b]
            if common:
                return a, b, min(common)
    return None


def random_pref_policies(
    topology: Topology,
    *,
    seed: int = 0,
    prefs: tuple[int, ...] = (100, 150, 200),
) -> PolicyTable:
    """Random per-(node, neighbour) import local preferences."""

    rng = random.Random(seed)
    table = PolicyTable()
    for link in topology.up_links():
        table.add_import(
            link.src,
            link.dst,
            PolicyRule("set_local_pref", local_pref=rng.choice(prefs)),
        )
    return table


def scenario_policies(
    kind: str,
    topology: Topology,
    *,
    seed: int = 0,
    root: Optional[Hashable] = None,
) -> PolicyTable:
    """A policy table of the named ``kind`` parameterized by the topology."""

    if kind == "shortest_path":
        return shortest_path_policies()
    if kind == "gao_rexford":
        return gao_rexford_policies(bfs_customer_provider(topology, root))
    if kind == "random_pref":
        return random_pref_policies(topology, seed=seed)
    if kind == "disagree":
        triangle = first_triangle(topology)
        if triangle is None:
            raise ValueError("disagree policies need a triangle; the topology has none")
        return disagree_policies(*triangle)
    raise ValueError(f"unknown policy kind {kind!r}; expected one of {POLICY_KINDS}")
