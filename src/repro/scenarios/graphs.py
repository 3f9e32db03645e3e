"""Scalable graph generators for scenario topologies.

The hand-written experiments use 4–10 node examples; scenario families need
topologies in the tens-to-hundreds of nodes.  Three structured families are
provided here (balanced trees, preferential-attachment power-law graphs,
Waxman random geometric graphs); rings, lines, stars, grids, and
Erdős–Rényi graphs come from :mod:`repro.workloads.topologies`.

All generators are deterministic for a given seed and always return a
connected :class:`~repro.dn.network.Topology`.  The power-law and Waxman
graphs are drawn exactly as networkx 3.x's ``barabasi_albert_graph`` and
``waxman_graph`` draw them from ``random.Random(seed)`` (same draws, same
order), so a seed names the same topology with or without networkx;
``tests/scenarios/test_graph_generators.py`` holds networkx as the oracle.
"""

from __future__ import annotations

import math
import random
from itertools import combinations
from typing import Iterable, Optional

from ..dn.network import Topology

Edge = tuple[int, int]


def tree_topology(
    n: int,
    *,
    branching: int = 2,
    cost: float = 1.0,
    delay: float = 0.01,
    seed: Optional[int] = None,
) -> Topology:
    """A balanced ``branching``-ary tree with ``n`` nodes (ids 0..n-1).

    With a ``seed``, link costs are drawn uniformly from 1..5 instead of the
    constant ``cost``.  Trees have unique simple paths, which keeps
    path-vector state linear in the node count — the family of choice for
    very large convergence runs.
    """

    if n < 1:
        raise ValueError("tree_topology needs n >= 1")
    rng = random.Random(seed) if seed is not None else None
    topo = Topology(default_delay=delay)
    topo.add_node(0)
    for child in range(1, n):
        parent = (child - 1) // max(1, branching)
        link_cost = rng.randint(1, 5) if rng is not None else cost
        topo.add_link(parent, child, cost=link_cost)
    return topo


def power_law_topology(
    n: int,
    *,
    attachments: int = 2,
    seed: int = 0,
    max_cost: int = 5,
    delay: float = 0.01,
) -> Topology:
    """A Barabási–Albert preferential-attachment graph (power-law degrees).

    Each new node attaches to ``attachments`` existing nodes, producing the
    hub-dominated degree distribution of real AS-level topologies.
    """

    m = max(1, min(attachments, n - 1)) if n > 1 else 0
    if m == 0:
        topo = Topology(default_delay=delay)
        topo.add_node(0)
        return topo
    edges = _barabasi_albert_edges(n, m, random.Random(seed))
    return _topology_from_graph(range(n), edges, seed=seed, max_cost=max_cost, delay=delay)


def _barabasi_albert_edges(n: int, m: int, rng: random.Random) -> list[Edge]:
    """The edges of networkx's ``barabasi_albert_graph(n, m, seed)``: a star
    on ``m + 1`` nodes, then each new node joins ``m`` distinct targets drawn
    from the degree-weighted ``repeated`` list."""

    edges = [(0, spoke) for spoke in range(1, m + 1)]
    # every node once per incident edge, hub first (networkx's degree order)
    repeated = [0] * m + list(range(1, m + 1))
    for source in range(m + 1, n):
        # a set, filled and iterated as networkx's ``_random_subset`` does
        targets: set[int] = set()
        while len(targets) < m:
            targets.add(rng.choice(repeated))
        edges.extend((target, source) for target in targets)
        repeated.extend(targets)
        repeated.extend([source] * m)
    return edges


def waxman_topology(
    n: int,
    *,
    alpha: float = 0.6,
    beta: float = 0.3,
    seed: int = 0,
    max_cost: int = 5,
    delay: float = 0.01,
) -> Topology:
    """A Waxman random geometric graph (the classic Internet-topology model).

    Link probability decays with Euclidean distance; disconnected components
    (possible for small ``alpha``/``beta``) are stitched together so the
    returned topology is always connected.
    """

    edges = _waxman_edges(n, alpha, beta, random.Random(seed))
    edges += _stitches(n, edges, random.Random(seed))
    return _topology_from_graph(range(n), edges, seed=seed, max_cost=max_cost, delay=delay)


def _waxman_edges(n: int, alpha: float, beta: float, rng: random.Random) -> list[Edge]:
    """The edges of networkx's ``waxman_graph(n, alpha, beta, seed=seed)``
    in the unit square: positions x then y per node, ``L`` the largest
    pairwise distance, then one draw per pair in ``combinations`` order."""

    pos = [(rng.uniform(0, 1), rng.uniform(0, 1)) for _ in range(n)]
    if n < 2:
        return []
    scale = alpha * max(math.dist(p, q) for p, q in combinations(pos, 2))
    return [
        (u, v)
        for u, v in combinations(range(n), 2)
        if rng.random() < beta * math.exp(-math.dist(pos[u], pos[v]) / scale)
    ]


def _stitches(n: int, edges: list[Edge], rng: random.Random) -> list[Edge]:
    """One edge between each two consecutive components (ordered by their
    smallest node), between nodes ``rng`` picks from each."""

    adjacency: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adjacency[u].append(v)
        adjacency[v].append(u)
    seen = [False] * n
    components = []
    for start in range(n):
        if seen[start]:
            continue
        seen[start] = True
        component = [start]
        for u in component:  # grows while it is read: a breadth-first walk
            for v in adjacency[u]:
                if not seen[v]:
                    seen[v] = True
                    component.append(v)
        components.append(sorted(component))
    stitches = []
    for previous, current in zip(components, components[1:]):
        a, b = rng.choice(previous), rng.choice(current)
        stitches.append((min(a, b), max(a, b)))
    return stitches


def _topology_from_graph(
    nodes: Iterable[int], edges: Iterable[Edge], *, seed: int, max_cost: int, delay: float
) -> Topology:
    """``nodes`` in order, then each ``(min, max)`` edge in sorted order as a
    symmetric link with a cost drawn from ``random.Random(seed)``."""

    rng = random.Random(seed)
    topo = Topology(default_delay=delay)
    for node in nodes:
        topo.add_node(node)
    for src, dst in sorted(edges):
        topo.add_link(src, dst, cost=rng.randint(1, max_cost))
    return topo
