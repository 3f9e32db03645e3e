"""Scalable graph generators for scenario topologies.

The hand-written experiments use 4–10 node examples; scenario families need
topologies in the tens-to-hundreds of nodes.  Three structured families are
provided here (balanced trees, preferential-attachment power-law graphs,
Waxman random geometric graphs); rings, lines, stars, grids, and
Erdős–Rényi graphs come from :mod:`repro.workloads.topologies`.

All generators are deterministic for a given seed and always return a
connected :class:`~repro.dn.network.Topology`.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Optional

from ..dn.network import Topology

if TYPE_CHECKING:  # networkx is loaded only where a graph is built
    import networkx as nx


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
    import networkx as nx

    graph = nx.barabasi_albert_graph(n, m, seed=seed)
    return _topology_from_graph(graph, seed=seed, max_cost=max_cost, delay=delay)


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

    import networkx as nx

    graph = nx.waxman_graph(n, alpha=alpha, beta=beta, seed=seed)
    _connect_components(graph, seed)
    return _topology_from_graph(graph, seed=seed, max_cost=max_cost, delay=delay)


def _connect_components(graph: "nx.Graph", seed: int) -> None:
    import networkx as nx

    rng = random.Random(seed)
    components = [sorted(c) for c in nx.connected_components(graph)]
    for previous, current in zip(components, components[1:]):
        graph.add_edge(rng.choice(previous), rng.choice(current))


def _topology_from_graph(
    graph: "nx.Graph", *, seed: int, max_cost: int, delay: float
) -> Topology:
    rng = random.Random(seed)
    topo = Topology(default_delay=delay)
    nodes, edges = sorted(graph.nodes), sorted(graph.edges)
    # networkx caches its node, edge and degree views on the graph, and each
    # view refers back to it: emptied, the graph is freed by refcount instead
    # of waiting for the cyclic collector
    graph.__dict__.clear()
    for node in nodes:
        topo.add_node(node)
    for src, dst in edges:
        topo.add_link(src, dst, cost=rng.randint(1, max_cost))
    return topo
