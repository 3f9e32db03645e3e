"""Generic route computation over a routing algebra.

Metarouting's payoff is that *any* protocol implementing a monotone, isotone
algebra converges to stable (and, with strict monotonicity, optimal) routes.
This module implements the generic protocol: a generalized distributed
Bellman–Ford where link weights are algebra labels and route comparison is
the algebra's preference relation.  It is used

* to turn an algebra + labeled topology into routing tables (the
  "implements the algebra" direction),
* by :mod:`repro.metarouting.convergence` to observe convergence (or its
  absence) and relate it to the axiom reports,
* by the FVN framework to generate equivalent NDlog programs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable, Iterable, Optional

from .algebra import Label, RoutingAlgebra, Signature


NodeId = Hashable


@dataclass(frozen=True)
class LabeledEdge:
    """A directed edge ``src -> dst`` carrying an algebra label."""

    src: NodeId
    dst: NodeId
    label: Label


class LabeledGraph:
    """A directed graph whose edges carry algebra labels."""

    def __init__(self, edges: Iterable[LabeledEdge | tuple] = ()) -> None:
        self._edges: dict[tuple[NodeId, NodeId], LabeledEdge] = {}
        self._nodes: set[NodeId] = set()
        for edge in edges:
            self.add_edge(edge)

    def add_edge(self, edge: LabeledEdge | tuple) -> None:
        if not isinstance(edge, LabeledEdge):
            src, dst, label = edge
            edge = LabeledEdge(src, dst, label)
        self._edges[(edge.src, edge.dst)] = edge
        self._nodes.add(edge.src)
        self._nodes.add(edge.dst)

    def add_node(self, node: NodeId) -> None:
        self._nodes.add(node)

    @property
    def nodes(self) -> list[NodeId]:
        return sorted(self._nodes, key=str)

    @property
    def edges(self) -> list[LabeledEdge]:
        return list(self._edges.values())

    def out_edges(self, node: NodeId) -> list[LabeledEdge]:
        return [e for e in self._edges.values() if e.src == node]

    def in_edges(self, node: NodeId) -> list[LabeledEdge]:
        return [e for e in self._edges.values() if e.dst == node]


@dataclass
class RouteEntry:
    """A node's current route towards a destination."""

    signature: Signature
    next_hop: Optional[NodeId] = None
    path: tuple = ()


RoutingTable = dict[NodeId, RouteEntry]  # destination -> entry


@dataclass
class RoutingOutcome:
    """Result of running the generic vectoring protocol."""

    tables: dict[NodeId, RoutingTable]
    iterations: int
    converged: bool
    changes_per_iteration: list[int] = field(default_factory=list)

    def route(self, src: NodeId, dst: NodeId) -> Optional[RouteEntry]:
        return self.tables.get(src, {}).get(dst)

    def signature(self, src: NodeId, dst: NodeId) -> Optional[Signature]:
        entry = self.route(src, dst)
        return entry.signature if entry else None


def compute_routes(
    algebra: RoutingAlgebra,
    graph: LabeledGraph,
    *,
    destinations: Optional[Iterable[NodeId]] = None,
    origination: Optional[Signature] = None,
    max_iterations: int = 200,
) -> RoutingOutcome:
    """Generalized Bellman–Ford over the algebra.

    Every destination originates ``origination`` (default: the algebra's
    first origination signature).  In each synchronous iteration every node
    recomputes, for every destination, the best of its neighbours' routes
    extended across the connecting edge's label; iteration stops at a
    fixpoint or after ``max_iterations`` (non-convergence is reported, which
    is how non-monotone algebras manifest).
    """

    if origination is None:
        origination = algebra.originations[0] if algebra.originations else algebra.prohibited
    nodes = graph.nodes
    dests = list(destinations) if destinations is not None else nodes

    tables: dict[NodeId, RoutingTable] = {
        node: {
            dst: RouteEntry(
                origination if node == dst else algebra.prohibited,
                next_hop=node if node == dst else None,
                path=(node,) if node == dst else (),
            )
            for dst in dests
        }
        for node in nodes
    }

    changes_history: list[int] = []
    for iteration in range(1, max_iterations + 1):
        changes = 0
        for node in nodes:
            for dst in dests:
                if node == dst:
                    continue
                best_entry = RouteEntry(algebra.prohibited, None, ())
                for edge in graph.out_edges(node):
                    neighbour_entry = tables[edge.dst][dst]
                    if algebra.is_prohibited(neighbour_entry.signature):
                        continue
                    if node in neighbour_entry.path:
                        continue  # loop avoidance, as in a path-vector protocol
                    candidate = algebra.apply(edge.label, neighbour_entry.signature)
                    if algebra.is_prohibited(candidate):
                        continue
                    if algebra.strictly_preferred(candidate, best_entry.signature) or (
                        best_entry.next_hop is None
                        and not algebra.is_prohibited(candidate)
                    ):
                        best_entry = RouteEntry(
                            candidate, edge.dst, (node,) + neighbour_entry.path
                        )
                current = tables[node][dst]
                if (
                    current.signature != best_entry.signature
                    or current.next_hop != best_entry.next_hop
                ):
                    tables[node][dst] = best_entry
                    changes += 1
        changes_history.append(changes)
        if changes == 0:
            return RoutingOutcome(tables, iteration, True, changes_history)
    return RoutingOutcome(tables, max_iterations, False, changes_history)


def optimality_gap(
    algebra: RoutingAlgebra,
    graph: LabeledGraph,
    outcome: RoutingOutcome,
    *,
    max_path_length: Optional[int] = None,
) -> dict[tuple[NodeId, NodeId], tuple[Signature, Signature]]:
    """Compare computed routes against brute-force optimal signatures.

    Returns the (computed, optimal) pairs that differ.  Used to validate the
    metarouting claim that strictly monotone + isotone algebras yield optimal
    routes on the generic protocol.
    """

    nodes = graph.nodes
    limit = max_path_length if max_path_length is not None else len(nodes)
    gaps: dict[tuple[NodeId, NodeId], tuple[Signature, Signature]] = {}
    origination = algebra.originations[0] if algebra.originations else algebra.prohibited

    def best_signature(src: NodeId, dst: NodeId) -> Signature:
        best = algebra.prohibited
        stack: list[tuple[NodeId, Signature, frozenset]] = [(dst, origination, frozenset((dst,)))]
        # Work backwards from the destination extending by in-edges, mirroring
        # how the vectoring protocol builds signatures.
        while stack:
            node, signature, visited = stack.pop()
            if node == src and algebra.strictly_preferred(signature, best):
                best = signature
            if len(visited) > limit:
                continue
            for edge in graph.in_edges(node):
                if edge.src in visited:
                    continue
                extended = algebra.apply(edge.label, signature)
                if algebra.is_prohibited(extended):
                    continue
                stack.append((edge.src, extended, visited | {edge.src}))
        return best

    for src in nodes:
        for dst in nodes:
            if src == dst:
                continue
            computed = outcome.signature(src, dst)
            optimal = best_signature(src, dst)
            if computed != optimal:
                gaps[(src, dst)] = (computed, optimal)
    return gaps
