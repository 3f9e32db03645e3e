"""Network topology and message channels for the distributed runtime.

A :class:`Topology` describes nodes and directed links, each with a routing
cost (what NDlog programs see as the third attribute of ``link``), a
propagation delay (simulation seconds for a tuple shipped across the link),
and an optional loss probability.  Topologies can be built directly, from an
edge list, or from a :mod:`networkx` graph, and can be perturbed at runtime
(link failure / recovery / cost change) to drive dynamic experiments such as
count-to-infinity.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Hashable, Iterable, Optional

if TYPE_CHECKING:  # networkx is loaded only where a graph is built
    import networkx as nx

NodeId = Hashable


@dataclass
class Link:
    """A directed link ``src -> dst``."""

    src: NodeId
    dst: NodeId
    cost: float = 1.0
    delay: float = 0.01
    loss: float = 0.0
    up: bool = True

    def as_fact(self) -> tuple:
        """The ``link(@src, dst, cost)`` tuple exposed to NDlog programs."""

        return (self.src, self.dst, self.cost)


class Topology:
    """A mutable directed network topology."""

    def __init__(self, *, default_delay: float = 0.01, default_cost: float = 1.0) -> None:
        self.default_delay = default_delay
        self.default_cost = default_cost
        self._nodes: dict[NodeId, dict] = {}
        self._links: dict[tuple[NodeId, NodeId], Link] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_node(self, node: NodeId, **attrs) -> None:
        self._nodes.setdefault(node, {}).update(attrs)

    def add_link(
        self,
        src: NodeId,
        dst: NodeId,
        *,
        cost: Optional[float] = None,
        delay: Optional[float] = None,
        loss: float = 0.0,
        symmetric: bool = True,
    ) -> None:
        """Add a link (and its reverse when ``symmetric``)."""

        self.add_node(src)
        self.add_node(dst)
        cost = self.default_cost if cost is None else cost
        delay = self.default_delay if delay is None else delay
        self._links[(src, dst)] = Link(src, dst, cost, delay, loss)
        if symmetric:
            self._links[(dst, src)] = Link(dst, src, cost, delay, loss)

    @classmethod
    def from_edges(
        cls,
        edges: Iterable[tuple],
        *,
        default_delay: float = 0.01,
        symmetric: bool = True,
    ) -> "Topology":
        """Build a topology from ``(src, dst)`` or ``(src, dst, cost)`` tuples."""

        topo = cls(default_delay=default_delay)
        for edge in edges:
            if len(edge) == 2:
                src, dst = edge
                topo.add_link(src, dst, symmetric=symmetric)
            else:
                src, dst, cost = edge[:3]
                topo.add_link(src, dst, cost=cost, symmetric=symmetric)
        return topo

    @classmethod
    def from_networkx(cls, graph: "nx.Graph", *, default_delay: float = 0.01) -> "Topology":
        """Build a topology from a networkx graph (``weight`` becomes cost)."""

        topo = cls(default_delay=default_delay)
        for node in graph.nodes:
            topo.add_node(node)
        symmetric = not graph.is_directed()
        for src, dst, data in graph.edges(data=True):
            topo.add_link(
                src,
                dst,
                cost=data.get("weight", topo.default_cost),
                delay=data.get("delay", default_delay),
                symmetric=symmetric,
            )
        return topo

    def export_state(self) -> dict:
        """The topology as plain data: defaults, node ids, and every link
        (up or down) in link order; :meth:`from_state` inverts it."""

        return {
            "default_delay": self.default_delay,
            "default_cost": self.default_cost,
            "nodes": list(self._nodes),
            "links": [
                (link.src, link.dst, link.cost, link.delay, link.loss, link.up)
                for link in self._links.values()
            ],
        }

    @classmethod
    def from_state(cls, state: dict) -> "Topology":
        """The topology captured by :meth:`export_state`, links in captured
        (deterministic) order."""

        topo = cls(default_delay=state["default_delay"], default_cost=state["default_cost"])
        for node in state["nodes"]:
            topo.add_node(node)
        for src, dst, cost, delay, loss, up in state["links"]:
            topo._links[(src, dst)] = Link(src, dst, cost, delay, loss, up)
        return topo

    def to_networkx(self) -> "nx.DiGraph":
        """The up-graph as a networkx ``DiGraph`` (interop: imports networkx)."""

        import networkx as nx

        graph = nx.DiGraph()
        graph.add_nodes_from(self._nodes)
        for link in self.up_links():
            graph.add_edge(link.src, link.dst, weight=link.cost, delay=link.delay)
        return graph

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def nodes(self) -> list[NodeId]:
        return list(self._nodes)

    @property
    def node_count(self) -> int:
        return len(self._nodes)

    def links(self) -> list[Link]:
        return list(self._links.values())

    def up_links(self) -> list[Link]:
        return [link for link in self._links.values() if link.up]

    def link(self, src: NodeId, dst: NodeId) -> Optional[Link]:
        return self._links.get((src, dst))

    def neighbors(self, node: NodeId) -> list[NodeId]:
        return [link.dst for link in self._links.values() if link.src == node and link.up]

    def link_facts(self) -> list[tuple]:
        """``link(@src, dst, cost)`` facts for every up link."""

        return [link.as_fact() for link in self.up_links()]

    def up_adjacency(self) -> dict[NodeId, list[NodeId]]:
        """The undirected up-graph as node → neighbours, in the order
        networkx's ``to_networkx().to_undirected()`` holds them: nodes in
        topology order, each node's up out-links in link order, every edge
        added both ways."""

        out: dict[NodeId, list[NodeId]] = {node: [] for node in self._nodes}
        for link in self.up_links():
            out[link.src].append(link.dst)
        # a dict per node: an ordered set that keeps each neighbour's first slot
        adjacency: dict[NodeId, dict[NodeId, None]] = {node: {} for node in self._nodes}
        for src, targets in out.items():
            for dst in targets:
                adjacency[src][dst] = None
                adjacency[dst][src] = None
        return {node: list(neighbours) for node, neighbours in adjacency.items()}

    def diameter(self) -> int:
        """Hop-count diameter of the underlying undirected up-graph: the
        largest BFS eccentricity, or 0 for at most one node or a
        disconnected graph."""

        adjacency = self.up_adjacency()
        if len(adjacency) <= 1:
            return 0
        diameter = 0
        for source in adjacency:
            depth = {source: 0}
            for parent, child in bfs_edges(adjacency, source):
                depth[child] = depth[parent] + 1
            if len(depth) < len(adjacency):
                return 0
            diameter = max(diameter, max(depth.values()))
        return diameter

    # ------------------------------------------------------------------
    # Dynamics
    # ------------------------------------------------------------------
    def fail_link(self, src: NodeId, dst: NodeId, *, symmetric: bool = True) -> list[Link]:
        """Mark link(s) as down; returns the affected links."""

        affected = []
        for key in [(src, dst)] + ([(dst, src)] if symmetric else []):
            link = self._links.get(key)
            if link is not None and link.up:
                link.up = False
                affected.append(link)
        return affected

    def restore_link(self, src: NodeId, dst: NodeId, *, symmetric: bool = True) -> list[Link]:
        """Bring failed link(s) back up; returns the affected links."""

        affected = []
        for key in [(src, dst)] + ([(dst, src)] if symmetric else []):
            link = self._links.get(key)
            if link is not None and not link.up:
                link.up = True
                affected.append(link)
        return affected

    def set_cost(self, src: NodeId, dst: NodeId, cost: float, *, symmetric: bool = True) -> list[Link]:
        """Change link cost(s); returns the affected links."""

        affected = []
        for key in [(src, dst)] + ([(dst, src)] if symmetric else []):
            link = self._links.get(key)
            if link is not None:
                link.cost = cost
                affected.append(link)
        return affected


def bfs_edges(
    adjacency: dict[NodeId, list[NodeId]], source: NodeId
) -> list[tuple[NodeId, NodeId]]:
    """The ``(parent, child)`` tree edges of a breadth-first search from
    ``source``, in discovery order (networkx's ``bfs_edges`` order over the
    same adjacency)."""

    seen = {source}
    edges = []
    queue = deque([source])
    while queue:
        parent = queue.popleft()
        for child in adjacency[parent]:
            if child not in seen:
                seen.add(child)
                edges.append((parent, child))
                queue.append(child)
    return edges


@dataclass
class Message:
    """A tuple in flight between two nodes."""

    src: NodeId
    dst: NodeId
    predicate: str
    values: tuple
    sent_at: float
    deliver_at: float
    size: int = 1

    def __str__(self) -> str:
        return (
            f"{self.src}->{self.dst} {self.predicate}{self.values} "
            f"@{self.sent_at:.3f}->{self.deliver_at:.3f}"
        )


class Channel:
    """Delivery policy between nodes: delay and optional loss.

    The channel does not queue messages itself — the engine schedules
    deliveries on the event scheduler — but it centralizes delay/loss
    decisions so they are easy to test and to swap out.
    """

    def __init__(self, topology: Topology, *, seed: Optional[int] = None) -> None:
        self.topology = topology
        self._random = random.Random(seed)
        self.dropped: int = 0

    def transit(self, src: NodeId, dst: NodeId) -> Optional[float]:
        """The propagation delay of a message sent now from ``src`` to
        ``dst``, or None when the link's loss draw drops it.  One link
        lookup per message; only a lossy link draws from the RNG."""

        link = self.topology.link(src, dst)
        if link is None:
            return self.topology.default_delay
        loss = link.loss
        if loss > 0.0 and self._random.random() < loss:
            self.dropped += 1
            return None
        return link.delay
