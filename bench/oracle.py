"""Bench-side oracle: a link-state mirror and ``heapq`` Dijkstra.

Independent of the engine on purpose: the mirror is fed the same updates
the workload sends, never reads engine state, and recomputes all-pairs
shortest-path costs from scratch.  Under the ``shortest_path`` policy (and
the plain path-vector program) every selected best route must cost exactly
what Dijkstra says, and pairs Dijkstra cannot connect must have no route.
"""

from __future__ import annotations

import heapq
from typing import Hashable, Iterable, Mapping

Node = Hashable


class LinkState:
    """Undirected links with a cost and an up/down flag."""

    def __init__(self, nodes: Iterable[Node], links: Iterable[tuple[Node, Node, float]]) -> None:
        self.nodes = list(nodes)
        self._links: dict[frozenset, list] = {}
        for src, dst, cost in links:
            self._links[frozenset((src, dst))] = [cost, True]

    def _entry(self, src: Node, dst: Node) -> list:
        try:
            return self._links[frozenset((src, dst))]
        except KeyError:
            raise KeyError(f"no link {src!r}-{dst!r}") from None

    def fail(self, src: Node, dst: Node) -> None:
        self._entry(src, dst)[1] = False

    def restore(self, src: Node, dst: Node) -> None:
        self._entry(src, dst)[1] = True

    def set_cost(self, src: Node, dst: Node, cost: float) -> None:
        self._entry(src, dst)[0] = cost

    def apply(self, kind: str, src: Node, dst: Node, cost: float | None = None) -> None:
        """Mirror one :func:`link_cycle` step (the verbs of the serving protocol)."""

        if kind == "link_fail":
            self.fail(src, dst)
        elif kind == "link_restore":
            self.restore(src, dst)
        elif kind == "cost_change":
            self.set_cost(src, dst, cost)
        else:
            raise ValueError(f"unknown update kind {kind!r}")

    def cost(self, src: Node, dst: Node) -> float:
        return self._entry(src, dst)[0]

    def pairs(self) -> list[tuple[Node, Node]]:
        """Every link once, as a sorted ``(low, high)`` pair."""

        return sorted(tuple(sorted(key)) for key in self._links)

    def adjacency(self) -> dict[Node, list[tuple[Node, float]]]:
        out: dict[Node, list[tuple[Node, float]]] = {node: [] for node in self.nodes}
        for key, (cost, up) in self._links.items():
            if up:
                src, dst = tuple(key)
                out[src].append((dst, cost))
                out[dst].append((src, cost))
        return out

    def shortest_costs(self) -> dict[tuple[Node, Node], float]:
        """All-pairs shortest-path cost over up links (``src != dst``)."""

        adjacency = self.adjacency()
        order = {node: index for index, node in enumerate(self.nodes)}
        costs: dict[tuple[Node, Node], float] = {}
        for source in self.nodes:
            best = {source: 0}
            heap = [(0, order[source], source)]
            while heap:
                dist, _, node = heapq.heappop(heap)
                if dist > best[node]:
                    continue
                for neighbor, cost in adjacency[node]:
                    candidate = dist + cost
                    if candidate < best.get(neighbor, float("inf")):
                        best[neighbor] = candidate
                        heapq.heappush(heap, (candidate, order[neighbor], neighbor))
            for target, dist in best.items():
                if target != source:
                    costs[(source, target)] = dist
        return costs


def link_cycle(src: Node, dst: Node, cost: float) -> list[tuple]:
    """The four ``(kind, src, dst, new cost or None)`` steps one link
    receives; the last restores its original cost."""

    return [
        ("link_fail", src, dst, None),
        ("link_restore", src, dst, None),
        ("cost_change", src, dst, cost % 5 + 1),
        ("cost_change", src, dst, cost),
    ]


def route_mismatches(
    got: Mapping[tuple[Node, Node], float], want: Mapping[tuple[Node, Node], float]
) -> list[str]:
    """Differences between selected-route costs and the oracle's (empty = ok)."""

    problems = [
        f"{pair}: route cost {got[pair]!r}, oracle {want.get(pair)!r}"
        for pair in got
        if got[pair] != want.get(pair)
    ]
    problems += [f"{pair}: no route, oracle {want[pair]!r}" for pair in want if pair not in got]
    return problems


def best_route_costs(rows: Iterable[tuple], cost_position: int = 3) -> dict[tuple, float]:
    """``(src, dst) -> cost`` of ``bestRoute``/``bestPath`` rows."""

    return {(row[0], row[1]): row[cost_position] for row in rows}
