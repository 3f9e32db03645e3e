"""The path-vector protocol in NDlog (paper Section 2.2) with a typed front end.

This is the paper's running example, provided as:

* :data:`PATH_VECTOR_SOURCE` — the NDlog source exactly as printed in the
  paper (rules ``r1``–``r4``) plus ``materialize`` declarations;
* :func:`path_vector_program` — the parsed program;
* :class:`PathVectorProtocol` — a convenience wrapper that evaluates the
  program (centrally or on the distributed runtime) over a topology and
  exposes typed best-path results, used by examples and experiments.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Optional

from ..dn.engine import DistributedEngine, EngineConfig
from ..dn.network import Topology
from ..dn.trace import Trace
from ..ndlog.ast import Program
from ..ndlog.parser import parse_program
from ..ndlog.store import Database


PATH_VECTOR_SOURCE = """
/* path-vector protocol (paper Section 2.2, rules r1-r4) */
materialize(link, infinity, infinity, keys(1,2)).
materialize(path, infinity, infinity, keys(1,2,3)).
materialize(bestPathCost, infinity, infinity, keys(1,2)).
materialize(bestPath, infinity, infinity, keys(1,2)).

r1 path(@S,D,P,C) :- link(@S,D,C), P=f_init(S,D).
r2 path(@S,D,P,C) :- link(@S,Z,C1), path(@Z,D,P2,C2), C=C1+C2,
                     P=f_concatPath(S,P2), f_inPath(P2,S)=false.
r3 bestPathCost(@S,D,min<C>) :- path(@S,D,P,C).
r4 bestPath(@S,D,P,C) :- bestPathCost(@S,D,C), path(@S,D,P,C).
"""


def path_vector_program(name: str = "pathvector") -> Program:
    """The parsed path-vector program."""

    return parse_program(PATH_VECTOR_SOURCE, name)


@dataclass(frozen=True)
class BestPath:
    """A best path computed by the protocol."""

    source: Hashable
    destination: Hashable
    path: tuple
    cost: float


class PathVectorProtocol:
    """Typed front end over the NDlog path-vector program."""

    def __init__(self, topology: Topology) -> None:
        self.topology = topology
        self.program = path_vector_program()
        self._database: Optional[Database] = None
        self._engine: Optional[DistributedEngine] = None

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run_centralized(self) -> Database:
        """Evaluate the program centrally over the topology's link facts."""

        # imported here: a distributed run loads no centralized evaluator
        from ..ndlog.seminaive import evaluate

        facts = [("link", fact) for fact in self.topology.link_facts()]
        self._database = evaluate(self.program, facts)
        return self._database

    def run_distributed(
        self, *, config: Optional[EngineConfig] = None, until: float = float("inf")
    ) -> Trace:
        """Execute the program on the distributed runtime."""

        self._engine = DistributedEngine(self.program, self.topology, config=config)
        trace = self._engine.run(until=until)
        return trace

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def _rows(self, predicate: str) -> list[tuple]:
        if self._engine is not None:
            return self._engine.rows(predicate)
        if self._database is not None:
            return self._database.rows(predicate)
        raise RuntimeError("run_centralized() or run_distributed() first")

    def best_paths(self) -> list[BestPath]:
        return [
            BestPath(source=row[0], destination=row[1], path=tuple(row[2]), cost=row[3])
            for row in self._rows("bestPath")
        ]

    def best_path(self, source: Hashable, destination: Hashable) -> Optional[BestPath]:
        for entry in self.best_paths():
            if entry.source == source and entry.destination == destination:
                return entry
        return None

    def paths(self) -> list[BestPath]:
        return [
            BestPath(source=row[0], destination=row[1], path=tuple(row[2]), cost=row[3])
            for row in self._rows("path")
        ]

    @property
    def message_count(self) -> int:
        if self._engine is None:
            return 0
        return self._engine.total_messages()
