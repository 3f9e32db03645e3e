"""Per-node state for the distributed declarative-networking runtime.

Each simulated node owns a :class:`~repro.ndlog.store.Database` holding the
tuples whose location specifier names that node, plus counters used by the
experiments (messages sent/received, rule firings).  Every node also holds a
reference to the run's shared rule engine (built by
:data:`repro.ndlog.rules.RULE_ENGINE`), so rule firings at a node reuse
the generated code of the localized program (compiled once at engine
construction) instead of re-analyzing rules per delivery.  The node stays a
thin state container so it is easy to snapshot and compare against the
centralized evaluator.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Collection, Optional

from ..ndlog.aggregates import group_rows
from ..ndlog.ast import Program
from ..ndlog import rules
from ..ndlog.rules import RuleEngine
from ..ndlog.store import Database
from .network import NodeId


@dataclass(slots=True)
class NodeStats:
    """Counters kept per node.

    In sharded runs (:mod:`repro.dn.shard`) the counters are split by
    ownership: message counters are kept by the coordinator, which ships
    every message, while tuple counters and ``rule_firings`` are the owning
    worker's and are folded back through :meth:`as_dict` after each run
    segment.
    """

    messages_sent: int = 0
    messages_received: int = 0
    tuples_inserted: int = 0
    tuples_replaced: int = 0
    tuples_deleted: int = 0
    rule_firings: int = 0

    def as_dict(self) -> dict[str, int]:
        """Plain-data view (shard stats sync, run records, tests)."""

        return dataclasses.asdict(self)


class Node:
    """One simulated network node running the NDlog program."""

    def __init__(
        self,
        node_id: NodeId,
        program: Program,
        rule_engine: Optional[RuleEngine] = None,
    ) -> None:
        self.id = node_id
        self.program = program
        self.db = Database()
        self.stats = NodeStats()
        # Shared by all nodes of a distributed run: one engine caches the
        # compiled localized program for the whole network.  Standalone
        # nodes (tests, tooling) get a private engine on demand.
        self.rule_engine = (
            rule_engine if rule_engine is not None else rules.RULE_ENGINE()
        )
        #: position of a view (aggregate) rule in ``program.rules`` → its
        #: output at this node as group key → row, kept up to date group by
        #: group and compared to emit its changes
        #: (``FixpointExecutor._recompute_view``)
        self.view_memo: dict[int, dict[tuple, tuple]] = {}
        #: predicate → primary keys that experienced a displacement (the
        #: displaced row's support count was destroyed; when the stored row
        #: under such a key is retracted, the key is re-derived locally)
        self.displaced: dict[str, set[tuple]] = {}
        #: sweepable predicates holding a key that was inconsistent at the
        #: end of a settle in which their consistency sweep was not due (so
        #: it was left alone): their next sweep is the full one (see
        #: ``FixpointExecutor._sweep_is_clean``)
        self.unswept: set[str] = set()
        for decl in program.materialized.values():
            self.db.declare_from(decl)

    def insert(self, predicate: str, values: tuple, now: float) -> bool:
        """Insert a tuple into the local database; returns True on change."""

        changed, previous = self.db.table(predicate).upsert(values, now)
        if changed:
            if previous is not None:
                self.stats.tuples_replaced += 1
            else:
                self.stats.tuples_inserted += 1
        return changed

    def delete(self, predicate: str, values: tuple) -> bool:
        deleted = self.db.delete(predicate, values)
        if deleted:
            self.stats.tuples_deleted += 1
        return deleted

    def holds(self, predicate: str, values: tuple) -> bool:
        """Is exactly ``values`` stored (not just a row under its key)?"""

        table = self.db.get_table(predicate)
        return table is not None and values in table

    def expired(self, now: float) -> list[tuple[str, tuple]]:
        """``(predicate, row)`` of the soft-state rows past their lifetime,
        by predicate name and then row order (the order expiry is queued)."""

        db = self.db
        return [(p, row) for p in db.predicates() for row in db.table(p).expired(now)]

    def soft_deadlines(self) -> list[tuple[str, tuple, float]]:
        """``(predicate, row, expiry deadline)`` of every soft-state row, in
        the order of :meth:`expired`."""

        db = self.db
        return [
            (p, row, deadline)
            for p in db.predicates()
            for row, deadline in db.table(p).deadlines()
        ]

    def export_state(self) -> dict:
        """The node's structural state at a settle point, as plain data: stats,
        displacement/unswept marks, and per table its
        :meth:`~repro.ndlog.store.Table.export_state` — rows as ``(key,
        values, count)`` in row order and soft-state deadlines.  Indexes
        and view memos are left out: no access path depends on which
        indexes exist, a loaded table builds each on its first probe, as a
        fresh one does, and :meth:`load_state` recomputes the memos.
        """

        tables = [
            (predicate, table.export_state())
            for predicate, table in self.db._tables.items()
        ]
        return {
            "stats": self.stats.as_dict(),
            "displaced": {p: set(keys) for p, keys in self.displaced.items()},
            "unswept": sorted(self.unswept),
            "tables": tables,
        }

    def load_state(self, state: dict) -> None:
        """Adopt a state captured by :meth:`export_state`.

        View memos are **recomputed**: at a settle point each memo equals a
        fresh evaluation of its aggregate rule, keyed by group (any body
        change re-triggers the recompute before quiescence).  Memo order is
        not load-bearing: the executor emits a memo's changes in group-key
        order, so only its content must match the live node's.  The
        recompute goes to the rule engine directly (no semantic firing, so
        stats stay untouched).  Tables hold no index until one is probed.
        """

        self.stats = NodeStats(**state["stats"])
        self.displaced = {p: set(keys) for p, keys in state["displaced"].items()}
        self.unswept = set(state["unswept"])
        for predicate, table_state in state["tables"]:
            self.db.table(predicate).load_state(table_state)
        self.view_memo = {
            r: group_rows(rule.head, self.rule_engine.fire_rule(rule, self.db))
            for r, rule in enumerate(self.program.rules)
            if rule.head.has_aggregate
        }

    def rows(self, predicate: str) -> list[tuple]:
        return self.db.rows(predicate)

    def select(
        self, predicate: str, positions: tuple[int, ...], wanted: Collection[tuple]
    ) -> list[tuple]:
        """Rows of ``predicate`` whose values at ``positions`` are among
        ``wanted`` (:meth:`~repro.ndlog.store.Table.select`: reads only
        what exists, so a read adds no index upkeep)."""

        table = self.db.get_table(predicate)
        return table.select(positions, wanted) if table is not None else []

    def snapshot(self) -> dict[str, set[tuple]]:
        """Predicate → rows: every materialized predicate, and any other
        that holds rows (a table the database made on first use and left
        empty is not listed, as a sharded row view never sees one)."""

        declared = self.program.materialized
        return {
            predicate: rows
            for predicate, rows in self.db.snapshot().items()
            if rows or predicate in declared
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Node({self.id!r}, {self.db.fact_count()} facts)"
