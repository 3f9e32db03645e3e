"""The node host: where an engine's nodes live and settle.

:class:`~repro.dn.engine.DistributedEngine` keeps everything global and
hands everything per node to its node host.  Two hosts answer one
surface — ``nodes`` (node id → a node or row view answering ``rows``,
``select``, ``holds``, ``snapshot`` and carrying ``stats``), ``flush``
(settle one same-timestamp wave into the engine's sinks, yielding each
node id after its settle), ``refresh``, ``expired``, ``soft_deadlines``,
``export_nodes`` / ``load_nodes`` (a capture's node half),
``begin_segment`` / ``end_segment`` and ``close``.  A host holds node
states and nothing per predicate: the engine hands facts to base
predicates only (:meth:`~repro.ndlog.ast.Program.check_base_fact`), so
every derived row is one the program derives.

* :class:`ShardWorker` (here) holds :class:`~repro.dn.node.Node` objects
  and runs the :class:`~repro.dn.executor.FixpointExecutor` in its own
  process.  A single-process engine's host is one worker over every node,
  settling straight into the engine's trace (its change sink) and
  ``_send`` (each settle's net sends as one batch): nothing is collected,
  nothing replayed.  The same class is
  the body of each shard worker process, which also answers
  ``flush_batch``, ``node_stats``, ``snapshot``, ``checkpoint``,
  ``restore``, ``metrics`` and ``ping``.
* :class:`~repro.dn.shard.ShardSupervisor` partitions the nodes across
  shard workers and replays what they return into the same sinks.
"""

from __future__ import annotations

import pickle
from operator import itemgetter
from typing import Iterator

from ..obs import metrics as obs_metrics
from ..obs import tracing as obs_tracing
from .executor import FixpointExecutor, Op
from .network import NodeId
from .node import Node

#: a state change collected at a worker, for the node whose drain it is:
#: (predicate, values, kind)
ChangeRecord = tuple[str, tuple, str]
#: a net send of a settle at a worker, from the node whose drain it is:
#: (dst, predicate, values, kind)
SendRecord = tuple[NodeId, str, tuple, str]

#: a settle's change record ``(now, node, predicate, values, kind)`` as a
#: worker ships it: the node and time are the drain's own
_SHIPPED = itemgetter(2, 3, 4)


class ShardWorker:
    """The nodes of one host and the executor that settles them.

    ``executor`` runs the engine's *localized* program on its compiled
    rules, which the nodes share: a single-process engine builds one for
    its own worker, and a sharded engine's supervisor one for all of its
    shards' workers, each built before its process forks.
    """

    def __init__(self, node_ids, executor: FixpointExecutor) -> None:
        program, rule_engine = executor.program, executor.rule_engine
        self.nodes: dict[NodeId, Node] = {
            node_id: Node(node_id, program, rule_engine=rule_engine) for node_id in node_ids
        }
        self.executor = executor

    def flush(
        self, now: float, items: list[tuple[NodeId, list[Op]]], changes: list, send
    ) -> Iterator:
        """Settle each node's op batch to a local fixpoint, in order: its
        change records are appended to ``changes``, its net sends go to
        ``send(node_id, sends)`` as one batch.  Yields each node id once
        its settle is done."""

        settle = self.executor.settle
        nodes = self.nodes
        for node_id, ops in items:
            if obs_metrics.ENABLED:
                obs_metrics.inc("engine.flushes")
            if obs_tracing.ENABLED:
                with obs_tracing.span("engine.flush", node=str(node_id), ops=len(ops)):
                    sends = settle(nodes[node_id], ops, now, changes)
            else:
                sends = settle(nodes[node_id], ops, now, changes)
            if sends:
                send(node_id, sends)
            yield node_id

    def flush_batch(
        self, now: float, items: list[tuple[NodeId, list[Op]]]
    ) -> list[tuple[list[ChangeRecord], list[SendRecord]]]:
        """A shard worker's wave: each node's settle, in order, with its
        change records and send intents collected for the supervisor."""

        out = []
        for node_id, ops in items:
            records: list[tuple] = []
            sends = self.executor.settle(self.nodes[node_id], ops, now, records)
            out.append((list(map(_SHIPPED, records)), sends))
        return out

    def refresh(self, now: float, items: list[tuple[NodeId, str, tuple]]) -> None:
        """Extend soft-state lifetimes of present base facts."""

        for node_id, predicate, values in items:
            self.nodes[node_id].db.table(predicate).refresh(tuple(values), now)

    def expired(self, now: float) -> dict[NodeId, list[tuple[str, tuple]]]:
        """Each node's soft-state rows past their lifetime (the expiry scan)."""

        return {node_id: node.expired(now) for node_id, node in self.nodes.items()}

    def soft_deadlines(self, node_id: NodeId) -> list[tuple[str, tuple, float]]:
        return self.nodes[node_id].soft_deadlines()

    def node_stats(self) -> dict[NodeId, dict]:
        return {node_id: node.stats.as_dict() for node_id, node in self.nodes.items()}

    def snapshot(self) -> dict[NodeId, dict[str, set[tuple]]]:
        return {node_id: node.snapshot() for node_id, node in self.nodes.items()}

    def ping(self) -> bool:
        return True

    def metrics(self) -> dict:
        """Drain this worker's metrics registry (raw export + reset), so
        repeated collections never double-count."""

        return obs_metrics.registry().drain()

    def export_nodes(self) -> dict:
        """Each node's :meth:`~repro.dn.node.Node.export_state`."""

        return {node_id: node.export_state() for node_id, node in self.nodes.items()}

    def load_nodes(self, states: dict) -> None:
        """Adopt :meth:`export_nodes` states (view memos are rebuilt by
        :meth:`~repro.dn.node.Node.load_state`)."""

        for node_id, state in states.items():
            self.nodes[node_id].load_state(state)

    def checkpoint(self) -> bytes:
        """The nodes' state at a settle point, pickled: what a respawned
        worker restores."""

        return pickle.dumps(self.export_nodes(), pickle.HIGHEST_PROTOCOL)

    def restore(self, checkpoint: bytes) -> bool:
        """Adopt a :meth:`checkpoint`: the worker ends bit-identical to the
        one whose state it was."""

        self.load_nodes(pickle.loads(checkpoint))
        return True

    def begin_segment(self) -> None:
        """Nothing to prepare: the nodes are in this process."""

    def end_segment(self) -> None:
        """Nothing to sync: the engine reads these nodes' stats directly."""

    def close(self) -> None:
        """Nothing to release."""
