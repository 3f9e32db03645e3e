"""The distributed NDlog execution engine.

This is the runtime the paper relies on for arc 7 of Figure 1: executing
(generated) NDlog programs as an actual network protocol.  It follows the
P2 / declarative-networking execution model:

1. the program is **localized** (:mod:`repro.ndlog.localization`) so every
   rule body reads tuples at a single node;
2. base tuples are distributed to the node named by their location
   specifier;
3. execution is **batched semi-naive**: tuples arriving at a node at the
   same simulation timestamp are drained into one delta batch, and each
   triggered rule fires once with the whole batch as the delta (instead of
   once per tuple); derived tuples whose head location names another node
   are shipped as messages with the link's propagation delay — the
   messages landing at one time travel as one scheduler event, a *wave* —
   while local derivations are appended to the batch queue and processed
   in the same drain loop;
4. aggregate rules (``min<C>`` …) are recomputed over the node's local
   tables once per batch round (deferred to batch end rather than per
   tuple), so route recomputation (``bestRoute``) happens exactly as in the
   paper's BGP decomposition but without per-tuple recomputation overhead.

Per-program execution state is built once at load time and cached for the
whole run: every rule of the localized program is lowered to generated
Python source (:class:`~repro.ndlog.codegen.CodegenRule`) shared by every
node, and the predicate→triggered-rules map (plus its per-delta
plain/aggregate split) is memoized instead of being rebuilt on every
delivery round.

5. execution is **non-monotonic**: base-fact deletions — link failures,
   keyed cost-change displacements, soft-state expiry — propagate through
   derived state.  Every stored row carries a derivation count; a deletion
   round fires the triggered rules with the retracted tuples as a deletion
   delta *before* physically removing them (so the join sees the old
   database), releases one support per lost derivation, ships ``retract``
   messages for remotely-located heads, and recomputes-and-diffs aggregate
   rules against a per-node memo so vanished groups (stale best routes) are
   withdrawn.  Rules with negated body literals get compiled negation-delta
   variants so changes of the negated relation assert/retract exactly the
   bindings they unblock/block.  Settles that removed rows end with a
   **consistency sweep**: purely-local derived predicates are re-derived and
   stored rows no longer derivable are force-retracted, repairing the
   support counts a multi-round deletion cascade can strand (see
   :meth:`repro.dn.executor.FixpointExecutor.settle`).

Batched, retraction-aware rounds are the engine's only execution mode, and
generated code its only rule evaluator: every settle point is reached by
the same :meth:`~repro.dn.executor.FixpointExecutor.settle` over the same
generated rules whether the node runs here or on a shard worker.  The rule
engine comes from :data:`repro.ndlog.seminaive.RULE_ENGINE`, which
differential tests point at the reference interpreter
(:mod:`repro.ndlog.reference`).

Like the centralized :class:`~repro.ndlog.seminaive.IncrementalEvaluator`,
the distributed counting scheme is exact for programs whose recursion is
well-founded (e.g. the path-vector program, whose cycle check grounds every
derivation); programs with cyclic self-support (``reach``-style transitive
closure without a decreasing measure) should bound stale state with
soft-state lifetimes, the paper's own remedy.

The engine records a :class:`~repro.dn.trace.Trace` for convergence and
message accounting — each ``run()`` first compacts away the records of the
runs before it — and supports runtime topology dynamics (link failure,
recovery, cost changes) plus soft-state expiry and periodic refresh.

A settled engine's state is captured by :meth:`DistributedEngine.capture`
and loaded into a fresh engine by :func:`restore_engine`, on any shard
count at either end: the serving daemon's snapshots and its ``what_if``
forks are both this pair.
"""

from __future__ import annotations

import heapq
import itertools
import random
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Optional, Protocol

from ..logic.bmc import FunctionRegistry
from ..ndlog.ast import Fact, NDlogError, Program
from ..ndlog.functions import builtin_registry
from ..ndlog.localization import localize_program
from ..ndlog import seminaive
from ..obs import metrics as obs_metrics
from ..obs import tracing as obs_tracing
from .events import Event, EventScheduler
from .executor import FixpointExecutor
from .network import Channel, NodeId, Topology
from .node import Node
from .trace import Trace

#: Event kinds a settled engine may have queued: the self-rescheduling
#: soft-state maintenance timers.  Their callbacks are the engine's own bound
#: methods, so a capture stores the kind tag alone.
MAINTENANCE_KINDS = frozenset(("refresh", "expiry"))


class CaptureError(RuntimeError):
    """The engine is not at a settled state, so it cannot be captured."""


@dataclass
class EngineConfig:
    """Tunable parameters of a distributed execution."""

    #: Predicate under which the topology's links are injected (set to None
    #: to disable automatic link facts).
    link_predicate: Optional[str] = "link"
    #: Random seed for the loss channel.
    seed: Optional[int] = None
    #: Interval for soft-state refresh of base facts (None disables).
    refresh_interval: Optional[float] = None
    #: Interval at which soft-state tables are scanned for expiry.
    expiry_scan_interval: float = 1.0
    #: Safety budget on processed events.
    max_events: int = 500_000
    #: Partition the node set across this many shard workers (1 = the
    #: classic single-process engine).  Use :func:`create_engine` (or the
    #: harness) to honor this field; constructing :class:`DistributedEngine`
    #: directly always runs single-process.
    shards: int = 1
    #: Node→shard assignment strategy: ``"hash"`` (stable content hash of
    #: the node id) or ``"metis-lite"`` (greedy balanced BFS growth that
    #: keeps topology neighborhoods together, cutting cross-shard traffic).
    #: Either way the execution is byte-identical to single-process.
    partition: str = "hash"
    #: How shard workers run: ``"process"`` spawns one OS process per shard
    #: (the scaling configuration), ``"inline"`` hosts them in-process
    #: (same code path minus the IPC — used by differential tests).
    shard_transport: str = "process"
    #: Times the coordinator may respawn+resync any one crashed shard
    #: worker before degrading to a clean ``NDlogError``.  A respawned
    #: worker loads its shard's last checkpoint and re-executes the
    #: requests logged since, keeping ``Trace.fingerprint()``
    #: byte-identical (see ``docs/FAULTS.md``).
    shard_restarts: int = 2
    #: Seconds the coordinator waits for a shard worker's response before
    #: declaring it hung, killing it, and applying the restart policy
    #: (None waits forever — the pre-supervision behavior).
    shard_timeout: Optional[float] = None


class EngineMonitor(Protocol):
    """Runtime invariant monitor attached to an engine.

    Monitors observe every recorded state change (``on_change``) and are
    asked to evaluate their invariants whenever a node reaches a local
    fixpoint (``on_settle``) — the points at which FVN safety properties are
    meaningful during execution.  See :mod:`repro.fvn.monitors` for the
    property-derived implementations.

    A monitor whose ``on_change`` ignores every predicate outside a fixed
    set may also define ``change_predicates()`` returning that set (``None``
    for "all"); the engine then only calls it for those predicates.
    """

    def attach(self, engine: "DistributedEngine") -> None: ...

    def on_change(
        self, time: float, node: NodeId, predicate: str, values: tuple, kind: str
    ) -> None: ...

    def on_settle(self, time: float, node: NodeId) -> None: ...

    def finalize(self, time: float) -> None: ...


class DistributedEngine:
    """Runs an NDlog program over a simulated network."""

    #: what holds a node's state (a sharded coordinator's holds a row view)
    node_class = Node

    def __init__(
        self,
        program: Program,
        topology: Topology,
        *,
        config: Optional[EngineConfig] = None,
        registry: Optional[FunctionRegistry] = None,
    ) -> None:
        program.check()
        self.original_program = program
        localization = localize_program(program)
        self.program = localization.program
        self.localization = localization
        self.topology = topology
        self.config = config or EngineConfig()
        #: the caller-supplied registry (None = builtin), remembered so the
        #: sharded subclass can forward the same argument to its workers
        self._registry_arg = registry
        self.registry = registry or builtin_registry()
        self.rule_engine = seminaive.RULE_ENGINE(self.registry)
        # compile the localized program once; every node shares the plans
        # (and forked shard workers inherit them through the codegen cache)
        self.rule_engine.precompile(self.program.rules)
        self.scheduler = EventScheduler()
        # Resolve the loss channel's seed once so every run — including
        # seed=None "nondeterministic" ones — is reproducible from its
        # trace: the drawn seed is recorded and can be fed back in.
        if self.config.seed is None:
            self.channel_seed: int = random.Random().randrange(2**63)
        else:
            self.channel_seed = self.config.seed
        self.channel = Channel(topology, seed=self.channel_seed)
        self.trace = Trace()
        self.trace.seeds = {
            "engine_config": self.config.seed,
            "channel": self.channel_seed,
        }
        #: runtime invariant monitors (see :class:`EngineMonitor`); empty by
        #: default so the hot paths pay a single truthiness check
        self.monitors: list[EngineMonitor] = []
        #: predicate → the monitors whose ``on_change`` wants it, in attach
        #: order; predicates absent here go to ``_unfiltered_monitors`` (the
        #: monitors that declared no ``change_predicates``) alone
        self._change_watchers: dict[str, tuple[EngineMonitor, ...]] = {}
        self._unfiltered_monitors: tuple[EngineMonitor, ...] = ()
        #: >0 while a node's fixpoint rounds (or the sharded replay of one)
        #: are executing — mid-fixpoint states are deliberately inconsistent
        #: (deletion deltas fire against the old database), so external
        #: updates must not land inside; see :meth:`_assert_safe_point`
        self._fixpoint_depth = 0
        self.nodes: dict[NodeId, Node] = {
            node_id: self.node_class(node_id, self.program, rule_engine=self.rule_engine)
            for node_id in topology.nodes
        }
        # the node-local fixpoint machinery (trigger maps, retraction
        # rounds, negation deltas) lives in the executor, shared with the
        # shard workers; each settle plugs this engine's trace/channel in as
        # the effect sinks
        self.executor = FixpointExecutor(self.program, self.rule_engine)
        self._base_facts: list[tuple[NodeId, str, tuple]] = []
        self._seeded = False
        # per-node queues of ops awaiting batched delta processing; each op
        # is ``(kind, predicate, values)`` with kind one of insert / retract
        # (counted) / delete (forced) / expire (forced, lifetime-checked)
        self._pending: dict[NodeId, deque[tuple[str, str, tuple]]] = {
            node_id: deque() for node_id in topology.nodes
        }
        self._flush_marks: dict[NodeId, float] = {}
        # high-water marks already reported to the metrics registry, so
        # repeated run() segments record deltas rather than double-counting
        self._obs_events_seen = 0
        self._obs_firings_seen = 0

    # ------------------------------------------------------------------
    # Runtime monitors
    # ------------------------------------------------------------------
    def attach_monitor(self, monitor: EngineMonitor) -> None:
        """Attach a runtime invariant monitor to this engine.

        The monitor sees every state change as it is recorded and is asked
        to check its invariants whenever a node settles (reaches a local
        fixpoint for the current timestamp).  Attach monitors before
        seeding/running so they observe the whole execution.
        """

        monitor.attach(self)
        self.monitors.append(monitor)
        # fan state changes out by predicate: ``_record_change`` runs once
        # per stored-row change, and most monitors care about a few
        # predicates (none of them configuration like ``exportDeny``)
        declared = getattr(monitor, "change_predicates", None)
        predicates = declared() if declared is not None else None
        if predicates is None:
            self._unfiltered_monitors += (monitor,)
            self._change_watchers = {
                predicate: watchers + (monitor,)
                for predicate, watchers in self._change_watchers.items()
            }
        else:
            for predicate in predicates:
                self._change_watchers[predicate] = self._change_watchers.get(
                    predicate, self._unfiltered_monitors
                ) + (monitor,)

    def _record_change(
        self, time: float, node_id: NodeId, predicate: str, values: tuple, kind: str
    ) -> None:
        self.trace.record_change(time, node_id, predicate, values, kind)
        for monitor in self._change_watchers.get(predicate, self._unfiltered_monitors):
            monitor.on_change(time, node_id, predicate, values, kind)

    def _notify_settle(self, node_id: NodeId) -> None:
        now = self.scheduler.now
        for monitor in self.monitors:
            monitor.on_settle(now, node_id)

    def finalize_monitors(self) -> None:
        """Run every monitor's final full-state check at the current time.

        Call once after the last :meth:`run` segment; afterwards each
        monitor's active violations describe the final state, so they agree
        with post-hoc property checks by construction.
        """

        now = self.scheduler.now
        for monitor in self.monitors:
            monitor.finalize(now)

    # ------------------------------------------------------------------
    # Seeding
    # ------------------------------------------------------------------
    def _fact_location(self, fact: Fact) -> NodeId:
        if fact.location is None:
            raise NDlogError(
                f"fact {fact} has no location specifier; distributed execution "
                "requires located facts"
            )
        return fact.values[fact.location]

    def seed_facts(self, extra_facts: Iterable[Fact | tuple] = ()) -> None:
        """Queue initial facts (program facts, topology links, extras) at t=0."""

        facts: list[tuple[NodeId, str, tuple]] = []
        for fact in self.program.facts:
            facts.append((self._fact_location(fact), fact.predicate, tuple(fact.values)))
        # Extra facts (typically configuration such as policies) are seeded
        # before the topology's link facts so that rules with negated
        # configuration literals observe the configuration from the start.
        for item in extra_facts:
            if isinstance(item, Fact):
                facts.append((self._fact_location(item), item.predicate, tuple(item.values)))
            else:
                predicate, values = item
                values = tuple(values)
                facts.append((values[0], predicate, values))
        if self.config.link_predicate:
            self._protect_predicate(self.config.link_predicate)
            for link_fact in self.topology.link_facts():
                facts.append((link_fact[0], self.config.link_predicate, tuple(link_fact)))
        self._base_facts = facts
        # injected base facts are exempt from consistency sweeps (no rule
        # derives them, so derivability must not be demanded)
        for predicate in dict.fromkeys(predicate for _, predicate, _ in facts):
            self._protect_predicate(predicate)
        if facts:
            # configuration is loaded, not simulated: one weighted event
            # stands for the whole burst, at one unit of event budget per
            # fact (``events_processed`` and ``max_events`` count every one)
            self.scheduler.schedule(
                0.0, Event("seed", self._fact_loader(facts), units=len(facts))
            )
        if self.config.refresh_interval:
            self.scheduler.schedule(
                self.config.refresh_interval,
                Event("refresh", self._refresh_base_facts),
            )
        if self._has_soft_state():
            self.scheduler.schedule(
                self.config.expiry_scan_interval,
                Event("expiry", self._expire_soft_state),
            )
        self._seeded = True

    def _fact_loader(self, facts: list[tuple[NodeId, str, tuple]]):
        """The callback of the seeding event: each call feeds the next
        ``allowance`` facts through :meth:`_enqueue` in list order, which
        fixes each node's pending ops and the order of the per-node flush
        events.  A ``max_events`` cut-off inside the burst leaves the rest
        for the next ``run()``, which resumes at the first unloaded fact."""

        loaded = 0

        def load(allowance: int) -> None:
            nonlocal loaded
            enqueue = self._enqueue
            for node_id, predicate, values in facts[loaded : loaded + allowance]:
                enqueue(node_id, ("insert", predicate, values))
            loaded += allowance

        return load

    def _has_soft_state(self) -> bool:
        return any(decl.is_soft_state for decl in self.program.materialized.values())

    def _live_soft_rows(self) -> bool:
        """Does any node still hold soft-state rows awaiting expiry?"""

        soft = [
            decl.predicate
            for decl in self.program.materialized.values()
            if decl.is_soft_state
        ]
        return any(
            node.rows(predicate) for node in self.nodes.values() for predicate in soft
        )

    # ------------------------------------------------------------------
    # Event plumbing
    # ------------------------------------------------------------------
    def _send(
        self, src: NodeId, dst: NodeId, predicate: str, values: tuple, kind: str = "assert"
    ) -> None:
        if dst not in self.nodes:
            raise NDlogError(f"tuple {predicate}{values} addressed to unknown node {dst!r}")
        delay = self.channel.transit(src, dst)
        self.nodes[src].stats.messages_sent += 1
        self.trace.record_message(
            self.scheduler.now, src, dst, predicate, values,
            delivered=delay is not None, kind=kind,
        )
        if delay is None:
            return
        # messages landing at one time ride one wave: a single queue entry,
        # delivered in sending order (see EventScheduler.post)
        self.scheduler.post(
            delay,
            "message",
            self._deliver,
            (dst, ("retract" if kind == "retract" else "insert", predicate, values)),
        )

    def _deliver(self, messages: list[tuple[NodeId, tuple[str, str, tuple]]]) -> None:
        """Hand a run of delivered messages to their nodes' op queues."""

        nodes = self.nodes
        enqueue = self._enqueue
        for dst, op in messages:
            nodes[dst].stats.messages_received += 1
            enqueue(dst, op)

    # ------------------------------------------------------------------
    # Batched semi-naive execution
    # ------------------------------------------------------------------
    def _handle_insert(self, node_id: NodeId, predicate: str, values: tuple) -> None:
        self._enqueue(node_id, ("insert", predicate, values))

    def _handle_retract(
        self, node_id: NodeId, predicate: str, values: tuple, *, kind: str = "retract"
    ) -> None:
        """Queue a deletion op: ``retract`` drops one support, ``delete`` /
        ``expire`` force-remove the row regardless of its count."""

        self._enqueue(node_id, (kind, predicate, values))

    def _enqueue(self, node_id: NodeId, op: tuple[str, str, tuple]) -> None:
        self._pending[node_id].append(op)
        now = self.scheduler.now
        if self._flush_marks.get(node_id) == now:
            return  # a flush for this node at this timestamp is already queued
        self._flush_marks[node_id] = now
        self.scheduler.schedule(
            0.0,
            Event("flush", lambda: self._flush(node_id), target=node_id),
        )

    def _flush(self, node_id: NodeId) -> None:
        """Drain every tuple that accumulated for a node at this timestamp.

        Scheduling the flush as a zero-delay event lets all same-timestamp
        deliveries (the seeding burst, synchronized message waves) coalesce
        into one batched semi-naive round instead of firing rules per tuple.
        The drain itself — retraction-aware rounds to a local fixpoint — is
        the executor's job; this engine only owns the queues and the settle
        notification.
        """

        self._flush_marks.pop(node_id, None)
        queue = self._pending[node_id]
        ops = list(queue)
        queue.clear()
        if obs_metrics.ENABLED:
            obs_metrics.inc("engine.flushes")
        self._fixpoint_depth += 1
        # without monitors a state change only goes to the trace
        record = self._record_change if self.monitors else self.trace.record_change
        try:
            with obs_tracing.span("engine.flush", node=str(node_id), ops=len(ops)):
                self.executor.settle(
                    self.nodes[node_id], ops, self.scheduler.now, record, self._send
                )
        finally:
            self._fixpoint_depth -= 1
        if self.monitors:
            self._notify_settle(node_id)

    # ------------------------------------------------------------------
    # Safe points for engine-external updates
    # ------------------------------------------------------------------
    @property
    def in_fixpoint(self) -> bool:
        """Is a node's fixpoint (drain / sharded replay) currently
        executing?  External updates are only legal when
        this is False — between events, the engine's safe points."""

        return self._fixpoint_depth > 0

    def _assert_safe_point(self, operation: str) -> None:
        if self._fixpoint_depth > 0:
            raise NDlogError(
                f"{operation} during a node fixpoint: engine-external updates "
                "must land at safe points (between events, or scheduled via "
                "schedule_fact / schedule_fact_delete / schedule_refresh), "
                "not from monitor or rule callbacks mid-drain"
            )

    def inject_fact(self, predicate: str, values: tuple) -> None:
        """Inject a located base fact at the current simulation time.

        The safe-point twin of :meth:`schedule_fact`: callable between
        events (e.g. by a serving layer applying a live update), refused
        mid-fixpoint where the database is transiently inconsistent.  The
        fact lands at the node's next flush at this timestamp.
        """

        self._assert_safe_point("inject_fact")
        values = tuple(values)
        self._protect_predicate(predicate)
        self._handle_insert(values[0], predicate, values)

    def delete_fact(self, predicate: str, values: tuple) -> None:
        """Remove a located base fact at the current simulation time.

        The deletion rides the retraction pipeline, withdrawing every
        derivation the fact fed.  Refused mid-fixpoint like
        :meth:`inject_fact`.
        """

        self._assert_safe_point("delete_fact")
        values = tuple(values)
        self._handle_retract(values[0], predicate, values, kind="delete")

    def schedule_fact_delete(self, predicate: str, values: tuple, at: float) -> None:
        """Delete a located fact at an absolute simulation time (the
        deletion counterpart of :meth:`schedule_fact`)."""

        values = tuple(values)
        self.scheduler.schedule_at(
            at, Event("delete", lambda: self.delete_fact(predicate, values))
        )

    def refresh_soft_state(self) -> None:
        """Run one soft-state refresh round now (safe points only).

        Re-announces every live soft-state base fact: present rows get
        their lifetimes extended without re-firing rules, expired rows are
        re-inserted through the engine.  Unlike the periodic
        ``refresh_interval`` machinery this does not reschedule itself.
        """

        self._assert_safe_point("refresh_soft_state")
        self._refresh_round()

    def schedule_refresh(self, at: float) -> None:
        """Schedule a one-shot soft-state refresh round at an absolute
        simulation time (no periodic rescheduling)."""

        self.scheduler.schedule_at(at, Event("refresh_once", self._refresh_round))

    # ------------------------------------------------------------------
    # Soft state
    # ------------------------------------------------------------------
    def _refresh_base_facts(self) -> None:
        self._refresh_round()
        if self.config.refresh_interval:
            self.scheduler.schedule(
                self.config.refresh_interval,
                Event("refresh", self._refresh_base_facts),
            )

    def _refresh_round(self) -> None:
        now = self.scheduler.now
        refreshed: list[tuple[NodeId, str, tuple]] = []
        for node_id, predicate, values in self._base_facts:
            decl = self.program.materialized.get(predicate)
            if decl is None or not decl.is_soft_state:
                continue
            if predicate == self.config.link_predicate:
                link = self.topology.link(values[0], values[1])
                if link is not None and not link.up:
                    # a failed link is neither refreshed nor re-announced —
                    # re-injecting its fact would resurrect the dead link
                    # (cf. schedule_cost_change); it ships again on restore
                    continue
            if self.nodes[node_id].holds(predicate, values):
                # pure refresh: extend the lifetime without re-firing rules
                # (and without inflating the row's support count)
                refreshed.append((node_id, predicate, values))
            else:
                # the tuple expired — reinsert through the engine so rules
                # re-derive downstream state
                self._handle_insert(node_id, predicate, values)
        if refreshed:
            self._apply_refresh(refreshed, now)

    def _apply_refresh(
        self, refreshed: list[tuple[NodeId, str, tuple]], now: float
    ) -> None:
        """Extend the lifetimes of present soft-state base facts (the
        sharded coordinator forwards them to the workers that hold them)."""

        for node_id, predicate, values in refreshed:
            self.nodes[node_id].db.table(predicate).refresh(values, now)

    def _expire_soft_state(self) -> None:
        now = self.scheduler.now
        # expiry rides the retraction pipeline: the rows stay in place until
        # the node's deletion round has fired the retraction joins against
        # them (the round re-checks the lifetime, so a same-instant refresh
        # wins)
        expired = self._expired_rows(now)
        for node_id in self.nodes:
            for predicate, row in expired.get(node_id, ()):
                self._handle_retract(node_id, predicate, row, kind="expire")
        if (
            not self.scheduler.is_empty
            or self.config.refresh_interval
            # un-refreshed soft state must still be scanned to its expiry
            # (and retracted), even after message activity has quiesced
            or self._live_soft_rows()
        ):
            self.scheduler.schedule(
                self.config.expiry_scan_interval,
                Event("expiry", self._expire_soft_state),
            )

    def _expired_rows(self, now: float) -> dict[NodeId, list[tuple[str, tuple]]]:
        """Node → its soft-state rows past their lifetime (see
        :meth:`Node.expired`); the sharded coordinator asks its workers."""

        return {node_id: node.expired(now) for node_id, node in self.nodes.items()}

    def soft_deadlines(self, node_id: NodeId) -> list[tuple[str, tuple, float]]:
        """``(predicate, row, expiry deadline)`` of every soft-state row at
        a node (see :meth:`Node.soft_deadlines`)."""

        return self.nodes[node_id].soft_deadlines()

    # ------------------------------------------------------------------
    # Topology dynamics
    # ------------------------------------------------------------------
    def schedule_link_failure(self, src: NodeId, dst: NodeId, at: float, *, symmetric: bool = True) -> None:
        """Fail a link at an absolute simulation time.

        The link tuples are removed from the endpoints' databases and the
        deletion propagates through derived state: shipped copies
        (``link_d``), paths, and best routes that depended on the dead link
        are retracted across the network via deletion deltas and support
        counts.
        """

        def fail() -> None:
            affected = self.topology.fail_link(src, dst, symmetric=symmetric)
            if not self.config.link_predicate:
                return
            for link in affected:
                self._handle_retract(
                    link.src, self.config.link_predicate, link.as_fact(), kind="delete"
                )

        self.scheduler.schedule_at(at, Event("link_failure", fail))

    def schedule_link_restore(self, src: NodeId, dst: NodeId, at: float, *, symmetric: bool = True) -> None:
        """Restore a failed link at an absolute simulation time.

        The topology link(s) come back up and — when a ``link_predicate`` is
        configured — the link facts are re-injected at their endpoints so
        rules re-derive downstream state.  When ``link_predicate`` is
        falsy, the topology is restored but nothing is injected (consistent
        with :meth:`schedule_link_failure`).
        """

        def restore() -> None:
            affected = self.topology.restore_link(src, dst, symmetric=symmetric)
            if not self.config.link_predicate:
                return
            for link in affected:
                self._handle_insert(link.src, self.config.link_predicate, link.as_fact())

        self.scheduler.schedule_at(at, Event("link_restore", restore))

    def schedule_cost_change(
        self, src: NodeId, dst: NodeId, cost: float, at: float, *, symmetric: bool = True
    ) -> None:
        """Change a link cost at an absolute simulation time (keyed update)."""

        def change() -> None:
            affected = self.topology.set_cost(src, dst, cost, symmetric=symmetric)
            if not self.config.link_predicate:
                return
            for link in affected:
                # a cost change on a failed link only updates the topology;
                # injecting its fact would resurrect a dead link (the new
                # cost ships when the link is restored)
                if link.up:
                    self._handle_insert(link.src, self.config.link_predicate, link.as_fact())

        self.scheduler.schedule_at(at, Event("cost_change", change))

    def _protect_predicate(self, predicate: str) -> None:
        """Mark a predicate as carrying injected base facts (sweep-exempt).
        The sharded coordinator forwards new protections to its workers."""

        self.executor.protect(predicate)

    def schedule_fact(self, predicate: str, values: tuple, at: float) -> None:
        """Inject a located fact at an absolute simulation time."""

        values = tuple(values)
        self._protect_predicate(predicate)
        self.scheduler.schedule_at(
            at, Event("inject", lambda: self._handle_insert(values[0], predicate, values))
        )

    # ------------------------------------------------------------------
    # Running and observing
    # ------------------------------------------------------------------
    def run(
        self,
        *,
        until: float = float("inf"),
        extra_facts: Iterable[Fact | tuple] = (),
    ) -> Trace:
        """Execute until quiescence, ``until``, or the event budget.

        Earlier runs' records are folded into the trace's digests and
        dropped first (:meth:`Trace.compact`), so a long-lived engine holds
        one run's records, not its history; counts and the fingerprint stay
        exact, and ``trace.state_changes[count_before_run:]`` is this run's.
        """

        self.trace.compact()
        self._begin_segment()
        if not self._seeded:
            self.seed_facts(extra_facts)
        with obs_tracing.span("engine.run"):
            self.scheduler.run(until=until, max_events=self.config.max_events)
        self.trace.events_processed = self.scheduler.processed
        self.trace.finished_at = self.scheduler.now
        self.trace.quiescent = self.scheduler.is_empty
        if obs_metrics.ENABLED:
            self._record_run_metrics()
        return self.trace

    def _begin_segment(self) -> None:
        """A run segment starts here, at a settle point (the serving settle
        loop calls this too); the sharded coordinator may checkpoint."""

    def _record_run_metrics(self) -> None:
        """Fold this run segment's totals into the metrics registry.

        Deltas against high-water marks keep repeated ``run()`` segments
        (the serving settle loop, multi-phase harness runs) from
        double-counting; the sharded engine calls this again after syncing
        worker stats so the synced firings are picked up too.
        """

        processed = self.scheduler.processed
        if processed > self._obs_events_seen:
            obs_metrics.inc("engine.events", processed - self._obs_events_seen)
            self._obs_events_seen = processed
        firings = sum(node.stats.rule_firings for node in self.nodes.values())
        if firings > self._obs_firings_seen:
            obs_metrics.inc("engine.rule_firings", firings - self._obs_firings_seen)
            self._obs_firings_seen = firings

    def node(self, node_id: NodeId) -> Node:
        return self.nodes[node_id]

    def rows(self, predicate: str, node_id: Optional[NodeId] = None) -> list[tuple]:
        """Rows of a predicate at one node, or across all nodes."""

        if node_id is not None:
            return self.nodes[node_id].rows(predicate)
        out: list[tuple] = []
        for node in self.nodes.values():
            out.extend(node.rows(predicate))
        return out

    def global_snapshot(self) -> dict[str, set[tuple]]:
        """Union of every node's tables (for comparison with the centralized
        evaluator, which computes the same global fixpoint)."""

        merged: dict[str, set[tuple]] = {}
        for node in self.nodes.values():
            for predicate, rows in node.snapshot().items():
                merged.setdefault(predicate, set()).update(rows)
        return merged

    def total_messages(self) -> int:
        return self.trace.message_count

    def explain(self, predicate: str, values: Iterable[object], **caps) -> dict:
        """Derivation DAG of a stored row down to base facts.

        Reconstructed on demand from the stored rows by
        :func:`repro.obs.provenance.explain` (``caps``: ``max_depth``,
        ``max_derivations``); call at a safe point on a settled engine.
        """

        from ..obs.provenance import explain as _explain

        return _explain(self, predicate, tuple(values), **caps)

    def why_not(self, predicate: str, values: Iterable[object], **caps) -> dict:
        """Why no stored row matches ``values`` (``None`` = wildcard); see
        :func:`repro.obs.provenance.why_not`."""

        from ..obs.provenance import why_not as _why_not

        return _why_not(self, predicate, tuple(values), **caps)

    # ------------------------------------------------------------------
    # Capture and restore
    # ------------------------------------------------------------------
    def capture(self) -> dict:
        """The state of this settled engine: scheduler clock and maintenance
        timers, channel RNG, trace, topology, protected predicates, base
        facts, monitor state, and each node's :meth:`Node.export_state`.

        Reading it changes nothing, so two captures in a row are equal.  The
        capture shares the trace and node containers with the live engine:
        pickle it before the engine runs again.  :func:`restore_engine`
        loads it, on any shard count.
        """

        sched = self.scheduler
        if sched.running or self.in_fixpoint:
            raise CaptureError("cannot capture mid-run state")
        events = []
        for at, seqno, event in sched._queue:
            if event.kind not in MAINTENANCE_KINDS:
                raise CaptureError(
                    f"pending non-maintenance event {event.kind!r}: capture "
                    "only at settled states"
                )
            events.append((at, seqno, event.kind))
        return {
            "scheduler": {
                "now": sched.now,
                "processed": sched.processed,
                "counter": sched.next_seqno(),
                "events": events,
            },
            "channel": {
                "random_state": self.channel._random.getstate(),
                "dropped": self.channel.dropped,
            },
            "trace": self.trace,
            "topology": self.topology.export_state(),
            "protected": sorted(self.executor._protected),
            "base_facts": list(self._base_facts),
            "nodes": self._capture_nodes(),
            "monitors": [
                {
                    key: value
                    for key, value in monitor.__dict__.items()
                    if key not in ("_engine", "_key_getters")
                }
                for monitor in self.monitors
            ],
        }

    def _capture_nodes(self) -> dict:
        """Node id → its :meth:`Node.export_state` (the sharded coordinator
        gathers them from its workers)."""

        return {node_id: node.export_state() for node_id, node in self.nodes.items()}

    def restore(self, state: dict) -> None:
        """Load a :meth:`capture` into this fresh, unseeded engine, built
        over the captured topology with its monitors attached (see
        :func:`restore_engine`).  Monitor state is loaded positionally;
        ``_engine`` and the unpicklable ``_key_getters`` stay the attach's."""

        if self._seeded:
            raise NDlogError("restore() needs a fresh, unseeded engine")
        sched_state = state["scheduler"]
        sched = self.scheduler
        sched.now = sched_state["now"]
        sched.processed = sched_state["processed"]
        sched._counter = itertools.count(sched_state["counter"])
        callbacks = {"refresh": self._refresh_base_facts, "expiry": self._expire_soft_state}
        sched._queue = [
            (at, seqno, Event(kind, callbacks[kind]))
            for at, seqno, kind in sched_state["events"]
        ]
        heapq.heapify(sched._queue)

        self.channel._random.setstate(state["channel"]["random_state"])
        self.channel.dropped = state["channel"]["dropped"]
        self.trace = state["trace"]
        for predicate in state["protected"]:
            self._protect_predicate(predicate)
        self._base_facts = [
            (node_id, predicate, tuple(values))
            for node_id, predicate, values in state["base_facts"]
        ]
        self._seeded = True
        self._restore_nodes(state["nodes"])
        for monitor, captured in zip(self.monitors, state["monitors"]):
            monitor.__dict__.update(captured)

    def _restore_nodes(self, states: dict) -> None:
        """Load each node's captured state (the sharded coordinator hands
        them to its workers)."""

        for node_id, node_state in states.items():
            self.nodes[node_id].load_state(node_state)

    def close(self) -> None:
        """Release external resources.  A no-op for the single-process
        engine; the sharded engine overrides this to shut its worker
        processes down (its rows, trace and stats stay readable after)."""


def create_engine(
    program: Program,
    topology: Topology,
    *,
    config: Optional[EngineConfig] = None,
    registry: Optional[FunctionRegistry] = None,
) -> DistributedEngine:
    """Build the engine matching ``config``: the classic single-process
    :class:`DistributedEngine`, or — when ``config.shards > 1`` — the
    process-sharded :class:`~repro.dn.shard.ShardedEngine`, which produces
    byte-identical traces for the same seed.  Callers that may receive a
    sharded engine should ``close()`` it when done."""

    config = config or EngineConfig()
    if config.shards > 1:
        from .shard import ShardedEngine  # deferred: shard imports this module

        return ShardedEngine(program, topology, config=config, registry=registry)
    return DistributedEngine(program, topology, config=config, registry=registry)


def restore_engine(
    program: Program,
    state: dict,
    *,
    config: Optional[EngineConfig] = None,
    registry: Optional[FunctionRegistry] = None,
    monitors: Iterable[EngineMonitor] = (),
) -> DistributedEngine:
    """The engine ``config`` asks for (see :func:`create_engine`), standing
    at the settled state ``state`` that :meth:`DistributedEngine.capture`
    took — on the same or any other shard count.  ``monitors`` are attached
    first, then loaded with the captured monitor state in order; ``program``
    must be the one the captured engine ran."""

    engine = create_engine(
        program, Topology.from_state(state["topology"]), config=config, registry=registry
    )
    try:
        for monitor in monitors:
            engine.attach_monitor(monitor)
        engine.restore(state)
    except BaseException:
        engine.close()
        raise
    return engine


def run_program(
    program: Program,
    topology: Topology,
    *,
    config: Optional[EngineConfig] = None,
    extra_facts: Iterable[Fact | tuple] = (),
    until: float = float("inf"),
) -> DistributedEngine:
    """Convenience wrapper: build an engine (sharded when the config says
    so), run it, return it.  Sharded engines keep their workers alive for
    further ``run`` segments — call ``engine.close()`` when finished."""

    engine = create_engine(program, topology, config=config)
    engine.run(until=until, extra_facts=extra_facts)
    return engine
