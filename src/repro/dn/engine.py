"""The distributed NDlog execution engine.

This is the runtime the paper relies on for arc 7 of Figure 1: executing
(generated) NDlog programs as an actual network protocol.  It follows the
P2 / declarative-networking execution model:

1. the program is **localized** (:mod:`repro.ndlog.localization`) so every
   rule body reads tuples at a single node, and base tuples go to the node
   their location specifier names;
2. execution is **batched semi-naive**: the tuples arriving at a node at
   one simulation timestamp are drained as one delta batch, each triggered
   rule firing once per round with the whole batch as its delta; derived
   tuples located elsewhere ship as messages with the link's delay (the
   messages landing at one time ride one scheduler event, a *wave*), local
   ones join the batch; aggregate rules (``min<C>`` …) are recomputed once
   per round, per changed group;
3. execution is **non-monotonic**: base-fact deletions — link failures,
   keyed cost-change displacements, soft-state expiry — propagate through
   derived state by derivation counts, deletion deltas fired against the
   old database, ``retract`` messages, negation-delta variants and
   re-diffed aggregate groups; settles that removed rows end with a
   **consistency sweep** that repairs what a multi-round deletion cascade
   can strand (see :meth:`repro.dn.executor.FixpointExecutor.settle`).

That is the only execution mode, and generated code (one
:class:`~repro.ndlog.codegen.CodegenRule` per rule, compiled once and
shared by every node) the only rule evaluator; differential tests point
:data:`repro.ndlog.seminaive.RULE_ENGINE` at the reference interpreter.
Like the centralized :class:`~repro.ndlog.seminaive.IncrementalEvaluator`,
the counting scheme is exact for programs whose recursion is well-founded
(the path-vector program's cycle check grounds every derivation); cyclic
self-support should be bounded with soft-state lifetimes, the paper's own
remedy.

**One engine, two node hosts.**  The engine owns what is global: the event
scheduler (whose FIFO tie-break defines the one event order), the loss
channel and its RNG stream, the :class:`~repro.dn.trace.Trace`, the
monitors, topology dynamics and each node's pending-op queue.  The tables
and their settles belong to the engine's *node host*
(:mod:`repro.dn.host`): a :class:`~repro.dn.host.ShardWorker` in this
process, or in a :class:`~repro.dn.shard.ShardedEngine` a
:class:`~repro.dn.shard.ShardSupervisor` over shard worker processes.  A
flush takes every flush queued at its timestamp off the scheduler as one
wave and hands it to the host, which settles or replays the nodes in wave
order into the same sinks (the trace and ``_send``); the engine tells the
monitors after each node.  So for one seed both hosts produce the same
trace, tables and stats.  A run segment — a ``run()``, or a serving
daemon's settle — is bracketed by :meth:`~DistributedEngine.begin_segment`
(which compacts the trace's earlier records away) and
:meth:`~DistributedEngine.end_segment`.

Every scheduled event is plain data — a kind tag and picklable arguments
— that :meth:`DistributedEngine.advance` dispatches through one ``kind →
bound method`` table.  So the engine's state can be captured between any two
events, pending work included, by :meth:`DistributedEngine.capture`, and
loaded into a fresh engine by :func:`restore_engine`, on any shard count at
either end: the serving daemon's snapshots and its ``what_if`` forks are
both this pair, settled or not.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Protocol

from ..logic.bmc import FunctionRegistry
from ..ndlog.ast import Fact, NDlogError, Program
from ..ndlog.functions import builtin_registry
from ..ndlog.localization import localize_program
from ..ndlog import seminaive
from ..obs import metrics as obs_metrics
from ..obs import tracing as obs_tracing
from .collector import collector_paused
from .events import Event, EventScheduler
from .host import ShardWorker
from .network import Channel, NodeId, Topology
from .node import Node
from .trace import Trace

#: Event kinds a settled engine may have queued: the self-rescheduling
#: soft-state maintenance timers.
MAINTENANCE_KINDS = frozenset(("refresh", "expiry"))


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

    A monitor reads the engine's own tables (``engine.nodes[node].rows`` /
    ``select``, the same calls on a :class:`Node` and on a sharded host's
    row view) whenever a node settles with at least one
    recorded state change (``on_settle``) — the points at which FVN safety
    properties are meaningful during execution — and once over every node
    at the end (``finalize``).  ``changes`` are the trace records that
    settle appended, in order, as the plain ``(time, node, predicate,
    values, kind)`` tuples of :meth:`Trace.changes_since` (a sharded host
    replays its workers' records into the same trace, so both hosts pass
    the same records): a monitor may re-check only what they touch.  A
    monitor must not build an index on the tables it reads — the executor
    seeds key-scoped derives by :meth:`Table.has_lookup`, so an index a
    monitor built would make the execution depend on the attached
    monitors.  See :mod:`repro.fvn.monitors` for the property-derived
    implementations.
    """

    def attach(self, engine: "DistributedEngine") -> None: ...

    def on_settle(self, time: float, node: NodeId, changes: list) -> None: ...

    def finalize(self, time: float) -> None: ...


class DistributedEngine:
    """Runs an NDlog program over a simulated network.

    ``host`` builds the node host from the engine under construction (which
    it must not keep: a host holding its engine would make a reference
    cycle); the default hosts every node in this process.
    """

    def __init__(
        self,
        program: Program,
        topology: Topology,
        *,
        config: Optional[EngineConfig] = None,
        registry: Optional[FunctionRegistry] = None,
        host: Optional[Callable[["DistributedEngine"], object]] = None,
    ) -> None:
        program.check()
        self.original_program = program
        localization = localize_program(program)
        self.program = localization.program
        self.localization = localization
        self.topology = topology
        self.config = config or EngineConfig()
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
        #: >0 while a node's fixpoint rounds are executing — mid-fixpoint
        #: states are deliberately inconsistent (deletion deltas fire against
        #: the old database), so external updates must not land inside; see
        #: :meth:`_assert_safe_point`
        self._fixpoint_depth = 0
        #: holds the nodes and settles them (see :mod:`repro.dn.host`)
        self.host = (
            host(self)
            if host is not None
            else ShardWorker(self.program, topology.nodes, self.rule_engine)
        )
        #: node id → its :class:`Node` (a sharded host's: a row view)
        self.nodes: dict[NodeId, Node] = self.host.nodes
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

        The monitor is asked to check its invariants whenever a node
        settles (reaches a local fixpoint for the current timestamp) with
        at least one recorded state change.  Attach monitors before
        seeding/running so they observe the whole execution.
        """

        monitor.attach(self)
        self.monitors.append(monitor)

    def _notify_settle(self, node_id: NodeId, since: int) -> None:
        """Tell the monitors ``node_id`` settled, handing them the trace
        records from absolute index ``since`` on (that settle's)."""

        now = self.scheduler.now
        changes = self.trace.changes_since(since)
        for monitor in self.monitors:
            monitor.on_settle(now, node_id, changes)

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
            self.host.protect(self.config.link_predicate)
            for link_fact in self.topology.link_facts():
                facts.append((link_fact[0], self.config.link_predicate, tuple(link_fact)))
        self._base_facts = facts
        # injected base facts are exempt from consistency sweeps (no rule
        # derives them, so derivability must not be demanded)
        for predicate in dict.fromkeys(predicate for _, predicate, _ in facts):
            self.host.protect(predicate)
        if facts:
            # configuration is loaded, not simulated: one weighted event
            # stands for the whole burst, at one unit of event budget per
            # fact (``events_processed`` and ``max_events`` count every one)
            self.scheduler.schedule(0.0, Event("seed", facts, units=len(facts)))
        if self.config.refresh_interval:
            self.scheduler.schedule(self.config.refresh_interval, Event("refresh"))
        if self._has_soft_state():
            self.scheduler.schedule(self.config.expiry_scan_interval, Event("expiry"))
        self._seeded = True

    def _load_facts(self, facts: list[tuple[NodeId, str, tuple]]) -> None:
        """The seeding event's handler: feeds the facts its allowance covers
        through :meth:`_enqueue` in list order, which fixes each node's
        pending ops and the order of the per-node flush events.  A
        ``max_events`` cut-off inside the burst leaves the rest for the
        next ``run()``, which resumes at the first unloaded fact."""

        enqueue = self._enqueue
        for node_id, predicate, values in facts:
            enqueue(node_id, ("insert", predicate, values))

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
    def _enqueue(self, node_id: NodeId, op: tuple[str, str, tuple]) -> None:
        """Queue an op for the node's next flush at this timestamp: an
        ``insert``; a ``retract`` drops one support, a ``delete`` or
        ``expire`` force-removes the row regardless of its count."""

        self._pending[node_id].append(op)
        now = self.scheduler.now
        if self._flush_marks.get(node_id) == now:
            return  # a flush for this node at this timestamp is already queued
        self._flush_marks[node_id] = now
        self.scheduler.schedule(0.0, Event("flush", (node_id,)))

    def _flush(self, node_id: NodeId) -> None:
        """Drain every node that has a flush queued at this timestamp.

        Scheduling the flush as a zero-delay event lets all same-timestamp
        deliveries (the seeding burst, synchronized message waves) coalesce
        into one batched semi-naive round per node instead of firing rules
        per tuple.  The flushes queued at one timestamp are independent —
        each touches one node, and what they send lands in later events —
        so the first takes the rest off the scheduler as one wave
        (:meth:`EventScheduler.pop_if` charges each as the run loop would)
        and the host settles the wave's nodes in order, each into this
        engine's trace and ``_send``.  Monitors hear of each node's settle
        before the next one starts, as if the flushes had run one by one.
        """

        now = self.scheduler.now

        def same_wave(at: float, event: Event) -> bool:
            return at == now and event.kind == "flush"

        pop_if = self.scheduler.pop_if
        wave = [node_id]
        while (event := pop_if(same_wave)) is not None:
            wave.append(event.args[0])
        items = []
        for nid in wave:
            self._flush_marks.pop(nid, None)
            queue = self._pending[nid]
            items.append((nid, list(queue)))
            queue.clear()
        trace = self.trace
        since = trace.state_change_count
        self._fixpoint_depth += 1
        try:
            for settled in self.host.flush(now, items, trace.record_change, self._send):
                if self.monitors and trace.state_change_count != since:
                    self._notify_settle(settled, since)
                since = trace.state_change_count
        finally:
            self._fixpoint_depth -= 1

    # ------------------------------------------------------------------
    # Safe points for engine-external updates
    # ------------------------------------------------------------------
    @property
    def in_fixpoint(self) -> bool:
        """Is a node's fixpoint currently executing?  External updates are
        only legal when this is False — between events, the engine's safe
        points."""

        return self._fixpoint_depth > 0

    def _assert_safe_point(self, operation: str) -> None:
        if self._fixpoint_depth > 0:
            raise NDlogError(
                f"{operation} during a node fixpoint: engine-external updates "
                "must land at safe points (between events, or scheduled via "
                "schedule_fact / schedule_fact_delete / schedule_refresh), "
                "not from rule callbacks mid-drain"
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
        self.host.protect(predicate)
        self._enqueue(values[0], ("insert", predicate, values))

    def delete_fact(self, predicate: str, values: tuple) -> None:
        """Remove a located base fact at the current simulation time.

        The deletion rides the retraction pipeline, withdrawing every
        derivation the fact fed.  Refused mid-fixpoint like
        :meth:`inject_fact`.
        """

        self._assert_safe_point("delete_fact")
        values = tuple(values)
        self._enqueue(values[0], ("delete", predicate, values))

    def schedule_fact_delete(self, predicate: str, values: tuple, at: float) -> None:
        """Delete a located fact at an absolute simulation time (the
        deletion counterpart of :meth:`schedule_fact`)."""

        self.scheduler.schedule_at(at, Event("delete", (predicate, tuple(values))))

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

        self.scheduler.schedule_at(at, Event("refresh_once"))

    # ------------------------------------------------------------------
    # Soft state
    # ------------------------------------------------------------------
    def _refresh_base_facts(self) -> None:
        self._refresh_round()
        if self.config.refresh_interval:
            self.scheduler.schedule(self.config.refresh_interval, Event("refresh"))

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
                self._enqueue(node_id, ("insert", predicate, values))
        if refreshed:
            self.host.refresh(now, refreshed)

    def _expire_soft_state(self) -> None:
        now = self.scheduler.now
        # expiry rides the retraction pipeline: the rows stay in place until
        # the node's deletion round has fired the retraction joins against
        # them (the round re-checks the lifetime, so a same-instant refresh
        # wins)
        expired = self.host.expired(now)
        for node_id in self.nodes:
            for predicate, row in expired.get(node_id, ()):
                self._enqueue(node_id, ("expire", predicate, row))
        if (
            not self.scheduler.is_empty
            or self.config.refresh_interval
            # un-refreshed soft state must still be scanned to its expiry
            # (and retracted), even after message activity has quiesced
            or self._live_soft_rows()
        ):
            self.scheduler.schedule(self.config.expiry_scan_interval, Event("expiry"))

    def ensure_expiry_scan(self) -> None:
        """Re-arm the soft-state expiry scan if soft rows are live but no
        scan is queued: rows injected after the periodic scan let itself
        lapse (seeding arms it once) would otherwise never expire."""

        if not self._has_soft_state() or "expiry" in self.scheduler.pending_kinds():
            return
        if self._live_soft_rows():
            self.scheduler.schedule(self.config.expiry_scan_interval, Event("expiry"))

    def soft_deadlines(self, node_id: NodeId) -> list[tuple[str, tuple, float]]:
        """``(predicate, row, expiry deadline)`` of every soft-state row at
        a node (see :meth:`Node.soft_deadlines`)."""

        return self.host.soft_deadlines(node_id)

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

        self.scheduler.schedule_at(at, Event("link_failure", (src, dst, symmetric)))

    def _fail_link(self, src: NodeId, dst: NodeId, symmetric: bool) -> None:
        affected = self.topology.fail_link(src, dst, symmetric=symmetric)
        if not self.config.link_predicate:
            return
        for link in affected:
            self._enqueue(link.src, ("delete", self.config.link_predicate, link.as_fact()))

    def schedule_link_restore(self, src: NodeId, dst: NodeId, at: float, *, symmetric: bool = True) -> None:
        """Restore a failed link at an absolute simulation time.

        The topology link(s) come back up and — when a ``link_predicate`` is
        configured — the link facts are re-injected at their endpoints so
        rules re-derive downstream state.  When ``link_predicate`` is
        falsy, the topology is restored but nothing is injected (consistent
        with :meth:`schedule_link_failure`).
        """

        self.scheduler.schedule_at(at, Event("link_restore", (src, dst, symmetric)))

    def _restore_link(self, src: NodeId, dst: NodeId, symmetric: bool) -> None:
        affected = self.topology.restore_link(src, dst, symmetric=symmetric)
        if not self.config.link_predicate:
            return
        for link in affected:
            self._enqueue(link.src, ("insert", self.config.link_predicate, link.as_fact()))

    def schedule_cost_change(
        self, src: NodeId, dst: NodeId, cost: float, at: float, *, symmetric: bool = True
    ) -> None:
        """Change a link cost at an absolute simulation time (keyed update)."""

        self.scheduler.schedule_at(at, Event("cost_change", (src, dst, cost, symmetric)))

    def _change_cost(self, src: NodeId, dst: NodeId, cost: float, symmetric: bool) -> None:
        affected = self.topology.set_cost(src, dst, cost, symmetric=symmetric)
        if not self.config.link_predicate:
            return
        for link in affected:
            # a cost change on a failed link only updates the topology;
            # injecting its fact would resurrect a dead link (the new cost
            # ships when the link is restored)
            if link.up:
                self._enqueue(link.src, ("insert", self.config.link_predicate, link.as_fact()))

    def schedule_fact(self, predicate: str, values: tuple, at: float) -> None:
        """Inject a located fact at an absolute simulation time."""

        self.host.protect(predicate)
        self.scheduler.schedule_at(at, Event("inject", (predicate, tuple(values))))

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

        One run is one segment (:meth:`begin_segment` … :meth:`end_segment`).
        Events are processed with the cyclic collector paused
        (:mod:`repro.dn.collector`): what they build is cycle-free.
        """

        self.begin_segment()
        with collector_paused():
            if not self._seeded:
                self.seed_facts(extra_facts)
            with obs_tracing.span("engine.run"):
                self.advance(until, self.config.max_events)
        self.end_segment()
        return self.trace

    def advance(self, until: float, max_events: int) -> int:
        """Process events up to ``until`` within ``max_events`` (see
        :meth:`EventScheduler.run`); returns how many were processed.

        Each event kind dispatches to one bound method of this engine, so
        a method patched on the instance is what runs.  The table is built
        per call: one the engine kept would make every engine a reference
        cycle, freed only by the cycle collector.
        """

        return self.scheduler.run(
            {
                "seed": self._load_facts,
                "message": self._deliver,
                "flush": self._flush,
                "inject": self.inject_fact,
                "delete": self.delete_fact,
                "refresh": self._refresh_base_facts,
                "refresh_once": self._refresh_round,
                "expiry": self._expire_soft_state,
                "link_failure": self._fail_link,
                "link_restore": self._restore_link,
                "cost_change": self._change_cost,
            },
            until=until,
            max_events=max_events,
        )

    def begin_segment(self) -> None:
        """A run segment starts here, at a settle point: :meth:`run` and
        the serving daemon's settle loop (which drives :meth:`advance`)
        both begin with it.

        Earlier segments' records are folded into the trace's digests and
        dropped (:meth:`Trace.compact`), so a long-lived engine holds one
        segment's records, not its history; counts and the fingerprint stay
        exact, and ``trace.state_changes[count_before_run:]`` is this
        segment's.  The host may checkpoint its shards.
        """

        self.trace.compact()
        self.host.begin_segment()

    def end_segment(self) -> None:
        """A run segment ends here: the trace takes the scheduler's event
        count, clock and quiescence (so the fingerprint covers them), the
        host brings its nodes' counters and metrics home, and the segment's
        totals go to the metrics registry."""

        trace = self.trace
        trace.events_processed = self.scheduler.processed
        trace.finished_at = self.scheduler.now
        trace.quiescent = self.scheduler.is_empty
        self.host.end_segment()
        if obs_metrics.ENABLED:
            self._record_run_metrics()

    def _record_run_metrics(self) -> None:
        """Fold this segment's totals into the metrics registry, as deltas
        against high-water marks so repeated segments never double-count."""

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
        """The state of this engine between two events: the scheduler's
        whole queue (:meth:`EventScheduler.export_state`), each node's
        pending ops and flush mark, channel RNG, trace, topology, protected
        predicates, base facts, monitor state, and each node's
        :meth:`Node.export_state`.

        Reading it changes nothing, so two captures in a row are equal.  The
        capture shares the trace, queue item lists and node containers with
        the live engine: pickle it before the engine runs again.
        :func:`restore_engine` loads it, on any shard count.  Refused from
        inside an event, where the state is mid-transition.
        """

        self._assert_safe_point("capture")
        if self.scheduler.running:
            raise NDlogError("capture() inside a running event: capture between run() calls")
        return {
            "scheduler": self.scheduler.export_state(),
            "pending": {node_id: list(ops) for node_id, ops in self._pending.items() if ops},
            "flush_marks": dict(self._flush_marks),
            "channel": {
                "random_state": self.channel._random.getstate(),
                "dropped": self.channel.dropped,
            },
            "trace": self.trace,
            "topology": self.topology.export_state(),
            "protected": sorted(self.host.protected),
            "base_facts": list(self._base_facts),
            "nodes": self.host.export_nodes(),
            "monitors": [
                {
                    key: value
                    for key, value in monitor.__dict__.items()
                    if key != "_engine"
                }
                for monitor in self.monitors
            ],
        }

    def restore(self, state: dict) -> None:
        """Load a :meth:`capture` into this fresh, unseeded engine, built
        over the captured topology with its monitors attached (see
        :func:`restore_engine`).  Monitor state is loaded positionally;
        ``_engine`` stays the attach's."""

        if self._seeded:
            raise NDlogError("restore() needs a fresh, unseeded engine")
        self.scheduler.load_state(state["scheduler"])
        for node_id, ops in state["pending"].items():
            self._pending[node_id].extend(ops)
        self._flush_marks = dict(state["flush_marks"])
        self.channel._random.setstate(state["channel"]["random_state"])
        self.channel.dropped = state["channel"]["dropped"]
        self.trace = state["trace"]
        for predicate in state["protected"]:
            self.host.protect(predicate)
        self._base_facts = [
            (node_id, predicate, tuple(values))
            for node_id, predicate, values in state["base_facts"]
        ]
        self._seeded = True
        self.host.load_nodes(state["nodes"])
        # report only what runs from here: a ``what_if`` fork must not count
        # the history it was restored with into the metrics again
        self._obs_events_seen = self.scheduler.processed
        self._obs_firings_seen = sum(node.stats.rule_firings for node in self.nodes.values())
        for monitor, captured in zip(self.monitors, state["monitors"]):
            monitor.__dict__.update(captured)

    def close(self) -> None:
        """Release the host's external resources: a sharded engine's
        worker processes (its rows, trace and stats stay readable after)."""

        self.host.close()


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
