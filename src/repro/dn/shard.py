"""Process-sharded execution of the distributed NDlog engine.

This module scales one simulated network past a single core while keeping
the execution **byte-identical** to :class:`~repro.dn.engine.
DistributedEngine` for the same seed — same :class:`~repro.dn.trace.Trace`
contents, same monitor verdicts, same retraction semantics, same event and
budget accounting.  The split follows from a locality argument:

* Everything *global* stays in the coordinator: the event scheduler (and
  its FIFO tie-breaking, which defines the global event order), the loss
  channel and its RNG stream, the trace, the runtime monitors, topology
  dynamics, and the per-node pending-op queues.
* Everything *expensive* is per-node and moves to the workers: each shard
  worker process owns the authoritative :class:`~repro.dn.node.Node`
  databases of its partition and runs the identical
  :class:`~repro.dn.executor.FixpointExecutor` settle the single-process
  engine runs (the engine's one execution mode).  A drain touches exactly
  one node, so all flushes scheduled at one timestamp are independent and
  execute **in parallel across shards**.

The coordinator batches every same-timestamp flush event (taking them off
the scheduler through :meth:`~repro.dn.events.EventScheduler.pop_if`, which
preserves event-budget accounting), fans the op batches out to the shard
workers, then **replays** the returned effects in the exact order the
single-process engine would have produced them: state-change records update
a coordinator-side replica of every node table (so ``engine.rows()``,
``global_snapshot()``, post-hoc property checks, and the soft-state monitor
keep working unmodified) and feed the trace and monitors; send intents go
through the coordinator's own ``_send``, so loss-channel RNG draws happen
in the same global order as single-process execution.  Cross-shard and
intra-shard messages take the same path — shipping is the coordinator's
job either way, which is precisely why the replay order can be made
identical.

Determinism contract: for equal programs, topologies, configs and seeds,
``ShardedEngine`` and ``DistributedEngine`` produce equal traces
(``Trace.fingerprint()``), node tables, stats, and monitor reports — for
every shard count, partition strategy, and transport.  The property tests
in ``tests/dn/test_sharded_engine.py`` and the E10 benchmark enforce this.

``EngineConfig(shard_transport="process")`` (the default) runs one worker
OS process per shard, talking over pipes; ``"inline"`` hosts the workers
in-process for tests and debugging (same code path minus the IPC).  Use
:func:`repro.dn.engine.create_engine` to build whichever engine a config
asks for, and ``close()`` a sharded engine when done — its replicated
state stays readable afterwards.

**Supervision.**  Worker process death (or a hang longer than
``EngineConfig.shard_timeout``) raises :class:`ShardCrash` inside the
coordinator, which respawns the worker and **resyncs** its partition from
the replica tables: rows with their support counts and timestamps,
displacement/unswept marks, index bucket orders, protected predicates,
and node stats are pushed back (``load_state``), aggregate view memos are
rebuilt worker-side by :meth:`~repro.dn.node.Node.load_state` (the code a
snapshot restore runs too), and the crashed request is retried.  Because
the replica is only advanced *after* a request's results return, a worker
that dies mid-request leaves the replica at the pre-request state, so the
retry recomputes exactly what the dead worker would have produced —
``Trace.fingerprint()`` stays byte-identical to an undisturbed run (the
supervision tests sweep kill points to enforce this).  After
``EngineConfig.shard_restarts`` respawns of one shard the engine degrades
to a clean :class:`~repro.ndlog.ast.NDlogError` instead of hanging.
Deterministic failures (a worker *traceback*) still raise
:class:`ShardError` immediately — respawning would just re-execute the
bug.  Faults can be injected on purpose via :meth:`ShardedEngine.
inject_faults` (see :mod:`repro.dn.faults` and ``docs/FAULTS.md``).
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import time
import traceback
from typing import Optional

from ..logic.bmc import FunctionRegistry
from ..ndlog.ast import NDlogError, Program
from ..ndlog.functions import builtin_registry
from ..ndlog.localization import localize_program
from ..ndlog import seminaive
from ..obs import metrics as obs_metrics
from ..obs import tracing as obs_tracing
from .engine import DistributedEngine, EngineConfig
from .executor import FixpointExecutor, Op
from .faults import FaultInjector, FaultPlan
from .network import NodeId, Topology
from .node import Node
from .partition import edge_cut, partition_nodes, shard_members

#: a state change collected at a worker: (node, predicate, values, kind)
ChangeRecord = tuple[NodeId, str, tuple, str]
#: a send intent collected at a worker: (src, dst, predicate, values, kind)
SendRecord = tuple[NodeId, NodeId, str, tuple, str]


class ShardError(RuntimeError):
    """A shard worker failed or the sharded engine was misused."""


class ShardCrash(ShardError):
    """A shard worker process died (or its pipe broke) mid-protocol.

    Distinguished from :class:`ShardError` (a worker *traceback*, i.e. a
    deterministic bug that a respawn would just re-execute) because crashes
    are what the supervision machinery can recover from.
    """


class ShardTimeout(ShardCrash):
    """A shard worker exceeded ``EngineConfig.shard_timeout`` and is
    treated as crashed (it is killed before the respawn)."""


class ShardWorker:
    """Worker-side state of one shard: authoritative nodes + executor.

    Hosts the :class:`~repro.dn.node.Node` objects of its partition and the
    same :class:`FixpointExecutor` the single-process engine uses; instead
    of recording/sending directly, the executor's effect callbacks collect
    ``(records, sends)`` for the coordinator to replay.  Methods map 1:1
    onto the request protocol of :class:`ProcessShardClient`.
    """

    def __init__(
        self,
        program: Program,
        node_ids: list[NodeId],
        registry: Optional[FunctionRegistry] = None,
    ) -> None:
        program.check()
        self.program = localize_program(program).program
        self.registry = registry or builtin_registry()
        self.rule_engine = seminaive.RULE_ENGINE(self.registry)
        self.rule_engine.precompile(self.program.rules)
        self.nodes: dict[NodeId, Node] = {
            node_id: Node(node_id, self.program, rule_engine=self.rule_engine)
            for node_id in node_ids
        }
        self._records: list[ChangeRecord] = []
        self._sends: list[SendRecord] = []
        self.executor = FixpointExecutor(
            self.program,
            self.rule_engine,
            record_change=self._collect_change,
            send=self._collect_send,
            record_meta=self._collect_change,
        )
        # mirror lazy index builds into the record stream so the
        # coordinator's replica keeps identical bucket orders (a crash
        # resync pushes replica buckets back verbatim; lazily rebuilt
        # indexes could iterate joins in a different order after keyed
        # re-bindings and diverge the fingerprint)
        for node_id, node in self.nodes.items():
            node.db.hook_index_builds(self._index_collector(node_id))

    def _index_collector(self, node_id: NodeId):
        def collect(predicate: str, positions: tuple[int, ...]) -> None:
            self._records.append((node_id, predicate, tuple(positions), "index"))

        return collect

    # -- executor effect sinks ---------------------------------------------
    def _collect_change(
        self, now: float, node_id: NodeId, predicate: str, values: tuple, kind: str
    ) -> None:
        self._records.append((node_id, predicate, values, kind))

    def _collect_send(
        self, src: NodeId, dst: NodeId, predicate: str, values: tuple, kind: str
    ) -> None:
        self._sends.append((src, dst, predicate, values, kind))

    def _collected(self) -> tuple[list[ChangeRecord], list[SendRecord]]:
        records, sends = self._records, self._sends
        self._records, self._sends = [], []
        return records, sends

    # -- request protocol --------------------------------------------------
    def flush_batch(
        self, now: float, items: list[tuple[NodeId, list[Op]]]
    ) -> list[tuple[list[ChangeRecord], list[SendRecord]]]:
        """Drain each node's op batch to a local fixpoint, in order."""

        out = []
        for node_id, ops in items:
            self.executor.settle(self.nodes[node_id], ops, now)
            out.append(self._collected())
        return out

    def refresh(self, now: float, items: list[tuple[NodeId, str, tuple]]) -> None:
        """Extend soft-state lifetimes (keeps worker expiry timestamps in
        lock-step with the coordinator's replica)."""

        for node_id, predicate, values in items:
            self.nodes[node_id].db.table(predicate).refresh(tuple(values), now)

    def protect(self, predicate: str) -> None:
        """Mirror the coordinator's sweep exemptions (injected base facts)."""

        self.executor.protect(predicate)

    def node_stats(self) -> dict[NodeId, dict]:
        return {node_id: node.stats.as_dict() for node_id, node in self.nodes.items()}

    def snapshot(self) -> dict[NodeId, dict[str, set[tuple]]]:
        return {node_id: node.snapshot() for node_id, node in self.nodes.items()}

    def ping(self) -> bool:
        return True

    def metrics(self) -> dict:
        """Drain this worker's metrics registry (raw export + reset).

        Draining (rather than snapshotting) keeps repeated collections
        from double-counting; the coordinator merges the export into its
        own registry after each run segment.
        """

        return obs_metrics.registry().drain()

    def load_state(self, state: dict) -> bool:
        """Adopt a partition's full structural state after a respawn.

        ``state`` is the coordinator's export of its replica (see
        :meth:`ShardedEngine._export_shard_state`): each node's
        :meth:`~repro.dn.node.Node.export_state` plus the protected-predicate
        set.  Replica nodes never fire rules, so aggregate view memos are
        rebuilt here by :meth:`~repro.dn.node.Node.load_state` — resync
        happens at a settle point — and the worker ends bit-identical to one
        that never died.
        """

        for predicate in state["protected"]:
            self.executor.protect(predicate)
        for node_id, entry in state["nodes"].items():
            self.nodes[node_id].load_state(entry)
        # the memo rebuilds may have emitted scratch index-build records;
        # they were superseded by the restored buckets
        self._records.clear()
        self._sends.clear()
        return True


def _shard_worker_main(conn, program, node_ids, registry) -> None:
    """Entry point of a shard worker process: serve requests until EOF."""

    try:
        worker = ShardWorker(program, node_ids, registry)
    except BaseException:
        conn.send(("error", traceback.format_exc()))
        return
    conn.send(("ok", True))  # construction handshake
    while True:
        try:
            message = conn.recv()
        except EOFError:
            return
        method, args = message
        if method == "shutdown":
            conn.send(("ok", True))
            return
        if method == "__delay__":
            # fault injection (delay_pipe): stall before the next request,
            # without a response — the coordinator's hang detector is what
            # is being exercised
            time.sleep(args[0])
            continue
        try:
            result = getattr(worker, method)(*args)
        except BaseException:
            conn.send(("error", traceback.format_exc()))
        else:
            conn.send(("ok", result))


class InlineShardClient:
    """In-process shard transport: direct calls into a :class:`ShardWorker`.

    Same request surface as :class:`ProcessShardClient`, no IPC — used by
    differential tests (and empty shards) so hypothesis sweeps don't pay a
    process spawn per example.  :meth:`kill`/:meth:`sever` simulate worker
    death so the supervision/resync path can be swept cheaply; a "dead"
    inline worker raises :class:`ShardCrash` until the coordinator
    respawns it.
    """

    def __init__(self, worker: ShardWorker) -> None:
        self.worker = worker
        self._result = None
        self._dead = False

    def submit(self, method: str, args: tuple) -> None:
        if self._dead:
            raise ShardCrash("inline shard worker was killed")
        self._result = getattr(self.worker, method)(*args)

    def result(self):
        if self._dead:
            raise ShardCrash("inline shard worker was killed")
        result, self._result = self._result, None
        return result

    def call(self, method: str, args: tuple = ()):
        self.submit(method, args)
        return self.result()

    def kill(self) -> None:
        self._dead = True

    def sever(self) -> None:
        self._dead = True

    def delay(self, seconds: float) -> None:
        # inline transport has no hang detector to exercise
        pass

    def close(self) -> None:
        pass


class ProcessShardClient:
    """One shard worker OS process, spoken to over a pipe.

    The protocol is strictly one outstanding request per client
    (``submit`` → ``result``), so coordinators can submit to every shard
    and collect in a fixed order without deadlock.  Worker tracebacks are
    re-raised here as :class:`ShardError`; process death, broken pipes and
    (when ``timeout`` is set) hangs raise :class:`ShardCrash` /
    :class:`ShardTimeout` so the supervising coordinator can respawn.
    """

    def __init__(
        self,
        program: Program,
        node_ids: list[NodeId],
        registry: Optional[FunctionRegistry] = None,
        *,
        timeout: Optional[float] = None,
    ) -> None:
        # fork is the cheap path on Linux (no pickling of the program);
        # fall back to the platform default where fork is unavailable
        try:
            context = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-fork platforms
            context = multiprocessing.get_context()
        self.timeout = timeout
        self._conn, child = context.Pipe()
        self._process = context.Process(
            target=_shard_worker_main,
            args=(child, program, node_ids, registry),
            daemon=True,
            name=f"fvn-shard-{node_ids[:1]}",
        )
        self._process.start()
        child.close()
        self._pending = True  # construction handshake
        self.result()

    def submit(self, method: str, args: tuple) -> None:
        if self._pending:
            raise ShardError("previous shard request not collected")
        try:
            self._conn.send((method, args))
        except (BrokenPipeError, OSError) as exc:
            raise ShardCrash(f"shard worker is gone: {exc}") from exc
        self._pending = True

    def result(self):
        if not self._pending:
            raise ShardError("no shard request outstanding")
        try:
            if self.timeout is not None and not self._conn.poll(self.timeout):
                self._pending = False
                raise ShardTimeout(
                    f"shard worker unresponsive after {self.timeout}s"
                )
            status, payload = self._conn.recv()
        except (EOFError, OSError) as exc:
            self._pending = False
            raise ShardCrash(f"shard worker died mid-request: {exc}") from exc
        self._pending = False
        if status == "error":
            raise ShardError(f"shard worker failed:\n{payload}")
        return payload

    def call(self, method: str, args: tuple = ()):
        self.submit(method, args)
        return self.result()

    # -- fault-injection handles ---------------------------------------
    def kill(self) -> None:
        """SIGKILL the worker process (chaos testing / hang teardown)."""

        if self._process.is_alive() and self._process.pid is not None:
            try:
                os.kill(self._process.pid, signal.SIGKILL)
            except ProcessLookupError:  # pragma: no cover - raced exit
                pass
            self._process.join(timeout=5)

    def sever(self) -> None:
        """Close the coordinator's pipe end: the next request crashes."""

        self._conn.close()

    def delay(self, seconds: float) -> None:
        """Make the worker sleep before reading its next request
        (responseless; exercises the ``timeout`` hang detector)."""

        try:
            self._conn.send(("__delay__", (seconds,)))
        except (BrokenPipeError, OSError):  # pragma: no cover - dying worker
            pass

    def close(self) -> None:
        if self._process.is_alive():
            if self._pending:
                # an uncollected request is in flight (e.g. teardown after
                # an error): drain its response briefly so the shutdown
                # handshake is not misread, else give up on the handshake
                try:
                    if self._conn.poll(1.0):
                        self._conn.recv()
                        self._pending = False
                except (EOFError, OSError):
                    self._pending = False
            if not self._pending:
                try:
                    self.call("shutdown")
                except ShardError:
                    pass
        try:
            self._conn.close()
        except OSError:  # pragma: no cover - already severed
            pass
        self._process.join(timeout=5)
        if self._process.is_alive():  # pragma: no cover - stuck worker
            self.kill()
            self._process.join(timeout=5)


class ShardedEngine(DistributedEngine):
    """The shard coordinator: a :class:`DistributedEngine` whose node
    fixpoints execute on shard workers.

    The inherited machinery — scheduler, channel, trace, monitors, pending
    queues, soft-state scans, topology dynamics — runs unchanged; the
    inherited ``self.nodes`` become a **replica** maintained by replaying
    worker change records, so every read API (``rows``,
    ``global_snapshot``, monitor table access, post-hoc checks) works
    as on the single-process engine.  See the module docstring for the
    determinism argument.
    """

    def __init__(
        self,
        program: Program,
        topology: Topology,
        *,
        config: Optional[EngineConfig] = None,
        registry: Optional[FunctionRegistry] = None,
    ) -> None:
        super().__init__(program, topology, config=config, registry=registry)
        cfg = self.config
        if cfg.shards < 1:
            raise ShardError(f"shards must be >= 1, got {cfg.shards}")
        if cfg.shard_transport not in ("process", "inline"):
            raise ShardError(
                f"unknown shard transport {cfg.shard_transport!r}; "
                "expected 'process' or 'inline'"
            )
        #: node id → shard index (deterministic; see :mod:`repro.dn.partition`)
        self.partition_map = partition_nodes(topology, cfg.shards, cfg.partition)
        self._members = shard_members(self.partition_map, cfg.shards, topology.nodes)
        self._clients: list[object] = [
            self._spawn_client(shard) for shard in range(cfg.shards)
        ]
        #: respawns performed per shard (bounded by ``cfg.shard_restarts``)
        self.shard_restarts: list[int] = [0] * cfg.shards
        #: optional deterministic fault injector (see :meth:`inject_faults`)
        self.fault_injector: Optional[FaultInjector] = None
        self._closed = False

    def _spawn_client(self, shard: int):
        """Build (or rebuild, after a crash) one shard's transport client."""

        cfg = self.config
        shard_nodes = self._members[shard]
        if cfg.shard_transport == "process" and shard_nodes:
            return ProcessShardClient(
                self.original_program,
                shard_nodes,
                self._registry_arg,
                timeout=cfg.shard_timeout,
            )
        # inline transport, and empty shards (never addressed —
        # not worth an OS process)
        return InlineShardClient(
            ShardWorker(self.original_program, shard_nodes, self._registry_arg)
        )

    def inject_faults(self, plan) -> FaultInjector:
        """Install a deterministic fault injector for chaos testing.

        ``plan`` is a :class:`~repro.dn.faults.FaultPlan` (or an existing
        :class:`~repro.dn.faults.FaultInjector` to share with other
        layers).  Shard-scoped probes happen once per attempted worker
        request, with the shard index as the probe scope.
        """

        if isinstance(plan, FaultInjector):
            injector = plan
        elif isinstance(plan, FaultPlan):
            injector = FaultInjector(plan)
        else:
            injector = FaultInjector(FaultPlan(tuple(plan)))
        self.fault_injector = injector
        return injector

    # ------------------------------------------------------------------
    # Supervision: fault probes, crash recovery, resync
    # ------------------------------------------------------------------
    def _pre_request(self, shard: int) -> None:
        """Fault-injection probe point: one per attempted shard request."""

        injector = self.fault_injector
        if injector is None:
            return
        fault = injector.draw("kill_worker", shard)
        if fault is not None:
            self._clients[shard].kill()
        fault = injector.draw("sever_pipe", shard)
        if fault is not None:
            self._clients[shard].sever()
        fault = injector.draw("delay_pipe", shard)
        if fault is not None:
            self._clients[shard].delay(float(fault.arg))

    def _revive(self, shard: int, exc: ShardCrash) -> None:
        """Respawn a crashed shard worker and resync it from the replica.

        The replica only advances after a request's results return, so at
        revive time it holds exactly the pre-request state of the dead
        worker's partition; pushing it back (rows + support counts +
        timestamps + index buckets + marks + stats + protections, with
        view memos recomputed worker-side) makes the respawned worker
        bit-identical to the dead one just before the fatal request —
        retrying the request then recomputes exactly what an undisturbed
        worker would have produced.
        """

        if obs_metrics.ENABLED:
            obs_metrics.inc("shard.respawns")
        self.shard_restarts[shard] += 1
        if self.shard_restarts[shard] > self.config.shard_restarts:
            raise NDlogError(
                f"shard {shard} crashed {self.shard_restarts[shard]} times "
                f"(budget: shard_restarts={self.config.shard_restarts}); "
                f"giving up: {exc}"
            ) from exc
        old = self._clients[shard]
        try:
            old.kill()
        except AttributeError:  # pragma: no cover - inline clients
            pass
        try:
            old.close()
        except Exception:  # pragma: no cover - best-effort teardown
            pass
        self._clients[shard] = self._spawn_client(shard)
        if self._members[shard]:
            self._clients[shard].call(
                "load_state", (self._export_shard_state(shard),)
            )

    def _export_shard_state(self, shard: int) -> dict:
        """The replica's structural state for one shard's partition (the
        payload of a resync push; consumed by :meth:`ShardWorker.
        load_state`)."""

        return {
            "nodes": {
                node_id: self.nodes[node_id].export_state()
                for node_id in self._members[shard]
            },
            "protected": sorted(self.executor._protected),
        }

    def _submit(self, shard: int, method: str, args: tuple) -> None:
        """Supervised fire-and-collect-later submit to one shard."""

        if obs_metrics.ENABLED:
            obs_metrics.inc("shard.requests")
        while True:
            self._pre_request(shard)
            try:
                self._clients[shard].submit(method, args)
                return
            except ShardCrash as exc:
                self._revive(shard, exc)

    def _call(self, shard: int, method: str, args: tuple = ()):
        """Supervised synchronous round trip to one shard.

        Crash-retrying is deterministic for every protocol method: a dead
        worker returned nothing, so the replica was not advanced and the
        respawned worker recomputes the request from the identical
        pre-request state (idempotent for the maintenance verbs, and
        byte-reproducing for the drain verbs).
        """

        if not obs_metrics.ENABLED:
            while True:
                self._pre_request(shard)
                try:
                    return self._clients[shard].call(method, args)
                except ShardCrash as exc:
                    self._revive(shard, exc)
        start = time.perf_counter()
        obs_metrics.inc("shard.requests")
        while True:
            self._pre_request(shard)
            try:
                result = self._clients[shard].call(method, args)
            except ShardCrash as exc:
                self._revive(shard, exc)
                continue
            obs_metrics.observe("shard.request_seconds", time.perf_counter() - start)
            return result

    # ------------------------------------------------------------------
    # Effect replay
    # ------------------------------------------------------------------
    def _replay(self, records: list[ChangeRecord], sends: list[SendRecord]) -> None:
        """Re-enact one node-drain's effects at the coordinator.

        Change records update the replica tables (through the same
        ``Node.upsert``/``Node.delete`` bookkeeping the authoritative nodes
        used, at the same timestamp — so contents, key displacement order,
        expiry deadlines, and tuple counters all match) and then hit the
        trace/monitors; send intents go through the inherited ``_send``,
        drawing from the loss channel's RNG in the single-process order.
        """

        now = self.scheduler.now
        # the replay is the coordinator-side half of a node fixpoint: its
        # intermediate states are exactly as inconsistent as a mid-drain
        # database, so external updates are refused here too (matching the
        # single-process engine's drain guard)
        self._fixpoint_depth += 1
        try:
            for node_id, predicate, values, kind in records:
                node = self.nodes[node_id]
                if kind in ("insert", "replace"):
                    node.upsert(predicate, values, now)
                elif kind == "support":
                    # invisible bookkeeping (executor META_KINDS): mirrored
                    # into the replica for crash-resync, never traced
                    node.db.table(predicate).upsert(tuple(values), now)
                    continue
                elif kind == "release":
                    node.db.release(predicate, values)
                    continue
                elif kind == "mark":
                    node.displaced.setdefault(predicate, set()).add(
                        node.db.table(predicate).key_of(tuple(values))
                    )
                    continue
                elif kind == "unmark":
                    marked = node.displaced.get(predicate)
                    if marked is not None:
                        marked.discard(node.db.table(predicate).key_of(tuple(values)))
                    continue
                elif kind == "index":
                    node.db.table(predicate).index_on(values)
                    continue
                elif kind == "unswept":
                    node.unswept.add(predicate)
                    continue
                elif kind == "swept":
                    node.unswept.discard(predicate)
                    continue
                else:
                    node.delete(predicate, values)
                self._record_change(now, node_id, predicate, values, kind)
            for src, dst, predicate, values, kind in sends:
                self._send(src, dst, predicate, values, kind)
        finally:
            self._fixpoint_depth -= 1

    # ------------------------------------------------------------------
    # Overridden execution hooks
    # ------------------------------------------------------------------
    def _flush(self, node_id: NodeId) -> None:
        """Drain every node that has a flush queued at this timestamp.

        All flush events at one timestamp are mutually independent (each
        touches a single node, and messages they emit are delivered by
        *later* events), so the coordinator takes them off the scheduler as
        one wave — :meth:`EventScheduler.pop_if` keeps event/budget
        accounting identical to popping them one by one — executes them on
        the shard workers in parallel, and replays the results in the exact
        order the single-process run loop would have produced them.
        """

        now = self.scheduler.now
        self._flush_marks.pop(node_id, None)
        wave = [node_id]
        while True:
            event = self.scheduler.pop_if(
                lambda at, ev: at == now and ev.kind == "flush"
            )
            if event is None:
                break
            self._flush_marks.pop(event.target, None)
            wave.append(event.target)
        if obs_metrics.ENABLED:
            obs_metrics.inc("shard.flush_waves")
            obs_metrics.observe("shard.wave_size", len(wave))
        with obs_tracing.span("shard.flush_wave", nodes=len(wave)):
            payloads: dict[int, list[tuple[NodeId, list[Op]]]] = {}
            for nid in wave:
                queue = self._pending[nid]
                ops = list(queue)
                queue.clear()
                payloads.setdefault(self.partition_map[nid], []).append((nid, ops))
            for shard, items in payloads.items():
                self._submit(shard, "flush_batch", (now, items))
            results: dict[NodeId, tuple[list, list]] = {}
            for shard, items in payloads.items():
                try:
                    outcome = self._clients[shard].result()
                except ShardCrash as exc:
                    # the worker died mid-drain: nothing was replayed, so the
                    # replica is still pre-request — revive and retry the whole
                    # batch (the recomputation is byte-identical)
                    self._revive(shard, exc)
                    outcome = self._call(shard, "flush_batch", (now, items))
                for (nid, _), result in zip(items, outcome):
                    results[nid] = result
            for nid in wave:
                records, sends = results[nid]
                self._replay(records, sends)
                if self.monitors:
                    self._notify_settle(nid)

    def _apply_refresh(self, refreshed, now: float) -> None:
        super()._apply_refresh(refreshed, now)  # the replica's lifetimes
        by_shard: dict[int, list] = {}
        for item in refreshed:
            by_shard.setdefault(self.partition_map[item[0]], []).append(item)
        for shard, items in by_shard.items():
            self._call(shard, "refresh", (now, items))

    def _protect_predicate(self, predicate: str) -> None:
        if self.executor.protect(predicate):
            for shard, members in enumerate(self._members):
                if members:
                    self._call(shard, "protect", (predicate,))

    # ------------------------------------------------------------------
    # Lifecycle and observability
    # ------------------------------------------------------------------
    def run(self, *, until: float = float("inf"), extra_facts=()):
        trace = super().run(until=until, extra_facts=extra_facts)
        self._sync_worker_stats()
        if obs_metrics.ENABLED:
            self._collect_worker_metrics()
            # pick up the rule firings the stats sync just folded in
            self._record_run_metrics()
        return trace

    def _collect_worker_metrics(self) -> None:
        """Merge each worker's drained metrics into this process's registry.

        Workers inherit the coordinator's enablement at fork time (enable
        observability before building the engine); their executor-level
        counters — fixpoint rounds, delta batch sizes, retraction cascades
        — accrue process-locally and are folded in here after each run
        segment, mirroring :meth:`_sync_worker_stats`.
        """

        for shard, members in enumerate(self._members):
            if members:
                obs_metrics.registry().merge(self._call(shard, "metrics"))

    def _sync_worker_stats(self) -> None:
        """Fold worker-side counters into the replica's node stats.

        Message and tuple counters are maintained coordinator-side by the
        replay (and match the workers' by construction); rule firings only
        happen at the workers, so they are fetched here after each run
        segment.
        """

        for shard, members in enumerate(self._members):
            if not members:
                continue
            for node_id, stats in self._call(shard, "node_stats").items():
                self.nodes[node_id].stats.rule_firings = stats["rule_firings"]

    def validate_shards(self) -> None:
        """Assert the coordinator replica matches every worker's tables.

        A debugging/testing aid: compares the non-empty table contents of
        each authoritative worker node against the replica the replay
        maintained.  Raises :class:`ShardError` on any divergence.
        """

        for shard, members in enumerate(self._members):
            if not members:
                continue
            snapshots = self._call(shard, "snapshot")
            for node_id, snapshot in snapshots.items():
                theirs = {p: rows for p, rows in snapshot.items() if rows}
                mine = {
                    p: rows for p, rows in self.nodes[node_id].snapshot().items() if rows
                }
                if mine != theirs:
                    raise ShardError(
                        f"replica diverged from shard {shard} at node {node_id!r}: "
                        f"coordinator={mine!r} worker={theirs!r}"
                    )

    def shard_summary(self) -> dict:
        """Partition facts for reports: sizes, strategy, edge cut."""

        return {
            "shards": self.config.shards,
            "partition": self.config.partition,
            "transport": self.config.shard_transport,
            "sizes": [len(members) for members in self._members],
            "edge_cut": edge_cut(self.topology, self.partition_map),
        }

    def close(self) -> None:
        """Shut the shard workers down.  The coordinator's replicated
        state (tables, trace, stats, monitors) stays readable."""

        if self._closed:
            return
        self._closed = True
        for client in self._clients:
            try:
                client.close()
            except Exception:  # pragma: no cover - best-effort teardown
                pass

    def __del__(self) -> None:  # pragma: no cover - GC safety net
        try:
            self.close()
        except Exception:
            pass
