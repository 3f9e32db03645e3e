"""Process-sharded execution of the distributed NDlog engine.

This module scales one simulated network past a single core while keeping
the execution **byte-identical** to a single-process
:class:`~repro.dn.engine.DistributedEngine` for the same seed — same
:class:`~repro.dn.trace.Trace` contents, same monitor verdicts, same
retraction semantics, same event and budget accounting.
:class:`ShardedEngine` *is* that engine with another node host
(:mod:`repro.dn.host`), a :class:`ShardSupervisor`.  The split follows from
a locality argument:

* Everything *global* stays in the engine, unchanged: the event scheduler
  (and its FIFO tie-breaking, which defines the global event order), the
  loss channel and its RNG stream, the trace, the runtime monitors,
  topology dynamics, message counters, and the per-node pending-op queues.
* Everything *expensive* is per node and moves to the workers: each shard
  worker process (a :class:`~repro.dn.host.ShardWorker`) is the only holder
  of its partition's node tables and runs the identical
  :class:`~repro.dn.executor.FixpointExecutor` settle.  A drain touches
  exactly one node, so the flushes of one wave are independent and execute
  **in parallel across shards**.

The supervisor fans a wave's op batches out to the workers, then replays
the returned effects in wave order, the order the in-process host settles
them in.  A worker returns what the in-process sinks receive, nothing
more: traced change records feed the trace and fold into a per-node row
view (:class:`RemoteNode`, serving ``rows()``, ``global_snapshot()``,
refresh membership and the monitors' reads); send intents go through the
engine's own ``_send``, so loss-channel RNG draws happen in the
single-process order for cross- and intra-shard messages alike.  What needs
deadlines — the expiry scan, the soft-state monitor — is a worker request.
Workers fork from an engine that has already compiled the localized
program, so they inherit its generated rule code.  The worker-kept node
counters (tuples stored and deleted, rule firings) and worker metrics come
home at every segment end, a ``run()``'s or a serving settle's.  So for
every shard count, partition strategy and transport (``"process"``: one
worker OS process per shard over pipes; ``"inline"``: the same code path
minus the IPC) traces, tables, stats and monitor reports equal the
single-process engine's.  ``close()`` a sharded engine when done; its rows
stay readable.

**Supervision.**  Worker death (or a hang past ``EngineConfig.
shard_timeout``) raises :class:`ShardCrash` in the supervisor, which
respawns the worker: the new worker loads its shard's last *checkpoint*
(each member's :meth:`~repro.dn.node.Node.export_state`, pickled by the
worker and opaque to the supervisor), re-executes the state-changing
requests logged since (``flush_batch``, ``refresh``, ``protect``; no fault
probes, results and worker metrics dropped), and the failed request is
retried.  A request is logged only once its result has returned, so the
new worker stands exactly where the dead one stood before the fatal
request and the retry recomputes what it would have produced —
``Trace.fingerprint()`` stays byte-identical (the supervision tests sweep
kill points).  A shard checkpoints at the start of a run segment when its
log holds more ops than its live rows: recovery state is O(live rows + one
segment), and a one-run engine never checkpoints.  Past
``EngineConfig.shard_restarts`` respawns of one shard the engine raises a
clean :class:`~repro.ndlog.ast.NDlogError`; a worker *traceback* raises
:class:`ShardError` at once (a respawn would re-execute the bug).  Faults
are injected through :meth:`ShardedEngine.inject_faults` (see
:mod:`repro.dn.faults` and ``docs/FAULTS.md``).  Capture and restore are
the engine's own; the supervisor answers their node half: a capture
gathers the node states from the workers (without keeping them as a
checkpoint), and a restore hands them to the fresh workers, keeps each
shard's as its respawn checkpoint and rebuilds the row views.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import signal
import time
import traceback
from typing import Collection, Optional

from ..logic.bmc import FunctionRegistry
from ..ndlog.ast import NDlogError, Program
from ..ndlog import seminaive
from ..ndlog.store import _make_key_getter, select_rows
from ..obs import metrics as obs_metrics
from ..obs import tracing as obs_tracing
from .collector import collector_paused, freeze_inherited_heap
from .engine import DistributedEngine, EngineConfig
from .executor import FixpointExecutor, Op
from .faults import FaultInjector, FaultPlan
from .host import ChangeRecord, SendRecord, ShardWorker
from .network import NodeId, Topology
from .node import NodeStats
from .partition import edge_cut, partition_nodes, shard_members

#: change kinds that store a row (the rest remove one)
_ADDED = frozenset(("insert", "replace"))
#: the row-view shape of a predicate without a declaration: keyless, uncapped
_KEYLESS = (tuple, float("inf"))
#: the node counters the owning worker keeps (see NodeStats)
_WORKER_COUNTERS = ("tuples_inserted", "tuples_replaced", "tuples_deleted", "rule_firings")


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


def _shard_worker_main(conn, program, node_ids, registry, coordinator_end) -> None:
    """Entry point of a shard worker process: serve requests until EOF."""

    # the fork copied the coordinator's end of this pipe as well: close it,
    # so that the coordinator's death (a SIGKILL included) reads as EOF here
    coordinator_end.close()
    # the heap inherited from the coordinator is never freed here: keep the
    # collector from walking (and so copying) its pages
    freeze_inherited_heap()
    # nor are the coordinator's metrics this worker's: drains return its own
    obs_metrics.registry().reset()
    try:
        rule_engine = seminaive.RULE_ENGINE(registry)
        rule_engine.precompile(program.rules)
        worker = ShardWorker(program, node_ids, rule_engine)
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
            return
        if method == "__delay__":
            # fault injection (delay_pipe): stall before the next request,
            # without a response — the coordinator's hang detector is what
            # is being exercised
            time.sleep(args[0])
            continue
        try:
            with collector_paused():
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
    inline worker raises :class:`ShardCrash` until the supervisor
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

    sever = kill

    def delay(self, seconds: float) -> None:
        # inline transport has no hang detector to exercise
        pass

    def shutdown(self) -> None:
        pass

    def close(self) -> None:
        pass


class ProcessShardClient:
    """One shard worker OS process, spoken to over a pipe.

    The protocol is strictly one outstanding request per client
    (``submit`` → ``result``; the construction handshake is the first), so
    a supervisor can submit to every shard and collect in a fixed order
    without deadlock.  Worker tracebacks are re-raised as
    :class:`ShardError`; process death, broken pipes and (when ``timeout``
    is set) hangs raise :class:`ShardCrash` / :class:`ShardTimeout` so the
    supervisor can respawn.
    """

    def __init__(
        self,
        program: Program,
        node_ids: list[NodeId],
        registry: FunctionRegistry,
        *,
        timeout: Optional[float] = None,
    ) -> None:
        # fork is the cheap path on Linux (no pickling of the program, and
        # the coordinator's compiled rules come along); fall back to the
        # platform default where fork is unavailable
        try:
            context = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-fork platforms
            context = multiprocessing.get_context()
        self.timeout = timeout
        self._conn, child = context.Pipe()
        self._process = context.Process(
            target=_shard_worker_main,
            args=(child, program, node_ids, registry, self._conn),
            daemon=True,
            name=f"fvn-shard-{node_ids[:1]}",
        )
        self._process.start()
        child.close()
        self._pending = True  # construction handshake
        self._shut = False

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

    def shutdown(self) -> None:
        """Ask the worker to exit, without waiting for it (see :meth:`close`)."""

        if self._shut or not self._process.is_alive():
            return
        self._shut = True
        if self._pending:
            # an uncollected request is in flight (e.g. teardown after an
            # error): drain its response briefly so the worker reads the
            # shutdown, else leave the exit to close()'s kill
            try:
                if self._conn.poll(1.0):
                    self._conn.recv()
                    self._pending = False
            except (EOFError, OSError):
                self._pending = False
        if not self._pending:
            try:
                self._conn.send(("shutdown", ()))
            except (BrokenPipeError, OSError):
                pass

    def close(self) -> None:
        self.shutdown()
        try:
            self._conn.close()
        except OSError:  # pragma: no cover - already severed
            pass
        self._process.join(timeout=5)
        if self._process.is_alive():  # pragma: no cover - stuck worker
            self.kill()
            self._process.join(timeout=5)


class RemoteNode:
    """The engine's stand-in for a node whose tables a shard worker holds.

    Carries the node's :class:`~repro.dn.node.NodeStats` (message counters
    kept by the engine, the rest synced from the worker at each segment
    end) and a row view, ``tables``: predicate → ``{primary key: row}`` in
    the worker table's row order, folded from the traced change records by
    :meth:`ShardSupervisor._replay`.  It answers the read side of
    :class:`~repro.dn.node.Node` (``rows``, ``select``, ``holds``,
    ``snapshot``); ``db`` raises instead of handing out tables that would
    read empty.
    """

    def __init__(self, node_id: NodeId, program: Program) -> None:
        self.id = node_id
        self.stats = NodeStats()
        self.tables: dict[str, dict[tuple, tuple]] = {p: {} for p in program.materialized}
        #: declared predicate → its 0-based primary-key positions
        self._keys = {
            p: tuple(k - 1 for k in decl.keys) for p, decl in program.materialized.items()
        }

    @property
    def db(self):
        raise ShardError(
            f"node {self.id!r}'s tables live on its shard worker; read them "
            "through the engine (rows, global_snapshot, soft_deadlines)"
        )

    def rows(self, predicate: str) -> list[tuple]:
        table = self.tables.get(predicate)
        return list(table.values()) if table else []

    def holds(self, predicate: str, values: tuple) -> bool:
        return values in self.select(predicate, tuple(range(len(values))), (values,))

    def select(
        self, predicate: str, positions: tuple[int, ...], wanted: Collection[tuple]
    ) -> list[tuple]:
        """:meth:`Node.select` on the row view: primary-key lookups or one
        scan (the view keeps no indexes)."""

        table = self.tables.get(predicate)
        if not table:
            return []
        return select_rows(table, self._keys.get(predicate, ()), positions, wanted)

    def snapshot(self) -> dict[str, set[tuple]]:
        """As :meth:`Node.snapshot`: materialized predicates, and any other
        that holds rows."""

        return {
            predicate: set(table.values())
            for predicate, table in self.tables.items()
            if table or predicate in self._keys
        }


class ShardSupervisor:
    """The node host of a :class:`ShardedEngine`: the partition, the shard
    workers' clients, their supervision and the row views.

    Answers the host surface of :mod:`repro.dn.host` by requests to the
    workers; see the module docstring for the determinism argument.  Built
    from the engine under construction, it keeps none of the engine.
    """

    def __init__(self, engine: DistributedEngine) -> None:
        cfg = self.config = engine.config
        if cfg.shards < 1:
            raise ShardError(f"shards must be >= 1, got {cfg.shards}")
        if cfg.shard_transport not in ("process", "inline"):
            raise ShardError(
                f"unknown shard transport {cfg.shard_transport!r}; "
                "expected 'process' or 'inline'"
            )
        program = self.program = engine.program
        self.registry = engine.registry
        self.rule_engine = engine.rule_engine
        # compile what the workers' executors run (negation variants, group
        # plans) before they fork: they inherit the code cache
        FixpointExecutor(program, engine.rule_engine)
        topology = engine.topology
        #: node id → shard index (deterministic; see :mod:`repro.dn.partition`)
        self.partition_map = partition_nodes(topology, cfg.shards, cfg.partition)
        #: per shard, its member nodes
        self.members = shard_members(self.partition_map, cfg.shards, topology.nodes)
        #: the shards with member nodes (the only ones ever addressed)
        self._occupied = [shard for shard, members in enumerate(self.members) if members]
        self.nodes = {node_id: RemoteNode(node_id, program) for node_id in topology.nodes}
        #: the predicates protected on every worker
        self.protected: set[str] = set()
        self._soft_state = any(decl.is_soft_state for decl in program.materialized.values())
        self._closed = False
        self._clients: list[object] = [
            self._spawn_client(shard) for shard in range(cfg.shards)
        ]
        for client in self._clients:
            client.result()  # the construction handshakes, the forks overlapped
        #: respawns performed per shard (bounded by ``cfg.shard_restarts``)
        self.shard_restarts: list[int] = [0] * cfg.shards
        #: checkpoints taken per shard (see :meth:`begin_segment`)
        self.shard_checkpoints: list[int] = [0] * cfg.shards
        #: per shard: its last checkpoint (opaque bytes, None = a fresh
        #: worker), the state-changing requests logged since, and their ops
        self._checkpoints: list[Optional[bytes]] = [None] * cfg.shards
        self._logs: list[list[tuple[str, tuple]]] = [[] for _ in range(cfg.shards)]
        self._log_ops: list[int] = [0] * cfg.shards
        #: declared predicate → (primary-key getter, max_size) of its row
        #: views, as its worker tables have them
        self._shapes = {
            predicate: (_make_key_getter(tuple(k - 1 for k in decl.keys)), decl.max_size)
            for predicate, decl in program.materialized.items()
        }
        #: optional deterministic fault injector (see
        #: :meth:`ShardedEngine.inject_faults`)
        self.fault_injector: Optional[FaultInjector] = None

    def _spawn_client(self, shard: int):
        """Start one shard's worker (its handshake is the caller's to collect)."""

        cfg = self.config
        shard_nodes = self.members[shard]
        if cfg.shard_transport == "process" and shard_nodes:
            return ProcessShardClient(
                self.program, shard_nodes, self.registry, timeout=cfg.shard_timeout
            )
        # inline transport, and empty shards (never addressed —
        # not worth an OS process)
        return InlineShardClient(ShardWorker(self.program, shard_nodes, self.rule_engine))

    # ------------------------------------------------------------------
    # Supervision: fault probes, crash recovery, checkpoints
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
        """Respawn a crashed shard worker and resync it from the shard's
        checkpoint and log (see the module docstring); a crash during the
        resync starts another respawn."""

        while True:
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
            old.kill()
            try:
                old.close()
            except Exception:  # pragma: no cover - best-effort teardown
                pass
            client = self._clients[shard] = self._spawn_client(shard)
            try:
                client.result()
                if self._checkpoints[shard] is not None:
                    client.call("restore", (self._checkpoints[shard],))
                for method, args in self._logs[shard]:
                    client.call(method, args)
                if self.config.shard_transport == "process":
                    client.call("metrics")  # the re-executed requests' metrics: dropped
                return
            except ShardCrash as again:
                exc = again

    def _logged(self, shard: int, method: str, args: tuple, ops: int) -> None:
        """Log a completed state-changing request of ``ops`` queued ops."""

        self._logs[shard].append((method, args))
        self._log_ops[shard] += ops

    def _checkpoint(self, shard: int) -> None:
        """Checkpoint the shard's worker now and start a new log."""

        self._checkpoints[shard] = self._call(shard, "checkpoint")
        self._logs[shard] = []
        self._log_ops[shard] = 0
        self.shard_checkpoints[shard] += 1

    def _live_rows(self, shard: int) -> int:
        views = (self.nodes[node_id].tables.values() for node_id in self.members[shard])
        return sum(len(table) for tables in views for table in tables)

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
        """Supervised synchronous round trip to one shard (a crash retry
        is deterministic: a dead worker's request was never logged, so its
        successor recomputes it from the identical pre-request state)."""

        start = time.perf_counter()
        if obs_metrics.ENABLED:
            obs_metrics.inc("shard.requests")
        while True:
            self._pre_request(shard)
            try:
                result = self._clients[shard].call(method, args)
            except ShardCrash as exc:
                self._revive(shard, exc)
                continue
            if obs_metrics.ENABLED:
                obs_metrics.observe("shard.request_seconds", time.perf_counter() - start)
            return result

    def _by_shard(self, items) -> dict[int, list]:
        """Items keyed by node id (first field), grouped by shard in order."""

        grouped: dict[int, list] = {}
        for item in items:
            grouped.setdefault(self.partition_map[item[0]], []).append(item)
        return grouped

    # ------------------------------------------------------------------
    # The host surface
    # ------------------------------------------------------------------
    def flush(self, now: float, items: list[tuple[NodeId, list[Op]]], record, send):
        """Settle a wave on the shard workers in parallel, then replay each
        node's effects into the sinks in wave order, yielding its id after.
        A worker that dies mid-drain is revived to its state before the
        batch, which is retried whole (the recomputation is byte-identical).
        """

        if obs_metrics.ENABLED:
            obs_metrics.inc("shard.flush_waves")
            obs_metrics.observe("shard.wave_size", len(items))
        with obs_tracing.span("shard.flush_wave", nodes=len(items)):
            payloads = self._by_shard(items)
            for shard, batch in payloads.items():
                self._submit(shard, "flush_batch", (now, batch))
            results: dict[NodeId, tuple[list, list]] = {}
            for shard, batch in payloads.items():
                args = (now, batch)
                try:
                    outcome = self._clients[shard].result()
                except ShardCrash as exc:
                    self._revive(shard, exc)
                    outcome = self._call(shard, "flush_batch", args)
                self._logged(shard, "flush_batch", args, sum(len(ops) for _, ops in batch))
                for (node_id, _), result in zip(batch, outcome):
                    results[node_id] = result
            for node_id, _ in items:
                self._replay(node_id, *results[node_id], now, record, send)
                yield node_id

    def _replay(
        self,
        node_id: NodeId,
        records: list[ChangeRecord],
        sends: list[SendRecord],
        now: float,
        record,
        send,
    ) -> None:
        """Apply one node-drain's effects: change records fold into the
        node's row view (FIFO eviction is untraced, so the view applies
        ``max_size`` itself) and feed ``record``; sends go through ``send``,
        drawing channel RNG in the single-process order."""

        tables = self.nodes[node_id].tables
        shapes = self._shapes
        for predicate, values, kind in records:
            table = tables.get(predicate)
            if table is None:
                table = tables[predicate] = {}
            key_of, max_size = shapes.get(predicate, _KEYLESS)
            key = key_of(values)
            if kind in _ADDED:
                table[key] = values
                if len(table) > max_size:
                    oldest = next(iter(table))
                    if oldest != key:
                        del table[oldest]
            else:
                del table[key]
            record(now, node_id, predicate, values, kind)
        for intent in sends:
            send(*intent)

    def refresh(self, now: float, items: list[tuple[NodeId, str, tuple]]) -> None:
        for shard, batch in self._by_shard(items).items():
            self._call(shard, "refresh", (now, batch))
            self._logged(shard, "refresh", (now, batch), len(batch))

    def protect(self, predicate: str) -> bool:
        # logged, as no ops: a predicate is protected at most once
        if predicate in self.protected:
            return False
        self.protected.add(predicate)
        for shard in self._occupied:
            self._call(shard, "protect", (predicate,))
            self._logged(shard, "protect", (predicate,), 0)
        return True

    def expired(self, now: float) -> dict[NodeId, list[tuple[str, tuple]]]:
        expired: dict[NodeId, list[tuple[str, tuple]]] = {}
        for shard in self._occupied:
            expired.update(self._call(shard, "expired", (now,)))
        return expired

    def soft_deadlines(self, node_id: NodeId) -> list[tuple[str, tuple, float]]:
        """Asked of the node's worker (so only until :meth:`close`)."""

        if not self._soft_state:
            return []
        if self._closed:
            raise ShardError("the shard workers holding the deadlines are closed")
        return self._call(self.partition_map[node_id], "soft_deadlines", (node_id,))

    def export_nodes(self) -> dict:
        """Each node's state as its worker exports it — read, not kept:
        logs and ``shard_checkpoints`` stay as they are — with the engine's
        message counters folded into its stats."""

        gathered: dict = {}
        for shard in self._occupied:
            gathered.update(self._call(shard, "export_nodes"))
        for node_id, node in self.nodes.items():
            stats = gathered[node_id]["stats"]
            stats["messages_sent"] = node.stats.messages_sent
            stats["messages_received"] = node.stats.messages_received
        return {node_id: gathered[node_id] for node_id in self.nodes}

    def load_nodes(self, states: dict) -> None:
        """Load the states into the fresh workers, keep each shard's as its
        respawn checkpoint (with an empty log), and rebuild the row views
        from their rows."""

        protected = sorted(self.protected)
        for shard in self._occupied:
            members = {node_id: states[node_id] for node_id in self.members[shard]}
            checkpoint = pickle.dumps((protected, members), pickle.HIGHEST_PROTOCOL)
            self._call(shard, "restore", (checkpoint,))
            self._checkpoints[shard] = checkpoint
            self._logs[shard] = []
            self._log_ops[shard] = 0
        for node_id, state in states.items():
            node = self.nodes[node_id]
            node.stats = NodeStats(**state["stats"])
            node.tables = {
                predicate: {key: row for key, row, _count in rows}
                for predicate, (rows, _deadlines, _positions) in state["tables"]
            }

    def begin_segment(self) -> None:
        # a log that outgrew its shard's live rows gives way to a checkpoint
        for shard in self._occupied:
            if self._log_ops[shard] > self._live_rows(shard):
                self._checkpoint(shard)

    def end_segment(self) -> None:
        """Fold the worker-kept counters (tuples stored and deleted, rule
        firings) into the row views' stats — message counters are the
        engine's own — and merge each worker's drained metrics into this
        process's registry (workers inherit its enablement at fork time:
        enable observability before building the engine)."""

        for shard in self._occupied:
            for node_id, stats in self._call(shard, "node_stats").items():
                mine = self.nodes[node_id].stats
                for counter in _WORKER_COUNTERS:
                    setattr(mine, counter, stats[counter])
        if obs_metrics.ENABLED:
            for shard in self._occupied:
                obs_metrics.registry().merge(self._call(shard, "metrics"))

    def validate(self) -> None:
        """See :meth:`ShardedEngine.validate_shards`."""

        for shard in self._occupied:
            snapshots = self._call(shard, "snapshot")
            for node_id, theirs in snapshots.items():
                mine = self.nodes[node_id].snapshot()
                if mine != theirs:
                    raise ShardError(
                        f"row view diverged from shard {shard} at node {node_id!r}: "
                        f"coordinator={mine!r} worker={theirs!r}"
                    )

    def close(self) -> None:
        """Shut the shard workers down; the row views stay readable."""

        if self._closed:
            return
        self._closed = True
        # every shutdown is sent before any worker is joined: they exit
        # side by side
        for client in self._clients:
            client.shutdown()
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


class ShardedEngine(DistributedEngine):
    """A :class:`DistributedEngine` whose node host is a
    :class:`ShardSupervisor`: its node fixpoints execute on shard workers,
    and ``self.nodes`` are :class:`RemoteNode` row views, so ``rows``,
    ``global_snapshot``, post-hoc checks and provenance read as on the
    single-process engine.  See the module docstring for the determinism
    argument.
    """

    def __init__(
        self,
        program: Program,
        topology: Topology,
        *,
        config: Optional[EngineConfig] = None,
        registry: Optional[FunctionRegistry] = None,
    ) -> None:
        super().__init__(
            program, topology, config=config, registry=registry, host=ShardSupervisor
        )

    #: node id → shard index (see :mod:`repro.dn.partition`)
    partition_map = property(lambda self: self.host.partition_map)
    #: respawns performed, and checkpoints taken, per shard
    shard_restarts = property(lambda self: self.host.shard_restarts)
    shard_checkpoints = property(lambda self: self.host.shard_checkpoints)
    #: the installed fault injector (see :meth:`inject_faults`), or None
    fault_injector = property(lambda self: self.host.fault_injector)

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
        self.host.fault_injector = injector
        return injector

    def validate_shards(self) -> None:
        """Assert the row views match every worker's tables.

        A debugging/testing aid: compares each worker node's
        :meth:`Node.snapshot` against its view's, folded from the change
        records (both list the same predicates).
        Raises :class:`ShardError` on any divergence.
        """

        self.host.validate()

    def shard_summary(self) -> dict:
        """Partition facts for reports: sizes, strategy, edge cut."""

        return {
            "shards": self.config.shards,
            "partition": self.config.partition,
            "transport": self.config.shard_transport,
            "sizes": [len(members) for members in self.host.members],
            "edge_cut": edge_cut(self.topology, self.partition_map),
        }
