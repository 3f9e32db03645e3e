"""The routing service core: one long-lived engine behind update/query verbs.

:class:`RouteService` owns a :func:`~repro.dn.engine.create_engine`
execution booted from a scenario (topology family/size/seed, optional AS
policy) and keeps it alive across an unbounded stream of updates.  Each
update is

1. **canonicalized** — JSON round-tripped, so the live apply path sees
   exactly the plain data a ledger replay will;
2. **ledgered** — appended (write-ahead, flushed) to ``updates.jsonl``;
3. **scheduled** — at simulation time ``now + sim_step``, through the
   engine's safe-point scheduling APIs;
4. **settled** — the settle loop drives the scheduler to the next fixpoint,
   excluding periodic maintenance timers (which never drain);
5. optionally **snapshotted** — every ``snapshot_every`` updates, the
   engine's capture (1 or N shards, stamped with its program digest) is
   sealed into a checksummed, fingerprint-stamped
   :mod:`~repro.serving.checkpoint` file, written atomically.

Every settle also compacts the engine's ``Trace`` (digest chains, counters
and a sub-block tail survive; the folded records are dropped), so the
daemon's memory and its snapshots track live state, not uptime.

Because the simulation schedule is a pure function of the update sequence,
``Trace.fingerprint()`` after recovery (snapshot + ledger-tail replay, or
full replay) is byte-identical to an uninterrupted run — the property the
crash-recovery tests assert.

Queries are answered only *between* settles, so every answer reflects a
whole prefix of the update stream, settled unless the last settle ran out
of its event budget (see ``docs/SERVING.md`` for the exact consistency
contract).  ``what_if`` forks a throwaway single-process engine loaded
from a pickled capture of the live one — the restore that snapshot
recovery runs, pending events included — applies only the hypothetical
updates, and answers against the fork; the live engine is never touched.
"""

from __future__ import annotations

import json
import os
import pickle
import time
from collections import OrderedDict
from dataclasses import replace
from pathlib import Path
from typing import Optional

from ..dn.engine import (
    MAINTENANCE_KINDS,
    DistributedEngine,
    EngineConfig,
    create_engine,
    restore_engine,
)
from ..dn.faults import SERVING_SCOPE, load_injector
from ..dn.monitors import build_monitor, schema_for_program
from ..harness.records import append_jsonl, canonical_json, read_jsonl
from ..ndlog.ast import MaterializeDecl, NDlogError, Program
from ..obs import metrics as obs_metrics
from ..obs import tracing as obs_tracing
from ..protocols.pathvector import path_vector_program
from ..protocols.policy import policy_path_vector_program
from ..scenarios.generator import generate_scenario
from .checkpoint import open_snapshot, seal_snapshot
from .config import ServerConfig
from .protocol import UPDATE_VERBS, ProtocolError, as_tuple, canonical

LEDGER_NAME = "updates.jsonl"
SNAPSHOT_NAME = "snapshot.pkl"
BOOT_NAME = "boot.json"


class ServiceError(RuntimeError):
    """A request the service could not satisfy."""


def build_serving_program(config: ServerConfig) -> Program:
    """The daemon's NDlog program: plain or policy path-vector with the
    config's soft-state lifetime overrides applied (mirrors the campaign
    harness's ``build_program``)."""

    if config.policy is None:
        program = path_vector_program()
    else:
        program = policy_path_vector_program()
    for predicate, lifetime in sorted(config.soft_state.items()):
        decl = program.materialized.get(predicate)
        if decl is None:
            raise ServiceError(
                f"soft_state override for {predicate!r}: no such materialized "
                f"table in program {program.name!r}"
            )
        program.materialized[predicate] = MaterializeDecl(
            predicate, lifetime, decl.max_size, decl.keys
        )
    return program


class RouteService:
    """A persistent engine process answering updates and queries."""

    def __init__(
        self, config: ServerConfig, *, origin: Optional[tuple[int, dict]] = None
    ) -> None:
        """``origin`` — ``(seq, engine capture)`` — starts the service at a
        captured state instead of booting it (how a ``what_if`` fork
        begins); such a service has no ledger to read."""

        self.config = config
        self.state_dir = Path(config.state_dir) if config.state_dir else None
        #: applied-update count; stamp of every ledger line and snapshot
        self.seq = 0
        #: request key → the ack it produced, for exactly-once retry dedup
        #: (LRU-bounded by ``config.dedup_cache``; rebuilt from the ledger
        #: on recovery, so dedup survives a daemon crash)
        self._acks: OrderedDict[str, dict] = OrderedDict()
        #: did the last settle reach a fixpoint within the event budget?
        self.settled = True
        #: how this process reached its current state: ``"boot"``,
        #: ``"replay"``, or ``"snapshot+replay"``
        self.recovered_from = "boot"
        #: chaos-testing injector shared with the sharded engine and the
        #: socket front end (None when ``config.fault_plan`` is unset)
        self.fault_injector = load_injector(config.fault_plan)
        self.engine: Optional[DistributedEngine] = None
        # serving always keeps metrics on (they power the ``metrics`` wire
        # verb and never perturb the fingerprint); tracing costs a span list
        # so it is opt-in via ``trace_out``
        obs_metrics.enable()
        if config.trace_out:
            obs_tracing.enable()
        start = time.perf_counter()
        with obs_tracing.span("serving.recovery"):
            self._boot(origin)
        obs_metrics.observe("serving.recovery_seconds", time.perf_counter() - start)

    # ------------------------------------------------------------------
    # Boot and recovery
    # ------------------------------------------------------------------
    @property
    def ledger_path(self) -> Optional[Path]:
        return self.state_dir / LEDGER_NAME if self.state_dir else None

    @property
    def snapshot_path(self) -> Optional[Path]:
        return self.state_dir / SNAPSHOT_NAME if self.state_dir else None

    def _engine_config(self) -> EngineConfig:
        return EngineConfig(
            seed=self.config.seed,
            refresh_interval=self.config.refresh_interval,
            max_events=self.config.settle_max_events,
            shards=self.config.shards,
            partition=self.config.partition,
        )

    def _boot(self, origin: Optional[tuple[int, dict]]) -> None:
        if self.state_dir:
            self.state_dir.mkdir(parents=True, exist_ok=True)
            boot_path = self.state_dir / BOOT_NAME
            if boot_path.exists():
                persisted = json.loads(boot_path.read_text())
                self.config = self.config.adopt_persisted(persisted["config"])
            else:
                boot_path.write_text(
                    canonical_json({"config": self.config.to_dict()}) + "\n"
                )
        self.program = build_serving_program(self.config)
        self._check_program(self.program)
        self.schema = schema_for_program(self.program)
        if origin is not None:
            self.seq, capture = origin
            self._restore(capture)
            return

        updates = self._read_ledger()
        restored_seq = self._try_snapshot_restore(updates)
        if restored_seq is None:
            self._fresh_engine()
            if updates:
                self.recovered_from = "replay"
            # dedup acks for the replayed prefix are captured below
        else:
            self.seq = restored_seq
            self.recovered_from = "snapshot+replay"
        for verb, args, key in updates[self.seq:]:
            ack = self._apply(verb, args)
            if key is not None:
                self._remember_ack(key, ack)

    def _check_program(self, program: Program) -> None:
        """Boot guard: refuse to serve a program the static analyzer
        rejects (``fvn-lint`` error severity), unless ``allow_unsafe``."""

        from ..ndlog.analysis import analyze_program

        report = analyze_program(program)
        if report.errors and not self.config.allow_unsafe:
            details = "; ".join(d.format(program.name) for d in report.errors[:5])
            raise ServiceError(
                f"program {program.name!r} fails static analysis with "
                f"{len(report.errors)} error(s): {details} "
                "(pass --allow-unsafe to serve it anyway)"
            )

    def _read_ledger(self) -> list[tuple[str, dict, Optional[str]]]:
        if not self.ledger_path:
            return []
        records = [
            record
            for record in read_jsonl(self.ledger_path)
            if isinstance(record.get("seq"), int) and record.get("verb") in UPDATE_VERBS
        ]
        records.sort(key=lambda record: record["seq"])
        out: list[tuple[str, dict, Optional[str]]] = []
        for record in records:
            if record["seq"] == len(out) + 1:  # drop duplicates / gaps
                key = record.get("key")
                out.append(
                    (
                        record["verb"],
                        record.get("args", {}),
                        key if isinstance(key, str) else None,
                    )
                )
        return out

    def _fresh_engine(self) -> None:
        scenario = generate_scenario(
            self.config.family,
            size=self.config.size,
            seed=self.config.topo_seed,
            policy=self.config.policy,
            loss=self.config.loss,
        )
        self.engine = create_engine(
            self.program, scenario.topology, config=self._engine_config()
        )
        self._inject_faults()
        for monitor in self._monitors():
            self.engine.attach_monitor(monitor)
        self.engine.seed_facts(scenario.policy_fact_list())
        self._settle()

    def _monitors(self) -> list:
        return [build_monitor(kind, self.schema) for kind in self.config.monitors]

    def _inject_faults(self) -> None:
        if self.fault_injector is not None and hasattr(self.engine, "inject_faults"):
            self.engine.inject_faults(self.fault_injector)

    def _restore(self, capture: dict) -> None:
        """Stand the engine at a captured state, on this config's shard
        count: snapshot recovery and ``what_if`` forks both start here."""

        self.engine = restore_engine(
            self.program, capture, config=self._engine_config(), monitors=self._monitors()
        )
        self._inject_faults()

    def _try_snapshot_restore(self, updates: list) -> Optional[int]:
        """Restore from the snapshot file when possible; returns the restored
        sequence number, or None to boot fresh (then replay in full)."""

        if not self.snapshot_path or not self.snapshot_path.exists():
            return None
        try:
            snapshot = open_snapshot(self.snapshot_path.read_bytes())
        except Exception:
            snapshot = None  # unreadable, or a body this code cannot unpickle
        if snapshot is None:
            # torn, corrupt, or older-format file: full replay still recovers
            return None
        stamped_config = dict(snapshot.get("config", {}))
        current_config = self.config.to_dict()
        for key in ServerConfig.RESTART_SAFE:
            stamped_config.pop(key, None)
            current_config.pop(key, None)
        if stamped_config != current_config or snapshot["seq"] > len(updates):
            return None
        try:
            self._restore(snapshot["engine"])
        except NDlogError:
            return None  # captured under another program: full replay
        if self.engine.trace.fingerprint() != snapshot["fingerprint"]:
            self.engine.close()  # stamp mismatch: distrust it, full replay
            self.engine = None
            return None
        self._acks = OrderedDict(snapshot.get("acks", []))
        return snapshot["seq"]

    def _write_snapshot(self) -> None:
        start = time.perf_counter()
        with obs_tracing.span("serving.snapshot"):
            self._write_snapshot_inner()
        obs_metrics.observe("serving.snapshot_seconds", time.perf_counter() - start)

    def _write_snapshot_inner(self) -> None:
        snapshot = {
            "seq": self.seq,
            "fingerprint": self.engine.trace.fingerprint(),
            "config": self.config.to_dict(),
            "engine": self.engine.capture(),
            "acks": list(self._acks.items()),
        }
        payload = seal_snapshot(snapshot)
        if self.fault_injector is not None:
            fault = self.fault_injector.draw("tear_snapshot", SERVING_SCOPE)
            if fault is not None:
                # tear the write: leave a truncated file at the final path,
                # exactly what a crash between write and fsync can produce
                self.snapshot_path.write_bytes(payload[: max(1, len(payload) // 2)])
                return
        tmp_path = self.snapshot_path.with_suffix(".tmp")
        with tmp_path.open("wb") as handle:
            handle.write(payload)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_path, self.snapshot_path)

    # ------------------------------------------------------------------
    # The settle loop
    # ------------------------------------------------------------------
    def _settle(self) -> bool:
        """Drive the engine to its next fixpoint, leaving only maintenance
        timers queued.  Returns True when it fully settled within the event
        budget.  A settle is one engine segment, as a ``run()`` is, so the
        fingerprint stays a pure function of the update sequence; the trace
        is then compacted: the daemon keeps digests and counters, never more
        than one update's records (live, replayed and hypothetical updates,
        1 and N shards alike)."""

        engine = self.engine
        scheduler = engine.scheduler
        budget = self.config.settle_max_events
        start = time.perf_counter()
        engine.begin_segment()
        with obs_tracing.span("serving.settle"):
            while budget > 0:
                kinds = scheduler.pending_kinds()
                if not kinds or kinds <= MAINTENANCE_KINDS:
                    break
                head = scheduler.peek_time()
                processed = engine.advance(head, budget)
                budget -= max(processed, 1)
        obs_metrics.observe("serving.settle_seconds", time.perf_counter() - start)
        # updates may have inserted soft rows after the expiry scan lapsed
        engine.ensure_expiry_scan()
        engine.end_segment()
        engine.trace.compact()
        self.settled = scheduler.pending_kinds() <= MAINTENANCE_KINDS
        return self.settled

    def _pending_events(self) -> int:
        """The backlog an unsettled settle left: queued non-maintenance
        events, in units of the settle budget (0 when settled)."""

        return self.engine.scheduler.pending_units(exclude=MAINTENANCE_KINDS)

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------
    def apply_update(
        self, verb: str, args: dict, *, request_key: Optional[str] = None
    ) -> dict:
        """Validate, ledger (write-ahead), apply, and settle one update.

        A repeated ``request_key`` is a client retry after a lost ack: the
        update is **not** applied again, the remembered original ack comes
        back (marked ``deduplicated``) — the exactly-once contract of
        ``docs/FAULTS.md``.
        """

        obs_metrics.inc("serving.updates")
        start = time.perf_counter()
        with obs_tracing.span("serving.update", verb=verb):
            ack = self._apply_update(verb, args, request_key=request_key)
        obs_metrics.observe("serving.update_seconds", time.perf_counter() - start)
        return ack

    def _apply_update(
        self, verb: str, args: dict, *, request_key: Optional[str] = None
    ) -> dict:
        if request_key is not None and request_key in self._acks:
            self._acks.move_to_end(request_key)
            ack = dict(self._acks[request_key])
            ack["deduplicated"] = True
            return ack
        args = canonical(args)
        self._validate_update(verb, args)
        if self.ledger_path:
            record = {"seq": self.seq + 1, "verb": verb, "args": args}
            if request_key is not None:
                record["key"] = request_key
            wal_start = time.perf_counter()
            append_jsonl(self.ledger_path, record)
            obs_metrics.observe("serving.wal_append_seconds", time.perf_counter() - wal_start)
        ack = self._apply(verb, args)
        if request_key is not None:
            self._remember_ack(request_key, ack)
        if (
            self.state_dir
            and self.config.snapshot_every
            and self.seq % self.config.snapshot_every == 0
        ):
            self._write_snapshot()
        return ack

    def _remember_ack(self, request_key: str, ack: dict) -> None:
        self._acks[request_key] = dict(ack)
        self._acks.move_to_end(request_key)
        while len(self._acks) > max(1, self.config.dedup_cache):
            self._acks.popitem(last=False)

    def _node(self, args: dict, key: str):
        """A node id from JSON args — tuple node ids (the grid family's
        ``(row, col)``) arrive as lists and are converted back."""

        return as_tuple(args.get(key))

    def _validate_update(self, verb: str, args: dict) -> None:
        if verb in ("link_fail", "link_restore", "cost_change"):
            for key in ("src", "dst"):
                if self._node(args, key) not in self.engine.nodes:
                    raise ProtocolError(f"unknown node {args.get(key)!r} for {key!r}")
            if verb == "cost_change" and not isinstance(args.get("cost"), (int, float)):
                raise ProtocolError("cost_change needs a numeric 'cost'")
        elif verb in ("set_fact", "del_fact"):
            values = args.get("values")
            if not isinstance(args.get("predicate"), str) or not isinstance(values, list):
                raise ProtocolError(f"{verb} needs 'predicate' (string) and 'values' (list)")
            if not values:
                raise ProtocolError(f"{verb}: values[0] must be the located node, got []")
            # refused before the ledger sees it: a derived predicate or an
            # unknown node
            try:
                self.engine.program.check_base_fact(
                    args["predicate"], as_tuple(values)[0], self.engine.nodes
                )
            except NDlogError as exc:
                raise ProtocolError(f"{verb}: {exc}") from None

    def _apply(self, verb: str, args: dict) -> dict:
        """Schedule one (already canonicalized) update and settle.  Ledger
        replay runs through this identical code path, which is what makes
        recovery byte-identical."""

        engine = self.engine
        at = engine.scheduler.now + self.config.sim_step
        src, dst = self._node(args, "src"), self._node(args, "dst")
        if verb == "link_fail":
            engine.schedule_link_failure(src, dst, at)
        elif verb == "link_restore":
            engine.schedule_link_restore(src, dst, at)
        elif verb == "cost_change":
            engine.schedule_cost_change(src, dst, args["cost"], at)
        elif verb == "set_fact":
            engine.schedule_fact(args["predicate"], as_tuple(args["values"]), at)
        elif verb == "del_fact":
            engine.schedule_fact_delete(args["predicate"], as_tuple(args["values"]), at)
        elif verb == "refresh":
            engine.schedule_refresh(at)
        else:
            raise ProtocolError(f"unknown update verb {verb!r}")
        self.seq += 1
        settled = self._settle()
        return {
            "seq": self.seq,
            "verb": verb,
            "applied_at": at,
            "settled": settled,
            "pending_events": self._pending_events(),
            "sim_time": engine.scheduler.now,
            "events": engine.trace.events_processed,
        }

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def query(self, verb: str, args: dict) -> dict:
        obs_metrics.inc("serving.queries")
        start = time.perf_counter()
        try:
            return self._query(verb, args)
        finally:
            obs_metrics.observe("serving.query_seconds", time.perf_counter() - start)

    def _query(self, verb: str, args: dict) -> dict:
        if verb == "ping":
            return {"pong": True, "seq": self.seq, "settled": self.settled}
        if verb == "best_path":
            return self._best_path(args)
        if verb == "routes":
            return self._routes(args)
        if verb == "table":
            return self._table(args)
        if verb == "status":
            return self._status()
        if verb == "fingerprint":
            return self._fingerprint()
        if verb == "what_if":
            return self._what_if(args)
        if verb == "explain":
            return self._explain(args)
        if verb == "why_not":
            return self._why_not(args)
        if verb == "metrics":
            return self._metrics()
        raise ProtocolError(f"unknown query verb {verb!r}")

    def _best_row(self, src, dst) -> Optional[tuple]:
        target = (src, dst)
        for row in self.engine.rows(self.schema.best_predicate, node_id=src):
            if tuple(row[p] for p in self.schema.group_positions) == target:
                return row
        return None

    def _best_path(self, args: dict) -> dict:
        src, dst = self._node(args, "src"), self._node(args, "dst")
        if src not in self.engine.nodes or dst not in self.engine.nodes:
            raise ProtocolError(f"unknown node in best_path({src!r}, {dst!r})")
        row = self._best_row(src, dst)
        if row is None:
            return {"found": False, "src": src, "dst": dst, "seq": self.seq}
        return {
            "found": True,
            "src": src,
            "dst": dst,
            "path": list(row[self.schema.best_vector_position]),
            "metric": row[self.schema.best_value_position],
            "seq": self.seq,
        }

    def _routes(self, args: dict) -> dict:
        node = self._node(args, "node")
        if node is not None and node not in self.engine.nodes:
            raise ProtocolError(f"unknown node {node!r}")
        schema = self.schema
        routes = [
            {
                "src": row[schema.group_positions[0]],
                "dst": row[schema.group_positions[1]],
                "path": list(row[schema.best_vector_position]),
                "metric": row[schema.best_value_position],
            }
            for row in self.engine.rows(schema.best_predicate, node_id=node)
        ]
        routes.sort(key=lambda r: (str(r["src"]), str(r["dst"])))
        return {"routes": routes, "count": len(routes), "seq": self.seq}

    def _table(self, args: dict) -> dict:
        predicate = args.get("predicate")
        if not isinstance(predicate, str):
            raise ProtocolError("table needs a 'predicate' string")
        node = self._node(args, "node")
        if node is not None and node not in self.engine.nodes:
            raise ProtocolError(f"unknown node {node!r}")
        rows = sorted(
            [list(row) for row in self.engine.rows(predicate, node_id=node)],
            key=str,
        )
        return {"predicate": predicate, "rows": rows, "count": len(rows), "seq": self.seq}

    def _status(self) -> dict:
        engine = self.engine
        self.engine.finalize_monitors()
        trace = engine.trace
        return {
            "seq": self.seq,
            "settled": self.settled,
            "pending_events": self._pending_events(),
            "recovered_from": self.recovered_from,
            "program_digest": engine.program_digest,
            "sim_time": engine.scheduler.now,
            "events": trace.events_processed,
            "quiescent": trace.quiescent,
            "state_changes": trace.state_change_count,
            "messages": trace.message_count,
            "dropped_messages": engine.channel.dropped,
            "nodes": len(engine.nodes),
            "links_up": sum(1 for link in engine.topology.links() if link.up),
            "routes": len(engine.rows(self.schema.best_predicate)),
            "shards": self.config.shards,
            "monitors": [monitor.report() for monitor in engine.monitors],
            "monitors_ok": all(monitor.ok for monitor in engine.monitors),
            "spans_dropped": obs_tracing.tracer().dropped,
        }

    def _fingerprint(self) -> dict:
        trace = self.engine.trace
        return {
            "seq": self.seq,
            "fingerprint": trace.fingerprint(),
            "state_changes": trace.state_change_count,
            "messages": trace.message_count,
            "events": trace.events_processed,
        }

    def _provenance_target(self, args: dict, *, wildcard: bool) -> tuple[str, list]:
        """Resolve explain/why_not args to ``(predicate, values)``.

        Either explicit ``predicate`` + ``values`` (``null`` entries are
        wildcards for ``why_not``), or the ``src``/``dst`` route
        convenience form targeting the schema's best-route predicate.
        """

        predicate = args.get("predicate")
        values = args.get("values")
        if predicate is None and "src" in args:
            src, dst = self._node(args, "src"), self._node(args, "dst")
            if src not in self.engine.nodes or dst not in self.engine.nodes:
                raise ProtocolError(f"unknown node in provenance query ({src!r}, {dst!r})")
            predicate = self.schema.best_predicate
            if wildcard:
                arity = next(
                    rule.head.arity
                    for rule in self.engine.program.rules
                    if rule.head.predicate == predicate
                )
                values = [None] * arity
                values[self.schema.group_positions[0]] = src
                values[self.schema.group_positions[1]] = dst
            else:
                row = self._best_row(src, dst)
                values = list(row) if row is not None else None
                if values is None:
                    raise ProtocolError(
                        f"no {predicate} row for ({src!r}, {dst!r}); use why_not"
                    )
        if not isinstance(predicate, str) or not isinstance(values, list):
            raise ProtocolError(
                "provenance queries need 'predicate' (string) + 'values' (list), "
                "or 'src' + 'dst'"
            )
        return predicate, list(as_tuple(values))

    def _explain(self, args: dict) -> dict:
        predicate, values = self._provenance_target(args, wildcard=False)
        dag = self.engine.explain(predicate, values)
        return {"found": dag["kind"] != "absent", "explanation": dag, "seq": self.seq}

    def _why_not(self, args: dict) -> dict:
        predicate, values = self._provenance_target(args, wildcard=True)
        report = self.engine.why_not(predicate, values)
        report["seq"] = self.seq
        return report

    def _metrics(self) -> dict:
        # every settle's segment end has reported the engine's totals and
        # merged the shard workers' metrics
        return {
            "seq": self.seq,
            "enabled": obs_metrics.ENABLED,
            "metrics": obs_metrics.registry().snapshot(),
        }

    def _what_if(self, args: dict) -> dict:
        """Answer a query against a single-process fork of the live state
        that has applied only the hypothetical updates; the live engine is
        read (captured), never changed."""

        updates = args.get("updates", [])
        question = args.get("query")
        if not isinstance(updates, list) or not isinstance(question, dict):
            raise ProtocolError("what_if needs 'updates' (list) and 'query' (object)")
        fork_config = replace(
            self.config,
            state_dir=None,
            shards=1,
            snapshot_every=0,
            fault_plan=None,
            trace_out=None,
        )
        # pickled, so the fork shares no container with the live engine
        capture = pickle.loads(pickle.dumps(self.engine.capture(), pickle.HIGHEST_PROTOCOL))
        # the fork's updates, settles and queries are hypothetical: they are
        # counted in a throwaway registry, not in the daemon's ``metrics``
        with obs_metrics.scratch_registry():
            fork = RouteService(fork_config, origin=(self.seq, capture))
            try:
                for update in updates:
                    verb = update.get("verb")
                    if verb not in UPDATE_VERBS:
                        raise ProtocolError(f"what_if update verb {verb!r} unknown")
                    fork.apply_update(verb, update.get("args", {}))
                q_verb = question.get("verb")
                if q_verb in (None, "what_if"):
                    raise ProtocolError("what_if query must be a non-nested query verb")
                answer = fork.query(q_verb, question.get("args", {}))
            finally:
                fork.close()
        return {"base_seq": self.seq, "hypothetical": len(updates), "answer": answer}

    # ------------------------------------------------------------------
    def close(self) -> None:
        if self.engine is not None:
            self.engine.close()
            self.engine = None
        if self.config.trace_out:
            obs_tracing.write_chrome_trace(
                self.config.trace_out, [("serving", obs_tracing.tracer().export())]
            )
