"""Process-parallel, resumable campaign execution.

:func:`execute_run` is the self-contained worker: it materializes one
:class:`~repro.harness.spec.RunDescriptor` through :mod:`repro.scenarios`,
executes it on :class:`~repro.dn.engine.DistributedEngine` with the
requested runtime invariant monitors attached, and returns a
:class:`~repro.harness.records.RunRecord` as plain data.  Because the
descriptor carries every seed, a run's result is a pure function of its
descriptor — the same whether it executes inline, in a worker process, or
in a resumed campaign.

:func:`run_campaign` drives a descriptor list through a
``ProcessPoolExecutor`` (chunked, results streamed back in descriptor
order), appending each completed record to the campaign's ledger as it
lands.  A killed campaign therefore restarts exactly where it stopped:
resume re-reads the ledger, skips completed runs, and executes the rest.
"""

from __future__ import annotations

import functools
import json
import os
import time
import traceback
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

from ..dn.collector import freeze_inherited_heap
from ..dn.engine import DistributedEngine, EngineConfig, create_engine
from ..dn.monitors import MonitorSchema, build_monitor, clean_report, schema_for_program
from ..ndlog.ast import MaterializeDecl, Program
from ..ndlog.parser import parse_program
from ..obs import metrics as obs_metrics
from ..obs import tracing as obs_tracing
from ..protocols.pathvector import PATH_VECTOR_SOURCE
from ..protocols.policy import policy_path_vector_source
from ..scenarios.generator import Scenario, generate_scenario
from .records import (
    LEDGER_NAME,
    METRICS_NAME,
    RESULTS_NAME,
    SPEC_NAME,
    SUMMARY_NAME,
    RunRecord,
    append_ledger,
    read_ledger,
    summarize,
    write_results,
)
from .spec import CampaignSpec, RunDescriptor


@functools.lru_cache(maxsize=8)
def _parsed(source: str, name: str) -> Program:
    """One lex + parse per source text per process (a pool worker runs its
    whole chunk, and every stale-route reference engine, off two texts).
    The cached program is never handed out: see :func:`build_program`."""

    return parse_program(source, name)


def build_program(descriptor: RunDescriptor) -> Program:
    """The run's NDlog program: plain path-vector, or the generated policy
    path-vector when the descriptor carries a policy kind, with the
    descriptor's soft-state lifetime overrides applied.

    Parsed once per process; each call returns a fresh :class:`Program`
    with its own ``rules`` / ``facts`` lists and ``materialized`` dict over
    the shared (immutable) rules, facts and declarations, so one run's
    overrides never reach another's.
    """

    if descriptor.policy is None:
        parsed = _parsed(PATH_VECTOR_SOURCE, "pathvector")
    else:
        parsed = _parsed(policy_path_vector_source(), "policy_pathvector")
    program = Program(
        parsed.name, list(parsed.rules), list(parsed.facts), dict(parsed.materialized)
    )
    for predicate, lifetime in descriptor.soft_state:
        decl = program.materialized.get(predicate)
        if decl is None:
            raise ValueError(
                f"soft_state override for {predicate!r}: no such materialized "
                f"table in program {program.name!r}"
            )
        program.materialized[predicate] = MaterializeDecl(
            predicate, lifetime, decl.max_size, decl.keys
        )
    return program


def _materialize(descriptor: RunDescriptor) -> Scenario:
    return generate_scenario(
        descriptor.family,
        size=descriptor.size,
        seed=descriptor.seed,
        policy=descriptor.policy,
        churn_events=descriptor.churn_events,
        churn_start=descriptor.churn_start,
        churn_spacing=descriptor.churn_spacing,
        churn_restore_delay=descriptor.churn_restore_delay,
        loss=descriptor.loss,
    )


def _route_projection(engine: DistributedEngine, schema: MonitorSchema) -> set[tuple]:
    """(source, destination, value) of every selected best route — path
    choice dropped so equal-cost ties don't read as staleness."""

    return {
        tuple(row[p] for p in schema.group_positions) + (row[schema.best_value_position],)
        for row in engine.rows(schema.best_predicate)
    }


def _stale_routes(
    engine: DistributedEngine,
    descriptor: RunDescriptor,
    scenario: Scenario,
    schema: MonitorSchema,
) -> tuple[int, int]:
    """Selected routes diverging from a fresh reliable run on the final
    topology: (stale = held but wrong, missing = absent but derivable)."""

    for link in scenario.topology.links():
        link.loss = 0.0  # the reference fixpoint is loss-free
    fresh = DistributedEngine(
        build_program(descriptor),
        scenario.topology,
        config=EngineConfig(seed=descriptor.seed, max_events=descriptor.max_events),
    )
    fresh.run(until=descriptor.until, extra_facts=scenario.policy_fact_list())
    have = _route_projection(engine, schema)
    want = _route_projection(fresh, schema)
    return len(have - want), len(want - have)


#: Fault-injection hook: a worker executing the named run dies without
#: cleanup, exactly like an OOM kill — the crash-containment tests and the
#: chaos smoke script set this to provoke ``BrokenProcessPool``.
CRASH_RUN_ENV = "FVN_FAULT_CRASH_RUN_ID"


def execute_run(
    descriptor_data: dict, static_proofs: bool = False, obs: bool = False
) -> dict:
    """Execute one run from its plain-data descriptor (worker entry point).

    With ``obs`` the run executes under the :mod:`repro.obs` metrics
    registry and tracer and attaches their exports to the record's
    ledger-only ``obs`` field; every deterministic field — and the trace
    fingerprint — is byte-identical either way (``docs/OBSERVABILITY.md``).

    With ``static_proofs`` the monitor properties are discharged ahead of
    execution (:mod:`repro.fvn.discharge`, cached per program ×
    policy, so a pool worker proves once for its whole chunk): proven
    monitor kinds are not attached at all — they are recorded with the
    clean report a violation-free dynamic check would produce, and the
    proof scripts land in the record's ledger-only ``static_proofs`` field.

    Proofs are discharged over fixpoint semantics, so skipping only applies
    to **monotone** runs (no churn, no loss): there every intermediate state
    is a prefix of the proved fixpoint.  Runs with deletions keep all their
    runtime monitors — reconvergence windows can transiently violate an
    invariant that provably holds at every settled state, and those
    transient flags must not be lost.  Either way the record is
    byte-identical to a fully runtime-monitored run of the same descriptor.
    """

    descriptor = RunDescriptor.from_dict(descriptor_data)
    if os.environ.get(CRASH_RUN_ENV) == descriptor.run_id:
        os._exit(17)
    if obs:
        # pool workers are reused across runs: start from a clean slate so
        # each record's obs block covers exactly its own run
        obs_metrics.enable()
        obs_metrics.registry().reset()
        obs_tracing.enable()
        obs_tracing.tracer().reset()
    else:
        obs_metrics.disable()
        obs_tracing.disable()
    started = time.perf_counter()
    scenario = _materialize(descriptor)
    program = build_program(descriptor)
    schema = schema_for_program(program)
    proven: set[str] = set()
    provenance: Optional[dict] = None
    if static_proofs:
        from ..fvn.discharge import discharge_program

        discharge = discharge_program(program, policy=descriptor.policy)
        monotone = descriptor.churn_events == 0 and descriptor.loss == 0.0
        if monotone:
            proven = set(discharge.proven_monitors) & set(descriptor.monitors)
        provenance = discharge.to_dict()
        provenance["skipped_monitors"] = sorted(proven)
    # honors ``engine = [{shards = N}]`` / ``shards = [...]`` overrides:
    # shards > 1 builds the process-sharded coordinator, whose results are
    # byte-identical to the single-process engine for the same descriptor
    engine = create_engine(
        program, scenario.topology, config=descriptor.engine_config()
    )
    monitors = {
        kind: build_monitor(kind, schema)
        for kind in descriptor.monitors
        if kind not in proven
    }
    for monitor in monitors.values():
        engine.attach_monitor(monitor)
    if scenario.churn is not None:
        scenario.churn.apply_to_engine(engine)
    try:
        trace = engine.run(
            until=descriptor.until, extra_facts=scenario.policy_fact_list()
        )
        # before close: a sharded engine's workers hold soft-state deadlines
        engine.finalize_monitors()
    finally:
        engine.close()  # a no-op single-process; frees shard workers
    trace.seeds["scenario"] = descriptor.seed
    stale = missing = None
    if descriptor.record_stale_routes:
        stale, missing = _stale_routes(engine, descriptor, scenario, schema)
    # reports interleave in descriptor.monitors order: a proven kind gets
    # the clean report a violation-free dynamic check would have produced
    reports = [
        clean_report(kind) if kind in proven else monitors[kind].report()
        for kind in descriptor.monitors
    ]
    obs_block: Optional[dict] = None
    if obs:
        wall = time.perf_counter() - started
        obs_metrics.inc("harness.runs")
        obs_metrics.observe("harness.run_seconds", wall)
        obs_tracing.tracer().record(
            "harness.run", started, wall, {"run_id": descriptor.run_id}
        )
        obs_block = {
            "metrics": obs_metrics.registry().export(),
            "trace": obs_tracing.tracer().export(),
        }
    record = RunRecord(
        run_id=descriptor.run_id,
        index=descriptor.index,
        params=descriptor.to_dict(),
        seeds=dict(trace.seeds),
        quiescent=trace.quiescent,
        finished_at=trace.finished_at,
        convergence_time=trace.last_change_time(),
        events=trace.events_processed,
        messages=trace.message_count,
        delivered_messages=trace.delivered_message_count,
        dropped_messages=engine.channel.dropped,
        retraction_messages=trace.retraction_message_count,
        retractions=trace.retraction_count,
        state_changes=trace.state_change_count,
        route_count=len(engine.rows(schema.best_predicate)),
        stale_routes=stale,
        missing_routes=missing,
        monitors=reports,
        monitors_ok=all(monitor.ok for monitor in monitors.values()),
        static_proofs=provenance,
        obs=obs_block,
        wall_time=round(time.perf_counter() - started, 6),
    )
    return record.to_dict()


@dataclass
class CampaignResult:
    """The outcome of one :func:`run_campaign` invocation."""

    spec: CampaignSpec
    records: list[RunRecord]
    executed: int
    resumed: int
    wall_time: float
    out_dir: Path
    summary: dict

    @property
    def run_count(self) -> int:
        return len(self.records)

    @property
    def runs_per_second(self) -> float:
        return self.executed / self.wall_time if self.wall_time > 0 else 0.0


ProgressCallback = Callable[[RunRecord, int, int], None]

#: pool breaks tolerated before the remaining runs execute one per pool,
#: where a worker death is unambiguously attributable to the run it killed
POOL_BREAK_LIMIT = 2


def _run_pool(
    todo: list[RunDescriptor],
    workers: int,
    finish: Callable[[dict], None],
    crashed: Callable[[RunDescriptor, str], dict],
    static_proofs: bool = False,
    obs: bool = False,
) -> None:
    """Drive ``todo`` through process pools, containing worker deaths.

    An exception *raised* by a run is deterministic — it is recorded as a
    crashed record immediately.  A worker process *dying* (``os._exit``,
    SIGKILL, OOM) breaks the whole ``ProcessPoolExecutor``, which cannot
    say *whose* worker died: every unfinished run is resubmitted to a
    fresh pool.  After :data:`POOL_BREAK_LIMIT` breaks the remaining runs
    are executed one per pool, where a break is unambiguously the
    submitted run's own death and is contained as a crashed record — so a
    run that reliably kills its worker costs a bounded number of respawns
    and never takes its cohort (or the campaign) down with it.
    """

    remaining = list(todo)
    breaks = 0
    while remaining:
        isolate = breaks >= POOL_BREAK_LIMIT
        batch = remaining[:1] if isolate else remaining
        deferred = remaining[1:] if isolate else []
        requeue: list[RunDescriptor] = []
        # a forked worker never frees the heap it inherited: freeze it
        with ProcessPoolExecutor(
            max_workers=workers, initializer=freeze_inherited_heap
        ) as pool:
            futures = [
                (
                    descriptor,
                    pool.submit(
                        execute_run, descriptor.to_dict(), static_proofs, obs
                    )
                    if static_proofs or obs
                    else pool.submit(execute_run, descriptor.to_dict()),
                )
                for descriptor in batch
            ]
            for position, (descriptor, future) in enumerate(futures):
                try:
                    finish(future.result())
                except BrokenProcessPool as exc:
                    breaks += 1
                    if isolate:
                        finish(
                            crashed(
                                descriptor,
                                f"worker process died ({type(exc).__name__}: {exc})",
                            )
                        )
                    else:
                        requeue.append(descriptor)
                    # the pool is gone: salvage finished futures, requeue
                    # the rest, and respawn
                    for later, after in futures[position + 1:]:
                        if after.done() and after.exception() is None:
                            finish(after.result())
                        elif after.done() and not isinstance(
                            after.exception(), BrokenProcessPool
                        ):
                            finish(crashed(later, f"run raised: {after.exception()}"))
                        else:
                            after.cancel()
                            requeue.append(later)
                    break
                except Exception:
                    finish(crashed(descriptor, traceback.format_exc()))
        remaining = requeue + deferred


def _write_obs_artifacts(
    out_dir: Path,
    records: list[RunRecord],
    campaign_tracer: obs_tracing.Tracer,
    trace_out: Optional[str | Path],
) -> None:
    """Merge per-run obs blocks into campaign-level artifacts.

    ``metrics.json`` holds the merged metric snapshot (runs resumed from a
    pre-obs ledger carry no block and contribute nothing — the snapshot
    says how many runs it covers).  ``trace_out`` gets one Chrome
    trace-event document with a process row per covered run plus the
    campaign stages; per-process timestamps are relative to each worker's
    own tracer epoch, so rows align within a run, not across runs.
    """

    merged = obs_metrics.MetricsRegistry()
    processes: list[tuple[str, dict]] = [("campaign", campaign_tracer.export())]
    covered = 0
    for record in records:
        if not record.obs:
            continue
        covered += 1
        merged.merge(record.obs.get("metrics") or {})
        processes.append((record.run_id, record.obs.get("trace") or {}))
    payload = {
        "runs_covered": covered,
        "runs_total": len(records),
        "metrics": merged.snapshot(),
    }
    (out_dir / METRICS_NAME).write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n"
    )
    if trace_out is not None:
        obs_tracing.write_chrome_trace(trace_out, processes)


def run_campaign(
    spec: CampaignSpec,
    out_dir: str | Path,
    *,
    workers: int = 1,
    resume: bool = True,
    progress: Optional[ProgressCallback] = None,
    trace_out: Optional[str | Path] = None,
) -> CampaignResult:
    """Execute a campaign spec, streaming records to ``out_dir``.

    ``workers > 1`` fans runs out over a process pool (per-run futures,
    records written back in submission order).  A run whose worker *dies*
    (OOM kill, segfault, injected crash) does not abort the campaign: the
    pool is respawned, the victim is retried once, and a persistent death
    is contained as a ``status="crashed"`` :class:`RunRecord` carrying the
    cause.  With ``resume`` (the default) runs already completed in the
    ledger are skipped — crashed records are kept for the audit trail but
    re-executed — so re-invoking a killed campaign continues where it
    stopped; ``resume=False`` discards previous artifacts and starts fresh.

    ``spec.obs`` — or a ``trace_out`` path, which implies it — runs every
    run under the :mod:`repro.obs` registry/tracer, stores the per-run obs
    blocks in the ledger, writes a merged ``metrics.json`` next to the
    summary, and (when ``trace_out`` is set) one Chrome trace-event JSON
    with a process row per run plus the campaign stages.  ``results.jsonl``
    stays byte-identical to a plain campaign either way.
    """

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    ledger_path = out_dir / LEDGER_NAME
    if not resume:
        for name in (LEDGER_NAME, RESULTS_NAME, SUMMARY_NAME):
            (out_dir / name).unlink(missing_ok=True)
    (out_dir / SPEC_NAME).write_text(
        json.dumps(spec.to_dict(), indent=2, sort_keys=True) + "\n"
    )
    descriptors = spec.expand()
    # resume only runs whose *full* descriptor matches: the run_id encodes
    # the grid coordinates, but spec edits to shared fields (budgets,
    # soft-state lifetimes, engine override contents, monitor list…) keep
    # the same ids — those ledger entries are stale and must re-execute
    expected = {
        descriptor.run_id: json.loads(json.dumps(descriptor.to_dict()))
        for descriptor in descriptors
    }
    done = {
        run_id: record
        for run_id, record in read_ledger(ledger_path).items()
        if expected.get(run_id) == record.params and record.status == "ok"
    }
    todo = [d for d in descriptors if d.run_id not in done]
    resumed = len(descriptors) - len(todo)
    obs_enabled = spec.obs or trace_out is not None
    # the campaign stages get their own tracer instance: per-run execution
    # resets the process-global one (inline runs share this process)
    campaign_tracer = obs_tracing.Tracer() if obs_enabled else None
    started = time.perf_counter()
    completed = resumed

    def finish(record_data: dict) -> None:
        nonlocal completed
        record = RunRecord.from_dict(record_data)
        append_ledger(ledger_path, record)
        done[record.run_id] = record
        completed += 1
        if progress is not None:
            progress(record, completed, len(descriptors))

    def crashed(descriptor: RunDescriptor, error: str) -> dict:
        return RunRecord.crashed(
            descriptor.run_id,
            descriptor.index,
            json.loads(json.dumps(descriptor.to_dict())),
            error,
        ).to_dict()

    if todo:
        if workers <= 1:
            for descriptor in todo:
                try:
                    # legacy call shape when proofs and obs are off (tests
                    # and tooling wrap execute_run with a one-argument stub)
                    if spec.static_proofs or obs_enabled:
                        finish(
                            execute_run(
                                descriptor.to_dict(), spec.static_proofs, obs_enabled
                            )
                        )
                    else:
                        finish(execute_run(descriptor.to_dict()))
                except Exception:
                    finish(crashed(descriptor, traceback.format_exc()))
        else:
            _run_pool(todo, workers, finish, crashed, spec.static_proofs, obs_enabled)

    records = [done[descriptor.run_id] for descriptor in descriptors]
    wall_time = time.perf_counter() - started
    if campaign_tracer is not None:
        campaign_tracer.record(
            "campaign.execute",
            started,
            wall_time,
            {"runs": len(todo), "resumed": resumed, "workers": workers},
        )
    write_started = time.perf_counter()
    write_results(out_dir / RESULTS_NAME, records)
    if campaign_tracer is not None:
        campaign_tracer.record(
            "campaign.write_results",
            write_started,
            time.perf_counter() - write_started,
            {"records": len(records)},
        )
        _write_obs_artifacts(out_dir, records, campaign_tracer, trace_out)
    summary = {
        "campaign": spec.name,
        "workers": workers,
        "executed": len(todo),
        "resumed": resumed,
        "wall_time": round(wall_time, 3),
        **summarize(records),
    }
    (out_dir / SUMMARY_NAME).write_text(
        json.dumps(summary, indent=2, sort_keys=True) + "\n"
    )
    return CampaignResult(
        spec=spec,
        records=records,
        executed=len(todo),
        resumed=resumed,
        wall_time=wall_time,
        out_dir=out_dir,
        summary=summary,
    )
