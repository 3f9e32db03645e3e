"""Process-parallel, resumable campaign execution.

:func:`execute_run` is the self-contained worker: it materializes one
:class:`~repro.harness.spec.RunDescriptor` through :mod:`repro.scenarios`,
executes it on :class:`~repro.dn.engine.DistributedEngine` with the
requested runtime invariant monitors attached, and returns a
:class:`~repro.harness.records.RunRecord` as plain data.  Because the
descriptor carries every seed, a run's result is a pure function of its
descriptor — the same whether it executes inline, in a worker process, or
in a resumed campaign.

The unit of campaign work is a **cell** (:func:`cells`): runs that differ
only in their churn count converge the same network, so a no-churn run and
a churned sibling execute as one :func:`execute_cell` on one engine, which
records the no-churn run where the churned one's first churn event would
land and runs the churned one on from there.  Every record stays
byte-identical to its own :func:`execute_run`.

:func:`run_campaign` submits cells to a ``ProcessPoolExecutor`` (one future
per cell) or runs them inline, appending each record to the campaign's
ledger as its cell lands; ``results.jsonl`` is written in descriptor order
at the end.  A killed campaign therefore restarts exactly where it stopped:
resume re-reads the ledger, skips completed runs, and executes the rest.
"""

from __future__ import annotations

import contextlib
import copy
import dataclasses
import functools
import json
import os
import time
import traceback
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator, Optional

from ..dn.collector import freeze_inherited_heap
from ..dn.engine import DistributedEngine, EngineConfig, create_engine
from ..dn.monitors import MonitorSchema, build_monitor, clean_report, schema_for_program
from ..dn.network import Topology
from ..ndlog.ast import MaterializeDecl, Program
from ..ndlog.codegen import program_digest
from ..ndlog.localization import localize_program
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
    """One lex + parse per source text per process (a pool worker runs all
    its cells, and every stale-route reference engine, off two texts).
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


def _program_key(descriptor: RunDescriptor) -> tuple:
    """What :func:`build_program` reads of a descriptor: runs with equal
    keys run equal programs."""

    return (descriptor.policy is None, descriptor.soft_state)


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
    """Selected routes diverging from a fresh reliable run on the engine's
    topology as it stands: (stale = held but wrong, missing = absent but
    derivable).  The reference runs on a loss-free copy of the topology,
    so the engine can run on after."""

    state = engine.topology.export_state()
    state["links"] = [
        (src, dst, cost, delay, 0.0, up)  # the reference fixpoint is loss-free
        for src, dst, cost, delay, _, up in state["links"]
    ]
    fresh = DistributedEngine(
        build_program(descriptor),
        Topology.from_state(state),
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


def _crashed(descriptor: RunDescriptor, error: str) -> dict:
    """The containment record of a run that raised or whose worker died."""

    return RunRecord.crashed(
        descriptor.run_id,
        descriptor.index,
        json.loads(json.dumps(descriptor.to_dict())),
        error,
    ).to_dict()


def cells(descriptors: list[RunDescriptor]) -> list[list[RunDescriptor]]:
    """Group runs into the units of campaign work.

    A **cell** is the runs whose descriptors are equal except for
    ``run_id``, ``index`` and ``churn_events``: they converge the same
    network, and differ only from the first churn event on.  A cell's
    no-churn run and its first churned run go together (see
    :func:`execute_cell`); every other run is a cell of its own.  Cells
    come in the order of their first runs.
    """

    groups: dict[RunDescriptor, list[RunDescriptor]] = {}
    for descriptor in descriptors:
        key = dataclasses.replace(descriptor, index=0, run_id="", churn_events=0)
        groups.setdefault(key, []).append(descriptor)
    out: list[list[RunDescriptor]] = []
    for members in groups.values():
        calm = next((d for d in members if not d.churn_events), None)
        churned = next((d for d in members if d.churn_events), None)
        pair = [calm, churned] if calm is not None and churned is not None else []
        if pair:
            out.append(pair)
        out.extend([d] for d in members if d not in pair)
    return out


class _Execution:
    """One engine, with its monitors, built for the runs of a cell.

    The scenario is the last run's (a churned run's, when the cell pairs
    two): the churn schedule is the one thing in it that the churn count
    changes, and it is applied only for a run that has churn.  Monitors a
    static proof lets every run of the cell skip are not attached; each
    record reports the kinds its own run proved as clean.
    """

    def __init__(self, cell: list[RunDescriptor], static_proofs: bool) -> None:
        last = cell[-1]
        self.scenario = _materialize(last)
        program = build_program(last)
        self.schema = schema_for_program(program)
        self.proofs = {d.run_id: _proofs(d, program, static_proofs) for d in cell}
        # honors ``engine = [{shards = N}]`` / ``shards = [...]`` overrides:
        # shards > 1 builds the process-sharded coordinator, whose results
        # are byte-identical to the single-process engine for the same
        # descriptor
        self.engine = create_engine(
            program, self.scenario.topology, config=last.engine_config()
        )
        self.monitors = {
            kind: build_monitor(kind, self.schema)
            for kind in last.monitors
            if any(kind not in proven for proven, _ in self.proofs.values())
        }
        for monitor in self.monitors.values():
            self.engine.attach_monitor(monitor)
        #: has :meth:`converge` run the no-churn prefix?
        self.converged = False

    def converge(self, horizon: float) -> bool:
        """Run the no-churn prefix up to ``horizon`` (the first churn event,
        or ``until`` when that is earlier): can the no-churn run be recorded
        here?  Only when its queue drained strictly before ``horizon`` — a
        churned run's events all come later, so up to here it made exactly
        these steps."""

        engine = self.engine
        engine.run(until=horizon, extra_facts=self.scenario.policy_fact_list())
        self.converged = True
        return engine.scheduler.is_empty and engine.scheduler.now < horizon

    def finish(self, descriptor: RunDescriptor, started: float, obs: bool) -> dict:
        """Run ``descriptor`` to its end on this engine — from the start,
        or on from a no-churn prefix within what is left of its event
        budget — and record it."""

        engine = self.engine
        try:
            if descriptor.churn_events:
                self.scenario.churn.apply_to_engine(engine)
            if self.converged:  # on from the prefix, in the same segment
                engine.continue_run(
                    until=descriptor.until,
                    max_events=descriptor.max_events - engine.scheduler.processed,
                )
            else:
                engine.run(until=descriptor.until, extra_facts=self.scenario.policy_fact_list())
            # before close: a sharded engine's workers hold soft-state deadlines
            engine.finalize_monitors()
        finally:
            engine.close()  # a no-op single-process; frees shard workers
        return self.record(descriptor, self.monitors, started, obs)

    def record_prefix(self, descriptor: RunDescriptor, started: float, obs: bool) -> dict:
        """Record the no-churn run at the end of a shared prefix, leaving
        the engine and its monitors as they are for the churned run.  Each
        monitor is finalized as a copy of its state (the ``__dict__``
        without ``_engine`` that a capture carries); its metrics and spans
        go to copies of the registry and tracer, and the live ones stay at
        the prefix."""

        with _obs_aside(obs):
            twins = {}
            for kind, monitor in self.monitors.items():
                twin = copy.copy(monitor)
                twin.__dict__.update(
                    copy.deepcopy(
                        {key: value for key, value in monitor.__dict__.items() if key != "_engine"}
                    )
                )
                twin.finalize(self.engine.scheduler.now)
                twins[kind] = twin
            return self.record(descriptor, twins, started, obs)

    def record(
        self, descriptor: RunDescriptor, monitors: dict, started: float, obs: bool
    ) -> dict:
        """The record of ``descriptor`` off the engine as it stands, with
        ``monitors`` finalized; ``wall_time`` runs from ``started``."""

        engine, schema = self.engine, self.schema
        proven, provenance = self.proofs[descriptor.run_id]
        trace = engine.trace
        trace.seeds["scenario"] = descriptor.seed
        stale = missing = None
        if descriptor.record_stale_routes:
            stale, missing = _stale_routes(engine, descriptor, self.scenario, schema)
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
            monitors_ok=all(
                monitors[kind].ok for kind in descriptor.monitors if kind not in proven
            ),
            static_proofs=provenance,
            obs=obs_block,
            program_digest=engine.program_digest,
            wall_time=round(time.perf_counter() - started, 6),
        )
        return record.to_dict()


def _proofs(
    descriptor: RunDescriptor, program: Program, static_proofs: bool
) -> tuple[set[str], Optional[dict]]:
    """The monitor kinds ``descriptor``'s run may skip, and the proof
    provenance its record carries (see :func:`execute_run`)."""

    if not static_proofs:
        return set(), None
    from ..fvn.discharge import discharge_program

    discharge = discharge_program(program, policy=descriptor.policy)
    proven: set[str] = set()
    if descriptor.churn_events == 0 and descriptor.loss == 0.0:  # monotone
        proven = set(discharge.proven_monitors) & set(descriptor.monitors)
    provenance = discharge.to_dict()
    provenance["skipped_monitors"] = sorted(proven)
    return proven, provenance


def _start_obs(obs: bool) -> None:
    if obs:
        # pool workers are reused across cells: start from a clean slate so
        # each record's obs block covers exactly what its run depends on
        obs_metrics.enable()
        obs_metrics.registry().reset()
        obs_tracing.enable()
        obs_tracing.tracer().reset()
    else:
        obs_metrics.disable()
        obs_tracing.disable()


@contextlib.contextmanager
def _obs_aside(obs: bool) -> Iterator[None]:
    """Record metrics and spans into copies of the live registry and
    tracer inside the block, and put the live ones back after: what only
    the no-churn run of a shared prefix does is not its churned sibling's."""

    if not obs:
        yield
        return
    tracer = obs_tracing.tracer()
    spans, dropped = len(tracer.spans), tracer.dropped
    live = obs_metrics.registry().export()
    try:
        with obs_metrics.scratch_registry():
            obs_metrics.registry().merge(live)
            yield
    finally:
        del tracer.spans[spans:]
        tracer.dropped = dropped


def _run_cell(cell: list[RunDescriptor], static_proofs: bool, obs: bool) -> list[dict]:
    """Execute a cell of one run, or of a no-churn run and a churned run
    (see :func:`execute_cell`); one record per run, in cell order."""

    for descriptor in cell:
        if os.environ.get(CRASH_RUN_ENV) == descriptor.run_id:
            os._exit(17)
    _start_obs(obs)
    started = time.perf_counter()
    execution = _Execution(cell, static_proofs)
    if len(cell) == 1:
        return [execution.finish(cell[0], started, obs)]
    calm, churned = cell
    horizon = min(
        min((event.at for event in execution.scenario.churn.events), default=float("inf")),
        calm.until,
    )
    try:
        shared = execution.converge(horizon)  # both runs' steps
    except BaseException:
        execution.engine.close()
        raise
    # from here on, what fails is one run's own step and crashes its record only
    if not shared:
        # the no-churn run goes on alone; the churned one starts afresh
        return [
            _or_crashed(calm, lambda: execution.finish(calm, started, obs)),
            _or_crashed(churned, lambda: _run_cell([churned], static_proofs, obs)[0]),
        ]
    aside = time.perf_counter()
    first = _or_crashed(calm, lambda: execution.record_prefix(calm, started, obs))
    aside = time.perf_counter() - aside
    # the churned run's wall covers the prefix, not the no-churn record
    return [first, _or_crashed(churned, lambda: execution.finish(churned, started + aside, obs))]


def _or_crashed(descriptor: RunDescriptor, step: Callable[[], dict]) -> dict:
    """``step()``'s record, or ``descriptor``'s crashed record if it raised."""

    try:
        return step()
    except Exception:
        return _crashed(descriptor, traceback.format_exc())


def execute_run(
    descriptor_data: dict, static_proofs: bool = False, obs: bool = False
) -> dict:
    """Execute one run from its plain-data descriptor: a cell of one run
    (:func:`execute_cell`).

    With ``obs`` the run executes under the :mod:`repro.obs` metrics
    registry and tracer and attaches their exports to the record's
    ledger-only ``obs`` field; every deterministic field — and the trace
    fingerprint — is byte-identical either way (``docs/OBSERVABILITY.md``).

    With ``static_proofs`` the monitor properties are discharged ahead of
    execution (:mod:`repro.fvn.discharge`, cached per program ×
    policy, so a pool worker proves once for all its cells): proven
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

    (record,) = _run_cell([RunDescriptor.from_dict(descriptor_data)], static_proofs, obs)
    return record


def execute_cell(
    cell_data: list[dict], static_proofs: bool = False, obs: bool = False
) -> list[dict]:
    """Execute one cell (:func:`cells`) from its plain-data descriptors:
    the worker entry point.  Returns one record per run, in cell order.

    A lone run is :func:`execute_run`.  A no-churn run and a churned run
    share one scenario, engine and set of monitors: the engine runs until
    the first churn event, and when its queue drained strictly before that
    (and before ``until``) the no-churn run is recorded from the live
    engine there — stale routes included — and the churned run goes on on
    the same engine with its churn scheduled, within what is left of its
    event budget.  Either record is byte-identical to its own
    :func:`execute_run`, and its ``wall_time`` covers the shared prefix.
    When the queue did not drain in time the no-churn run goes on alone and
    the churned run executes on its own.  An exception in the shared
    prefix (or in building the cell) raises, as both runs' failure; one
    after it is the run's whose step raised, recorded as
    ``status="crashed"`` beside its sibling's record.
    """

    if len(cell_data) == 1:
        return [execute_run(cell_data[0], static_proofs, obs)]
    return _run_cell(
        [RunDescriptor.from_dict(data) for data in cell_data], static_proofs, obs
    )
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


ProgressCallback = Callable[[RunRecord, int, int], None]

#: pool breaks tolerated before the remaining runs execute one per pool,
#: where a worker death is unambiguously attributable to the run it killed
POOL_BREAK_LIMIT = 2


def _run_pool(
    todo: list[list[RunDescriptor]],
    workers: int,
    finish: Callable[[dict], None],
    static_proofs: bool = False,
    obs: bool = False,
) -> None:
    """Drive the cells ``todo`` through process pools, containing worker
    deaths.

    An exception *raised* by a cell is deterministic — its runs are
    recorded as crashed immediately (one raised after a shared prefix is
    already the churned run's crashed record, see :func:`execute_cell`).  A
    worker process *dying* (``os._exit``, SIGKILL, OOM) breaks the whole
    ``ProcessPoolExecutor``, which cannot say *whose* worker died: every
    unfinished cell is resubmitted to a fresh pool.  After
    :data:`POOL_BREAK_LIMIT` breaks the remaining cells split into single
    runs, executed one per pool, where a break is unambiguously the
    submitted run's own death and is contained as a crashed record — so a
    run that reliably kills its worker costs a bounded number of respawns
    and never takes its cell, its cohort or the campaign down with it.
    """

    remaining = list(todo)
    breaks = 0
    while remaining:
        isolate = breaks >= POOL_BREAK_LIMIT
        if isolate:
            remaining = [[descriptor] for cell in remaining for descriptor in cell]
        batch = remaining[:1] if isolate else remaining
        deferred = remaining[1:] if isolate else []
        requeue: list[list[RunDescriptor]] = []
        # a forked worker never frees the heap it inherited: freeze it
        with ProcessPoolExecutor(
            max_workers=workers, initializer=freeze_inherited_heap
        ) as pool:
            futures = [
                (
                    cell,
                    pool.submit(
                        execute_cell, [d.to_dict() for d in cell], static_proofs, obs
                    ),
                )
                for cell in batch
            ]
            for position, (cell, future) in enumerate(futures):
                try:
                    for record in future.result():
                        finish(record)
                except BrokenProcessPool as exc:
                    breaks += 1
                    if isolate:
                        (descriptor,) = cell
                        finish(
                            _crashed(
                                descriptor,
                                f"worker process died ({type(exc).__name__}: {exc})",
                            )
                        )
                    else:
                        requeue.append(cell)
                    # the pool is gone: salvage finished futures, requeue
                    # the rest, and respawn
                    for later, after in futures[position + 1:]:
                        if after.done() and after.exception() is None:
                            for record in after.result():
                                finish(record)
                        elif after.done() and not isinstance(
                            after.exception(), BrokenProcessPool
                        ):
                            for descriptor in later:
                                finish(_crashed(descriptor, f"run raised: {after.exception()}"))
                        else:
                            after.cancel()
                            requeue.append(later)
                    break
                except Exception:
                    error = traceback.format_exc()
                    for descriptor in cell:
                        finish(_crashed(descriptor, error))
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

    The runs to execute are grouped into cells (:func:`cells`), executed
    inline or, with ``workers > 1``, over a process pool (one future per
    cell); each cell's records reach the ledger when the cell lands, and
    ``results.jsonl`` lists them in descriptor order.  A run whose worker
    *dies* (OOM kill, segfault, injected crash) does not abort the
    campaign: the pool is respawned and the unfinished cells retried,
    after :data:`POOL_BREAK_LIMIT` breaks one run per pool, and a
    persistent death is contained as a ``status="crashed"``
    :class:`RunRecord` carrying the cause.  With ``resume`` (the default) runs already completed in the
    ledger, with the same params and program digest, are skipped —
    crashed records are kept for the audit trail but re-executed — so
    re-invoking a killed campaign continues where it stopped;
    ``resume=False`` discards previous artifacts and starts fresh.

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
        descriptor.run_id: (descriptor, json.loads(json.dumps(descriptor.to_dict())))
        for descriptor in descriptors
    }
    # ... and whose program is still the one that ran: the digest of each
    # distinct program, computed only for ledger records to check
    digests: dict[tuple, str] = {}

    def resumable(record: RunRecord) -> bool:
        descriptor, params = expected.get(record.run_id, (None, None))
        if params != record.params or record.status != "ok":
            return False
        key = _program_key(descriptor)
        if key not in digests:
            program = localize_program(build_program(descriptor)).program
            digests[key] = program_digest(program)
        return record.program_digest == digests[key]

    done = {
        run_id: record
        for run_id, record in read_ledger(ledger_path).items()
        if resumable(record)
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

    if todo:
        work = cells(todo)
        if workers <= 1:
            for cell in work:
                try:
                    records = execute_cell(
                        [d.to_dict() for d in cell], spec.static_proofs, obs_enabled
                    )
                except Exception:
                    error = traceback.format_exc()
                    records = [_crashed(descriptor, error) for descriptor in cell]
                for record in records:
                    finish(record)
        else:
            _run_pool(work, workers, finish, spec.static_proofs, obs_enabled)

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
