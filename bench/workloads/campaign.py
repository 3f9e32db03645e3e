"""``campaign``: 24-run campaigns on a two-worker process pool.

A round is one ``run_campaign(spec, dir, workers=2, resume=False)`` over
tree / power_law / waxman at 20 nodes x shortest_path / gao_rexford x churn
{0, 2} x two scenario seeds, loss 0.01, all four monitors.  One op is one
run; its latency is the ``RunRecord.wall_time`` the worker measured, and
throughput divides by the outside wall of the calls, so pool spawn, ledger
and result writes count.

Here the seed does redraw the graphs — the harness derives topology and
channel seed from the one spec seed, and with 216 runs the draw averages
out (a round's total moved by 3.5 % between seed pairs).  The generator
process never evaluates a rule before the timed rounds, so pool workers
fork with a cold codegen cache, as they do under ``fvn-campaign``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from time import perf_counter

from repro.harness import CampaignSpec, build_program, execute_run, run_campaign
from repro.harness.records import METRICS_NAME
from repro.scenarios import generate_scenario

from .. import config
from ..calib import p50
from ..runtime import Pass
from ..spans import OP

@dataclass
class State:
    specs: list[CampaignSpec]
    workers: int
    #: per round: outside wall, spawn and artifact seconds
    rounds: list[dict] = field(default_factory=list)
    #: every timed round's records, in order (round 0 first)
    records: list = field(default_factory=list)
    metrics_files: list = field(default_factory=list)


def round_spec(cfg: dict, seed: int, index: int, seeds: int, obs: bool) -> CampaignSpec:
    """Round ``index`` of a pass: 12 grid cells x ``seeds`` scenario seeds."""

    base = seed * 1000 + 2 * index
    return CampaignSpec(
        name=f"bench-{seed}-{index}",
        families=("tree", "power_law", "waxman"),
        sizes=(cfg["size"],),
        policies=("shortest_path", "gao_rexford"),
        seeds=tuple(range(base, base + seeds)),
        churn_events=(0, 2),
        loss=(0.01,),
        churn_restore_delay=1.0,
        until=30.0,
        max_events=150_000,
        # the fresh-fixpoint comparison would double every run
        record_stale_routes=False,
        obs=obs,
    )


def prepare(run: Pass) -> State:
    cfg = config.SIZES["campaign"]
    per_round = cfg["runs_per_round"]
    rounds = max(1, round(run.n_ops / per_round))
    seeds = 2 if run.n_ops >= per_round else 1  # a smoke run halves its one round
    specs = [round_spec(cfg, run.seed, r, seeds, run.trace) for r in range(rounds)]
    run.n_ops = sum(spec.run_count for spec in specs)
    state = State(specs, cfg["workers"])
    # warm-up: a two-run campaign on the pool pages in the harness, the
    # multiprocessing machinery and the scratch directory
    warm = CampaignSpec(
        name="bench-warm", families=("tree",), sizes=(8,), policies=("shortest_path",),
        seeds=(0, 1), record_stale_routes=False,
    )
    result = run_campaign(warm, run.tmp_dir() / "warm", workers=state.workers, resume=False)
    run.problems += _record_problems(result.records)
    return state


def _ok(record) -> bool:
    return record.status == "ok" and record.quiescent and record.monitors_ok


def _record_problems(records) -> list[str]:
    return [
        f"{r.run_id}: status {r.status}, quiescent {r.quiescent}, monitors_ok {r.monitors_ok}"
        for r in records
        if not _ok(r)
    ]


def measure(run: Pass, state: State) -> None:
    section = run.section
    run.start_timing()
    for index, spec in enumerate(state.specs):
        landed: list[float] = []
        out_dir = run.tmp_dir() / f"round{index}"
        op_index = len(run.spans.spans) if run.trace else None
        start = perf_counter()
        with run.spans.span(OP, round=index):
            result = run_campaign(
                spec, out_dir, workers=state.workers, resume=False,
                progress=lambda record, done, total: landed.append(perf_counter()),
            )
        end = perf_counter()
        for record in result.records:
            section.add_op(record.wall_time, ok=_ok(record), busy=False)
        run.problems += _record_problems(result.records)
        section.add_busy(end - start)
        section.checkpoint()
        first_started = landed[0] - result.records[0].wall_time
        state.rounds.append(
            {"wall": end - start, "spawn": first_started - start, "artifacts": end - landed[-1],
             "run_walls": sum(r.wall_time for r in result.records)}
        )
        if run.trace:
            run.spans.add("runner.spawn", start, first_started, op_index)
            run.spans.add("runner.execute", first_started, landed[-1], op_index)
            run.spans.add("runner.artifacts", landed[-1], end, op_index)
            state.metrics_files.append(out_dir / METRICS_NAME)
        state.records += result.records
        if not run.keep_going():
            break
    section.finish()


def layers(run: Pass, state: State) -> None:
    out = run.layer
    factor = run.layer_factor
    rounds = state.rounds
    n = len(run.section.ops)
    total_wall = sum(r["wall"] for r in rounds)
    out["runner.round_wall_s_p50"] = p50([r["wall"] for r in rounds]) * factor
    out["runner.pool_efficiency"] = sum(r["run_walls"] for r in rounds) / (state.workers * total_wall)
    out["runner.spawn_ms_p50"] = p50([r["spawn"] for r in rounds]) * 1e3 * factor
    out["runner.artifacts_ms_p50"] = p50([r["artifacts"] for r in rounds]) * 1e3 * factor

    # the merged registries of the traced rounds' workers
    counters: dict[str, float] = {}
    histograms: list[dict] = []
    for path in state.metrics_files:
        merged = json.loads(path.read_text())["metrics"]
        for name, value in merged["counters"].items():
            counters[name] = counters.get(name, 0.0) + value
        histograms.append(merged["histograms"])

    def across_rounds(name: str, stat: str) -> float:
        # percentiles do not merge: the median of the rounds' own values
        return p50([hist.get(name, {}).get(stat, 0.0) for hist in histograms])

    out["engine.events_per_op"] = counters["engine.events"] / n
    out["executor.flushes_per_op"] = counters["engine.flushes"] / n
    out["executor.rule_firings_per_op"] = counters["engine.rule_firings"] / n
    out["executor.fixpoint_rounds_p50"] = across_rounds("engine.fixpoint_rounds", "p50")
    out["executor.delta_batch_p50"] = across_rounds("engine.delta_batch_size", "p50")
    out["executor.retraction_cascade_p95"] = across_rounds("engine.retraction_cascade", "p95")
    records = state.records
    out["engine.messages_per_op"] = sum(r.messages for r in records) / len(records)
    out["trace.state_changes_per_op"] = sum(r.state_changes for r in records) / len(records)
    out["trace.retractions_per_op"] = sum(r.retractions for r in records) / len(records)
    run.counts.update({k: v for k, v in out.items() if k.endswith("_per_op")})

    # round 0's runs again in this process, without a pool: what the pool costs
    sample = state.specs[0].expand()
    pooled = {r.run_id: r.wall_time for r in state.records[: state.specs[0].run_count]}
    inline_s, bare_s, generate_s, build_s = [], [], [], []
    for descriptor in sample:
        data = descriptor.to_dict()
        start = perf_counter()
        with run.spans.span("runner.inline_run"):
            execute_run(data)
        inline_s.append(perf_counter() - start)
        start = perf_counter()
        execute_run(dict(data, monitors=[]))
        bare_s.append(perf_counter() - start)
        start = perf_counter()
        generate_scenario(
            descriptor.family, size=descriptor.size, seed=descriptor.seed, policy=descriptor.policy,
            churn_events=descriptor.churn_events, churn_start=descriptor.churn_start,
            churn_spacing=descriptor.churn_spacing,
            churn_restore_delay=descriptor.churn_restore_delay, loss=descriptor.loss,
        )
        generate_s.append(perf_counter() - start)
        start = perf_counter()
        build_program(descriptor)
        build_s.append(perf_counter() - start)
    out["runner.inline_run_ms_p50"] = p50(inline_s) * 1e3 * factor
    out["runner.pool_slowdown"] = p50([pooled[d.run_id] for d in sample]) / p50(inline_s)
    out["scenarios.generate_ms_p50"] = p50(generate_s) * 1e3 * factor
    out["runner.build_program_ms_p50"] = p50(build_s) * 1e3 * factor
    out["monitors.overhead_pct"] = (sum(inline_s) / sum(bare_s) - 1.0) * 100.0


def teardown(state: State) -> None:
    """Every pool is shut down by the ``run_campaign`` call that made it."""
