"""Runs one workload and assembles its result.

Untraced run: ``SETUP_REPS - 1`` cold set-ups in fresh processes, then this
process's own set-up and the timed section -> every end-to-end metric.
Traced run: a short untraced pass (the overhead baseline), then the full
pass with ``repro.obs`` and bench spans on, then the layer kernels -> every
per-layer metric and a Chrome trace.
"""

from __future__ import annotations

import json
import os
import platform
import signal
import statistics
import subprocess
import sys
from time import perf_counter

from . import config, workloads
from .calib import calibrate_interval, p50, p90, take_reading
from .runtime import Pass, child_env, fail, live_children, peak_rss_mb


PROBE_TIMEOUT_S = 60
SETUP_READING_CALLS = 8


def _loadavg() -> float:
    with open("/proc/loadavg") as handle:
        return float(handle.read().split()[0])


def provenance(workload: str, seed: int, seconds: float, n_ops: int) -> dict:
    """Which tree, interpreter and host a result was measured on."""

    def git(*args: str) -> str:
        try:
            done = subprocess.run(
                ["git", "-C", str(config.REPO_ROOT), *args],
                capture_output=True, text=True, timeout=10, check=True,
            )
        except (OSError, subprocess.SubprocessError):
            return ""
        return done.stdout.strip()

    sha = git("rev-parse", "HEAD")
    return {
        "git_sha": sha or "not-a-git-checkout",
        "git_dirty": bool(git("status", "--porcelain", "--untracked-files=no")) if sha else None,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "loadavg_start": _loadavg(),
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "ops_planned": n_ops,
        "calib_ref_ms": config.CALIB_REF_MS,
    }


def measure_setup(run: Pass):
    """Set a workload up cold, bracketed by two readings.

    Returns ``(module, state, raw_s, calibrated_s)``; covers importing
    ``repro``, generating inputs, warm-up ops and booting daemons or pools.
    """

    # one interval, two readings: twice the usual kernel calls each, or the
    # readings' own noise would exceed the drift they are there to remove
    before = take_reading(SETUP_READING_CALLS)
    start = perf_counter()
    module = workloads.load(run.workload)
    state = module.prepare(run)
    raw = perf_counter() - start
    after = take_reading(SETUP_READING_CALLS)
    return module, state, raw, calibrate_interval(raw, before, after, config.CALIB_REF_MS)


def setup_probe(workload: str, seed: int, seconds: float) -> None:
    """``python -m bench _setup``: one cold set-up, torn down at once."""

    run = Pass(workload, seed, config.scaled_ops(workload, seconds), False, seconds)
    try:
        module, state, raw, cal = measure_setup(run)
        module.teardown(state)
    finally:
        run.cleanup()
    print(json.dumps({"raw_s": raw, "cal_s": cal, "problems": run.problems}))


def _probe_setups(workload: str, seed: int, seconds: float, count: int) -> list[dict]:
    samples = []
    for _ in range(count):
        # its own session, so that a probe that hangs can be killed together
        # with whatever daemon or pool it had already started
        probe = subprocess.Popen(
            [sys.executable, "-m", "bench", "_setup", "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds)],
            cwd=config.REPO_ROOT, env=child_env(), stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True, start_new_session=True,
        )
        try:
            out, err = probe.communicate(timeout=PROBE_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(probe.pid, signal.SIGKILL)
            probe.communicate()
            fail(f"set-up probe of {workload} hung for {PROBE_TIMEOUT_S} s")
        if probe.returncode != 0:
            fail(f"set-up probe failed:\n{err[-2000:]}")
        samples.append(json.loads(out.strip().splitlines()[-1]))
    return samples


def _one_pass(run: Pass):
    """prepare -> measure -> (layers) -> teardown; returns the set-up sample."""

    module = state = None
    try:
        module, state, raw, cal = measure_setup(run)
        module.measure(run, state)
        if run.trace:
            module.layers(run, state)
    finally:
        if state is not None:
            module.teardown(state)
        run.cleanup()
    return {"raw_s": raw, "cal_s": cal, "problems": []}


def run_untraced(workload: str, seed: int, seconds: float) -> dict:
    n_ops = config.scaled_ops(workload, seconds)
    stamp = provenance(workload, seed, seconds, n_ops)
    # a run below the tuned size is a smoke (``bench check``): its own set-up only
    probes = config.SETUP_REPS - 1 if seconds >= config.REF_SECONDS else 0
    setups = _probe_setups(workload, seed, seconds, probes)
    run = Pass(workload, seed, n_ops, False, seconds)
    setups.append(_one_pass(run))
    for sample in setups:
        run.problems += sample["problems"]
    section = run.section
    op_ms = section.op_ms()
    metrics = {
        "setup_s": (statistics.median(s["cal_s"] for s in setups), "s"),
        "op_ms_p50": (p50(op_ms), "ms"),
        "ops_per_s": (section.ops_per_s(), "1/s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    raw_ms = section.op_ms(calibrated=False)
    info = {
        "raw.setup_s": statistics.median(s["raw_s"] for s in setups),
        "raw.op_ms_p50": p50(raw_ms),
        "raw.ops_per_s": section.ops_per_s(calibrated=False),
        "samples": len(op_ms),
        "timed_wall_s": section.busy_s(calibrated=False),
        "calibration_s": section.calib_s,
        "host.calib_ms": {"p50": p50(section.readings), "min": min(section.readings),
                          "max": max(section.readings)},
    }
    result = _result(run, stamp, metrics, info)
    result["informational"] = {
        name: {"value": value, "unit": "ms"} for name, value in _ungated(run).items()
    }
    return result


def _ungated(run: Pass) -> dict[str, float]:
    """The two end-to-end metrics only some workloads have (so the contract,
    which wants every gated metric from every workload, cannot gate them)."""

    out = {}
    tail = p90(run.section.op_ms())
    if tail is not None:
        out["op_ms_p90"] = tail
    if run.queries:
        out["query_ms_p50"] = p50(_query_ms(run))
    return out


def _query_ms(run: Pass) -> list[float]:
    blocks = run.section.blocks
    return [wall * 1000.0 * blocks[b].factor(config.CALIB_REF_MS) for wall, b in run.queries]


def run_traced(workload: str, seed: int, seconds: float) -> dict:
    from repro.obs.tracing import write_chrome_trace

    from .layers import kernel_metrics
    from .obs import ProgramObs

    n_ops = config.scaled_ops(workload, seconds)
    stamp = provenance(workload, seed, seconds, n_ops)
    baseline = Pass(workload, seed, max(2, n_ops // 4), False, seconds)
    _one_pass(baseline)

    run = Pass(workload, seed, n_ops, True, seconds)
    run.obs = ProgramObs(run.spans)
    try:
        _one_pass(run)
    finally:
        run.obs.close()
    run.problems += baseline.problems
    if run.obs.dropped:
        run.problems.append(
            f"repro.obs tracer dropped {run.obs.dropped} spans: flush and scheduler shares are too low"
        )
    layer = run.layer
    layer.update(kernel_metrics())

    shared = min(len(baseline.section.ops), len(run.section.ops))
    untraced = sum(baseline.section.op_ms()[:shared])
    layer["obs.overhead_pct"] = (sum(run.section.op_ms()[:shared]) / untraced - 1.0) * 100.0
    readings = run.section.readings
    layer["host.cpu_count"] = os.cpu_count() or 0
    layer["host.calib_ms_p50"] = p50(readings)
    layer["host.calib_spread_pct"] = (max(readings) - min(readings)) / p50(readings) * 100.0
    layer["host.loadavg_start"] = stamp["loadavg_start"]
    layer.update({f"e2e.{name}": value for name, value in _ungated(run).items()})

    trace_path = config.OUT_DIR / f"{workload}.trace.json"
    write_chrome_trace(
        trace_path,
        [(f"bench {workload} seed {seed}", run.spans.export()),
         ("repro.obs (first ops)", {"spans": run.obs.kept})],
    )
    declared = config.load_declaration()["per_layer"]
    metrics = {m["name"]: (float(layer.get(m["name"], 0.0)), m["unit"]) for m in declared}
    undeclared = sorted(set(layer) - set(metrics))
    info = {
        "samples": len(run.section.ops),
        "span_coverage": run.spans.op_coverage(),
        "self_s": {name: round(value, 4) for name, value in run.spans.self_seconds().items()},
        "chrome_trace": str(trace_path.relative_to(config.REPO_ROOT)),
        "counts": run.counts,
    }
    if undeclared:
        info["undeclared_layer_metrics"] = undeclared
    result = _result(run, stamp, metrics, info)
    result["measured"] = sorted(set(layer) & set(metrics))
    return result


def _result(run: Pass, stamp: dict, metrics: dict, info: dict) -> dict:
    stamp["loadavg_end"] = _loadavg()
    stamp["ops_done"] = len(run.section.ops)
    leftover = live_children()
    if leftover:
        run.problems.append(f"child processes left alive: {leftover}")
    return {
        "correct": not run.problems,
        "attempted": len(run.section.ops),
        "failed": run.section.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
        "info": info,
        "problems": run.problems[:20],
        "provenance": stamp,
    }


def report(result: dict, trace: bool) -> None:
    """Every metric by name with its unit, then the contract's last line."""

    stamp = result["provenance"]
    print(f"# {stamp['workload']} seed={stamp['seed']} trace={int(trace)} "
          f"ops={stamp['ops_done']}/{stamp['ops_planned']} git={stamp['git_sha'][:12]}"
          f"{'+dirty' if stamp['git_dirty'] else ''} python={stamp['python']} "
          f"cpus={stamp['cpu_count']} load={stamp['loadavg_start']}->{stamp['loadavg_end']} "
          f"calib_ref_ms={stamp['calib_ref_ms']}")
    measured = result.get("measured", list(result["metrics"]))
    for name, metric in result["metrics"].items():
        if name in measured:
            print(f"{stamp['workload']}/{name} = {metric['value']:.6g} {metric['unit']}")
    for name, metric in result.get("informational", {}).items():
        print(f"{stamp['workload']}/{name} = {metric['value']:.6g} {metric['unit']} (not gated)")
    skipped = len(result["metrics"]) - len(measured)
    if skipped:
        print(f"  ({skipped} metrics of layers this workload does not exercise read 0)")
    for name, value in result["info"].items():
        print(f"  ({name}: {value})")
    for problem in result["problems"]:
        print(f"  PROBLEM {problem}")
    config.OUT_DIR.mkdir(parents=True, exist_ok=True)
    detail = config.OUT_DIR / f"{stamp['workload']}.trace{int(trace)}.json"
    detail.write_text(json.dumps(result, indent=1, sort_keys=True, default=str) + "\n")
    contract = {key: result[key] for key in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(contract))
