"""``python3 -m bench repeat``: does the same code measure the same twice?

Runs ``--sets`` whole sets; a set is ``--runs`` untraced runs of every
workload (seeds 1..runs, the same in every set) plus one traced run (seed
1).  For every end-to-end metric x workload it prints the median of each
set, the worst set's distance from the first in the metric's bad direction,
the bound, the quartile spread of each set (the statistic the driver
checks) and the pooled spread of the raw, uncalibrated value beside the
calibrated one, then the length of each workload's timed section.  Exits
non-zero when a difference between sets exceeds the bound, a spread exceeds
it, or a ``*_per_op`` count differs between two traced runs of one seed.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from time import perf_counter

from . import config
from .calib import quartile_spread
from .runtime import child_env

#: end-to-end metrics that have an uncalibrated twin in a result's ``info``
RAW_TWINS = {"setup_s": "raw.setup_s", "op_ms_p50": "raw.op_ms_p50", "ops_per_s": "raw.ops_per_s"}


def _run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, "-m", "bench", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=config.REPO_ROOT, env=child_env(), capture_output=True, text=True, timeout=600,
    )
    if done.returncode != 0:
        raise SystemExit(f"bench repeat: {workload} seed {seed} failed:\n{done.stderr[-2000:]}")
    detail = json.loads((config.OUT_DIR / f"{workload}.trace{trace}.json").read_text())
    if not detail["correct"]:
        raise SystemExit(f"bench repeat: {workload} seed {seed} incorrect: {detail['problems']}")
    return detail


def _spread(values: list[float]) -> float:
    return quartile_spread(values) if len(values) >= 2 else 0.0


def repeat_sets(sets: int, runs: int, seconds: float) -> int:
    declared = config.load_declaration()["end_to_end"]
    names = config.WORKLOADS
    started = perf_counter()
    # results[workload][set] = list of run details; counts[workload][set] = dict
    results: dict[str, list[list[dict]]] = {name: [] for name in names}
    counts: dict[str, list[dict]] = {name: [] for name in names}
    for index in range(sets):
        for name in names:
            batch = [_run(name, seed, seconds, 0) for seed in range(1, runs + 1)]
            results[name].append(batch)
            traced = _run(name, 1, seconds, 1)
            # a run the overrun guard cut short averages over other ops
            counts[name].append(dict(traced["info"]["counts"], ops_done=traced["attempted"]))
            print(f"[set {index + 1}/{sets}] {name}: {runs} runs + 1 traced "
                  f"({perf_counter() - started:.0f} s elapsed)", file=sys.stderr)

    lines = [
        f"{sets} sets x {runs} runs (seeds 1..{runs}) x {len(names)} workloads at "
        f"--seconds {seconds:g}; provenance of the last run:",
        "",
        "```",
        json.dumps(results[names[-1]][-1][-1]["provenance"], sort_keys=True),
        "```",
        "",
        "| workload | metric | " + " | ".join(f"median set {i + 1}" for i in range(sets))
        + " | worst vs set 1 | bound | spread per set (IQR/median) | worst deviation"
        " | raw spread | calibrated spread | verdict |",
        "|---|---|" + "---|" * (sets + 7),
    ]
    failures = []
    for name in names:
        for metric in declared:
            key, bound, lower = metric["name"], metric["bound"], metric["better"] == "lower"
            per_set = [[run["metrics"][key]["value"] for run in batch] for batch in results[name]]
            medians = [statistics.median(values) for values in per_set]
            worse = [(m - medians[0]) / medians[0] * (1 if lower else -1) for m in medians[1:]]
            worst = max(worse, default=0.0)
            spreads = [_spread(values) for values in per_set]
            pooled = [value for values in per_set for value in values]
            centre = statistics.median(pooled)
            deviation = max(abs(value - centre) / centre for value in pooled)
            raw_cell = cal_cell = "-"
            verdict = []
            if key in RAW_TWINS:
                raw = [run["info"][RAW_TWINS[key]] for batch in results[name] for run in batch]
                raw_cell, cal_cell = f"{_spread(raw):.1%}", f"{_spread(pooled):.1%}"
            if worst > bound:
                verdict.append("sets differ")
            if key != "setup_s" and max(spreads) > bound:
                verdict.append("spread over bound")
            if verdict:
                failures.append(f"{name}/{key}: {', '.join(verdict)}")
            lines.append(
                f"| {name} | {key} | " + " | ".join(f"{m:.5g}" for m in medians)
                + f" | {worst:+.1%} | {bound:.0%} | " + " ".join(f"{s:.1%}" for s in spreads)
                + f" | {deviation:.1%} | {raw_cell} | {cal_cell} | {'; '.join(verdict) or 'ok'} |"
            )
    lines += ["", "Timed sections (medians over every untraced run):", "",
              "| workload | ops | raw wall s | reference-speed s | calibration s |",
              "|---|---|---|---|---|"]
    for name in names:
        runs_of = [run for batch in results[name] for run in batch]
        lines.append(
            f"| {name} | {statistics.median(run['attempted'] for run in runs_of):g} | "
            + " | ".join(
                f"{statistics.median(values):.1f}"
                for values in (
                    [run["info"]["timed_wall_s"] for run in runs_of],
                    [run["attempted"] / run["metrics"]["ops_per_s"]["value"] for run in runs_of],
                    [run["info"]["calibration_s"] for run in runs_of],
                )
            )
            + " |"
        )
    lines += ["", "Deterministic counts (`*_per_op`, traced runs of seed 1):", ""]
    for name in names:
        differing = sorted(
            key for key in counts[name][0]
            if any(other.get(key) != counts[name][0][key] for other in counts[name][1:])
        )
        if differing:
            failures.append(f"{name}: counts differ between runs of one seed: {differing}")
        lines.append(
            f"- {name}: {len(counts[name][0])} counts, "
            + (f"DIFFER: {differing}" if differing else f"identical in all {sets} traced runs")
        )
    lines += ["", f"Total wall: {perf_counter() - started:.0f} s.  "
              + ("FAILED: " + "; ".join(failures) if failures else "All within bounds.")]
    print("\n".join(lines))
    return 1 if failures else 0
