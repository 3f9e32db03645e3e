"""``python3 -m bench check``: a smoke of the benchmark against its declaration.

Every workload at a tenth of its size through the contract command line
(one of them traced), then: ``BENCHMARK.json`` within the contract's limits,
every declared metric printed with its declared unit, bench spans covering
at least 95 % of each op, no child process left behind, and ``ruff check
bench`` clean where ruff is installed.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from time import perf_counter

from . import config
from .runtime import child_env, live_children

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
SMOKE_SECONDS = config.REF_SECONDS / 10
TRACED = "converge"
MIN_COVERAGE = 0.95


def declaration_problems(doc: dict) -> list[str]:
    """Violations of the limits the contract puts on ``BENCHMARK.json``."""

    problems = []
    expected = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    if set(doc) != expected:
        problems.append(f"keys {sorted(doc)} != {sorted(expected)}")
        return problems
    if not 2 <= len(doc["workloads"]) <= 8:
        problems.append("2 to 8 workloads")
    if not 1 <= len(doc["end_to_end"]) <= 16:
        problems.append("1 to 16 end-to-end metrics")
    if not 1 <= len(doc["per_layer"]) <= 128:
        problems.append("1 to 128 per-layer metrics")
    names = [w["name"] for w in doc["workloads"]]
    names += [m["name"] for m in doc["end_to_end"] + doc["per_layer"]]
    problems += [f"name {n!r} is malformed" for n in names if not NAME.match(n)]
    problems += [f"name {n!r} is used twice" for n in sorted(set(names)) if names.count(n) > 1]
    for metric in doc["end_to_end"] + doc["per_layer"]:
        if not UNIT.match(metric["unit"]):
            problems.append(f"{metric['name']}: unit {metric['unit']!r} is malformed")
        if metric["better"] not in ("lower", "higher"):
            problems.append(f"{metric['name']}: better must be lower or higher")
    for metric in doc["end_to_end"]:
        if not 0 < metric["bound"] <= 0.25:
            problems.append(f"{metric['name']}: bound {metric['bound']} outside (0, 0.25]")
    if not any(
        m["name"] == "setup_s" and m["unit"] == "s" and m["better"] == "lower"
        for m in doc["end_to_end"]
    ):
        problems.append("end_to_end needs setup_s (s, lower)")
    if not (isinstance(doc["run_seconds"], int) and 1 <= doc["run_seconds"] <= 60):
        problems.append("run_seconds must be a whole number from 1 to 60")
    if [w["name"] for w in doc["workloads"]] != list(config.WORKLOADS):
        problems.append("workloads differ from bench.config.WORKLOADS")
    return problems


def output_problems(result: dict, declared: list[dict], label: str) -> list[str]:
    """Differences between a run's last line and the metrics declared for it."""

    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{label}: result keys {sorted(result)}")
        return problems
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        problems.append(f"{label}: correct={result['correct']} failed={result['failed']}")
    want = {m["name"]: m["unit"] for m in declared}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        problems.append(f"{label}: metrics/units differ from the declaration: "
                        f"{sorted(set(got.items()) ^ set(want.items()))[:6]}")
    return problems


def check() -> int:
    started = perf_counter()
    doc = config.load_declaration()
    problems = declaration_problems(doc)
    for name in config.WORKLOADS:
        for trace in (0, 1) if name == TRACED else (0,):
            done = subprocess.run(
                [sys.executable, "-m", "bench", "--workload", name, "--seed", "1",
                 "--seconds", str(SMOKE_SECONDS), "--trace", str(trace)],
                cwd=config.REPO_ROOT, env=child_env(), capture_output=True, text=True, timeout=170,
            )
            label = f"{name} --trace {trace}"
            print(f"ran  {label}")
            if done.returncode != 0:
                problems.append(f"{label}: exit {done.returncode}: {done.stderr[-500:]}")
                continue
            result = json.loads(done.stdout.strip().splitlines()[-1])
            problems += output_problems(result, doc["per_layer" if trace else "end_to_end"], label)
            detail = json.loads((config.OUT_DIR / f"{name}.trace{trace}.json").read_text())
            problems += [f"{label}: {p}" for p in detail["problems"]]
            if trace:
                coverage = detail["info"]["span_coverage"]
                if coverage < MIN_COVERAGE:
                    problems.append(f"{label}: spans cover {coverage:.1%} of an op")
                events = json.loads((config.REPO_ROOT / detail["info"]["chrome_trace"]).read_text())
                if not events["traceEvents"]:
                    problems.append(f"{label}: empty Chrome trace")
    if live_children():
        problems.append(f"child processes left alive: {live_children()}")
    ruff = shutil.which("ruff")
    if ruff:
        lint = subprocess.run([ruff, "check", "bench"], cwd=config.REPO_ROOT,
                              capture_output=True, text=True)
        if lint.returncode != 0:
            problems.append(f"ruff check bench:\n{lint.stdout[-1500:]}")
    else:
        print("     ruff is not installed here: lint skipped")
    for problem in problems:
        print(f"FAIL {problem}")
    print(f"bench check: {'FAILED' if problems else 'passed'} in {perf_counter() - started:.1f} s")
    return 1 if problems else 0
