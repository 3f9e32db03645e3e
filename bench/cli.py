"""Command line of the benchmark.

Contract form (what ``BENCHMARK.json`` declares and the driver runs)::

    python3 -m bench --workload converge --seed 1 --seconds 10 --trace 0

prints every metric by name and, as the last line of stdout, one JSON object
``{"correct", "attempted", "failed", "metrics"}`` — the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``.

Human form::

    python3 -m bench run <workload|all> [--seed N] [--seconds S] [--trace]
    python3 -m bench repeat --sets 2 --runs 3
    python3 -m bench check
"""

from __future__ import annotations

import argparse
import os
import signal
import sys

from . import config
from .runtime import child_env, fail


def _pin_environment(argv: list[str]) -> None:
    """Re-exec once with ``PYTHONHASHSEED=0`` and make ``src/`` importable.

    Set iteration order over strings follows the hash seed; pinning it keeps
    the deterministic counts equal between processes.
    """

    if not (config.SRC_DIR / "repro").is_dir():
        fail(f"no program to measure: {config.SRC_DIR / 'repro'} is missing")
    if not config.BENCHMARK_JSON.is_file():
        fail(f"{config.BENCHMARK_JSON} is missing")
    if os.environ.get("PYTHONHASHSEED") != "0":
        sys.stdout.flush()
        os.execve(sys.executable, [sys.executable, "-m", "bench", *argv], child_env())
    if str(config.SRC_DIR) not in sys.path:
        sys.path.insert(0, str(config.SRC_DIR))


def _workload_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=0, help="workload seed (inputs derive from it)")
    parser.add_argument(
        "--seconds", type=float, default=config.REF_SECONDS,
        help=f"scales the fixed work; sizes are tuned at {config.REF_SECONDS}",
    )


def _run_one(workload: str, seed: int, seconds: float, trace: bool) -> bool:
    from . import runner

    run = runner.run_traced if trace else runner.run_untraced
    result = run(workload, seed, seconds)
    runner.report(result, trace)
    return result["correct"]


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    _pin_environment(argv)
    # a terminated run still unwinds through the finally blocks that stop
    # its daemon, pool and shard workers
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    command = argv[0] if argv and not argv[0].startswith("-") else "contract"

    if command == "contract":
        parser = argparse.ArgumentParser(prog="python3 -m bench")
        parser.add_argument("--workload", required=True, choices=config.WORKLOADS)
        parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
        _workload_arguments(parser)
        args = parser.parse_args(argv)
        # the JSON line carries ``correct``; the exit code says the run completed
        _run_one(args.workload, args.seed, args.seconds, bool(args.trace))
        return 0

    parser = argparse.ArgumentParser(prog="python3 -m bench", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run one workload, or all five in turn")
    run.add_argument("workload", choices=config.WORKLOADS + ("all",))
    run.add_argument("--trace", action="store_true", help="per-layer metrics and a Chrome trace")
    _workload_arguments(run)
    probe = sub.add_parser("_setup")  # internal: one cold set-up
    probe.add_argument("--workload", required=True, choices=config.WORKLOADS)
    _workload_arguments(probe)
    repeat = sub.add_parser("repeat", help="run whole sets and compare their medians")
    repeat.add_argument("--sets", type=int, default=2)
    repeat.add_argument("--runs", type=int, default=3, help="runs (seeds) per workload per set")
    repeat.add_argument("--seconds", type=float, default=config.REF_SECONDS)
    sub.add_parser("check", help="under-30-s smoke of every workload against BENCHMARK.json")
    args = parser.parse_args(argv)

    if args.command == "run":
        names = config.WORKLOADS if args.workload == "all" else (args.workload,)
        results = [_run_one(name, args.seed, args.seconds, args.trace) for name in names]
        return 0 if all(results) else 1
    if args.command == "_setup":
        from .runner import setup_probe

        setup_probe(args.workload, args.seed, args.seconds)
        return 0
    if args.command == "repeat":
        from .repeat import repeat_sets

        return repeat_sets(args.sets, args.runs, args.seconds)
    from .check import check

    return check()
