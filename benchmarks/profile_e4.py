"""Profile harness for the E4 power-law-50 convergence benchmark.

Runs one bench-shaped cold convergence — ``create_engine`` → ``run`` to
quiescence → ``Trace.fingerprint()`` → ``close`` — of the generated policy
path-vector program on the 50-node power-law scenario (or any other
generated family and size, for a size curve), and writes a report of where
its time goes, headed by the run's routes, messages and the process's
maximum resident set size.  CI uploads the reports as workflow artifacts so
per-PR profiles can be diffed without re-running anything locally.

Two instruments, two reports:

* default: ``cProfile``, top-N functions by cumulative and by internal
  time.  It adds a cost to every Python call but none to work inside C, so
  call-heavy Python code reads large and C work (the fingerprint's
  ``marshal`` blocks and ``sha256``) reads small;
* ``--sample``: a stack sampler on ``signal.setitimer(ITIMER_PROF)``.  Each
  tick of process CPU time records the interrupted Python stack; a
  function's *self* share is the fraction of ticks it was on top (C calls
  it made included), its *inclusive* share the fraction it was anywhere on
  the stack.  Nothing is charged per call, so the shares are the ones the
  unprofiled program has, within sampling error.

``--churn`` samples the other direction of the executor instead: one
long-lived engine (power_law-31 unless ``--family`` / ``--size`` say
otherwise) converges unsampled, then every link gets one cycle — failed,
restored, re-costed to ``cost % 5 + 1`` and re-costed back, one ``run()``
to quiescence per step, the script shape of bench's ``churn`` workload —
and only the cycles are sampled.

``--serve`` samples the bench ``serve`` workload's daemon loop in-process: a
:class:`~repro.serving.service.RouteService` on tree-28 (default
``ServerConfig``: plain path-vector, three runtime monitors, WAL and a
snapshot every 50 updates in a temporary state directory) boots unsampled,
then every link gets two fail / restore / re-cost / re-cost-back cycles,
one settled update each.  No socket or JSON wire is involved, so
the shares are those of the daemon's update path alone.

Usage::

    PYTHONPATH=src python benchmarks/profile_e4.py [--output profile_e4.txt]
    PYTHONPATH=src python benchmarks/profile_e4.py --sample [--output FILE]
    PYTHONPATH=src python benchmarks/profile_e4.py --family tree --size 128
    PYTHONPATH=src python benchmarks/profile_e4.py --churn [--output FILE]
    PYTHONPATH=src python benchmarks/profile_e4.py --serve [--output FILE]
"""

from __future__ import annotations

import argparse
import cProfile
import io
import os
import pstats
import resource
import signal
import tempfile
import time
from collections import Counter
from typing import Callable

from repro.bgp.generator import policy_path_vector_program
from repro.dn import EngineConfig, create_engine
from repro.scenarios import generate_scenario
from repro.serving.config import ServerConfig
from repro.serving.service import RouteService

#: cold convergences sampled per ``--sample`` report (each is the same
#: deterministic work, so more ops only means more samples), and the
#: seconds of process CPU time between two samples
SAMPLED_OPS = 5
SAMPLE_INTERVAL = 0.001
#: link-cycle passes of a ``--serve`` profile
SERVE_PASSES = 2


def prepare_e4(family: str = "power_law", size: int = 50) -> tuple:
    """The untimed inputs of one op: program, topology, policy facts."""

    scenario = generate_scenario(family, size=size, seed=7, policy="shortest_path")
    return policy_path_vector_program(), scenario.topology, scenario.policy_fact_list()


def run_e4(inputs: tuple) -> dict:
    """One op: ``create_engine`` -> ``run`` -> ``fingerprint`` -> ``close``."""

    program, topology, facts = inputs
    engine = create_engine(program, topology, config=EngineConfig(max_events=10_000_000))
    try:
        trace = engine.run(extra_facts=facts)
        trace.fingerprint()
        return {
            "routes": len(engine.rows("bestRoute")),
            "messages": trace.message_count,
            "quiescent": trace.quiescent,
        }
    finally:
        engine.close()


def prepare_churn(family: str = "power_law", size: int = 31) -> tuple:
    """A converged engine and its link-cycle script (untimed)."""

    scenario = generate_scenario(family, size=size, seed=0, policy="shortest_path")
    engine = create_engine(
        policy_path_vector_program(),
        scenario.topology,
        config=EngineConfig(seed=0, max_events=10_000_000),
    )
    if not engine.run(extra_facts=scenario.policy_fact_list()).quiescent:
        raise SystemExit("initial convergence not quiescent")
    script = []
    for link in scenario.topology.links():
        if link.src < link.dst:
            script += [
                ("fail", link.src, link.dst, None),
                ("restore", link.src, link.dst, None),
                ("cost", link.src, link.dst, link.cost % 5 + 1),
                ("cost", link.src, link.dst, link.cost),
            ]
    return engine, script


def run_churn(engine, script: list[tuple]) -> dict:
    """Every step of ``script`` scheduled one simulated second on and run
    to quiescence."""

    messages = engine.trace.message_count
    quiescent = True
    for kind, src, dst, cost in script:
        at = engine.scheduler.now + 1.0
        if kind == "fail":
            engine.schedule_link_failure(src, dst, at)
        elif kind == "restore":
            engine.schedule_link_restore(src, dst, at)
        else:
            engine.schedule_cost_change(src, dst, cost, at)
        quiescent = engine.run().quiescent and quiescent
    return {
        "routes": len(engine.rows("bestRoute")),
        "messages": engine.trace.message_count - messages,
        "quiescent": quiescent,
    }


def prepare_serve(state_dir: str, family: str = "tree", size: int = 28):
    """A booted in-process service and its update script (untimed)."""

    service = RouteService(ServerConfig(state_dir=state_dir, family=family, size=size))
    script = []
    for _ in range(SERVE_PASSES):
        for link in service.engine.topology.links():
            if link.src < link.dst:
                args = {"src": link.src, "dst": link.dst}
                script += [
                    ("link_fail", args),
                    ("link_restore", args),
                    ("cost_change", {**args, "cost": link.cost % 5 + 1}),
                    ("cost_change", {**args, "cost": link.cost}),
                ]
    return service, script


def run_serve(service, script: list[tuple]) -> dict:
    """Every update of ``script`` applied and settled, as the daemon does."""

    messages = service.engine.trace.message_count
    settled = True
    for verb, args in script:
        settled = service.apply_update(verb, args)["settled"] and settled
    schema = service.schema
    return {
        "routes": len(service.engine.rows(schema.best_predicate)),
        "messages": service.engine.trace.message_count - messages,
        "quiescent": settled,
    }


def cost_centre(code) -> str:
    """``file.py:Qualified.name`` of a code object."""

    return f"{os.path.basename(code.co_filename)}:{code.co_qualname}"


def sample(
    work: Callable[[], dict], interval: float
) -> tuple[dict, int, Counter, Counter]:
    """Run ``work`` under the ``ITIMER_PROF`` stack sampler.

    Returns ``(outcome, ticks, self_ticks, inclusive_ticks)``, the tick
    counters keyed by :func:`cost_centre`.
    """

    own: Counter = Counter()
    inclusive: Counter = Counter()
    ticks = 0

    def on_tick(signum, frame) -> None:
        nonlocal ticks
        ticks += 1
        if frame is None:
            return
        own[cost_centre(frame.f_code)] += 1
        seen = set()
        while frame is not None:
            centre = cost_centre(frame.f_code)
            if centre not in seen:
                seen.add(centre)
                inclusive[centre] += 1
            frame = frame.f_back

    previous = signal.signal(signal.SIGPROF, on_tick)
    signal.setitimer(signal.ITIMER_PROF, interval, interval)
    try:
        outcome = work()
    finally:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, previous)
    return outcome, ticks, own, inclusive


def share_table(title: str, counts: Counter, ticks: int, top: int) -> str:
    lines = [f"== top {top} by {title} share ({ticks} samples) =="]
    for centre, count in counts.most_common(top):
        lines.append(f"{100.0 * count / ticks:6.1f}%  {centre}")
    return "\n".join(lines) + "\n"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--output",
        default="profile_e4.txt",
        help="file the profile report is written to (default: profile_e4.txt)",
    )
    parser.add_argument(
        "--top", type=int, default=20, help="functions per ranking (default: 20)"
    )
    parser.add_argument(
        "--family", default=None, help="scenario family (default: power_law)"
    )
    parser.add_argument(
        "--size",
        type=int,
        default=None,
        help="scenario node count (default: 50, 31 with --churn, 28 with --serve)",
    )
    parser.add_argument(
        "--sample",
        action="store_true",
        help="report sampled self/inclusive shares instead of a cProfile",
    )
    parser.add_argument(
        "--churn",
        action="store_true",
        help="sample link cycles on one converged engine (implies --sample)",
    )
    parser.add_argument(
        "--serve",
        action="store_true",
        help="sample settled updates of an in-process serving daemon (implies --sample)",
    )
    args = parser.parse_args()

    buffer = io.StringIO()
    if args.serve:
        args.sample = True
        args.family = args.family or "tree"
        args.size = args.size or 28
        title = f"serve {args.family}-{args.size} update profile"
        with tempfile.TemporaryDirectory() as state_dir:
            service, script = prepare_serve(state_dir, args.family, args.size)
            start = time.perf_counter()
            outcome, ticks, own, inclusive = sample(
                lambda: run_serve(service, script), SAMPLE_INTERVAL
            )
            elapsed = time.perf_counter() - start
            service.close()
        instrument = f"for {len(script)} updates sampled every {SAMPLE_INTERVAL * 1e3:g} ms of CPU"
    elif args.churn:
        args.sample = True
        args.family = args.family or "power_law"
        args.size = args.size or 31
        title = f"churn {args.family}-{args.size} link-cycle profile"
        engine, script = prepare_churn(args.family, args.size)
        start = time.perf_counter()
        outcome, ticks, own, inclusive = sample(
            lambda: run_churn(engine, script), SAMPLE_INTERVAL
        )
        elapsed = time.perf_counter() - start
        engine.close()
        instrument = f"for {len(script)} ops sampled every {SAMPLE_INTERVAL * 1e3:g} ms of CPU"
    else:
        args.family = args.family or "power_law"
        args.size = args.size or 50
        title = f"E4 {args.family}-{args.size} convergence profile"
        inputs = prepare_e4(args.family, args.size)
        start = time.perf_counter()
        if args.sample:

            def work() -> dict:
                return [run_e4(inputs) for _ in range(SAMPLED_OPS)][-1]

            outcome, ticks, own, inclusive = sample(work, SAMPLE_INTERVAL)
            elapsed = time.perf_counter() - start
            instrument = f"for {SAMPLED_OPS} ops sampled every {SAMPLE_INTERVAL * 1e3:g} ms of CPU"
        else:
            profiler = cProfile.Profile()
            profiler.enable()
            outcome = run_e4(inputs)
            profiler.disable()
            elapsed = time.perf_counter() - start
            instrument = "under cProfile"
    # ru_maxrss is in KiB on Linux
    max_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    buffer.write(
        f"{title} "
        f"(wall {elapsed:.2f}s {instrument}; {outcome['routes']} routes, "
        f"{outcome['messages']} messages, quiescent={outcome['quiescent']}; "
        f"max RSS {max_rss_mb:.0f} MB)\n\n"
    )
    if args.sample:
        if not ticks:
            raise SystemExit("no samples taken")
        buffer.write(share_table("self", own, ticks, args.top))
        buffer.write("\n")
        buffer.write(share_table("inclusive", inclusive, ticks, args.top))
    else:
        stats = pstats.Stats(profiler, stream=buffer)
        buffer.write(f"== top {args.top} by cumulative time ==\n")
        stats.sort_stats("cumulative").print_stats(args.top)
        buffer.write(f"\n== top {args.top} by internal time ==\n")
        stats.sort_stats("tottime").print_stats(args.top)

    report = buffer.getvalue()
    with open(args.output, "w") as handle:
        handle.write(report)
    print(report)
    print(f"profile written to {args.output}")


if __name__ == "__main__":
    main()
