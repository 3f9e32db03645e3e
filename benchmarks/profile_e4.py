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

``--campaign`` runs round 0 of the bench ``campaign`` workload — its 24
run descriptors (tree / power_law / waxman at 20 nodes, two policies,
churn 0 and 2, two seeds, all four monitors) — through ``execute_run`` in
this process, once unmeasured (codegen and parse caches fill), then
:data:`CAMPAIGN_REPS` times with and without monitors — each run's two
arms back to back, the first of them alternating.  Its header gives the
monitors' share of the monitored runs' process CPU time (the median over
reps, and bench's ``monitors.overhead_pct`` ratio over the same CPU
seconds); its tables sample the monitored runs.

Every report's header also counts CPython's cyclic-collector passes and
their milliseconds per op (or update, or run) with a ``gc.callbacks``
hook.  A sampled or cProfile share charges a collection to the Python
function whose allocation set it off, so a function's share can hold
collector time that is not its own; the header line is where that time
stands on its own.

Usage::

    PYTHONPATH=src python benchmarks/profile_e4.py [--output profile_e4.txt]
    PYTHONPATH=src python benchmarks/profile_e4.py --sample [--output FILE]
    PYTHONPATH=src python benchmarks/profile_e4.py --family tree --size 128
    PYTHONPATH=src python benchmarks/profile_e4.py --churn [--output FILE]
    PYTHONPATH=src python benchmarks/profile_e4.py --serve [--output FILE]
    PYTHONPATH=src python benchmarks/profile_e4.py --campaign [--output FILE]
"""

from __future__ import annotations

import argparse
import cProfile
import gc
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
from repro.harness import CampaignSpec, execute_run
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
#: passes over round 0's runs per arm (with / without monitors) of a
#: ``--campaign`` profile
CAMPAIGN_REPS = 3


class CollectorTally:
    """Cyclic-collector passes and seconds per generation, and the process
    CPU time, of the ``with`` block (a ``gc.callbacks`` hook).

    The block starts from a collected heap: a fresh process has run no
    full collection yet, and its first one (over every imported module
    and the prepared inputs) would otherwise land in the first op.
    """

    def __init__(self) -> None:
        self.passes = [0, 0, 0]
        self.seconds = [0.0, 0.0, 0.0]
        self.cpu = 0.0
        self._started = 0.0

    def __call__(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._started = time.perf_counter()
        else:
            self.passes[info["generation"]] += 1
            self.seconds[info["generation"]] += time.perf_counter() - self._started

    def __enter__(self) -> "CollectorTally":
        gc.collect()
        gc.callbacks.append(self)
        self.cpu = time.process_time()
        return self

    def __exit__(self, *exc) -> None:
        self.cpu = time.process_time() - self.cpu
        gc.callbacks.remove(self)

    def summary(self, units: int, unit: str) -> str:
        total = sum(self.seconds)
        gens = "/".join(str(n) for n in self.passes)
        return (
            f"collector: {sum(self.passes) / units:.1f} passes per {unit} "
            f"(gen0/1/2 {gens} in all), {total * 1e3 / units:.2f} ms per {unit}, "
            f"{100.0 * total / self.cpu:.1f}% of {self.cpu:.2f}s process CPU"
        )


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


def prepare_campaign(size: int = 20, seed: int = 0) -> list[dict]:
    """Round 0 of the bench ``campaign`` workload at ``seed``: its 24 run
    descriptors as plain data, each run once (untimed: whichever arm ran
    first would pay the codegen and parse caches)."""

    base = seed * 1000
    spec = CampaignSpec(
        name=f"bench-{seed}-0",
        families=("tree", "power_law", "waxman"),
        sizes=(size,),
        policies=("shortest_path", "gao_rexford"),
        seeds=(base, base + 1),
        churn_events=(0, 2),
        loss=(0.01,),
        churn_restore_delay=1.0,
        until=30.0,
        max_events=150_000,
        record_stale_routes=False,
    )
    descriptors = [descriptor.to_dict() for descriptor in spec.expand()]
    for data in descriptors:
        execute_run(data)
    return descriptors


def run_campaign_arms(descriptors: list[dict], reps: int, interval: float) -> tuple:
    """Each run of ``descriptors`` with monitors and without, back to back,
    ``reps`` times; the arm that goes first alternates run by run and rep
    by rep, so drift in the host's speed lands on both arms alike.

    Returns ``(outcome, shares, ticks, self_ticks, inclusive_ticks)``: the
    last monitored pass's totals, per rep the process CPU seconds of the
    two arms (``(with, without)``), and the monitored runs' samples.
    """

    shares = []
    ticks, own, inclusive = 0, Counter(), Counter()
    records: list[dict] = []
    for rep in range(reps):
        cpu = {True: 0.0, False: 0.0}
        records = []
        for index, data in enumerate(descriptors):
            first = (rep + index) % 2 == 0
            for monitored in (first, not first):
                run = data if monitored else dict(data, monitors=[])
                start = time.process_time()
                record, run_ticks, run_own, run_inclusive = sample(
                    lambda: execute_run(run), interval
                )
                cpu[monitored] += time.process_time() - start
                if monitored:
                    records.append(record)
                    ticks += run_ticks
                    own.update(run_own)
                    inclusive.update(run_inclusive)
        shares.append((cpu[True], cpu[False]))
    outcome = {
        "routes": sum(record["route_count"] for record in records),
        "messages": sum(record["messages"] for record in records),
        "quiescent": all(record["quiescent"] for record in records),
    }
    return outcome, shares, ticks, own, inclusive


def cost_centre(code) -> str:
    """``file.py:Qualified.name`` of a code object."""

    return f"{os.path.basename(code.co_filename)}:{code.co_qualname}"


def sample(
    work: Callable[[], object], interval: float
) -> tuple[object, int, Counter, Counter]:
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
        help="scenario node count (default: 50, 31 with --churn, 28 with --serve, "
        "20 with --campaign)",
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
    parser.add_argument(
        "--campaign",
        action="store_true",
        help="time and sample the bench campaign's round-0 runs in-process, "
        "with and without monitors (implies --sample)",
    )
    args = parser.parse_args()

    buffer = io.StringIO()
    tally = CollectorTally()
    notes: list[str] = []
    every = f"sampled every {SAMPLE_INTERVAL * 1e3:g} ms of CPU"
    if args.campaign:
        args.sample = True
        args.size = args.size or 20
        descriptors = prepare_campaign(args.size)
        title = f"campaign round-0 size-{args.size} profile"
        start = time.perf_counter()
        with tally:
            outcome, cpu, ticks, own, inclusive = run_campaign_arms(
                descriptors, CAMPAIGN_REPS, SAMPLE_INTERVAL
            )
        elapsed = time.perf_counter() - start
        units, unit = 2 * CAMPAIGN_REPS * len(descriptors), "run"
        instrument = (
            f"for {len(descriptors)} runs x {CAMPAIGN_REPS} reps x with/without monitors "
            f"{every}; tables: the monitored runs"
        )
        readings = sorted((with_s - without_s) / with_s for with_s, without_s in cpu)
        with_s, without_s = (sum(arm) for arm in zip(*cpu))
        notes.append(
            f"monitors: {100.0 * readings[len(readings) // 2]:.1f}% of the monitored runs' "
            f"process CPU, median of {len(readings)} reps (range "
            f"{100.0 * readings[0]:.1f}-{100.0 * readings[-1]:.1f}%; {with_s:.2f}s with, "
            f"{without_s:.2f}s without; monitors.overhead_pct over those seconds: "
            f"{100.0 * (with_s / without_s - 1):.1f})"
        )
    elif args.serve:
        args.sample = True
        args.family = args.family or "tree"
        args.size = args.size or 28
        title = f"serve {args.family}-{args.size} update profile"
        with tempfile.TemporaryDirectory() as state_dir:
            service, script = prepare_serve(state_dir, args.family, args.size)
            start = time.perf_counter()
            with tally:
                outcome, ticks, own, inclusive = sample(
                    lambda: run_serve(service, script), SAMPLE_INTERVAL
                )
            elapsed = time.perf_counter() - start
            service.close()
        units, unit = len(script), "update"
        instrument = f"for {len(script)} updates {every}"
    elif args.churn:
        args.sample = True
        args.family = args.family or "power_law"
        args.size = args.size or 31
        title = f"churn {args.family}-{args.size} link-cycle profile"
        engine, script = prepare_churn(args.family, args.size)
        start = time.perf_counter()
        with tally:
            outcome, ticks, own, inclusive = sample(
                lambda: run_churn(engine, script), SAMPLE_INTERVAL
            )
        elapsed = time.perf_counter() - start
        engine.close()
        units, unit = len(script), "op"
        instrument = f"for {len(script)} ops {every}"
    else:
        args.family = args.family or "power_law"
        args.size = args.size or 50
        title = f"E4 {args.family}-{args.size} convergence profile"
        inputs = prepare_e4(args.family, args.size)
        start = time.perf_counter()
        if args.sample:

            def work() -> dict:
                return [run_e4(inputs) for _ in range(SAMPLED_OPS)][-1]

            with tally:
                outcome, ticks, own, inclusive = sample(work, SAMPLE_INTERVAL)
            elapsed = time.perf_counter() - start
            units, unit = SAMPLED_OPS, "op"
            instrument = f"for {SAMPLED_OPS} ops {every}"
        else:
            profiler = cProfile.Profile()
            with tally:
                profiler.enable()
                outcome = run_e4(inputs)
                profiler.disable()
            elapsed = time.perf_counter() - start
            units, unit = 1, "op"
            instrument = "under cProfile"
    # ru_maxrss is in KiB on Linux
    max_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    buffer.write(
        f"{title} "
        f"(wall {elapsed:.2f}s {instrument}; {outcome['routes']} routes, "
        f"{outcome['messages']} messages, quiescent={outcome['quiescent']}; "
        f"max RSS {max_rss_mb:.0f} MB)\n"
    )
    for line in [*notes, tally.summary(units, unit)]:
        buffer.write(line + "\n")
    buffer.write(
        "(a sampled or cProfile share charges each collection to the allocation "
        "that set it off)\n\n"
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
