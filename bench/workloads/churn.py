"""``churn``: fail, restore and re-cost every link of one long-lived engine.

One op is a single ``schedule_link_failure`` / ``schedule_link_restore`` /
``schedule_cost_change`` followed by ``run()`` to quiescence.  The graph is
one fixed power-law shape; the seed relabels its nodes and orders the links.
A full pass gives *every* link one cycle — fail, restore, re-cost to
``cost % 5 + 1``, re-cost back — so each cycle starts from the original
graph and the multiset of ops is the same for every seed.  (Sampling links,
drawing costs, or letting re-costs accumulate each made the work a function
of the seed: the median op moved by 20 % between seeds.)
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from time import perf_counter

from repro.bgp.generator import policy_path_vector_program
from repro.dn import EngineConfig, create_engine
from repro.scenarios import generate_scenario

from .. import config
from ..oracle import LinkState, best_route_costs, link_cycle, route_mismatches
from ..runtime import Pass
from ..spans import OP
from .engine_ops import POLICY, engine_layer_metrics, relabelled

#: simulated seconds between updates; quiescence is reached long before
SIM_STEP = 1.0

#: the kinds ``Trace.retraction_count`` counts, here counted over one op's
#: slice of the trace: the property rescans a trace that only grows (5 s of a
#: traced pass)
RETRACTIONS = ("delete", "expire", "retract")


@dataclass
class State:
    engine: object
    links: LinkState
    #: (kind, src, dst, new cost or None) in execution order
    script: list[tuple]
    oracle_every: int
    create_s: float
    stats: list[dict] = field(default_factory=list)


def _check(engine, links: LinkState, label: str) -> list[str]:
    mismatches = route_mismatches(
        best_route_costs(engine.rows("bestRoute")), links.shortest_costs()
    )
    return [f"{label}: {line}" for line in mismatches[:3]]


def prepare(run: Pass) -> State:
    cfg = config.SIZES["churn"]
    rng = random.Random(run.seed)
    scenario = generate_scenario(cfg["family"], size=cfg["size"], seed=0, policy=POLICY)
    topology, links = relabelled(scenario, rng)
    scenario.topology = topology
    script: list[tuple] = []
    while len(script) < run.n_ops:
        pairs = links.pairs()
        rng.shuffle(pairs)
        for src, dst in pairs:
            script += link_cycle(src, dst, links.cost(src, dst))
    start = perf_counter()
    engine = create_engine(
        policy_path_vector_program(), topology,
        config=EngineConfig(seed=run.seed, max_events=10_000_000),
    )
    create_s = perf_counter() - start
    trace = engine.run(extra_facts=scenario.policy_fact_list())
    if not trace.quiescent:
        run.problems.append("initial convergence not quiescent")
    run.problems += _check(engine, links, "initial convergence")
    state = State(engine, links, script[: run.n_ops], cfg["oracle_every"], create_s)
    # warm-up: one link's cycle compiles the deletion-delta and negation
    # variants and leaves the graph as it found it
    warm = Pass("churn", run.seed, 4, False, run.seconds)
    for step in script[:4]:
        _, problems = run_op(warm, state, step)
        run.problems += problems
    return state


def run_op(run: Pass, state: State, step: tuple) -> tuple[float, list[str]]:
    kind, src, dst, new_cost = step
    engine, links = state.engine, state.links
    obs = run.obs
    if obs is not None:
        obs.begin_op()
        before = _totals(engine)
    at = engine.scheduler.now + SIM_STEP
    start = perf_counter()
    with run.spans.span(OP, kind=kind):
        with run.spans.span("engine.schedule"):
            if kind == "link_fail":
                engine.schedule_link_failure(src, dst, at)
            elif kind == "link_restore":
                engine.schedule_link_restore(src, dst, at)
            else:
                engine.schedule_cost_change(src, dst, new_cost, at)
        with run.spans.span("engine.run"):
            trace = engine.run()
    wall = perf_counter() - start
    links.apply(kind, src, dst, new_cost)
    problems = [] if trace.quiescent else [f"{kind} {src}-{dst}: run not quiescent"]
    if obs is not None:
        program = obs.end_op()
        after = _totals(engine)
        changes = engine.trace.state_changes[before["state_changes"] :]
        state.stats.append(
            {key: after[key] - before[key] for key in after}
            | {"wall": wall, "flush_s": program.get("engine.flush", 0.0),
               "retractions": sum(1 for change in changes if change.kind in RETRACTIONS)}
        )
    return wall, problems


def _totals(engine) -> dict:
    trace = engine.trace
    nodes = [node.stats for node in engine.nodes.values()]
    return {
        "events": engine.scheduler.processed,
        "messages": trace.message_count,
        "state_changes": trace.state_change_count,
        "inserted": sum(s.tuples_inserted + s.tuples_replaced for s in nodes),
        "deleted": sum(s.tuples_deleted for s in nodes),
        "firings": sum(s.rule_firings for s in nodes),
    }


def measure(run: Pass, state: State) -> None:
    run.start_timing()
    for index, step in enumerate(state.script, start=1):
        wall, problems = run_op(run, state, step)
        if index % state.oracle_every == 0 or index == len(state.script):
            problems += _check(state.engine, state.links, f"op {index}")
        if not run.op_done(wall, problems):
            break
    run.section.finish()


def layers(run: Pass, state: State) -> None:
    out = run.layer
    factor = run.layer_factor
    engine_layer_metrics(run, state.stats)
    out["engine.create_ms_p50"] = state.create_s * 1000.0 * factor
    # the Trace of a long-lived engine only grows; hashing it is what a
    # snapshot or a determinism check pays at the end of the pass
    start = perf_counter()
    state.engine.trace.fingerprint()
    out["trace.fingerprint_ms_p50"] = (perf_counter() - start) * 1000.0 * factor


def teardown(state: State) -> None:
    state.engine.close()
