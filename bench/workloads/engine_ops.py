"""``converge`` and ``sharded``: cold policy path-vector convergences.

One op is ``create_engine`` -> ``run`` to quiescence -> ``Trace.fingerprint()``
-> ``close`` on a power-law graph.  ``sharded`` runs the identical ops on two
process shards, so its difference from ``converge`` is the price of
``repro.dn.shard``.

The graph *shapes* (structure and link costs) are a fixed pool; the seed
relabels every shape's nodes and orders the ops.  Redrawing the graphs per
seed moved the work per op by +-13 % (24 seeds, events and wall alike),
which no 10 % bound survives; a relabelled shape is a different input to
every hash, sort and partition in the engine yet costs the same within
0.5 % of events.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from time import perf_counter

from repro.bgp.generator import policy_path_vector_program
from repro.dn import EngineConfig, ShardedEngine, Topology, create_engine
from repro.scenarios import generate_scenario

from .. import config
from ..calib import p50
from ..obs import counter, histogram
from ..oracle import LinkState, best_route_costs, route_mismatches
from ..runtime import Pass, children_cpu_s
from ..spans import OP

POLICY = "shortest_path"


@dataclass
class Shape:
    """One relabelled input graph and what the oracle expects of it."""

    topology: Topology
    policy_facts: list
    expected: dict
    fingerprint: str = ""
    validated: bool = False


@dataclass
class State:
    cfg: dict
    program: object
    shapes: list[Shape]
    order: list[int]
    #: traced pass only: per-op raw material for the layer metrics
    stats: list[dict] = field(default_factory=list)
    worker_cpu_s: float = 0.0


def relabelled(scenario, rng: random.Random) -> tuple[Topology, LinkState]:
    """The scenario's graph under a seeded permutation of its node ids.

    Nodes and links are inserted in the original's order, so everything the
    engine derives from insertion order (the metis-lite partition above all:
    its edge cut moved ``sharded`` by 20 % when insertion followed the new
    ids) is isomorphic to the original's, while every hash and sort of a
    node id sees new values.
    """

    old = scenario.topology
    ids = list(old.nodes)
    shuffled = sorted(ids)
    rng.shuffle(shuffled)
    rename = dict(zip(ids, shuffled))
    topology = Topology()
    for node in ids:
        topology.add_node(rename[node])
    links = []
    for link in old.links():
        src, dst = rename[link.src], rename[link.dst]
        if topology.link(src, dst) is None:
            topology.add_link(src, dst, cost=link.cost)
            links.append((src, dst, link.cost))
    return topology, LinkState(topology.nodes, links)


def engine_config(cfg: dict, shape_index: int, **overrides) -> EngineConfig:
    base = dict(seed=shape_index, max_events=10_000_000)
    if "shards" in cfg:
        base.update(shards=cfg["shards"], partition="metis-lite", shard_transport="process")
    base.update(overrides)
    return EngineConfig(**base)


def run_op(run: Pass, state: State, shape_index: int, **overrides) -> tuple[float, list[str]]:
    """One cold convergence; returns its latency and any oracle complaints."""

    shape = state.shapes[shape_index]
    spans = run.spans
    obs = run.obs
    if obs is not None:
        obs.begin_op()
    cpu0 = time.process_time()
    start = perf_counter()
    with spans.span(OP, shape=shape_index):
        with spans.span("engine.create"):
            engine = create_engine(
                state.program, shape.topology, config=engine_config(state.cfg, shape_index, **overrides)
            )
        try:
            with spans.span("engine.run"):
                trace = engine.run(extra_facts=shape.policy_facts)
            with spans.span("trace.fingerprint"):
                fingerprint = trace.fingerprint()
            problems = []
            if isinstance(engine, ShardedEngine) and not shape.validated and not overrides:
                with run.untimed("oracle.validate_shards"):
                    engine.validate_shards()  # raises ShardError on divergence
                    shape.validated = True
        finally:
            with spans.span("engine.close"):
                engine.close()
    wall = perf_counter() - start - run.take_gap()
    cpu = time.process_time() - cpu0

    if not trace.quiescent:
        problems.append(f"shape {shape_index}: run not quiescent")
    problems += [
        f"shape {shape_index}: {line}"
        for line in route_mismatches(best_route_costs(engine.rows("bestRoute")), shape.expected)[:3]
    ]
    if shape.fingerprint and fingerprint != shape.fingerprint:
        problems.append(f"shape {shape_index}: fingerprint differs between runs of one input")
    shape.fingerprint = shape.fingerprint or fingerprint

    if obs is not None:
        program = obs.end_op()
        nodes = [node.stats for node in engine.nodes.values()]
        state.stats.append(
            {
                "wall": wall,
                "cpu": cpu,
                "events": trace.events_processed,
                "messages": trace.message_count,
                "state_changes": trace.state_change_count,
                "retractions": trace.retraction_count,
                "inserted": sum(s.tuples_inserted + s.tuples_replaced for s in nodes),
                "deleted": sum(s.tuples_deleted for s in nodes),
                "firings": sum(s.rule_firings for s in nodes),
                "flush_s": program.get("engine.flush", 0.0) + program.get("shard.flush_wave", 0.0),
                "edge_cut": engine.shard_summary()["edge_cut"] if isinstance(engine, ShardedEngine) else 0,
            }
        )
    return wall, problems


def prepare(run: Pass) -> State:
    cfg = config.SIZES[run.workload]
    rng = random.Random(run.seed)
    shapes = []
    for index in range(cfg["shapes"]):
        scenario = generate_scenario(cfg["family"], size=cfg["size"], seed=index, policy=POLICY)
        topology, links = relabelled(scenario, rng)
        scenario.topology = topology
        shapes.append(Shape(topology, scenario.policy_fact_list(), links.shortest_costs()))
    order: list[int] = []
    while len(order) < run.n_ops:
        round_order = list(range(len(shapes)))
        rng.shuffle(round_order)
        order += round_order
    state = State(cfg, policy_path_vector_program(), shapes, order[: run.n_ops])
    # warm-up: codegen cache, lazy imports, one fork of the shard workers
    warm = Pass(run.workload, run.seed, 1, False, run.seconds)
    _, problems = run_op(warm, state, state.order[0])
    run.problems += problems
    return state


def measure(run: Pass, state: State) -> None:
    cpu_before = children_cpu_s()
    run.start_timing()
    for shape_index in state.order:
        wall, problems = run_op(run, state, shape_index)
        if not run.op_done(wall, problems):
            break
    run.section.finish()
    state.worker_cpu_s = children_cpu_s() - cpu_before


def _variant_p50s(run: Pass, state: State, variants: dict[str, dict]) -> dict[str, float]:
    """Calibrated median latency of one round of the ops under each set of
    config overrides, the variants interleaved shape by shape so that a slow
    minute of the host falls on all of them alike."""

    side = Pass(run.workload, run.seed, len(state.shapes) * len(variants), False, run.seconds)
    side.start_timing()
    for shape_index in range(len(state.shapes)):
        for overrides in variants.values():
            wall, problems = run_op(side, state, shape_index, **overrides)
            run.problems += problems
            side.op_done(wall, [])
    side.section.finish()
    op_ms = side.section.op_ms()
    return {
        name: p50(op_ms[offset :: len(variants)]) for offset, name in enumerate(variants)
    }


def engine_layer_metrics(run: Pass, stats: list[dict]) -> dict:
    """Engine, executor, store and trace metrics from a traced pass's per-op
    ``stats`` (counts, wall and flush seconds), its ``engine.run`` spans and
    the merged registry; returns the per-key totals of ``stats``."""

    out = run.layer
    factor = run.layer_factor
    n = len(stats)
    snapshot = run.obs.snapshot()
    total = {key: sum(s[key] for s in stats) for key in stats[0]}
    run_s = sum(run.spans.durations("engine.run"))
    out["engine.run_ms_p50"] = p50(run.spans.durations("engine.run")) * 1000.0 * factor
    out["engine.events_per_op"] = total["events"] / n
    out["engine.messages_per_op"] = total["messages"] / n
    out["engine.us_per_event"] = run_s * factor * 1e6 / total["events"]
    out["engine.us_per_message"] = run_s * factor * 1e6 / total["messages"]
    out["engine.sched_self_share"] = (run_s - total["flush_s"]) / run_s
    out["executor.flush_share"] = total["flush_s"] / total["wall"]
    flushes = counter(snapshot, "engine.flushes")
    if flushes:  # a sharded coordinator counts waves instead: shard.flush_waves_per_op
        out["executor.flushes_per_op"] = flushes / n
    out["executor.rule_firings_per_op"] = total["firings"] / n
    out["executor.us_per_firing"] = total["flush_s"] * factor * 1e6 / total["firings"]
    out["executor.fixpoint_rounds_p50"] = histogram(snapshot, "engine.fixpoint_rounds", "p50")
    out["executor.delta_batch_p50"] = histogram(snapshot, "engine.delta_batch_size", "p50")
    out["executor.retraction_cascade_p95"] = histogram(snapshot, "engine.retraction_cascade", "p95")
    out["store.tuples_inserted_per_op"] = total["inserted"] / n
    out["store.tuples_deleted_per_op"] = total["deleted"] / n
    out["trace.state_changes_per_op"] = total["state_changes"] / n
    out["trace.retractions_per_op"] = total["retractions"] / n
    run.counts.update({k: v for k, v in out.items() if k.endswith("_per_op")})
    return total


def layers(run: Pass, state: State) -> None:
    """Engine, executor, store, trace and shard metrics of the traced pass."""

    out = run.layer
    factor = run.layer_factor
    stats = state.stats
    n = len(stats)
    total = engine_layer_metrics(run, stats)
    for name in ("engine.create", "engine.close", "trace.fingerprint"):
        out[f"{name}_ms_p50"] = p50(run.spans.durations(name)) * 1000.0 * factor
    if "shards" not in state.cfg:
        return

    out["shard.spawn_ms_p50"] = out["engine.create_ms_p50"]
    out["shard.coordinator_cpu_share"] = total["cpu"] / total["wall"]
    out["shard.worker_cpu_s"] = state.worker_cpu_s
    snapshot = run.obs.snapshot()
    run_s = sum(run.spans.durations("engine.run"))
    out["shard.wait_share"] = histogram(snapshot, "shard.request_seconds", "sum") / run_s
    out["shard.requests_per_op"] = counter(snapshot, "shard.requests") / n
    out["shard.flush_waves_per_op"] = counter(snapshot, "shard.flush_waves") / n
    out["shard.wave_size_p50"] = histogram(snapshot, "shard.wave_size", "p50")
    out["shard.edge_cut"] = p50([s["edge_cut"] for s in stats])
    run.counts["shard.requests_per_op"] = out["shard.requests_per_op"]
    run.counts["shard.flush_waves_per_op"] = out["shard.flush_waves_per_op"]
    # the same ops without the pipe, then without the coordinator: untraced,
    # one round each, so the three medians compare like with like
    run.obs.close()
    variant = _variant_p50s(
        run, state,
        {"process": {}, "inline": {"shard_transport": "inline"}, "single": {"shards": 1}},
    )
    out["shard.inline_op_ms_p50"] = variant["inline"]
    out["shard.replay_ms_per_op"] = variant["inline"] - variant["single"]
    out["shard.ipc_ms_per_op"] = variant["process"] - variant["inline"]


def teardown(state: State) -> None:
    """Nothing outlives an op: every engine is closed where it is created."""
