"""E2 — count-to-infinity in the distance-vector protocol (paper §3.1, ref [22]).

Paper claim: FVN can establish the *presence* of count-to-infinity loops in
the distance-vector protocol.  The bench (a) runs the dynamic simulator and
observes the metric climbing to the infinity bound after a partition while
the path-vector protocol does not, and (b) uses the finite-model layer to
show the distance-vector fixpoint re-derives routes through stale neighbours.
"""

from repro.analysis import render_table
from repro.ndlog.seminaive import evaluate
from repro.protocols.distancevector import DistanceVectorSimulator, distance_vector_program
from repro.protocols.pathvector import path_vector_program
from repro.scenarios import generate_scenario
from repro.workloads.topologies import full_mesh_topology, line_topology, ring_topology


def run_failure_experiment(split_horizon: bool):
    simulator = DistanceVectorSimulator(line_topology(3), split_horizon=split_horizon)
    return simulator.failure_experiment(1, 2, observe=(0, 2))


def test_bench_count_to_infinity_detection(benchmark, experiment_report):
    report = benchmark(run_failure_experiment, False)
    assert report.count_to_infinity
    mitigated = run_failure_experiment(True)
    assert not mitigated.count_to_infinity
    rows = [
        ["distance-vector", "no", report.max_metric_seen, report.rounds_after_failure, "yes"],
        ["distance-vector", "split horizon", mitigated.max_metric_seen, mitigated.rounds_after_failure, "no"],
    ]
    experiment_report(
        "E2",
        ["paper: count-to-infinity loops are present in the distance-vector protocol"]
        + render_table(
            ["protocol", "mitigation", "max metric", "rounds after failure", "counts to infinity"],
            rows,
        ).splitlines()
        + [f"metric trajectory at node 0 towards 2: {report.metric_trajectory[:10]}"],
    )


def test_bench_path_vector_immune(benchmark, experiment_report):
    def path_vector_after_failure():
        topo = line_topology(3)
        topo.fail_link(1, 2)
        return evaluate(path_vector_program(), [("link", f) for f in topo.link_facts()])

    db = benchmark(path_vector_after_failure)
    stale = [row for row in db.rows("bestPath") if row[1] == 2]
    assert stale == []
    experiment_report(
        "E2",
        [
            "path-vector after the same partition: no route to the unreachable "
            f"destination is derived ({len(db.rows('bestPath'))} best paths remain) — "
            "the path vector's loop check is what the optimality proof relies on"
        ],
    )


def test_bench_bounded_metric_fixpoint(benchmark, experiment_report):
    topo = ring_topology(4)
    facts = [("link", f) for f in topo.link_facts()]

    def run():
        return evaluate(distance_vector_program(), facts)

    db = benchmark(run)
    derived_walks = len(db.rows("cost"))
    best = len(db.rows("bestCost"))
    experiment_report(
        "E2",
        [
            f"declarative distance-vector fixpoint on a 4-ring: {derived_walks} bounded-metric "
            f"cost tuples support {best} best costs (walks up to the infinity bound are all "
            "derivable — the static shadow of count-to-infinity)"
        ],
    )
    assert best == 12


def test_bench_indexed_fixpoint_on_generated_tree50(
    benchmark, experiment_report, reference_rules
):
    """The bounded-metric distance-vector fixpoint on a generated 50-node
    tree: generated code with hash-index probes, checked against the
    reference interpreter's scan joins."""

    scenario = generate_scenario("tree", size=50, seed=7)
    program = distance_vector_program()
    facts = scenario.link_facts()

    db = benchmark.pedantic(lambda: evaluate(program, facts), rounds=1, iterations=1)
    with reference_rules():
        reference_db = evaluate(program, facts)
    assert db.snapshot() == reference_db.snapshot()
    experiment_report(
        "E2",
        [
            f"distance-vector fixpoint on generated tree-50 ({scenario.link_count} links): "
            f"{db.fact_count()} facts, equal to the reference interpreter's"
        ],
    )


def test_bench_codegen_fixpoint_on_dense_meshes(benchmark, experiment_report, reference_rules):
    """The bounded-metric distance-vector fixpoint over dense weighted
    meshes, checked against the reference interpreter.

    With uniform link cost 5 (or 7) on a full mesh, most candidate route
    extensions overshoot the RIP infinity bound and are rejected inside the
    rule body, so the run is dominated by rule evaluation — the join
    enumeration, inlined arithmetic, and bound checks the generated code
    specializes — rather than by tuple storage.  This is the static shadow
    of count-to-infinity doing real work: the bound is what trims the walk
    space.
    """

    program = distance_vector_program()
    meshes = [
        ("K15 cost=5", full_mesh_topology(15, cost=5)),
        ("K20 cost=7", full_mesh_topology(20, cost=7)),
    ]
    mesh_facts = [
        (name, [("link", f) for f in topo.link_facts()]) for name, topo in meshes
    ]

    def fixpoints():
        return [evaluate(program, facts) for _, facts in mesh_facts]

    dbs = benchmark.pedantic(fixpoints, rounds=1, iterations=1)
    rows = []
    for (name, facts), db in zip(mesh_facts, dbs):
        with reference_rules():
            assert db.snapshot() == evaluate(program, facts).snapshot()
        rows.append([name, len(facts), len(db.rows("cost"))])
    experiment_report(
        "E2",
        ["bounded-metric fixpoint on dense meshes (equal to the reference interpreter's)"]
        + render_table(["mesh", "links", "cost tuples"], rows).splitlines(),
    )
