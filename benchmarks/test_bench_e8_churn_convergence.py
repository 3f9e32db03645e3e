"""E8 — churn convergence with incremental retraction (tree-50).

The retraction subsystem's headline workload: a 50-node generated tree
running the paper's path-vector program sustains a link fail/restore cycle
and must reconverge to exactly the fixpoint of the surviving topology —
zero stale route tuples anywhere — with the deletion wave propagated
incrementally (counts + deletion deltas) instead of by global recomputation.
The regression gate tracks the retraction overhead.
"""

from repro.dn.engine import DistributedEngine
from repro.ndlog.parser import parse_program
from repro.protocols.pathvector import PATH_VECTOR_SOURCE
from repro.scenarios import generate_scenario


def tree50():
    return generate_scenario("tree", size=50, seed=3).topology


def pv_program():
    return parse_program(PATH_VECTOR_SOURCE, "pv")


def run_churn_cycle(config=None):
    """Converge on tree-50, fail a link, restore it, reconverge."""

    topology = tree50()
    link = topology.up_links()[0]
    engine = DistributedEngine(pv_program(), topology, config=config)
    engine.seed_facts()
    first = engine.run(until=0.99)
    engine.schedule_link_failure(link.src, link.dst, at=1.0)
    engine.schedule_link_restore(link.src, link.dst, at=2.0)
    trace = engine.run()
    return engine, trace, first


def stale_routes(engine) -> int:
    """Best-path tuples that a fresh engine on the same topology lacks."""

    fresh = DistributedEngine(pv_program(), engine.topology)
    fresh.run()
    return len(set(engine.rows("bestPath")) - set(fresh.rows("bestPath")))


def test_bench_churn_cycle_tree50(benchmark, experiment_report):
    engine, trace, _ = benchmark(run_churn_cycle)
    assert trace.quiescent
    # acceptance: post-churn state equals the fresh fixpoint — no stale
    # routes through the (restored) link, nothing missing
    assert stale_routes(engine) == 0
    assert len(engine.rows("bestPath")) == 50 * 49
    retracts = trace.retraction_message_count
    experiment_report(
        "E8",
        [
            f"tree-50 fail/restore cycle: quiescent, 0 stale routes, "
            f"{trace.message_count} messages ({retracts} retractions), "
            f"{trace.retraction_count} tuples retracted, t={trace.finished_at:.3f}s"
        ],
    )


def test_bench_churn_failure_only_tree50(benchmark, experiment_report):
    def run():
        topology = tree50()
        link = topology.up_links()[0]
        engine = DistributedEngine(pv_program(), topology)
        engine.seed_facts()
        engine.run(until=0.99)
        engine.schedule_link_failure(link.src, link.dst, at=1.0)
        return engine, engine.run()

    engine, trace = benchmark(run)
    assert trace.quiescent
    # a failed tree link partitions the tree: every cross-partition route
    # must be withdrawn and none may survive
    assert stale_routes(engine) == 0
    experiment_report(
        "E8",
        [
            f"tree-50 partition by failure: {len(engine.rows('bestPath'))} routes "
            f"remain, {trace.retraction_count} tuples retracted"
        ],
    )
