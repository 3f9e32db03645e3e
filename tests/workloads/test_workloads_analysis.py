"""Unit tests for workload generators and analysis metrics."""

import networkx as nx
import pytest

from repro.analysis import ConvergenceMetrics, ProofEffort, mean, render_table, speedup
from repro.dn.engine import DistributedEngine
from repro.dn.trace import Trace
from repro.logic.prover import ProofResult, ProofStep
from repro.logic.formulas import atom
from repro.ndlog.parser import parse_program
from repro.protocols.pathvector import PATH_VECTOR_SOURCE
from repro.workloads import (
    WorkloadScript,
    as_hierarchy_topology,
    grid_topology,
    line_topology,
    periodic_refresh_workload,
    random_topology,
    ring_topology,
    star_topology,
    to_edge_list,
)


class TestTopologies:
    def test_shapes(self):
        assert line_topology(4).node_count == 4
        assert len(line_topology(4).up_links()) == 6
        assert len(ring_topology(4).up_links()) == 8
        assert star_topology(5).node_count == 5
        assert grid_topology(2, 3).node_count == 6

    def test_random_topology_is_connected_and_deterministic(self):
        topo1 = random_topology(10, seed=7)
        topo2 = random_topology(10, seed=7)
        assert to_edge_list(topo1) == to_edge_list(topo2)
        assert nx.is_connected(topo1.to_networkx().to_undirected())

    def test_as_hierarchy(self):
        topo, customer_provider = as_hierarchy_topology((2, 3), seed=1)
        assert topo.node_count == 5
        assert customer_provider
        assert all(c.startswith("t1") and p.startswith("t0") for c, p in customer_provider)


class TestWorkloadScripts:
    def test_events_sorted_by_time(self):
        script = WorkloadScript().fail_link(1, 2, at=5.0)
        script.set_cost(2, 3, 9, at=1.0)
        assert [e.at for e in script.events] == [1.0, 5.0]
        assert len(script) == 2

    def test_periodic_refresh(self):
        script = periodic_refresh_workload([("hb", ("a", "b"))], period=2.0, repetitions=3)
        assert [e.at for e in script.events] == [0.0, 2.0, 4.0]

    def test_apply_to_engine_schedules_events(self):
        program = parse_program(PATH_VECTOR_SOURCE, "pv")
        engine = DistributedEngine(program, ring_topology(4))
        engine.seed_facts()
        script = WorkloadScript().fail_link(0, 1, at=1.0)
        script.apply_to_engine(engine)
        trace = engine.run()
        assert any(c.kind == "delete" for c in trace.state_changes)


class TestAnalysis:
    def test_convergence_metrics_from_trace(self):
        trace = Trace()
        trace.record_change(0.2, "a", "bestPath", ("a", "b"))
        trace.record_message(0.1, "a", "b", "path", ("a", "b"))
        trace.quiescent = True
        metrics = ConvergenceMetrics.from_trace(trace)
        assert metrics.converged and metrics.messages == 1
        assert metrics.convergence_time == 0.2

    def test_convergence_metrics_from_a_compacted_trace(self):
        """The metrics are answered from counters: compaction, which drops
        every whole block of records, changes none of them."""

        full, compacted = Trace(), Trace()
        for trace in (full, compacted):
            for i in range(3 * Trace.FOLD_BLOCK + 7):
                predicate = "bestPath" if i % 3 else "path"
                trace.record_change(i / 10, "a", predicate, ("a", i))
                trace.record_message(i / 10, "a", "b", predicate, ("a", i))
            trace.quiescent = True
        compacted.compact()
        assert compacted.compacted and not full.compacted
        for predicate in (None, "path", "bestPath", "link"):
            for since in (0.0, 30.0, 80.0, 500.0):
                assert ConvergenceMetrics.from_trace(
                    compacted, predicate=predicate, since=since
                ) == ConvergenceMetrics.from_trace(full, predicate=predicate, since=since)
        metrics = ConvergenceMetrics.from_trace(compacted, predicate="path", since=30.0)
        assert metrics.convergence_time == pytest.approx(
            max(i / 10 for i in range(3 * Trace.FOLD_BLOCK + 7) if i % 3 == 0) - 30.0
        )
        assert metrics.messages == metrics.state_changes == 3 * Trace.FOLD_BLOCK + 7

    def test_proof_effort_accounting(self):
        effort = ProofEffort()
        effort.add(
            ProofResult(
                "a", atom("p"), True,
                steps=[ProofStep("skosimp"), ProofStep("assert", automated=True)],
                elapsed_seconds=0.01,
            )
        )
        effort.add(
            ProofResult(
                "b", atom("q"), True,
                steps=[ProofStep("grind", automated=True)],
                elapsed_seconds=0.02,
            )
        )
        assert effort.proved == 2
        assert effort.total_steps == 3
        assert effort.automated_fraction == pytest.approx(2 / 3)
        assert "2/2 proved" in effort.summary()

    def test_table_rendering_and_helpers(self):
        table = render_table(["name", "value"], [["x", 1], ["longer", 22]])
        lines = table.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("name")
        assert mean([1, 2, 3]) == 2
        assert mean([]) == 0.0
        assert speedup(10, 2) == 5
        assert speedup(1, 0) == float("inf")
