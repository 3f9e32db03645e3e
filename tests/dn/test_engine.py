"""Unit and integration tests for the distributed execution engine."""

import pytest

from repro.dn.engine import DistributedEngine, EngineConfig
from repro.dn.network import Topology
from repro.ndlog.parser import parse_program
from repro.ndlog.seminaive import evaluate
from repro.protocols.pathvector import PATH_VECTOR_SOURCE
from repro.workloads.topologies import line_topology, ring_topology


def triangle() -> Topology:
    return Topology.from_edges([("a", "b", 1), ("b", "c", 2), ("a", "c", 5)])


class TestDistributedPathVector:
    def test_matches_centralized_fixpoint(self):
        program = parse_program(PATH_VECTOR_SOURCE, "pv")
        engine = DistributedEngine(program, triangle())
        engine.run()
        central = evaluate(program, [("link", f) for f in triangle().link_facts()])
        assert set(engine.rows("bestPath")) == set(central.rows("bestPath"))
        assert set(engine.rows("path")) == set(central.rows("path"))

    def test_tuples_stored_at_their_location(self):
        program = parse_program(PATH_VECTOR_SOURCE, "pv")
        engine = DistributedEngine(program, triangle())
        engine.run()
        for node_id in ("a", "b", "c"):
            for row in engine.rows("bestPath", node_id):
                assert row[0] == node_id

    def test_trace_records_messages_and_quiescence(self):
        program = parse_program(PATH_VECTOR_SOURCE, "pv")
        engine = DistributedEngine(program, triangle())
        trace = engine.run()
        assert trace.quiescent
        assert trace.message_count > 0
        assert trace.message_count == len(trace.messages)
        assert engine.total_messages() == trace.message_count
        assert trace.state_change_count > 0

    def test_larger_ring_converges(self):
        program = parse_program(PATH_VECTOR_SOURCE, "pv")
        engine = DistributedEngine(program, ring_topology(6))
        trace = engine.run()
        assert trace.quiescent
        # every node knows a best path to every other node
        rows = engine.rows("bestPath")
        assert len(rows) == 6 * 5

    def test_message_delay_affects_convergence_time(self):
        program = parse_program(PATH_VECTOR_SOURCE, "pv")
        slow_topo = line_topology(4, delay=0.5)
        fast_topo = line_topology(4, delay=0.01)
        slow = DistributedEngine(program, slow_topo).run()
        fast = DistributedEngine(program, fast_topo).run()
        assert slow.last_change_time() > fast.last_change_time()

    def test_event_budget_prevents_runaway(self):
        program = parse_program(PATH_VECTOR_SOURCE, "pv")
        config = EngineConfig(max_events=10)
        engine = DistributedEngine(program, ring_topology(6), config=config)
        trace = engine.run()
        assert not trace.quiescent
        assert trace.events_processed <= 10


class TestDynamics:
    def test_cost_change_triggers_rederivation(self):
        program = parse_program(PATH_VECTOR_SOURCE, "pv")
        engine = DistributedEngine(program, triangle())
        engine.seed_facts()
        engine.schedule_cost_change("a", "b", 0.5, at=1.0)
        trace = engine.run()
        changes_after = [c for c in trace.state_changes if c.time >= 1.0]
        assert changes_after  # the cheaper link produced new derivations

    def test_link_failure_removes_link_fact(self):
        program = parse_program(PATH_VECTOR_SOURCE, "pv")
        engine = DistributedEngine(program, triangle())
        engine.seed_facts()
        engine.schedule_link_failure("a", "b", at=1.0)
        engine.run()
        assert ("a", "b", 1) not in engine.node("a").db.table("link")
        deletes = [c for c in engine.trace.state_changes if c.kind == "delete"]
        assert len(deletes) == 2

    def test_injected_fact_processed(self):
        program = parse_program("alarm(@X,Y) :- trigger(@X,Y).")
        topo = Topology.from_edges([(1, 2)])
        engine = DistributedEngine(program, topo, config=EngineConfig(link_predicate=None))
        engine.seed_facts()
        engine.schedule_fact("trigger", (1, "fire"), at=0.5)
        engine.run()
        assert engine.rows("alarm", 1) == [(1, "fire")]

    def test_remote_head_derivation_is_shipped(self):
        # head located at the *other* endpoint: derived tuples must traverse a message
        program = parse_program("heard(@D,S) :- link(@S,D,C).")
        engine = DistributedEngine(program, Topology.from_edges([("a", "b", 1)]))
        trace = engine.run()
        assert ("b", "a") in engine.node("b").db.table("heard")
        assert trace.message_count >= 2

    def test_unknown_destination_raises(self):
        from repro.ndlog.ast import NDlogError

        program = parse_program("out(@Z,S) :- in(@S,Z).")
        topo = Topology.from_edges([(1, 2)])
        engine = DistributedEngine(program, topo, config=EngineConfig(link_predicate=None))
        engine.seed_facts(extra_facts=[("in", (1, 99))])
        with pytest.raises(NDlogError):
            engine.run()


class TestSoftStateRefresh:
    SOURCE = """
    materialize(ping, 2, infinity, keys(1,2)).
    materialize(echo, 2, infinity, keys(1,2)).
    e1 echo(@X,Y) :- ping(@X,Y).
    ping(@1,2).
    """

    def _run(self):
        from repro.ndlog.parser import parse_program

        program = parse_program(self.SOURCE, "softstate")
        topo = Topology.from_edges([(1, 2)])
        config = EngineConfig(
            link_predicate=None,
            refresh_interval=3.0,
            expiry_scan_interval=0.5,
        )
        engine = DistributedEngine(program, topo, config=config)
        engine.run(until=10.0)
        return engine

    def test_refresh_rederives_after_expiry_batched(self):
        # regression: with deferred flushes, a refresh after expiry used to
        # insert the base fact directly first, so the queued re-insert saw
        # no change and derived soft state was never re-derived
        engine = self._run()
        assert (1, 2) in engine.node(1).db.table("ping")
        assert (1, 2) in engine.node(1).db.table("echo")
