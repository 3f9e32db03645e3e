"""Retraction semantics of the distributed engine.

Link failure, restore, cost change, and soft-state expiry must leave every
node's database exactly where a fresh engine started on the resulting
topology would converge — no stale best paths, no orphaned localized
(``link_d``) copies at remote nodes — across the generated-code,
closure-compiled, interpreted and scan-join rule tiers.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dn.engine import DistributedEngine, EngineConfig
from repro.dn.network import Topology
from repro.ndlog.parser import parse_program
from repro.ndlog.seminaive import evaluate
from repro.protocols.pathvector import PATH_VECTOR_SOURCE
from repro.scenarios import generate_scenario
from repro.workloads.events import WorkloadScript
from repro.workloads.topologies import ring_topology


def pv_program():
    return parse_program(PATH_VECTOR_SOURCE, "pv")


def triangle() -> Topology:
    return Topology.from_edges([("a", "b", 1), ("b", "c", 2), ("a", "c", 5)])


def nonempty(snapshot: dict) -> dict:
    """Drop empty tables (touched predicates materialize empty tables that a
    fresh engine never creates; contents are what must match)."""

    return {pred: rows for pred, rows in snapshot.items() if rows}


def fresh_snapshot(topology: Topology, config=None):
    engine = DistributedEngine(pv_program(), topology, config=config)
    engine.run()
    return nonempty(engine.global_snapshot())


# ---------------------------------------------------------------------------
# Strategies: small random symmetric topologies and failure subsets
# ---------------------------------------------------------------------------

nodes = st.integers(min_value=0, max_value=4)

edges = st.lists(
    st.tuples(nodes, nodes, st.integers(min_value=1, max_value=4)).filter(
        lambda e: e[0] != e[1]
    ),
    min_size=1,
    max_size=8,
    unique_by=lambda e: frozenset(e[:2]),
)


class TestLinkFailureRetraction:
    def test_failure_matches_fresh_engine(self):
        engine = DistributedEngine(pv_program(), triangle())
        engine.seed_facts()
        engine.schedule_link_failure("a", "b", at=1.0)
        trace = engine.run()
        assert trace.quiescent
        after = triangle()
        after.fail_link("a", "b")
        assert nonempty(engine.global_snapshot()) == fresh_snapshot(after)

    def test_failure_emits_retract_messages_and_trace_kinds(self):
        engine = DistributedEngine(pv_program(), triangle())
        engine.seed_facts()
        engine.schedule_link_failure("a", "b", at=1.0)
        trace = engine.run()
        assert trace.retraction_messages()
        # the two base link tuples are deletes; derived state is retracted
        assert len(trace.changes_of_kind("delete")) == 2
        assert trace.changes_of_kind("retract")
        assert trace.retraction_count >= 2

    def test_localized_copies_are_swept_at_remote_nodes(self):
        # regression (PR 3): the ship rule sends link_d(@Z,S,C) to the other
        # endpoint; failing the link must also remove those propagated
        # copies, which live in *other* nodes' databases
        engine = DistributedEngine(pv_program(), triangle())
        engine.seed_facts()
        engine.run(until=0.5)
        assert ("b", "a", 1) in engine.node("b").db.table("link_d")
        assert ("a", "b", 1) in engine.node("a").db.table("link_d")
        engine.schedule_link_failure("a", "b", at=1.0)
        trace = engine.run()
        assert trace.quiescent
        for node_id in ("a", "b", "c"):
            for row in engine.node(node_id).rows("link_d"):
                assert {row[0], row[1]} != {"a", "b"}

    def test_no_stale_best_paths_through_dead_link(self):
        engine = DistributedEngine(pv_program(), triangle())
        engine.seed_facts()
        engine.schedule_link_failure("b", "c", at=1.0)
        engine.run()
        for row in engine.rows("bestPath"):
            path = row[2]
            hops = list(zip(path, path[1:]))
            assert ("b", "c") not in hops and ("c", "b") not in hops

    @settings(max_examples=10, deadline=None)
    @given(edge_list=edges, data=st.data())
    def test_randomized_failures_match_fresh_engine(self, edge_list, data):
        topology = Topology.from_edges(edge_list)
        count = data.draw(
            st.integers(min_value=1, max_value=len(edge_list)), label="failures"
        )
        failed = edge_list[:count]
        engine = DistributedEngine(pv_program(), topology)
        engine.seed_facts()
        for index, (src, dst, _) in enumerate(failed):
            engine.schedule_link_failure(src, dst, at=1.0 + 0.25 * index)
        trace = engine.run()
        assert trace.quiescent
        after = Topology.from_edges(edge_list)
        for src, dst, _ in failed:
            after.fail_link(src, dst)
        assert equivalent_up_to_ties(
            nonempty(engine.global_snapshot()), fresh_snapshot(after)
        )


def equivalent_up_to_ties(a: dict, b: dict) -> bool:
    """Snapshot equality modulo equal-cost tie-breaking in ``bestPath``.

    ``bestPath`` is keyed on (S, D): when several minimum-cost paths tie,
    the stored row is whichever derivation arrived last, which legitimately
    differs between an incremental run (arrival order shaped by churn
    history) and a fresh run.  Cost projections must still agree exactly and
    every stored winner must be one of the other run's valid paths.
    """

    for predicate in set(a) | set(b):
        rows_a = a.get(predicate, set())
        rows_b = b.get(predicate, set())
        if rows_a == rows_b:
            continue
        if predicate != "bestPath":
            return False
        projection = lambda rows: {(r[0], r[1], r[3]) for r in rows}  # noqa: E731
        if projection(rows_a) != projection(rows_b):
            return False
        paths = b.get("path", set())
        if not (rows_a <= paths and rows_b <= paths):
            return False
    return True


class TestRestoreAndCostChange:
    def test_fail_restore_cycle_reconverges(self):
        engine = DistributedEngine(pv_program(), ring_topology(5))
        engine.seed_facts()
        engine.schedule_link_failure(0, 1, at=1.0)
        engine.schedule_link_restore(0, 1, at=2.0)
        trace = engine.run()
        assert trace.quiescent
        assert nonempty(engine.global_snapshot()) == fresh_snapshot(ring_topology(5))

    @pytest.mark.parametrize("restore, routes", [(False, 2 * 8 * 7), (True, 16 * 15)])
    def test_tree_link_churn_leaves_no_stale_best_paths(self, restore, routes):
        """On a converged generated tree, failing a link partitions it (two
        halves of 8 nodes keep only their own routes); restoring it brings
        back every pair.  Either way the best paths are exactly a fresh
        engine's on the final topology: none stale, none missing."""

        topology = generate_scenario("tree", size=16, seed=3).topology
        link = topology.up_links()[0]
        engine = DistributedEngine(pv_program(), topology)
        engine.seed_facts()
        engine.run(until=0.99)
        engine.schedule_link_failure(link.src, link.dst, at=1.0)
        if restore:
            engine.schedule_link_restore(link.src, link.dst, at=2.0)
        trace = engine.run()
        assert trace.quiescent
        fresh = DistributedEngine(pv_program(), engine.topology)
        fresh.run()
        assert set(engine.rows("bestPath")) == set(fresh.rows("bestPath"))
        assert len(engine.rows("bestPath")) == routes

    def test_cost_change_displaces_and_matches_fresh_engine(self):
        engine = DistributedEngine(pv_program(), triangle())
        engine.seed_facts()
        engine.schedule_cost_change("a", "b", 10, at=1.0)
        trace = engine.run()
        assert trace.quiescent
        after = triangle()
        after.set_cost("a", "b", 10)
        assert nonempty(engine.global_snapshot()) == fresh_snapshot(after)

    @settings(max_examples=10, deadline=None)
    @given(edge_list=edges, data=st.data())
    def test_randomized_mixed_churn(self, edge_list, data):
        # interleaved failures, restores, and cost changes; final state must
        # match a fresh run on the final topology (up to best-path ties)
        kinds = st.sampled_from(["fail", "restore", "cost"])
        count = data.draw(st.integers(min_value=1, max_value=5), label="events")
        engine = DistributedEngine(pv_program(), Topology.from_edges(edge_list))
        engine.seed_facts()
        after = Topology.from_edges(edge_list)
        at = 1.0
        for _ in range(count):
            src, dst, _ = data.draw(st.sampled_from(edge_list), label="link")
            kind = data.draw(kinds, label="kind")
            if kind == "fail":
                engine.schedule_link_failure(src, dst, at=at)
                after.fail_link(src, dst)
            elif kind == "restore":
                engine.schedule_link_restore(src, dst, at=at)
                after.restore_link(src, dst)
            else:
                cost = data.draw(st.integers(min_value=1, max_value=5), label="cost")
                engine.schedule_cost_change(src, dst, cost, at=at)
                after.set_cost(src, dst, cost)
            at += 0.4
        trace = engine.run()
        assert trace.quiescent
        assert equivalent_up_to_ties(
            nonempty(engine.global_snapshot()), fresh_snapshot(after)
        )

    def test_workload_script_fail_restore(self):
        script = WorkloadScript()
        script.fail_link("a", "b", 1.0)
        script.restore_link("a", "b", 2.0)
        engine = DistributedEngine(pv_program(), triangle())
        engine.seed_facts()
        script.apply_to_engine(engine)
        trace = engine.run()
        assert trace.quiescent
        assert nonempty(engine.global_snapshot()) == fresh_snapshot(triangle())

    def test_workload_restore_without_link_predicate_injects_nothing(self):
        # regression (PR 3): the restore path used to inject under a guessed
        # "link" predicate while the failure path silently no-opped
        program = parse_program("alarm(@X,Y) :- trigger(@X,Y).")
        config = EngineConfig(link_predicate=None)
        engine = DistributedEngine(program, triangle(), config=config)
        engine.seed_facts()
        script = WorkloadScript()
        script.fail_link("a", "b", 0.5)
        script.restore_link("a", "b", 1.0)
        script.apply_to_engine(engine)
        engine.run()
        assert engine.rows("link") == []
        assert engine.trace.state_change_count == 0
        link = engine.topology.link("a", "b")
        assert link is not None and link.up


class TestExecutionPathMatrix:
    @pytest.mark.parametrize("rule_tier", ["reference"], indirect=True)
    def test_failure_retraction_across_paths(self, rule_tier):
        engine = DistributedEngine(pv_program(), triangle())
        engine.seed_facts()
        engine.schedule_link_failure("a", "b", at=1.0)
        trace = engine.run()
        assert trace.quiescent
        after = triangle()
        after.fail_link("a", "b")
        assert nonempty(engine.global_snapshot()) == fresh_snapshot(after)


class TestFifoOpOrdering:
    SOURCE = """
    materialize(k, infinity, infinity, keys(1)).
    r1 k(@N,V) :- a(@N,V).
    r2 b(@M,V) :- k(@N,V), link(@N,M,C).
    """

    def test_same_flush_assert_then_retract_cancels_in_order(self, rule_tier):
        # regression (PR 3 review): a keyed displacement at node 1 ships an
        # assert of b(2,v1) and then its retract; both land in one flush at
        # node 2.  A deletions-first batch round processed the retract
        # before the assert (ignored as stale), leaving b(2,v1) forever —
        # ops must be processed in FIFO arrival order
        engine = DistributedEngine(
            parse_program(self.SOURCE, "fifo"),
            Topology.from_edges([(1, 2, 1)]),
        )
        engine.seed_facts()
        engine.schedule_fact("a", (1, "v1"), at=1.0)
        engine.schedule_fact("a", (1, "v2"), at=1.0)
        trace = engine.run()
        assert trace.quiescent
        assert engine.node(2).rows("b") == [(2, "v2")]
        assert engine.node(1).rows("k") == [(1, "v2")]


class TestSoftStateRetraction:
    SOURCE = """
    materialize(ping, 2, infinity, keys(1,2)).
    materialize(echo, infinity, infinity, keys(1,2)).
    e1 echo(@X,Y) :- ping(@X,Y).
    ping(@1,2).
    """

    def test_expiry_retracts_derived_hard_state(self):
        # echo is hard state derived from soft-state ping: when ping expires
        # without a refresh, the retraction pipeline must withdraw echo too
        program = parse_program(self.SOURCE, "soft")
        topo = Topology.from_edges([(1, 2)])
        config = EngineConfig(link_predicate=None, expiry_scan_interval=0.5)
        engine = DistributedEngine(program, topo, config=config)
        engine.run(until=10.0)
        assert engine.node(1).rows("ping") == []
        assert engine.node(1).rows("echo") == []
        expired = engine.trace.changes_of_kind("expire")
        assert any(c.predicate == "ping" for c in expired)
        assert any(
            c.predicate == "echo" for c in engine.trace.changes_of_kind("retract")
        )

    def test_refresshed_soft_state_keeps_derivations(self):
        program = parse_program(self.SOURCE, "soft")
        topo = Topology.from_edges([(1, 2)])
        config = EngineConfig(
            link_predicate=None, refresh_interval=1.0, expiry_scan_interval=0.5
        )
        engine = DistributedEngine(program, topo, config=config)
        engine.run(until=6.0)
        assert (1, 2) in engine.node(1).db.table("ping")
        assert (1, 2) in engine.node(1).db.table("echo")


class TestConsistencySweep:
    """Cross-round support-count asymmetry (fixed by the settle-end sweep).

    ``bestPath`` accrues supports from two join directions of ``r4`` (its
    ``path`` delta and its aggregate ``bestPathCost`` delta), but the
    aggregate retraction always fires after the paths were physically
    removed, stranding one support.  The consistency sweep force-retracts
    stored rows that are no longer locally derivable, so isolating a node
    leaves no ghost best routes (a hypothesis-found seed-era bug).
    """

    EDGES = [(0, 1, 1), (0, 2, 1), (0, 3, 4), (0, 4, 2), (2, 3, 1), (3, 4, 2)]

    @pytest.fixture
    def full_sweeps(self, monkeypatch):
        """Nodes at which the full sweep ran: since the settle-end check is
        scoped to the touched keys, the ghosts below are only repaired if a
        dirty verdict takes the repair path."""

        from repro.dn.executor import FixpointExecutor

        ran = []
        real = FixpointExecutor._consistency_sweep

        def sweep(self, node, deleted, queue, now):
            ran.append(node.id)
            return real(self, node, deleted, queue, now)

        monkeypatch.setattr(FixpointExecutor, "_consistency_sweep", sweep)
        return ran

    def test_isolating_a_node_leaves_no_ghost_best_paths(self, full_sweeps):
        # failing 0-1 isolates node 1 entirely: every route to/from it must go
        engine = DistributedEngine(pv_program(), Topology.from_edges(self.EDGES))
        engine.seed_facts()
        engine.schedule_link_failure(0, 1, at=1.0)
        trace = engine.run()
        assert trace.quiescent
        after = Topology.from_edges(self.EDGES)
        after.fail_link(0, 1)
        assert equivalent_up_to_ties(
            nonempty(engine.global_snapshot()), fresh_snapshot(after)
        )
        for predicate in ("path", "bestPath", "bestPathCost"):
            assert not [r for r in engine.rows(predicate) if 1 in r[:2]]
        assert full_sweeps

    def test_sweep_records_retract_kinds(self, full_sweeps):
        engine = DistributedEngine(pv_program(), Topology.from_edges(self.EDGES))
        engine.seed_facts()
        engine.schedule_link_failure(0, 1, at=1.0)
        trace = engine.run()
        # the swept ghost rows surface as ordinary derived-state retractions
        swept = [
            c for c in trace.changes_of_kind("retract") if c.predicate == "bestPath"
        ]
        assert swept
        # ... and they went through the repair path, at the nodes that held
        # ghosts only (every other settle-end check was clean)
        assert full_sweeps and len(set(full_sweeps)) < len(engine.nodes)


class TestCyclicSupport:
    """The known gap of distributed counting: rows that support each other
    around a cycle keep each other alive after their grounding is gone."""

    REACH = """
    reach(@X,Y) :- link(@X,Y,C).
    reach(@X,Z) :- link(@X,Y,C), reach(@Y,Z).
    """

    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason=(
            "cyclic support: distributed counting is exact only for "
            "well-founded recursion (README's soft-state exception); stale "
            "reach (0,2) and (1,2) survive until ROADMAP's exact distributed "
            "retraction lands"
        ),
    )
    def test_triangle_reach_after_two_failures_matches_evaluate(self):
        program = parse_program(self.REACH, "reach")
        engine = DistributedEngine(
            program,
            Topology.from_edges([(0, 1, 1), (1, 2, 1), (0, 2, 1)]),
            config=EngineConfig(seed=1),
        )
        engine.seed_facts()
        engine.schedule_link_failure(0, 2, at=1.0)
        engine.schedule_link_failure(1, 2, at=2.0)
        assert engine.run().quiescent
        fresh = evaluate(program, [("link", fact) for fact in engine.topology.link_facts()])
        assert set(engine.rows("reach")) == set(fresh.rows("reach"))
