"""Determinism and partitioning of the process-sharded engine.

The sharded engine's contract is *byte-identity*: for the same program,
topology, config, and seed, :class:`~repro.dn.shard.ShardedEngine` must
produce exactly the trace, final tables, seeds, stats, and monitor reports
of the single-process :class:`~repro.dn.engine.DistributedEngine` — for
every shard count, partition strategy, and transport, under churn, loss,
and soft-state refresh/expiry.  The hypothesis sweep uses the inline
transport (same code path minus the IPC) so each example is cheap; the
process-transport tests cover real worker processes including pickling.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dn import (
    DistributedEngine,
    EngineConfig,
    ShardedEngine,
    ShardError,
    Topology,
    create_engine,
    edge_cut,
    partition_nodes,
)
from repro.dn.monitors import (
    SoftStateBoundMonitor,
    posthoc_violations,
    schema_for_program,
    standard_monitors,
)
from repro.ndlog.ast import MaterializeDecl
from repro.obs.provenance import union_database
from repro.protocols.pathvector import path_vector_program
from repro.protocols.policy import policy_path_vector_program
from repro.scenarios import generate_scenario

#: every fingerprint compared here is also checked against the original (v1)
#: definition (tests/conftest.py): equal under v1 iff equal under fp3
pytestmark = pytest.mark.usefixtures("fp_agreement")


def nonempty(snapshot: dict) -> dict:
    return {pred: rows for pred, rows in snapshot.items() if rows}


def soften_links(program, lifetime: float = 3.0):
    decl = program.materialized["link"]
    program.materialized["link"] = MaterializeDecl(
        "link", lifetime, decl.max_size, decl.keys
    )
    return program


def build_scenario(family: str, size: int, seed: int, churn: int, loss: float):
    return generate_scenario(
        family,
        size=size,
        seed=seed,
        policy="gao_rexford",
        churn_events=churn,
        churn_restore_delay=1.0,
        loss=loss,
    )


def execute(
    shards: int,
    *,
    family="tree",
    size=12,
    seed=0,
    churn=2,
    loss=0.01,
    soft=False,
    transport="inline",
    partition="hash",
    until=15.0,
    max_events=EngineConfig.max_events,
):
    """One run → everything the determinism contract quantifies over."""

    scenario = build_scenario(family, size, seed, churn, loss)
    program = policy_path_vector_program()
    if soft:
        program = soften_links(program)
    config = EngineConfig(
        seed=seed,
        shards=shards,
        partition=partition,
        shard_transport=transport,
        refresh_interval=1.5 if soft else None,
        max_events=max_events,
    )
    engine = create_engine(program, scenario.topology, config=config)
    monitors = standard_monitors(schema_for_program(program))
    for monitor in monitors:
        engine.attach_monitor(monitor)
    if scenario.churn is not None:
        scenario.churn.apply_to_engine(engine)
    try:
        trace = engine.run(until=until, extra_facts=scenario.policy_fact_list())
        engine.finalize_monitors()
        if isinstance(engine, ShardedEngine):
            engine.validate_shards()
        return {
            "fingerprint": trace.fingerprint(),
            "tables": nonempty(engine.global_snapshot()),
            "seeds": dict(trace.seeds),
            "quiescent": trace.quiescent,
            "events": trace.events_processed,
            "stats": {nid: n.stats.as_dict() for nid, n in engine.nodes.items()},
            "monitors": [monitor.report() for monitor in monitors],
            "dropped": engine.channel.dropped,
        }
    finally:
        engine.close()


class TestShardDeterminism:
    """Sharded == single-process, across scenarios and partitions."""

    @settings(max_examples=12, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10**6),
        family=st.sampled_from(["tree", "power_law", "waxman"]),
        size=st.integers(min_value=6, max_value=16),
        churn=st.integers(min_value=0, max_value=3),
        loss=st.sampled_from([0.0, 0.02]),
        shards=st.sampled_from([2, 3]),
    )
    def test_sharded_equals_single_process(self, seed, family, size, churn, loss, shards):
        kwargs = dict(family=family, size=size, seed=seed, churn=churn, loss=loss)
        single = execute(1, **kwargs)
        sharded = execute(shards, **kwargs)
        assert sharded == single

    @pytest.mark.parametrize("partition", ["hash", "metis-lite"])
    def test_partition_strategy_is_semantics_free(self, partition):
        single = execute(1)
        sharded = execute(3, partition=partition)
        assert sharded == single

    def test_soft_state_refresh_and_expiry_identical(self):
        single = execute(1, soft=True, churn=2, until=10.0)
        sharded = execute(2, soft=True, churn=2, until=10.0)
        assert sharded == single
        assert single["events"] > 0

    def test_process_transport_identical(self):
        """Real worker processes (pickling, pipes) — still byte-identical."""

        single = execute(1, size=10)
        sharded = execute(2, transport="process", size=10)
        assert sharded == single

    @pytest.mark.parametrize(
        "max_events, quiescent", [(EngineConfig.max_events, True), (4_020, False)]
    )
    def test_process_shards_identical_to_the_event_budget(self, max_events, quiescent):
        """Four worker processes on a metis-lite partition, under loss and
        churn: byte-identical whether the run quiesces or its event budget
        runs out inside a flush wave just after the first link failure (the
        coordinator's waves must spend the budget exactly like the
        single-process loop)."""

        kwargs = dict(family="power_law", size=16, max_events=max_events)
        single = execute(1, **kwargs)
        sharded = execute(4, transport="process", partition="metis-lite", **kwargs)
        assert single["quiescent"] is quiescent
        assert sharded == single

    def test_trace_seeds_and_replayability(self):
        """Trace.seeds carry the same channel seed either way; replaying a
        sharded run's channel seed on a single-process engine reproduces
        the sharded loss pattern exactly."""

        single = execute(1, loss=0.05, seed=42)
        sharded = execute(2, loss=0.05, seed=42)
        assert sharded["seeds"] == single["seeds"]
        assert sharded["dropped"] == single["dropped"]
        replay = execute(1, loss=0.05, seed=sharded["seeds"]["channel"])
        assert replay["fingerprint"] == sharded["fingerprint"]


class TestShardedEngineApi:
    def test_create_engine_routes_on_shards(self):
        program = path_vector_program()
        topology = Topology.from_edges([("a", "b"), ("b", "c")])
        single = create_engine(program, topology, config=EngineConfig(shards=1))
        assert type(single) is DistributedEngine
        sharded = create_engine(
            program,
            topology,
            config=EngineConfig(shards=2, shard_transport="inline"),
        )
        assert isinstance(sharded, ShardedEngine)
        sharded.close()

    def test_more_shards_than_nodes(self):
        single = execute(1, size=6, churn=0)
        sharded = execute(8, size=6, churn=0)
        assert sharded == single

    def test_bad_transport_rejected(self):
        program = path_vector_program()
        topology = Topology.from_edges([("a", "b")])
        with pytest.raises(ShardError):
            ShardedEngine(
                program,
                topology,
                config=EngineConfig(shards=2, shard_transport="carrier-pigeon"),
            )

    def test_close_is_idempotent_and_state_stays_readable(self):
        scenario = build_scenario("tree", 8, 0, 0, 0.0)
        engine = create_engine(
            path_vector_program(),
            scenario.topology,
            config=EngineConfig(seed=0, shards=2, shard_transport="process"),
        )
        trace = engine.run(until=10.0)
        assert trace.quiescent
        engine.close()
        engine.close()
        # the coordinator's row views remain readable after worker shutdown
        assert nonempty(engine.global_snapshot())
        assert engine.rows("bestPath")

    def test_shard_summary_reports_partition(self):
        scenario = build_scenario("tree", 12, 0, 0, 0.0)
        engine = ShardedEngine(
            path_vector_program(),
            scenario.topology,
            config=EngineConfig(shards=3, shard_transport="inline", partition="metis-lite"),
        )
        summary = engine.shard_summary()
        engine.close()
        assert summary["shards"] == 3
        assert sum(summary["sizes"]) == 12
        assert summary["partition"] == "metis-lite"
        assert summary["edge_cut"] >= 0


class TestTableReaders:
    """Everything that reads node tables answers on 2 inline shards exactly
    as on one process: post-hoc checks, provenance over the union of the
    tables, and the soft-state monitor (whose deadlines live on workers)."""

    @staticmethod
    def read(shards):
        scenario = build_scenario("tree", 10, 3, 3, 0.0)
        # links outlive their lifetime until the next (2 s) expiry scan, and
        # are re-announced every 2.5 s: with no slack, the monitor reports
        # them, so it has deadlines to disagree on
        program = soften_links(policy_path_vector_program(), lifetime=1.0)
        config = EngineConfig(
            seed=3,
            shards=shards,
            shard_transport="inline",
            refresh_interval=2.5,
            expiry_scan_interval=2.0,
        )
        engine = create_engine(program, scenario.topology, config=config)
        soft = SoftStateBoundMonitor(slack=0.0)
        engine.attach_monitor(soft)
        scenario.churn.apply_to_engine(engine)
        try:
            engine.run(until=9.0, extra_facts=scenario.policy_fact_list())
            engine.finalize_monitors()
            routes = sorted(engine.rows("bestRoute"), key=repr)[::7]
            union = union_database(engine)
            return {
                "posthoc": posthoc_violations(engine),
                "union": {p: union.rows(p) for p in union.predicates()},
                "explain": [engine.explain("bestRoute", row) for row in routes],
                "soft": soft.report(),
                "deadlines": {node: engine.soft_deadlines(node) for node in engine.nodes},
            }
        finally:
            engine.close()

    def test_readers_equal_single_process(self):
        single = self.read(1)
        sharded = self.read(2)
        assert single["soft"]["violations"] > 0
        assert any(single["deadlines"].values())
        assert single["explain"]
        assert sharded == single

    @pytest.mark.parametrize("loss", [0.0, 0.1, 0.3])
    def test_snapshots_list_the_same_predicates(self, loss):
        """A node's snapshot and its row view's list the same predicates,
        key for key, empty ones included (a worker's database keeps every
        table it made on first use; a row view has only the tables its
        records named)."""

        for seed in range(6):
            seen = []
            for shards in (1, 2):
                scenario = generate_scenario(
                    "tree", size=5, seed=seed, policy="gao_rexford", churn_events=3, loss=loss
                )
                engine = create_engine(
                    policy_path_vector_program(),
                    scenario.topology,
                    config=EngineConfig(seed=seed, shards=shards, shard_transport="inline"),
                )
                scenario.churn.apply_to_engine(engine)
                try:
                    engine.run(extra_facts=scenario.policy_fact_list())
                    seen.append(
                        (
                            {node: engine.nodes[node].snapshot() for node in engine.nodes},
                            engine.global_snapshot(),
                        )
                    )
                finally:
                    engine.close()
            assert seen[0] == seen[1], (seed, loss)

    def test_coordinator_node_tables_fail_loudly(self):
        scenario = build_scenario("tree", 6, 0, 0, 0.0)
        engine = create_engine(
            path_vector_program(),
            scenario.topology,
            config=EngineConfig(seed=0, shards=2, shard_transport="inline"),
        )
        try:
            engine.run()
            node = next(iter(engine.nodes))
            assert engine.rows("link", node)
            with pytest.raises(ShardError, match="shard worker"):
                engine.node(node).db.table("link")
        finally:
            engine.close()


class TestPartitioning:
    def topo(self, family="tree", size=30, seed=1):
        return build_scenario(family, size, seed, 0, 0.0).topology

    def test_hash_partition_is_stable_and_total(self):
        topology = self.topo()
        first = partition_nodes(topology, 4, "hash")
        second = partition_nodes(topology, 4, "hash")
        assert first == second
        assert set(first) == set(topology.nodes)
        assert all(0 <= shard < 4 for shard in first.values())

    def test_metis_lite_is_balanced_and_total(self):
        topology = self.topo(size=31)
        assignment = partition_nodes(topology, 4, "metis-lite")
        assert set(assignment) == set(topology.nodes)
        sizes = [list(assignment.values()).count(s) for s in range(4)]
        assert max(sizes) - min(sizes) <= 1

    def test_metis_lite_cuts_fewer_edges_than_hash_on_trees(self):
        topology = self.topo(size=40, seed=3)
        hashed = partition_nodes(topology, 4, "hash")
        grown = partition_nodes(topology, 4, "metis-lite")
        assert edge_cut(topology, grown) <= edge_cut(topology, hashed)

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError):
            partition_nodes(self.topo(), 2, "quantum")
        with pytest.raises(ValueError):
            partition_nodes(self.topo(), 0, "hash")
