"""Runtime invariant monitors: hook plumbing, every violation signature,
first-violation timestamps, and agreement with post-hoc property checks."""

import pytest

from repro.dn.engine import DistributedEngine, EngineConfig, create_engine
from repro.dn.monitors import (
    BestAgreementMonitor,
    CycleFreedomMonitor,
    MONITOR_KINDS,
    PATH_VECTOR_SCHEMA,
    POLICY_SCHEMA,
    RouteValidityMonitor,
    SoftStateBoundMonitor,
    build_monitor,
    monitor_for_property,
    monitors_from_properties,
    posthoc_violations,
    schema_for_program,
    standard_monitors,
)
from repro.fvn.properties import standard_property_suite
from repro.ndlog.parser import parse_program
from repro.protocols.pathvector import PATH_VECTOR_SOURCE, path_vector_program
from repro.protocols.policy import policy_path_vector_program
from repro.scenarios import generate_scenario


def pv_engine(
    size=10, seed=3, config=None, monitors=None, family="tree", engine_cls=DistributedEngine
):
    scenario = generate_scenario(family, size=size, seed=seed)
    engine = engine_cls(
        path_vector_program(), scenario.topology, config=config or EngineConfig(seed=seed)
    )
    for monitor in monitors or ():
        engine.attach_monitor(monitor)
    return engine, scenario


def active_keys(monitor):
    return {(v.node, v.signature) for v in monitor.active_violations()}


#: record kinds that leave the row stored
ADDED_KINDS = ("insert", "replace")


class SettleProbe:
    """An :class:`~repro.dn.engine.EngineMonitor` that logs each
    ``on_settle`` with the trace position, the node's rows and the records
    it was handed at the call."""

    def __init__(self, name: str, log: list) -> None:
        self.name, self.log = name, log

    def attach(self, engine) -> None:
        self.engine = engine

    def on_settle(self, time, node, changes) -> None:
        engine = self.engine
        rows = engine.nodes[node].snapshot()
        count = engine.trace.state_change_count
        self.log.append((self.name, time, node, count, rows, changes))

    def finalize(self, time) -> None:
        pass


class TestHookPlumbing:
    @pytest.mark.parametrize("shards", [1, 2])
    def test_on_settle_follows_every_changing_settle(self, shards):
        """``on_settle`` is called once per settle that recorded at least one
        state change, in attach order, when the node's rows already show
        that settle's changes — on one engine and on two inline shards."""

        scenario = generate_scenario("tree", size=6, seed=3)
        config = EngineConfig(seed=3, shards=shards, shard_transport="inline")
        engine = create_engine(path_vector_program(), scenario.topology, config=config)
        log: list = []
        for name in ("first", "second"):
            engine.attach_monitor(SettleProbe(name, log))
        link = scenario.topology.up_links()[0]
        engine.schedule_link_failure(link.src, link.dst, at=1.0)
        engine.schedule_link_restore(link.src, link.dst, at=2.0)
        trace = engine.run()
        records = list(trace.state_changes)
        # a settle that records nothing (a base fact asserted twice) is
        # not reported
        calls, events = len(log), engine.scheduler.processed
        engine.inject_fact("link", engine.rows("link", link.src)[0])
        engine.run()
        engine.close()
        assert engine.scheduler.processed > events
        assert trace.state_change_count == len(records) and len(log) == calls
        assert [name for name, *_ in log] == ["first", "second"] * (len(log) // 2)
        first, second = log[0::2], log[1::2]
        assert [call[1:] for call in first] == [call[1:] for call in second]
        done = 0
        for _, time, node, count, rows, changes in first:
            settle = records[done:count]
            assert settle, "on_settle after a settle that recorded nothing"
            # the monitor is handed exactly that settle's trace records
            assert changes == settle
            assert {(at, where) for at, where, *_ in settle} == {(time, node)}
            last_kind = {(pred, values): kind for _, _, pred, values, kind in settle}
            for (predicate, values), kind in last_kind.items():
                assert (values in rows.get(predicate, ())) == (kind in ADDED_KINDS)
            done = count
        # every recorded change belongs to a notified settle
        assert done == len(records) == trace.state_change_count
        assert any(kind not in ADDED_KINDS for *_, kind in records)

    def test_clean_convergence_has_no_violations(self, rule_tier):
        monitors = standard_monitors()
        engine, _ = pv_engine(config=EngineConfig(seed=1), monitors=monitors)
        engine.run()
        engine.finalize_monitors()
        for monitor in monitors:
            assert monitor.ok, monitor.report()
            assert monitor.first_violation is None

    def test_seeds_recorded_in_trace(self):
        engine, _ = pv_engine(config=EngineConfig(seed=17))
        assert engine.trace.seeds == {"engine_config": 17, "channel": 17}

    def test_none_seed_records_effective_channel_seed(self):
        engine, _ = pv_engine(config=EngineConfig(seed=None))
        seeds = engine.trace.seeds
        assert seeds["engine_config"] is None
        assert isinstance(seeds["channel"], int)

    def test_none_seed_run_reproducible_from_recorded_seed(self):
        scenario = generate_scenario("tree", size=10, seed=2, loss=0.3)
        first = DistributedEngine(
            path_vector_program(), scenario.topology, config=EngineConfig(seed=None)
        )
        first.run()
        replay = DistributedEngine(
            path_vector_program(),
            scenario.topology,
            config=EngineConfig(seed=first.trace.seeds["channel"]),
        )
        replay.run()
        assert [
            (m.time, m.src, m.dst, m.predicate, m.values, m.delivered)
            for m in first.trace.messages
        ] == [
            (m.time, m.src, m.dst, m.predicate, m.values, m.delivered)
            for m in replay.trace.messages
        ]


class TestViolationsAndAgreement:
    def fail_first_link(self, engine, scenario):
        link = scenario.topology.up_links()[0]
        engine.seed_facts()
        engine.run(until=0.99)
        engine.schedule_link_failure(link.src, link.dst, at=1.0)
        engine.run()
        engine.finalize_monitors()

    def test_lost_retractions_found_at_failure_time_and_agree_posthoc(
        self, retract_dropping_engine
    ):
        # hard state whose retract messages are all lost keeps the dead
        # link's routes at remote nodes: a violation from the failure on
        monitors = standard_monitors()
        engine, scenario = pv_engine(
            config=EngineConfig(seed=1),
            monitors=monitors,
            engine_cls=retract_dropping_engine,
        )
        self.fail_first_link(engine, scenario)
        validity = monitors[0]
        assert validity.name == "route_validity"
        assert validity.first_violation_time == pytest.approx(1.0)
        assert not validity.ok
        posthoc = posthoc_violations(engine)
        for monitor in monitors:
            assert active_keys(monitor) == {
                (v.node, v.signature) for v in posthoc[monitor.name]
            }, monitor.name

    def test_retraction_engine_heals_transients_and_agrees_posthoc(self):
        monitors = standard_monitors()
        engine, scenario = pv_engine(monitors=monitors)
        self.fail_first_link(engine, scenario)
        posthoc = posthoc_violations(engine)
        for monitor in monitors:
            # the reconvergence window may record transient violations, but
            # none persist — exactly like the post-hoc check on final state
            assert monitor.ok, monitor.report()
            assert posthoc[monitor.name] == []

    @pytest.mark.parametrize(
        "family, seed", [("power_law", 1), ("tree", 2), ("waxman", 3)]
    )
    @pytest.mark.parametrize("shards", [1, 2])
    def test_capped_table_runtime_agrees_posthoc(self, family, seed, shards):
        """A size-capped table evicts its oldest row without tracing it; the
        monitors read the tables, so their end state is the post-hoc one."""

        source = PATH_VECTOR_SOURCE.replace(
            "materialize(path, infinity, infinity, keys(1,2,3)).",
            "materialize(path, infinity, 4, keys(1,2,3)).",
        )
        scenario = generate_scenario(family, size=8, seed=seed)
        config = EngineConfig(seed=seed, shards=shards, shard_transport="inline")
        engine = create_engine(
            parse_program(source, "pv_capped"), scenario.topology, config=config
        )
        monitors = standard_monitors()
        for monitor in monitors:
            engine.attach_monitor(monitor)
        engine.run()
        engine.finalize_monitors()
        engine.close()
        posthoc = posthoc_violations(engine)
        for monitor in monitors:
            assert active_keys(monitor) == {
                (v.node, v.signature) for v in posthoc[monitor.name]
            }, monitor.name

    def test_soft_state_bound_monitor_catches_disabled_expiry(self):
        source = PATH_VECTOR_SOURCE.replace(
            "materialize(link, infinity, infinity, keys(1,2)).",
            "materialize(link, 2, infinity, keys(1,2)).",
        )
        program = parse_program(source, "pv_soft")
        scenario = generate_scenario("line", size=4, seed=0)

        healthy = DistributedEngine(
            program, scenario.topology, config=EngineConfig(seed=0)
        )
        monitor = SoftStateBoundMonitor()
        healthy.attach_monitor(monitor)
        healthy.run(until=6.0)
        healthy.finalize_monitors()
        assert monitor.ok, monitor.report()

        broken = DistributedEngine(
            parse_program(source, "pv_soft"),
            generate_scenario("line", size=4, seed=0).topology,
            # scans far apart: rows outlive lifetime + slack between scans
            config=EngineConfig(seed=0, expiry_scan_interval=50.0),
        )
        # pin the slack to the *intended* bound so the broken scan shows
        late = SoftStateBoundMonitor(slack=1.5)
        broken.attach_monitor(late)
        broken.run(until=10.0)
        broken.finalize_monitors()
        assert not late.ok
        assert late.active_violations()[0].detail.endswith("past its lifetime")
        # the exact signature and detail of an overdue row, in row order
        assert [
            (v.node, v.signature, v.detail) for v in late.active_violations()[:2]
        ] == [
            (
                0,
                ("overdue", "link", (0, 1, 1.0)),
                "soft-state link(0, 1, 1.0) at 0 is 8.000s past its lifetime",
            ),
            (
                0,
                ("overdue", "link_d", (0, 1, 1.0)),
                "soft-state link_d(0, 1, 1.0) at 0 is 7.990s past its lifetime",
            ),
        ]
        assert len(late.active_violations()) == 12


def settled_tree():
    """A converged path-vector engine on tree-6 (seed 3)."""

    engine, _ = pv_engine(size=6, seed=3)
    engine.run()
    return engine


def attached(engine, monitor):
    engine.attach_monitor(monitor)
    monitor.finalize(engine.scheduler.now)
    assert monitor.ok, monitor.report()
    return monitor


def reported(monitor):
    return [(v.node, v.signature, v.detail) for v in monitor.active_violations()]


class TestViolationSignatures:
    """Each violation kind, planted in (or made by removing a row from) a
    settled engine's tables: the monitor reports exactly that signature and
    detail at the next check, and heals once the tables are restored."""

    def check(self, monitor, node, plant, restore, signature, detail):
        plant()
        monitor.on_settle(50.0, node)
        assert reported(monitor) == [(node, signature, detail)]
        assert monitor.first_violation_time == 50.0
        restore()
        monitor.on_settle(51.0, node)
        assert monitor.ok and monitor.active_violations() == []
        assert monitor.report()["violations"] == 1

    def test_unsupported(self):
        engine = settled_tree()
        monitor = attached(engine, RouteValidityMonitor())
        node = engine.nodes[0]
        best = node.rows("bestPath")[0]
        self.check(
            monitor, 0,
            lambda: node.delete("path", best),
            lambda: node.insert("path", best, 50.5),
            ("unsupported", best),
            f"bestPath{best} at 0 has no supporting path row",
        )

    def test_dead_first_hop(self):
        engine = settled_tree()
        monitor = attached(engine, RouteValidityMonitor())
        # a node with a neighbour that only one of its best routes leaves
        # through (a leaf, reached directly)
        node_id, best = next(
            (node_id, row)
            for node_id, node in engine.nodes.items()
            for row in node.rows("bestPath")
            if [r[2][1] for r in node.rows("bestPath")].count(row[2][1]) == 1
        )
        node, hop = engine.nodes[node_id], best[2][1]
        link = next(row for row in node.rows("link") if row[1] == hop)
        self.check(
            monitor, node_id,
            lambda: node.delete("link", link),
            lambda: node.insert("link", link, 50.5),
            ("dead_first_hop", best),
            f"bestPath{best} at {node_id} leaves over missing link to {hop!r}",
        )

    def test_not_minimal(self):
        engine = settled_tree()
        monitor = attached(engine, BestAgreementMonitor())
        node = engine.nodes[0]
        cost = node.rows("bestPathCost")[0]
        dearer = cost[:2] + (cost[2] + 10,)
        self.check(
            monitor, 0,
            lambda: node.insert("bestPathCost", dearer, 50.0),
            lambda: node.insert("bestPathCost", cost, 50.5),
            ("not_minimal", dearer),
            f"bestPathCost{dearer} at 0 is not the minimum candidate value {cost[2]!r}",
        )

    def test_no_candidates(self):
        engine = settled_tree()
        monitor = attached(engine, BestAgreementMonitor())
        node = engine.nodes[0]
        orphan = (0, "nowhere", 1.0)
        self.check(
            monitor, 0,
            lambda: node.insert("bestPathCost", orphan, 50.0),
            lambda: node.delete("bestPathCost", orphan),
            ("no_candidates", orphan),
            f"bestPathCost{orphan} at 0 selects from an empty path group",
        )

    def test_missing_best(self):
        engine = settled_tree()
        monitor = attached(engine, BestAgreementMonitor())
        node = engine.nodes[0]
        cost = node.rows("bestPathCost")[0]
        self.check(
            monitor, 0,
            lambda: node.delete("bestPathCost", cost),
            lambda: node.insert("bestPathCost", cost, 50.5),
            ("missing_best", cost[:2]),
            f"candidate group {cost[:2]!r} at 0 has no bestPathCost selection",
        )

    def test_cycle(self):
        engine = settled_tree()
        monitor = attached(engine, CycleFreedomMonitor(PATH_VECTOR_SCHEMA))
        node = engine.nodes[1]
        bad = (1, 2, (1, 3, 1), 5.0)
        self.check(
            monitor, 1,
            lambda: node.insert("path", bad, 50.0),
            lambda: node.delete("path", bad),
            ("cycle", "path", bad),
            f"path{bad} at 1 has a cyclic path vector",
        )


class TestPolicySchemaAndAdapters:
    def test_schema_detection(self):
        assert schema_for_program(path_vector_program()) is PATH_VECTOR_SCHEMA
        assert schema_for_program(policy_path_vector_program()) is POLICY_SCHEMA

    def test_policy_program_clean_run_no_violations(self):
        scenario = generate_scenario("tree", size=10, seed=4, policy="gao_rexford")
        engine = DistributedEngine(
            policy_path_vector_program(), scenario.topology, config=EngineConfig(seed=4)
        )
        monitors = standard_monitors(POLICY_SCHEMA)
        for monitor in monitors:
            engine.attach_monitor(monitor)
        trace = engine.run(extra_facts=scenario.policy_fact_list())
        engine.finalize_monitors()
        assert trace.quiescent
        for monitor in monitors:
            assert monitor.ok, monitor.report()
            assert monitor.first_violation is None

    def test_property_to_monitor_adapters(self):
        for prop in standard_property_suite():
            monitor = monitor_for_property(prop)
            assert monitor.name in MONITOR_KINDS
        monitors = monitors_from_properties(standard_property_suite())
        assert [m.name for m in monitors] == ["best_agreement", "route_validity"]
        with pytest.raises(ValueError, match="no runtime monitor"):
            monitor_for_property("fermatLastTheorem")

    def test_unknown_monitor_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown monitor kind"):
            build_monitor("vibes")
