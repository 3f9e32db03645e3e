"""Runtime invariant monitors: hook plumbing, incremental state mirroring,
first-violation timestamps, and agreement with post-hoc property checks."""

import pytest

from repro.dn.engine import DistributedEngine, EngineConfig
from repro.fvn.monitors import (
    MONITOR_KINDS,
    PATH_VECTOR_SCHEMA,
    POLICY_SCHEMA,
    CycleFreedomMonitor,
    SoftStateBoundMonitor,
    build_monitor,
    monitor_for_property,
    monitors_from_properties,
    posthoc_violations,
    schema_for_program,
    standard_monitors,
)
from repro.fvn.properties import standard_property_suite
from repro.bgp.generator import policy_path_vector_program
from repro.ndlog.parser import parse_program
from repro.protocols.pathvector import PATH_VECTOR_SOURCE, path_vector_program
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


class TestHookPlumbing:
    def test_clean_run_mirror_matches_engine_state(self, rule_tier):
        monitors = standard_monitors()
        engine, _ = pv_engine(config=EngineConfig(seed=3), monitors=monitors)
        trace = engine.run()
        engine.finalize_monitors()
        assert trace.quiescent
        for monitor in monitors:
            assert monitor.ok
            for node_id, node in engine.nodes.items():
                for predicate in monitor.watched:
                    assert monitor.mirror_rows(node_id, predicate) == set(
                        node.db.rows(predicate)
                    ), (monitor.name, node_id, predicate)

    def test_clean_convergence_has_no_violations(self, rule_tier):
        monitors = standard_monitors()
        engine, _ = pv_engine(config=EngineConfig(seed=1), monitors=monitors)
        engine.run()
        engine.finalize_monitors()
        for monitor in monitors:
            assert monitor.ok, monitor.report()
            assert monitor.first_violation is None

    def test_changes_fan_out_by_predicate(self):
        """A monitor on ``RuntimeMonitor.on_change`` is only called for the
        predicates it watches; one that replaces ``on_change`` — or is no
        ``RuntimeMonitor`` at all — keeps receiving every change, and all of
        them in attach order."""

        calls = []

        class Recording(CycleFreedomMonitor):
            def _row_added(self, node, predicate, row, old):
                calls.append(("cycle", predicate))
                super()._row_added(node, predicate, row, old)

        class Bare:  # the EngineMonitor protocol and nothing else
            def attach(self, engine): ...
            def on_change(self, time, node, predicate, values, kind):
                calls.append(("bare", predicate))
            def on_settle(self, time, node): ...
            def finalize(self, time): ...

        class Everything(SoftStateBoundMonitor):
            def on_change(self, time, node, predicate, values, kind):
                calls.append(("soft", predicate))
                super().on_change(time, node, predicate, values, kind)

        watching = Recording()
        engine, _ = pv_engine(size=4, monitors=[Bare(), watching, Everything()])
        trace = engine.run()
        seen = {who: {p for w, p in calls if w == who} for who in ("cycle", "bare", "soft")}
        assert seen["bare"] == seen["soft"] == {c.predicate for c in trace.state_changes}
        assert "link" in seen["bare"] and "link" not in watching.watched
        assert seen["cycle"] == set(watching.watched) & seen["bare"]
        assert len([c for c in calls if c[0] == "bare"]) == trace.state_change_count
        # attach order within one change: bare, (cycle when watched), soft
        first_path = next(i for i, c in enumerate(calls) if c[1] == "path")
        assert [who for who, _ in calls[first_path : first_path + 3]] == [
            "bare", "cycle", "soft",
        ]

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

    def test_cycle_monitor_flags_and_heals_cyclic_vectors(self):
        monitor = CycleFreedomMonitor(PATH_VECTOR_SCHEMA)
        engine, _ = pv_engine(monitors=[monitor])
        engine.run()
        bad = (1, 2, (1, 3, 1), 5.0)
        monitor.on_change(9.0, 1, "path", bad, "insert")
        monitor.on_settle(9.0, 1)
        assert monitor.first_violation_time == 9.0
        assert not monitor.ok
        monitor.on_change(9.5, 1, "path", bad, "delete")
        monitor.on_settle(9.5, 1)
        assert monitor.ok

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
