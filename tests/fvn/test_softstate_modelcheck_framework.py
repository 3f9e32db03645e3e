"""Unit tests for the soft-state rewrite, transition system, model checker,
and the end-to-end FVN framework."""


from repro.bgp.model import bgp_model
from repro.fvn.framework import FVN
from repro.fvn.linear import TransitionSystem
from repro.fvn.modelcheck import (
    check_eventually_expires,
    check_invariant,
    check_reachable,
)
from repro.fvn.properties import route_optimality, standard_property_suite
from repro.fvn.soft_state_rewrite import RewriteMetrics, rewrite_soft_state
from repro.metarouting import bgp_system, safe_bgp_system
from repro.protocols.heartbeat import heartbeat_facts, heartbeat_program
from repro.protocols.pathvector import path_vector_program
from repro.protocols.policy import shortest_path_policies
from repro.workloads.topologies import line_topology


class TestSoftStateRewrite:
    def test_hard_state_program_is_unchanged(self):
        rewrite = rewrite_soft_state(path_vector_program())
        assert rewrite.soft_predicates == ()
        assert rewrite.blowup()["attributes"] == 1.0

    def test_heartbeat_rewrite_adds_timestamps(self):
        rewrite = rewrite_soft_state(heartbeat_program())
        assert set(rewrite.soft_predicates) == {"heartbeat", "alive", "reachableAlive"}
        rewritten = rewrite.rewritten
        hb_rule = next(r for r in rewritten.rules if r.name == "hb1")
        assert hb_rule.head.arity == 4  # S, N, Tins, Ttl
        assert any("Tnow" in str(item) for item in hb_rule.body)
        # rewritten tables are hard state
        assert all(not d.is_soft_state for d in rewritten.materialized.values())

    def test_rewrite_is_heavyweight(self):
        """The paper calls the encoding 'heavy-weight and cumbersome' — the
        rewrite must measurably inflate the program."""

        rewrite = rewrite_soft_state(heartbeat_program())
        blowup = rewrite.blowup()
        assert blowup["attributes"] > 1.3
        assert blowup["conditions"] > 1.0 or blowup["assignments"] > 1.0
        assert "soft-state rewrite" in rewrite.summary()

    def test_rewritten_program_still_checks(self):
        rewrite = rewrite_soft_state(heartbeat_program())
        rewrite.rewritten.check()
        metrics = RewriteMetrics.of(rewrite.rewritten)
        assert metrics.rules == len(heartbeat_program().rules)


class TestTransitionSystemAndModelChecking:
    def test_rule_firings_produce_new_facts(self):
        system = TransitionSystem(heartbeat_program(), linear_predicates=())
        state = system.initial_state(heartbeat_facts([("a", "b")]))
        successors = list(system.successors(state))
        fired = [t for t in successors if t.kind == "fire"]
        assert any(t.produced[0][0] == "alive" for t in fired)
        assert any(t.kind == "tick" for t in successors)

    def test_reachability_of_derived_fact(self):
        system = TransitionSystem(heartbeat_program(), linear_predicates=())
        result = check_reachable(
            system,
            lambda s: s.holds("reachableAlive", ("a", "c")),
            extra_facts=heartbeat_facts([("a", "b"), ("b", "c")]),
            max_states=500,
            max_depth=10,
        )
        assert result.holds
        assert result.trace  # a witness trace is produced

    def test_invariant_violation_produces_counterexample(self):
        system = TransitionSystem(heartbeat_program(), linear_predicates=())
        result = check_invariant(
            system,
            lambda s: not s.holds("alive", ("a", "b")),
            extra_facts=heartbeat_facts([("a", "b")]),
            max_states=200,
            max_depth=5,
        )
        assert not result.holds
        assert result.witness is not None

    def test_soft_state_eventually_expires_without_refresh(self):
        system = TransitionSystem(heartbeat_program())
        result = check_eventually_expires(
            system, "heartbeat", extra_facts=heartbeat_facts([("a", "b")]), max_ticks=10
        )
        assert result.holds

    def test_hard_state_does_not_expire(self):
        system = TransitionSystem(heartbeat_program())
        result = check_eventually_expires(
            system, "neighbor", extra_facts=heartbeat_facts([("a", "b")]), max_ticks=6
        )
        assert not result.holds


class TestFrameworkPipeline:
    def test_ndlog_first_workflow(self):
        fvn = FVN("pathvector")
        fvn.use_ndlog(path_vector_program())
        for spec in standard_property_suite():
            fvn.add_property(spec)
        fvn.specify_ndlog()
        report = fvn.verify(instances=[[("link", ("a", "b", 1)), ("link", ("b", "a", 1))]])
        assert report.proved_count == len(report.verdicts)
        trace = fvn.execute(line_topology(3))
        assert trace.quiescent
        assert {1, 4, 5, 7, 8} <= set(fvn.record.exercised)

    def test_component_first_workflow(self):
        fvn = FVN("bgp")
        fvn.design_components(bgp_model(shortest_path_policies()))
        fvn.specify_components()
        program = fvn.generate_ndlog()
        assert program.rules
        assert 3 in fvn.record.exercised and 2 in fvn.record.exercised

    def test_meta_model_design_phase(self):
        fvn = FVN("safe-bgp")
        result = fvn.design_algebra(safe_bgp_system(max_cost=6), sample=10)
        assert result.all_discharged
        risky = FVN("bgp-lp")
        risky_result = risky.design_algebra(bgp_system(max_cost=6), sample=12)
        assert not risky_result.all_discharged

    def test_model_check_arc(self):
        fvn = FVN("heartbeat")
        fvn.use_ndlog(heartbeat_program())
        result = fvn.model_check(
            lambda s: True,
            extra_facts=heartbeat_facts([("a", "b")]),
            max_states=100,
            max_depth=4,
        )
        assert result.holds
        assert 6 in fvn.record.exercised

    def test_report_renders(self):
        fvn = FVN("pathvector")
        fvn.use_ndlog(path_vector_program())
        fvn.add_property(route_optimality())
        fvn.verify()
        text = fvn.report()
        assert "arc 5" in text and "pathvector" in text
