"""Unit tests for BGP policies, the component model, and NDlog generation."""


from repro.bgp.generator import bgp_component_program
from repro.bgp.model import (
    ComponentBGPSimulator,
    bgp_model,
    peer_transformation,
    policy_registry,
)
from repro.dn.engine import DistributedEngine
from repro.dn.network import Topology
from repro.fvn.logic_to_ndlog import check_translation_equivalence
from repro.protocols.policy import (
    PolicyRule,
    PolicyTable,
    Route,
    best_route,
    disagree_policies,
    gao_rexford_policies,
    policy_facts,
    policy_path_vector_program,
    prefer_route,
    shortest_path_policies,
)


class TestRoutesAndPolicies:
    def test_prefer_route_orders_by_local_pref_then_length(self):
        short = Route("d", ("a", "d"), local_pref=100)
        long_preferred = Route("d", ("a", "b", "c", "d"), local_pref=200)
        assert prefer_route(short, long_preferred) == long_preferred
        same_pref_longer = Route("d", ("a", "b", "d"), local_pref=100)
        assert prefer_route(short, same_pref_longer) == short
        assert best_route([short, long_preferred, same_pref_longer]) == long_preferred

    def test_policy_rule_matching_and_actions(self):
        route = Route("d", ("w", "d"), local_pref=100)
        deny = PolicyRule("deny", match_destination="d")
        assert deny.apply(route, "me") is None
        other = PolicyRule("deny", match_destination="x")
        assert other.apply(route, "me") == route
        setter = PolicyRule("set_local_pref", local_pref=250)
        assert setter.apply(route, "me").local_pref == 250

    def test_export_suppresses_loops_and_denies(self):
        table = PolicyTable()
        table.add_export("w", "u", PolicyRule("deny", match_destination="secret"))
        assert table.apply_export("w", "u", Route("secret", ("w", "secret"))) is None
        assert table.apply_export("w", "u", Route("d", ("w", "u", "d"))) is None
        assert table.apply_export("w", "u", Route("d", ("w", "d"))) is not None

    def test_import_loop_prevention(self):
        table = PolicyTable()
        assert table.apply_import("u", "w", Route("d", ("w", "u", "d"))) is None

    def test_policy_fact_generation(self):
        facts = policy_facts(disagree_policies(), [0, 1, 2])
        prefs = {(f[1][0], f[1][1]): f[1][2] for f in facts if f[0] == "importPref"}
        # node 1 prefers routes learned from 2 (rank 0) over those from 0
        assert prefs[(1, 2)] < prefs[(1, 0)]
        assert prefs[(2, 1)] < prefs[(2, 0)]

    def test_gao_rexford_prefers_customers(self):
        table = gao_rexford_policies([("c1", "p1")])
        imported = table.apply_import("p1", "c1", Route("d", ("c1", "d")))
        assert imported.local_pref == 300
        upstream = table.apply_import("c1", "p1", Route("d", ("p1", "d")))
        assert upstream.local_pref == 100


class TestComponentModel:
    def test_pipeline_transforms_single_announcement(self):
        model = bgp_model(shortest_path_policies())
        outputs = model.run(r0=(1, 0, 0, (0,), 100, 0.0, 7))
        best = outputs["bestRoute.best"]
        assert best[0] == 1  # receiver
        assert best[2] == (1, 0)  # receiver prepended
        assert best[5] == 7  # time preserved

    def test_export_deny_stops_the_pipeline(self):
        table = PolicyTable()
        table.add_export(0, 1, PolicyRule("deny"))
        model = bgp_model(table)
        assert model.run(r0=(1, 0, 0, (0,), 100, 0.0, 1)) == {}

    def test_import_local_pref_applied(self):
        model = bgp_model(disagree_policies())
        outputs = model.run(r0=(1, 2, 0, (2, 0), 100, 1.0, 1))
        assert outputs["bestRoute.best"][3] == 200

    def test_peer_transformation_composite_structure(self):
        pt = peer_transformation(shortest_path_policies())
        assert set(pt.components) == {"export", "pvt", "import_"}
        assert len(pt.wires) == 2
        ordered = [c.name for c in pt.topological_order()]
        assert ordered.index("export") < ordered.index("pvt") < ordered.index("import_")

    def test_component_theory_has_definitions(self):
        theory = bgp_model(shortest_path_policies()).theory()
        assert set(theory.definitions.predicates()) >= {"export", "pvt", "import_", "bestRoute", "bgp"}

    def test_synchronous_simulator_shortest_path_converges(self):
        sim = ComponentBGPSimulator(shortest_path_policies(), [(0, 1), (1, 2), (0, 2)], origin=0)
        rounds, converged = sim.run_to_fixpoint()
        assert converged
        assert sim.selected[2].as_path == (2, 0)

    def test_synchronous_simulator_disagree_oscillates(self):
        sim = ComponentBGPSimulator(disagree_policies(), [(0, 1), (0, 2), (1, 2)], origin=0)
        rounds, converged = sim.run_to_fixpoint(max_rounds=25)
        assert not converged


class TestGeneratedNDlog:
    def test_component_translation_equivalence(self):
        policies = disagree_policies()
        model = bgp_model(policies)
        result = check_translation_equivalence(
            model,
            {"r0": (1, 0, 0, (0,), 100, 0.0, 1)},
            functions=policy_registry(policies),
        )
        assert result.matches, result.detail

    def test_component_program_structure(self):
        program = bgp_component_program()
        assert {r.head.predicate for r in program.rules} == {
            "export_out_r1",
            "pvt_out_r2",
            "import__out_r3",
            "bestRoute_out_best",
        }

    def test_policy_path_vector_runs_distributed(self):
        program = policy_path_vector_program()
        topology = Topology.from_edges([(0, 1, 1), (0, 2, 1), (1, 2, 1)])
        engine = DistributedEngine(program, topology)
        trace = engine.run(extra_facts=policy_facts(shortest_path_policies(), [0, 1, 2]))
        assert trace.quiescent
        best = {(r[0], r[1]): r for r in engine.rows("bestRoute")}
        assert best[(1, 0)][2] == (1, 0)  # direct shortest path chosen
        assert trace.message_count > 0

    def test_policy_path_vector_respects_export_deny(self):
        policies = PolicyTable()
        policies.add_export(0, 1, PolicyRule("deny", match_destination=2))
        program = policy_path_vector_program()
        topology = Topology.from_edges([(0, 1, 1), (0, 2, 1)])
        engine = DistributedEngine(program, topology)
        engine.run(extra_facts=policy_facts(policies, [0, 1, 2]))
        routes_at_1 = {r[1] for r in engine.rows("bestRoute", 1)}
        assert 2 not in routes_at_1  # node 0 never exported the route to 2
