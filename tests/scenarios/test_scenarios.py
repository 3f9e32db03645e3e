"""Scenario generation tests + centralized/distributed cross-validation.

The acceptance bar for the scenario generator is that the two execution
paths the paper relies on — the centralized stratified evaluator and the
distributed runtime — still compute the same fixpoint on generated
topologies, across at least the grid, tree, and power-law families.
"""

import gc
import hashlib
import itertools

import networkx as nx
import pytest

from repro.dn.engine import DistributedEngine
from repro.ndlog.seminaive import evaluate
from repro.protocols.pathvector import path_vector_program
from repro.scenarios import (
    POLICY_KINDS,
    bfs_customer_provider,
    cost_churn_schedule,
    first_triangle,
    generate_scenario,
    generate_suite,
    link_churn_schedule,
    scenario_families,
    scenario_policies,
)


class TestGeneration:
    @pytest.mark.parametrize("family", scenario_families())
    def test_families_generate_connected_topologies(self, family):
        scenario = generate_scenario(family, size=24, seed=3)
        graph = scenario.topology.to_networkx().to_undirected()
        assert scenario.node_count >= 24
        assert nx.is_connected(graph)

    @pytest.mark.parametrize("family", ["tree", "power_law", "waxman"])
    def test_generation_is_deterministic(self, family):
        a = generate_scenario(family, size=30, seed=11)
        b = generate_scenario(family, size=30, seed=11)
        assert a.topology.link_facts() == b.topology.link_facts()
        c = generate_scenario(family, size=30, seed=12)
        assert a.topology.link_facts() != c.topology.link_facts()

    def test_scales_to_hundreds_of_nodes(self):
        scenario = generate_scenario("power_law", size=200, seed=1)
        assert scenario.node_count == 200
        assert nx.is_connected(scenario.topology.to_networkx().to_undirected())

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError, match="unknown scenario family"):
            generate_scenario("moebius", size=10)

    def test_suite_covers_all_families(self):
        suite = generate_suite(size=12, seed=5)
        assert sorted(s.family for s in suite) == scenario_families()

    @pytest.mark.parametrize("family", ["tree", "power_law", "waxman"])
    def test_generation_leaves_no_cyclic_garbage(self, family):
        # what generation allocates is freed by refcount: a scenario built
        # outside run() must leave nothing for the cycle collector
        generate_scenario(family, size=20, seed=0)  # warm: imports, caches
        enabled = gc.isenabled()
        gc.collect()
        gc.disable()
        try:
            generate_scenario(family, size=20, seed=1)
            assert gc.collect() == 0
        finally:
            if enabled:
                gc.enable()

    @pytest.mark.parametrize(
        "family, size, seed, expected",
        [
            ("tree", 20, 3, "82d3d0352b86583d"),
            ("power_law", 12, 0, "7f70855576f5441c"),
            ("power_law", 32, 7, "f66721c4847ef992"),
            ("waxman", 20, 3, "5bb823ae2de78e1a"),
            ("waxman", 32, 7, "abc522ff5d004c61"),
        ],
    )
    def test_topologies_are_pinned(self, family, size, seed, expected):
        # digests of links and costs taken before the graphs were emptied
        # after conversion: generation must not move
        topology = generate_scenario(family, size=size, seed=seed).topology
        links = sorted((k.src, k.dst, k.cost, k.delay, k.loss) for k in topology.links())
        digest = hashlib.sha256(repr((list(topology.nodes), links)).encode()).hexdigest()
        assert digest[:16] == expected


class TestChurn:
    def test_churn_schedule_references_existing_links(self):
        scenario = generate_scenario("waxman", size=30, seed=2, churn_events=8)
        links = {
            frozenset((link.src, link.dst)) for link in scenario.topology.up_links()
        }
        fail_events = [e for e in scenario.churn.events if e.kind == "fail_link"]
        assert len(fail_events) == 8
        for event in fail_events:
            assert frozenset((event.src, event.dst)) in links

    def test_link_churn_schedule_fails_distinct_links(self):
        schedule = link_churn_schedule(
            generate_scenario("ring", size=6).topology, events=3, seed=2
        )
        assert len(schedule) == 3
        assert len({frozenset((e.src, e.dst)) for e in schedule.events}) == 3

    def test_churn_times_are_ordered_and_spaced(self):
        schedule = link_churn_schedule(
            generate_scenario("ring", size=10).topology,
            events=4,
            start=2.0,
            spacing=0.25,
            seed=9,
        )
        times = [e.at for e in schedule.events]
        assert times == sorted(times)
        assert times[0] == 2.0 and times[-1] == pytest.approx(2.75)

    def test_restore_delay_pairs_failures_with_restores(self):
        scenario = generate_scenario(
            "grid", size=16, seed=4, churn_events=3, churn_restore_delay=1.5
        )
        kinds = [e.kind for e in scenario.churn.events]
        assert kinds.count("fail_link") == 3
        assert kinds.count("restore_link") == 3

    def test_cost_churn_schedule(self):
        schedule = cost_churn_schedule(
            generate_scenario("tree", size=20).topology, events=5, seed=1
        )
        assert len(schedule.events) == 5
        assert all(e.kind == "set_cost" for e in schedule.events)

    def test_churn_applies_to_engine(self):
        scenario = generate_scenario("tree", size=12, seed=6, churn_events=2)
        engine = DistributedEngine(path_vector_program(), scenario.topology)
        engine.seed_facts()
        scenario.churn.apply_to_engine(engine)
        trace = engine.run()
        assert trace.quiescent
        assert any(c.kind == "delete" for c in trace.state_changes)

    @pytest.mark.parametrize("hash_seed", ["0", "1", "424242"])
    def test_schedules_identical_across_hash_seeds(self, hash_seed):
        # the schedule must be a pure function of (topology, seed): run the
        # generation under different PYTHONHASHSEED values in subprocesses
        # and require byte-identical event sequences
        import os
        import subprocess
        import sys

        script = (
            "from repro.scenarios import generate_scenario\n"
            "from repro.scenarios import cost_churn_schedule, link_churn_schedule\n"
            "for family in ('tree', 'power_law'):\n"
            "    topo = generate_scenario(family, size=25, seed=13).topology\n"
            "    for schedule in (\n"
            "        link_churn_schedule(topo, events=6, seed=7, restore_delay=1.5),\n"
            "        cost_churn_schedule(topo, events=6, seed=7),\n"
            "    ):\n"
            "        for e in schedule.events:\n"
            "            print(e.at, e.kind, e.src, e.dst, e.cost)\n"
        )
        env = dict(os.environ)
        src_dir = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        env["PYTHONPATH"] = os.path.abspath(src_dir)
        outputs = []
        for seed in ("77", hash_seed):
            env["PYTHONHASHSEED"] = seed
            result = subprocess.run(
                [sys.executable, "-c", script],
                env=env,
                capture_output=True,
                text=True,
                check=True,
            )
            outputs.append(result.stdout)
        assert outputs[0] == outputs[1]
        # 2 families × (6 fails + 6 restores + 6 cost changes)
        assert outputs[0].count("\n") == 2 * 18


class TestPolicies:
    @pytest.mark.parametrize("kind", POLICY_KINDS)
    def test_policy_kinds_generate(self, kind):
        topology = generate_scenario("power_law", size=12, seed=3).topology
        table = scenario_policies(kind, topology, seed=3)
        if kind == "shortest_path":
            assert not table.import_rules and not table.export_rules
        else:
            assert table.import_rules

    @pytest.mark.parametrize("family, size", [("power_law", 16), ("power_law", 32), ("waxman", 32)])
    def test_disagree_gadget_sits_on_a_triangle(self, family, size):
        """Every policed pair of the gadget is a link, and the gadget takes
        the first triangle in numeric node order (``str`` order once put
        ``10`` before ``2``)."""

        topology = generate_scenario(family, size=size, seed=0).topology
        table = scenario_policies("disagree", topology)
        assert table.import_rules
        for local, neighbour in table.import_rules:
            assert topology.link(local, neighbour) is not None
        nodes = sorted({node for pair in table.import_rules for node in pair})
        assert len(nodes) == 3
        brute = next(
            (a, b, c)
            for a, b, c in itertools.combinations(sorted(topology.nodes), 3)
            if topology.link(a, b) and topology.link(a, c) and topology.link(b, c)
        )
        assert tuple(nodes) == first_triangle(topology) == brute

    def test_disagree_needs_a_triangle(self):
        topology = generate_scenario("tree", size=10, seed=0).topology
        assert first_triangle(topology) is None
        with pytest.raises(ValueError, match="triangle"):
            scenario_policies("disagree", topology)

    def test_bfs_customer_provider_covers_all_non_root_nodes(self):
        topology = generate_scenario("waxman", size=20, seed=8).topology
        pairs = bfs_customer_provider(topology)
        customers = {customer for customer, _ in pairs}
        assert len(customers) == topology.node_count - 1

    def test_policy_scenario_emits_facts(self):
        scenario = generate_scenario("tree", size=10, seed=2, policy="random_pref")
        facts = scenario.policy_fact_list()
        assert {name for name, _ in facts} == {"importPref"}
        assert len(facts) == 10 * 9


class TestCrossValidation:
    """Centralized fixpoint == distributed final state on generated scenarios."""

    FAMILIES = {
        "grid": dict(size=9, seed=1),
        "tree": dict(size=14, seed=2),
        "power_law": dict(size=10, seed=3),
    }

    @pytest.mark.parametrize("family", list(FAMILIES))
    def test_distributed_matches_centralized(self, family):
        scenario = generate_scenario(family, **self.FAMILIES[family])
        program = path_vector_program()
        engine = DistributedEngine(program, scenario.topology)
        trace = engine.run()
        assert trace.quiescent
        central = evaluate(program, scenario.link_facts())
        # the full path relation and the best costs must agree exactly; for
        # bestPath only the (source, destination, cost) projection is
        # execution-order independent — keyed replacement picks an arbitrary
        # winner among equal-cost paths (grids are full of ties)
        assert set(engine.rows("path")) == set(central.rows("path"))
        assert set(engine.rows("bestPathCost")) == set(central.rows("bestPathCost"))

        def project(rows):
            return {(r[0], r[1], r[3]) for r in rows}

        assert project(engine.rows("bestPath")) == project(central.rows("bestPath"))

    @pytest.mark.parametrize("family", list(FAMILIES))
    def test_indexed_matches_naive_on_scenarios(self, family, reference_rules):
        scenario = generate_scenario(family, **self.FAMILIES[family])
        program = path_vector_program()
        indexed = evaluate(program, scenario.link_facts())
        with reference_rules():
            naive = evaluate(program, scenario.link_facts())
        assert indexed.snapshot() == naive.snapshot()
