"""The Dijkstra oracle and link-state mirror on hand-built topologies."""

import pytest

from bench.oracle import LinkState, best_route_costs, link_cycle, route_mismatches


def diamond() -> LinkState:
    #      1
    #   a --- b
    #   |4    |1
    #   c --- d
    #      1
    return LinkState("abcd", [("a", "b", 1), ("a", "c", 4), ("b", "d", 1), ("c", "d", 1)])


def test_shortest_costs_take_the_cheaper_side():
    costs = diamond().shortest_costs()
    assert costs[("a", "d")] == 2
    assert costs[("a", "c")] == 3  # a-b-d-c beats the direct 4
    assert costs[("c", "a")] == 3  # symmetric
    assert len(costs) == 4 * 3
    assert ("a", "a") not in costs


def test_failed_link_reroutes_and_restore_undoes_it():
    links = diamond()
    links.fail("b", "d")
    costs = links.shortest_costs()
    assert costs[("a", "d")] == 5  # a-c-d
    assert costs[("b", "d")] == 6  # b-a-c-d
    links.restore("d", "b")  # either orientation names the link
    assert links.shortest_costs() == diamond().shortest_costs()


def test_failed_bridge_partitions():
    links = LinkState([0, 1, 2], [(0, 1, 2), (1, 2, 3)])
    links.fail(1, 2)
    costs = links.shortest_costs()
    assert costs == {(0, 1): 2, (1, 0): 2}


def test_recosted_link_changes_the_winner():
    links = diamond()
    links.set_cost("a", "c", 1)
    costs = links.shortest_costs()
    assert costs[("a", "c")] == 1
    assert costs[("a", "d")] == 2  # both sides now tie at 2
    assert links.cost("c", "a") == 1


def test_a_link_cycle_applied_step_by_step_returns_to_the_original_graph():
    links = diamond()
    steps = link_cycle("b", "d", links.cost("b", "d"))
    assert [kind for kind, *_ in steps] == ["link_fail", "link_restore", "cost_change", "cost_change"]
    seen = []
    for step in steps:
        links.apply(*step)
        seen.append(links.shortest_costs()[("a", "d")])
    assert seen == [5, 2, 3, 2]  # down: a-c-d; up; re-cost 1 -> 2; back to 1
    assert links.shortest_costs() == diamond().shortest_costs()
    with pytest.raises(ValueError):
        links.apply("link_flap", "b", "d")


def test_unknown_link_is_an_error():
    with pytest.raises(KeyError):
        diamond().fail("a", "d")


def test_pairs_lists_each_link_once():
    assert diamond().pairs() == [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")]


def test_route_mismatches_reports_wrong_missing_and_extra():
    want = {(0, 1): 2, (1, 0): 2, (0, 2): 5}
    rows = [(0, 1, (0, 1), 2, 0), (1, 0, (1, 0), 3, 0), (2, 0, (2, 0), 5, 0)]
    got = best_route_costs(rows)
    problems = route_mismatches(got, want)
    assert any("(1, 0)" in p and "3" in p for p in problems)  # wrong cost
    assert any("(2, 0)" in p and "None" in p for p in problems)  # route the oracle lacks
    assert any("(0, 2)" in p and "no route" in p for p in problems)  # missing route
    assert route_mismatches(want, want) == []
