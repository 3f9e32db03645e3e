"""A settle sends its net effect, not its change log.

``FixpointExecutor.settle`` sums a settle's outbound dispatches per ``(dst,
predicate, row)`` and sends each surviving key ``|net|`` times, in
first-occurrence order, when the settle ends.  Three layers of checks:

* the netting contract on the executor alone (a hand-built node, a
  recording ``send``);
* the trace-level invariant on the six ``converge`` shapes (power_law-32,
  seeds 0-5), on 1 shard and 2 process shards: no ``(time, src, dst,
  predicate, values)`` crosses the wire both as an ``assert`` and as a
  ``retract``;
* a final-state guard for the policy program.  Netting can change which of
  two equal-rank paths wins a ``bestRoute`` key (and so the ``route`` /
  ``advertise`` rows that follow), so the guard is not "tables equal" but
  closure: ``route`` is exactly what pv1/pv2 derive, ``advertise`` exactly
  what pv5 derives, each ``bestRoute`` row a ``route`` row of minimal rank
  — plus a digest of the sorted ``bestRouteRank`` rows, which ties do not
  move.  The digests were computed before netting existed.
"""

import hashlib
from collections import defaultdict

import pytest

from repro.bgp.generator import policy_path_vector_program
from repro.dn import EngineConfig, create_engine
from repro.dn.executor import FixpointExecutor
from repro.dn.node import Node
from repro.ndlog.parser import parse_program
from repro.scenarios import generate_scenario

#: the policy program's rank encoding: ``R = Pref * MAX_COST + C``
MAX_COST = 1024

#: sha256 of ``repr(sorted(bestRouteRank rows))`` per converge shape (seed),
#: computed before settles netted their sends; a link cycle ends on its
#: shape's digest
RANK_DIGESTS = {
    0: "6ed554df5dea196f9dace75a60de3afd886e67b0c32942ad0e9c64c3a20930dd",
    1: "f246afbd3616ca11f1ea79407a6186040db55b6494d7434d59f40ff10a02cb4d",
    2: "80ebdb73c3aa58d7f179543a7a658daaddff9a4e4723482d0574658d9c8df6a3",
    3: "ad8719452b6454473ca7c4f6951bc83e78e242a93a59eccb71bec4fea511f2ac",
    4: "3d881fd80d874f8a67d0b49b5fd96e1df5c73d3e9a4ab1240557e1800083640e",
    5: "2c14c1ae158499ec38d5584cde6a766dc11a6fc50f3a35c90369b677d4af0807",
}


# ----------------------------------------------------------------------
# the netting contract, on the executor alone
# ----------------------------------------------------------------------
class TestNettingContract:
    """``link(@S,D,W)`` at node ``a`` derives ``reach(@D,S,W)`` at ``D``:
    every link op a settle runs dispatches one remote head row."""

    PROGRAM = (
        "materialize(link, infinity, infinity, keys(1,2,3)).\n"
        "materialize(reach, infinity, infinity, keys(1,2,3)).\n"
        "reach(@D, S, W) :- link(@S, D, W)."
    )

    def settle(self, ops, program=PROGRAM, node=None):
        """Settle ``ops`` at node ``a`` (a fresh one unless given); returns
        the sends."""

        node = node or Node("a", parse_program(program))
        executor = FixpointExecutor(node.program, node.rule_engine)
        sent = []
        executor.settle(
            node, ops, 1.0, lambda *change: None, lambda *send: sent.append(send)
        )
        return sent

    def test_assert_then_retract_sends_nothing(self):
        link = ("a", "b", 1)
        assert self.settle([("insert", "link", link), ("retract", "link", link)]) == []

    def test_two_asserts_and_one_retract_send_one_assert(self):
        # two links derive reach(b, a): a counted row with two supports, and
        # two sends
        sent = self.settle(
            [
                ("insert", "link", ("a", "b", 1)),
                ("insert", "link", ("a", "b", 2)),
                ("retract", "link", ("a", "b", 1)),
            ],
            program=(
                "materialize(link, infinity, infinity, keys(1,2,3)).\n"
                "materialize(reach, infinity, infinity, keys(1,2)).\n"
                "reach(@D, S) :- link(@S, D, W)."
            ),
        )
        assert sent == [("a", "b", "reach", ("b", "a"), "assert")]

    def test_survivors_keep_first_occurrence_order(self):
        # dispatches: +c, +b, -c, +d, +c — c nets to +1 and goes first
        sent = self.settle(
            [
                ("insert", "link", ("a", "c", 1)),
                ("insert", "link", ("a", "b", 1)),
                ("retract", "link", ("a", "c", 1)),
                ("insert", "link", ("a", "d", 1)),
                ("insert", "link", ("a", "c", 1)),
            ]
        )
        assert sent == [
            ("a", dst, "reach", (dst, "a", 1), "assert") for dst in ("c", "b", "d")
        ]

    def test_a_net_retract_is_sent_as_a_retract(self):
        link = ("a", "b", 1)
        node = Node("a", parse_program(self.PROGRAM))
        assert self.settle([("insert", "link", link)], node=node) == [
            ("a", "b", "reach", ("b", "a", 1), "assert")
        ]
        # dispatches: -, +, -
        ops = [("retract", "link", link), ("insert", "link", link), ("retract", "link", link)]
        assert self.settle(ops, node=node) == [("a", "b", "reach", ("b", "a", 1), "retract")]

    def test_a_list_valued_row_nets_through_row_key(self):
        # the list sits outside every primary key, as tables require
        program = (
            "materialize(link, infinity, infinity, keys(1,2)).\n"
            "materialize(reach, infinity, infinity, keys(1,2)).\n"
            "reach(@D, S, W) :- link(@S, D, W)."
        )
        link = ("a", "b", [1, 2])
        assert self.settle(
            [("insert", "link", link), ("retract", "link", ("a", "b", [1, 2]))], program
        ) == []
        sent = self.settle(
            [
                ("insert", "link", link),
                ("retract", "link", ("a", "b", [1, 2])),
                ("insert", "link", ("a", "b", [1, 2])),
            ],
            program,
        )
        assert sent == [("a", "b", "reach", ("b", "a", [1, 2]), "assert")]
        # the send carries the row's values, not its hashable stand-in
        assert type(sent[0][3][2]) is list


# ----------------------------------------------------------------------
# the six converge shapes, on 1 shard and 2 process shards
# ----------------------------------------------------------------------
def converge_engine(seed: int, shards: int):
    scenario = generate_scenario("power_law", size=32, seed=seed, policy="shortest_path")
    sharding = (
        dict(shards=shards, partition="metis-lite", shard_transport="process")
        if shards > 1
        else {}
    )
    config = EngineConfig(seed=seed, max_events=10_000_000, **sharding)
    engine = create_engine(policy_path_vector_program(), scenario.topology, config=config)
    return engine, scenario.policy_fact_list()


def tables(engine) -> dict[str, set]:
    return {
        predicate: set(engine.rows(predicate))
        for predicate in (
            "link", "importPref", "exportDeny", "route", "bestRouteRank", "bestRoute", "advertise"
        )
    }


def rank_digest(rows) -> str:
    return hashlib.sha256(repr(sorted(rows)).encode()).hexdigest()


def closure_problems(state: dict[str, set]) -> list[str]:
    """Where the policy program's tables are not closed under its rules."""

    link = {(s, d): cost for s, d, cost in state["link"]}
    pref = {(s, d): p for s, d, p in state["importPref"]}
    deny = state["exportDeny"]
    problems = []

    # pv1 / pv2
    route = set()
    for (s, d), cost in link.items():
        if (s, d) in pref:
            p = pref[s, d]
            route.add((s, d, (s, d), cost, p, p * MAX_COST + cost))
    for s, z, d, path, cost in state["advertise"]:
        if (s, z) in link and (s, z) in pref and s not in path:
            p, c = pref[s, z], link[s, z] + cost
            route.add((s, d, (s,) + path, c, p, p * MAX_COST + c))
    if route != state["route"]:
        problems.append(
            f"route: {len(state['route'] - route)} underivable, "
            f"{len(route - state['route'])} missing"
        )

    # pv3 / pv4
    best_rank: dict[tuple, int] = {}
    by_rank: dict[tuple, set] = defaultdict(set)
    for s, d, path, cost, _, rank in state["route"]:
        if rank <= best_rank.get((s, d), rank):
            best_rank[s, d] = rank
        by_rank[s, d, rank].add((s, d, path, cost, rank))
    if state["bestRouteRank"] != {(s, d, r) for (s, d), r in best_rank.items()}:
        problems.append("bestRouteRank is not the minimal route rank")
    winners = defaultdict(list)
    for row in state["bestRoute"]:
        winners[row[:2]].append(row)
    for key, rank in best_rank.items():
        rows = winners.pop(key, [])
        if len(rows) != 1 or rows[0] not in by_rank[(*key, rank)]:
            problems.append(f"bestRoute{key}: {rows} is not one route of rank {rank}")
    if winners:
        problems.append(f"bestRoute rows without a route: {sorted(winners)[:3]}")

    # pv5
    neighbours = defaultdict(list)
    for s, n in link:
        neighbours[s].append(n)
    advertise = {
        (n, s, d, path, cost)
        for s, d, path, cost, _ in state["bestRoute"]
        for n in neighbours[s]
        if n not in path and (s, n, d) not in deny
    }
    if advertise != state["advertise"]:
        problems.append(
            f"advertise: {len(state['advertise'] - advertise)} underivable, "
            f"{len(advertise - state['advertise'])} missing"
        )
    return problems


@pytest.fixture(scope="module")
def converged():
    """``(seed, shards)`` → the converged run's message keys by kind and its
    final tables, each run once for the whole module."""

    out = {}

    def get(seed: int, shards: int):
        if (seed, shards) not in out:
            engine, facts = converge_engine(seed, shards)
            try:
                trace = engine.run(extra_facts=facts)
                assert trace.quiescent
                sent = defaultdict(set)
                for message in trace.messages:
                    sent[message.kind].add(
                        (message.time, message.src, message.dst, message.predicate, message.values)
                    )
                out[seed, shards] = (sent, tables(engine))
            finally:
                engine.close()
        return out[seed, shards]

    return get


SHAPES = [(seed, shards) for shards in (1, 2) for seed in range(6)]


@pytest.mark.parametrize("seed,shards", SHAPES)
def test_no_message_is_both_asserted_and_retracted(converged, seed, shards):
    sent, _ = converged(seed, shards)
    both = sent["assert"] & sent["retract"]
    assert sent["assert"] and not both, f"{len(both)} messages sent both ways, e.g. {min(both)}"


@pytest.mark.parametrize("seed,shards", SHAPES)
def test_final_state_is_closed_under_the_policy_rules(converged, seed, shards):
    _, state = converged(seed, shards)
    assert closure_problems(state) == []
    assert rank_digest(state["bestRouteRank"]) == RANK_DIGESTS[seed]


def test_the_closure_check_sees_a_stale_row(converged):
    _, state = converged(0, 1)
    route = min(state["route"])
    for broken in (
        {**state, "route": state["route"] - {route}},
        {**state, "advertise": state["advertise"] | {(0, 1, 99, (1, 99), 1)}},
        {**state, "bestRoute": state["bestRoute"] - {min(state["bestRoute"])}},
    ):
        assert closure_problems(broken)


def test_closure_holds_through_a_link_cycle():
    """Fail, restore, re-cost and re-cost back one link of shape 0, as the
    ``churn`` workload cycles every link."""

    engine, facts = converge_engine(0, 1)
    try:
        engine.run(extra_facts=facts)
        src, dst, cost = sorted(engine.rows("link"))[0]
        steps = [
            lambda at: engine.schedule_link_failure(src, dst, at=at),
            lambda at: engine.schedule_link_restore(src, dst, at=at),
            lambda at: engine.schedule_cost_change(src, dst, cost % 5 + 1, at=at),
            lambda at: engine.schedule_cost_change(src, dst, cost, at=at),
        ]
        for step in steps:
            step(engine.scheduler.now + 1.0)
            assert engine.run().quiescent
            assert closure_problems(tables(engine)) == []
        assert rank_digest(engine.rows("bestRouteRank")) == RANK_DIGESTS[0]
    finally:
        engine.close()
