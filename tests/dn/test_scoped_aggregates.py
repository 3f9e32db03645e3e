"""Scoped aggregate maintenance is exact: it emits what a whole re-fire would.

``FixpointExecutor._recompute_view`` re-folds only the groups a settle's
changed body rows reach (``_view_diff`` with a set of group keys) and
re-fires the whole rule only when it must (no group plan, a changed
predicate whose literal does not bind the group, a node's first recompute).
:class:`ShadowViews` checks the contract from inside: behind every scoped
re-fold it computes the whole re-fire against the same memo and asserts the
two ``(removed, added)`` sequences identical — same rows, same order.  The
runs cover the golden corpus (with ``edge_cases``' ``count`` / ``sum`` /
negated-body aggregates), a program whose aggregates group beyond the
location (``min``, ``max``, ``count``, a negated body, a self-join, a
``sum``), a size-capped body table, soft-state expiry, both rule tiers, 1
and 2 inline shards, and link churn on the policy program.  Where node
tables are in-process, every memo is also checked against a fresh firing at
the end.
"""

import pathlib
from collections import Counter
from contextlib import contextmanager

import pytest

import repro.dn.host as host_module
from repro.bgp.generator import policy_path_vector_program
from repro.dn import EngineConfig, ShardedEngine, Topology, create_engine
from repro.dn.executor import FixpointExecutor
from repro.ndlog.aggregates import group_rows
from repro.ndlog.ast import Literal
from repro.ndlog.parser import parse_program
from repro.scenarios import generate_scenario

CORPUS_DIR = pathlib.Path(__file__).parents[1] / "ndlog" / "corpus"


class ShadowViews(FixpointExecutor):
    """The production executor plus the whole re-fire as its own oracle."""

    calls: Counter = Counter()

    def _view_diff(self, node, rule, memo, groups):
        got = super()._view_diff(node, rule, memo, groups)
        if groups is None:
            self.calls["full"] += 1
        else:
            whole = super()._view_diff(node, rule, memo, None)
            assert got[:2] == whole[:2], (
                f"{rule.name} at {node.id!r} under {sorted(groups)}: scoped "
                f"(removed, added) {got[:2]}, whole re-fire {whole[:2]}"
            )
            self.calls["scoped"] += 1
            self.calls[rule.name] += 1
        return got


@contextmanager
def shadowed():
    """Every engine and inline shard worker built inside runs
    :class:`ShadowViews`; yields its call counts, from zero."""

    ShadowViews.calls.clear()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(host_module, "FixpointExecutor", ShadowViews)
        yield ShadowViews.calls


def config_for(shards: int = 1, **overrides) -> EngineConfig:
    return EngineConfig(
        seed=0, shards=shards, shard_transport="inline", max_events=2_000_000, **overrides
    )


def assert_memos_fresh(engine) -> None:
    """Every node's memo equals its aggregate rules fired afresh."""

    if isinstance(engine, ShardedEngine):
        nodes = {
            node_id: node
            for client in engine.host._clients
            for node_id, node in client.worker.nodes.items()
        }
    else:
        nodes = engine.nodes
    for node_id, node in nodes.items():
        for rule in engine.program.rules:
            if rule.head.has_aggregate and id(rule) in node.view_memo:
                fresh = group_rows(rule.head, node.rule_engine.fire_rule(rule, node.db))
                assert node.view_memo[id(rule)] == fresh, (node_id, rule.name)


def finish(engine, **run_args):
    try:
        trace = engine.run(**run_args)
        if isinstance(engine, ShardedEngine):
            engine.validate_shards()
        assert_memos_fresh(engine)
        return trace
    finally:
        engine.close()


# ---------------------------------------------------------------------------
# The golden corpus
# ---------------------------------------------------------------------------

#: a 4-node graph, both directions of each edge
EDGES = [(0, 1, 1), (1, 2, 2), (2, 3, 1), (3, 0, 3), (1, 3, 1)]


def corpus_facts(program) -> list[tuple[str, tuple]]:
    """The non-link base facts a corpus program reads, over :data:`EDGES`."""

    links = EDGES + [(b, a, c) for a, b, c in EDGES]
    rows = {
        "e": links + [(2, 2, 3)],
        "importPref": [(a, b, (a + b) % 2) for a, b, _ in links],
        "exportDeny": [(1, 2, 0), (3, 0, 2)],
        "neighbor": [(a, b) for a, b, _ in links],
        "heartbeat": [(a, b) for a, b, _ in links if a < b],
        "soft": [(0, 1), (1, 2), (3, 3)],
    }
    heads = {rule.head.predicate for rule in program.rules}
    read = {
        item.predicate
        for rule in program.rules
        for item in rule.body
        if isinstance(item, Literal)
    }
    return [
        (predicate, row)
        for predicate in sorted(read - heads - {"link"})
        for row in rows.get(predicate, ())
    ]


@pytest.mark.parametrize("shards", [1, 2])
@pytest.mark.parametrize("path", sorted(CORPUS_DIR.glob("*.ndl")), ids=lambda p: p.stem)
def test_corpus_under_link_flap_and_fact_churn(path, shards, rule_tier):
    program = parse_program(path.read_text(), path.stem)
    facts = corpus_facts(program)
    with shadowed() as calls:
        engine = create_engine(
            program, Topology.from_edges(EDGES), config=config_for(shards)
        )
        engine.schedule_link_failure(1, 2, at=1.0)
        engine.schedule_link_restore(1, 2, at=2.0)
        engine.schedule_cost_change(1, 3, 4, at=3.0)
        for predicate, row in facts[::4]:
            engine.schedule_fact_delete(predicate, row, at=1.0)
            engine.schedule_fact(predicate, row, at=2.0)
        finish(engine, until=6.0, extra_facts=facts)
    if any(rule.head.has_aggregate for rule in program.rules):
        assert calls["full"] > 0
    if path.stem in ("path_vector", "link_state", "policy_path_vector"):
        # min<C> grouped by (S, D): re-folded per group after the first settle
        assert calls["scoped"] > 0


# ---------------------------------------------------------------------------
# Aggregates grouped beyond the location
# ---------------------------------------------------------------------------

GROUPED_SOURCE = """
materialize(e, infinity, infinity, keys(1,2)).
materialize(block, infinity, infinity, keys(1,2)).
r1 p(@X,Y,C) :- e(@X,Y,C).
r2 p(@X,Z,C) :- e(@X,Y,C1), p(@Y,Z,C2), C=C1+C2, C<=6, X!=Z.
a1 lo(@X,Z,min<C>) :- p(@X,Z,C).
a2 hi(@X,Z,max<C>) :- p(@X,Z,C), !block(@X,Z).
a3 n(@X,Z,count<C>) :- p(@X,Z,C).
a4 twin(@X,C,count<Y>) :- e(@X,Y,C), e(@X,Z,C), Y!=Z.
a5 total(@X,Z,sum<C>) :- p(@X,Z,C).
"""

GROUPED_EDGES = [(0, 1, 1), (1, 2, 1), (2, 3, 2), (3, 0, 1), (0, 2, 2), (1, 3, 1)]


def grouped_engine(shards: int):
    program = parse_program(GROUPED_SOURCE, "grouped")
    engine = create_engine(
        program,
        Topology.from_edges(GROUPED_EDGES),
        config=config_for(shards, link_predicate=None),
    )
    for src, dst, cost in GROUPED_EDGES:
        engine.schedule_fact("e", (src, dst, cost), at=0.0)
        engine.schedule_fact("e", (dst, src, cost), at=0.0)
    engine.schedule_fact("block", (0, 2), at=0.0)
    engine.schedule_fact_delete("e", (1, 2, 1), at=1.0)
    engine.schedule_fact("e", (1, 2, 3), at=2.0)  # a keyed displacement
    engine.schedule_fact_delete("block", (0, 2), at=2.5)
    engine.schedule_fact("block", (1, 3), at=2.5)
    engine.schedule_fact_delete("e", (0, 3, 1), at=3.0)
    engine.schedule_fact("e", (1, 2, 1), at=4.0)
    return engine


@pytest.mark.parametrize("shards", [1, 2])
def test_grouped_aggregates_match_the_whole_refire(shards, rule_tier):
    with shadowed() as calls:
        assert finish(grouped_engine(shards), until=8.0).quiescent
    for name in ("a1", "a2", "a3", "a4"):
        assert calls[name] > 0, name
    # a float sum's value depends on its fold order: always the whole re-fire
    assert calls["a5"] == 0


def test_grouped_shards_agree():
    fingerprints = []
    for shards in (1, 2):
        with shadowed():
            fingerprints.append(finish(grouped_engine(shards), until=8.0).fingerprint())
    assert fingerprints[0] == fingerprints[1]


# ---------------------------------------------------------------------------
# Size caps and soft state
# ---------------------------------------------------------------------------

CAPPED_SOURCE = """
materialize(obs, infinity, 3, keys(1,2,3)).
a1 lo(@X,Y,min<C>) :- obs(@X,Y,C).
"""

SOFT_SOURCE = """
materialize(obs, 2, infinity, keys(1,2,3)).
a1 lo(@X,Y,min<C>) :- obs(@X,Y,C).
a2 n(@X,Y,count<C>) :- obs(@X,Y,C).
"""


def observation_engine(source: str, shards: int = 1):
    engine = create_engine(
        parse_program(source, "observations"),
        Topology.from_edges([(0, 1, 1)]),
        config=config_for(shards, link_predicate=None, expiry_scan_interval=0.25),
    )
    at = 0.0
    for cost in (5, 3, 4, 1, 2, 6):
        for y in (7, 8):
            engine.schedule_fact("obs", (0, y, cost + y), at=at)
        at += 0.5
    return engine


def test_size_capped_body_always_refires_whole(rule_tier):
    # FIFO eviction removes rows without a delta: no group plan, and the
    # whole re-fire keeps the memo exact as rows are evicted
    with shadowed() as calls:
        engine = observation_engine(CAPPED_SOURCE)
        assert not engine.host.executor._view_plans
        assert finish(engine, until=4.0).quiescent
    assert calls["full"] > 0 and calls["scoped"] == 0


@pytest.mark.parametrize("shards", [1, 2])
def test_soft_state_expiry_refolds_the_expired_groups(shards, rule_tier):
    with shadowed() as calls:
        engine = observation_engine(SOFT_SOURCE, shards)
        engine.run(until=3.2)
        assert set(engine.rows("lo")) == {(0, 7, 8), (0, 8, 9)}
        finish(engine, until=6.0)
    assert calls["a1"] > 0 and calls["a2"] > 0


# ---------------------------------------------------------------------------
# Churn on the policy program
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("family", ["power_law", "waxman"])
def test_policy_link_cycles(family):
    fingerprints = []
    for shards in (1, 2):
        scenario = generate_scenario(family, size=10, seed=4, policy="gao_rexford")
        with shadowed() as calls:
            engine = create_engine(
                policy_path_vector_program(), scenario.topology, config=config_for(shards)
            )
            assert engine.run(extra_facts=scenario.policy_fact_list()).quiescent
            links = sorted(
                (link.src, link.dst, link.cost)
                for link in scenario.topology.up_links()
                if link.src < link.dst
            )[:5]
            for src, dst, cost in links:
                at = engine.scheduler.now
                engine.schedule_link_failure(src, dst, at + 1.0)
                engine.schedule_link_restore(src, dst, at + 2.0)
                engine.schedule_cost_change(src, dst, cost % 5 + 1, at + 3.0)
                engine.schedule_cost_change(src, dst, cost, at + 4.0)
                assert engine.run().quiescent
            fingerprints.append(finish(engine).fingerprint())
        assert calls["scoped"] > calls["full"]
    assert fingerprints[0] == fingerprints[1]
