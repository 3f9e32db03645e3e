"""The scoped consistency check is exact: it never hides a repair.

At the end of a settle that removed rows, ``FixpointExecutor`` no longer
re-derives every purely-local predicate over the whole node; it derives
only under the primary keys the settle's deletion rounds touched
(``_sweep_is_clean`` / ``_keys_consistent``) and runs the full sweep
(``_consistency_sweep``) only on a dirty verdict.  The contract is that the
two always agree, which :class:`ShadowExecutor` checks from inside: behind
every *clean* verdict it runs the full sweep into a scratch queue and
asserts that queue empty, and behind every *dirty* key verdict it asserts
the full sweep does act.  The hypothesis schedules (insert / delete /
cost change / expiry) drive it over plain path-vector, policy path-vector
and a cyclic-support ``reach`` program, single-process and on 2 inline
shards.  A count-based regression test pins what the scoped check saves on
a fixed link cycle (no wall clock).
"""

from collections import Counter, deque
from contextlib import contextmanager

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.dn.host as host_module
from repro.bgp.generator import policy_path_vector_program
from repro.dn import EngineConfig, ShardedEngine, Topology, create_engine
from repro.dn.executor import FixpointExecutor
from repro.ndlog.ast import MaterializeDecl
from repro.ndlog.parser import parse_program
from repro.protocols.pathvector import path_vector_program
from repro.scenarios import generate_scenario


class ShadowExecutor(FixpointExecutor):
    """The production executor plus the full sweep as its own oracle."""

    verdicts: Counter = Counter()

    def _legacy_ops(self, node, deleted) -> list:
        scratch: deque = deque()
        FixpointExecutor._consistency_sweep(self, node, deleted, scratch, 0.0)
        return list(scratch)

    def _sweep_is_clean(self, node, deleted, touched, now):
        clean = super()._sweep_is_clean(node, deleted, touched, now)
        if clean:
            missed = self._legacy_ops(node, deleted)
            assert not missed, f"clean verdict at {node.id!r} hid {missed}"
        self.verdicts["clean" if clean else "repair"] += 1
        return clean

    def _keys_consistent(self, node, predicate, keys):
        consistent = super()._keys_consistent(node, predicate, keys)
        if predicate in self._sweep_plans:
            ops = [
                op
                for op in self._legacy_ops(node, set(self._sweep_bodies[predicate]))
                if op[1] == predicate
            ]
            assert consistent == (not ops), (
                f"{predicate} at {node.id!r}: scoped check says "
                f"{'clean' if consistent else 'dirty'} under {sorted(keys)}, "
                f"the full sweep would enqueue {ops}"
            )
            self.verdicts["keys_clean" if consistent else "keys_dirty"] += 1
        return consistent

    def _consistency_sweep(self, node, deleted, queue, now):
        self.verdicts["full"] += 1
        return super()._consistency_sweep(node, deleted, queue, now)


@contextmanager
def shadowed():
    """Every engine and inline shard worker built inside runs the
    :class:`ShadowExecutor`; yields its verdict counts (which accumulate
    over hypothesis examples)."""

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(host_module, "FixpointExecutor", ShadowExecutor)
        yield ShadowExecutor.verdicts


@pytest.fixture
def shadow():
    """:func:`shadowed` for one test, counting from zero."""

    ShadowExecutor.verdicts.clear()
    with shadowed() as verdicts:
        yield verdicts


def config_for(shards: int, **overrides) -> EngineConfig:
    return EngineConfig(
        seed=0,
        shards=shards,
        shard_transport="inline",
        max_events=2_000_000,
        **overrides,
    )


def finish(engine, **run_args):
    try:
        trace = engine.run(**run_args)
        if isinstance(engine, ShardedEngine):
            engine.validate_shards()
        return trace
    finally:
        engine.close()


# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

small_nodes = st.integers(min_value=0, max_value=4)

edges = st.lists(
    st.tuples(small_nodes, small_nodes, st.integers(min_value=1, max_value=4)).filter(
        lambda e: e[0] != e[1]
    ),
    min_size=2,
    max_size=8,
    unique_by=lambda e: frozenset(e[:2]),
)

link_events = st.lists(
    st.tuples(
        st.sampled_from(["fail", "restore", "cost"]),
        st.integers(min_value=0, max_value=7),
        st.integers(min_value=1, max_value=5),
    ),
    min_size=1,
    max_size=6,
)

#: a per-node transitive closure over locally stored ``hop`` edges: purely
#: local (so sweepable) and cyclic-support (``reach`` rows of a ``hop`` cycle
#: keep deriving each other after the edge that started them is deleted)
REACH_SOURCE = """
materialize(hop, infinity, infinity, keys(1,2,3)).
materialize(reach, infinity, infinity, keys(1,2,3)).
c1 reach(@N,X,Y) :- hop(@N,X,Y).
c2 reach(@N,X,Z) :- hop(@N,X,Y), reach(@N,Y,Z).
"""

hop_events = st.lists(
    st.tuples(
        st.booleans(),  # insert / delete
        st.integers(min_value=0, max_value=1),  # hosting node
        st.integers(min_value=0, max_value=3),
        st.integers(min_value=0, max_value=3),
    ),
    min_size=2,
    max_size=14,
)


def apply_link_events(engine, edge_list, events) -> None:
    at = 1.0
    for kind, index, cost in events:
        src, dst, _ = edge_list[index % len(edge_list)]
        if kind == "fail":
            engine.schedule_link_failure(src, dst, at=at)
        elif kind == "restore":
            engine.schedule_link_restore(src, dst, at=at)
        else:
            engine.schedule_cost_change(src, dst, cost, at=at)
        at += 0.4


class TestScopedCheckIsExact:
    @settings(max_examples=25, deadline=None)
    @given(edge_list=edges, events=link_events, shards=st.sampled_from([1, 2]))
    def test_plain_path_vector_churn(self, edge_list, events, shards):
        with shadowed():
            engine = create_engine(
                path_vector_program(),
                Topology.from_edges(edge_list),
                config=config_for(shards),
            )
            engine.seed_facts()
            apply_link_events(engine, edge_list, events)
            assert finish(engine).quiescent

    @settings(max_examples=12, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10**6),
        family=st.sampled_from(["tree", "power_law", "waxman"]),
        size=st.integers(min_value=6, max_value=12),
        churn=st.integers(min_value=1, max_value=3),
        soft=st.booleans(),
        shards=st.sampled_from([1, 2]),
    )
    def test_policy_path_vector_churn_and_expiry(
        self, seed, family, size, churn, soft, shards
    ):
        scenario = generate_scenario(
            family,
            size=size,
            seed=seed,
            policy="gao_rexford",
            churn_events=churn,
            churn_restore_delay=1.0,
            loss=0.01,
        )
        program = policy_path_vector_program()
        overrides = {}
        if soft:
            # soft-state links: un-refreshed rows expire through the
            # retraction pipeline, refreshed ones are re-announced
            decl = program.materialized["link"]
            program.materialized["link"] = MaterializeDecl(
                "link", 3.0, decl.max_size, decl.keys
            )
            overrides["refresh_interval"] = 1.5
        with shadowed():
            engine = create_engine(
                program, scenario.topology, config=config_for(shards, **overrides)
            )
            scenario.churn.apply_to_engine(engine)
            finish(engine, until=12.0, extra_facts=scenario.policy_fact_list())

    @settings(max_examples=25, deadline=None)
    @given(events=hop_events, shards=st.sampled_from([1, 2]))
    def test_cyclic_support_reach(self, events, shards):
        with shadowed():
            engine = create_engine(
                parse_program(REACH_SOURCE, "reach"),
                Topology.from_edges([(0, 1, 1)]),
                config=config_for(shards, link_predicate=None),
            )
            at = 1.0
            for insert, node, src, dst in events:
                if insert:
                    engine.schedule_fact("hop", (node, src, dst), at=at)
                else:
                    engine.schedule_fact_delete("hop", (node, src, dst), at=at)
                at += 0.5
            assert finish(engine).quiescent

    def test_shadow_sees_both_paths(self, shadow):
        # not vacuous: the isolating failure of TestConsistencySweep strands
        # bestPath supports (dirty verdict, the full sweep repairs), and
        # the surrounding churn is clean (no full sweep)
        edge_list = [(0, 1, 1), (0, 2, 1), (0, 3, 4), (0, 4, 2), (2, 3, 1), (3, 4, 2)]
        engine = create_engine(
            path_vector_program(), Topology.from_edges(edge_list), config=config_for(1)
        )
        engine.seed_facts()
        engine.schedule_link_failure(0, 1, at=1.0)
        engine.schedule_cost_change(2, 3, 3, at=2.0)
        assert finish(engine).quiescent
        assert shadow["clean"] > 0 and shadow["keys_clean"] > 0
        assert shadow["repair"] > 0 and shadow["keys_dirty"] > 0
        assert shadow["full"] == shadow["repair"]

    def test_cyclic_support_survives_like_the_full_sweep(self, shadow):
        # a hop cycle keeps its reach rows derivable from each other: the
        # scoped check, like the full sweep, leaves them (one-step
        # derivability), and the shadow confirms the two agree on it
        engine = create_engine(
            parse_program(REACH_SOURCE, "reach"),
            Topology.from_edges([(0, 1, 1)]),
            config=config_for(1, link_predicate=None),
        )
        for index, (src, dst) in enumerate([(9, 1), (1, 2), (2, 1)]):
            engine.schedule_fact("hop", (0, src, dst), at=1.0 + index)
        engine.schedule_fact_delete("hop", (0, 9, 1), at=5.0)
        assert finish(engine).quiescent
        assert shadow["clean"] + shadow["repair"] > 0
        reach = set(engine.rows("reach"))
        assert {(0, 1, 2), (0, 2, 1), (0, 1, 1), (0, 2, 2)} <= reach
        assert not {row for row in reach if row[1] == 9}


class TestUnsweptMarks:
    SOURCE = """
    materialize(base, infinity, infinity, keys(1,2)).
    materialize(ping, 2, infinity, keys(1,2)).
    materialize(echo, 1, infinity, keys(1,2)).
    e1 echo(@X,Y) :- ping(@X,Y), base(@X,Y).
    """

    def test_dirty_key_outside_a_due_sweep_is_remembered(self, shadow):
        # echo (soft, lifetime 1) expires while ping and base still hold:
        # its key goes empty with a derivable row, but nothing echo reads
        # lost a row, so no sweep is due — the full sweep would leave it,
        # so must the scoped check, and the node remembers the predicate.
        # When ping later expires the sweep comes due and takes the full
        # path, exactly where the pre-scoped engine swept.
        program = parse_program(self.SOURCE, "marks")
        engine = create_engine(
            program,
            Topology.from_edges([(1, 2)]),
            config=config_for(1, link_predicate=None, expiry_scan_interval=0.25),
        )
        engine.schedule_fact("base", (1, 2), at=0.0)
        engine.schedule_fact("base", (1, 3), at=0.0)
        engine.schedule_fact("ping", (1, 2), at=0.0)
        engine.schedule_fact("ping", (1, 3), at=0.6)
        engine.run(until=1.6)
        assert engine.node(1).unswept == {"echo"}
        assert shadow["keys_dirty"] > 0 and shadow["full"] == 0
        engine.run(until=2.3)  # ping(1,2) expires: echo's sweep is due
        assert engine.node(1).unswept == set()
        assert shadow["full"] > 0
        engine.close()

    @pytest.mark.parametrize("shards", [1, 2])
    def test_marks_survive_checkpoint_and_resync_state(self, shards):
        from repro.dn.engine import restore_engine

        program = parse_program(self.SOURCE, "marks")
        engine = create_engine(
            program,
            Topology.from_edges([(1, 2)]),
            config=config_for(shards, link_predicate=None, expiry_scan_interval=0.25),
        )
        engine.schedule_fact("base", (1, 2), at=0.0)
        engine.schedule_fact("ping", (1, 2), at=0.0)
        engine.schedule_fact("ping", (1, 3), at=0.6)
        engine.schedule_fact("base", (1, 3), at=0.6)
        engine.run(until=1.6)
        try:
            if shards > 1:
                # the mark lives on the worker: a respawn from a fresh
                # checkpoint (an empty request log) must bring it back
                shard = engine.partition_map[1]
                engine.host._checkpoint(shard)
                engine.host._clients[shard].kill()
                engine.host._call(shard, "ping")
                assert engine.shard_restarts[shard] == 1
                assert engine.host._clients[shard].worker.nodes[1].unswept == {"echo"}
            else:
                assert engine.node(1).unswept == {"echo"}
            # a capture carries it too, from either shard count
            state = engine.capture()
            assert state["nodes"][1]["unswept"] == ["echo"]
            clone = restore_engine(program, state, config=config_for(1, link_predicate=None))
            assert clone.node(1).unswept == {"echo"}
        finally:
            engine.close()


class TestSweepCounts:
    """What the scoped check saves, in counts (no wall clock).

    ``PARENT_*`` were measured on the commit before the scoped check (every
    due sweep a full, delta-less derive of each deriving rule) with exactly
    this script; the fingerprint was re-pinned, as the same trace, when the
    fold moved from ``fp2`` to ``fp3``.  Both were re-measured when settles
    began to net their sends, with this script and ``_sweep_is_clean``
    patched to return ``False`` (every due check takes the full sweep, as
    before the scoped check): the same fingerprint as the scoped run, and
    4914 firings against its 3925.  (Before netting that measurement read
    5289 against 4216.)  Both were re-measured the same way when aggregates
    began to be maintained group by group: 4783 firings against 3794, and
    a new fingerprint over equal final tables and per-settle change
    multisets.  The 131 firings fewer, on both sides, are ``pv3``
    recomputes that no longer fire: every changed ``route`` row was
    outranked by its group's current minimum, or every changed group had
    vanished.
    """

    PARENT_FINGERPRINT = (
        "7693a51076de6ec98a1909b9a86467896b1348ec79190c03b1c3ec7cabc51ca2"
    )
    PARENT_RULE_FIRINGS = 4783

    def run_cycle(self):
        scenario = generate_scenario("power_law", size=16, seed=3, policy="gao_rexford")
        engine = create_engine(
            policy_path_vector_program(), scenario.topology, config=config_for(1)
        )
        assert engine.run(extra_facts=scenario.policy_fact_list()).quiescent
        links = sorted(
            (link.src, link.dst, link.cost)
            for link in scenario.topology.up_links()
            if link.src < link.dst
        )[:8]
        for src, dst, cost in links:
            for step in range(4):
                at = engine.scheduler.now + 1.0
                if step == 0:
                    engine.schedule_link_failure(src, dst, at)
                elif step == 1:
                    engine.schedule_link_restore(src, dst, at)
                else:
                    engine.schedule_cost_change(
                        src, dst, cost % 5 + 1 if step == 2 else cost, at
                    )
                assert engine.run().quiescent
        return engine

    def test_link_cycle_runs_no_full_sweep_and_fires_fewer_rules(self, monkeypatch):
        full_sweeps = []
        checks = []
        real_sweep = FixpointExecutor._consistency_sweep
        real_check = FixpointExecutor._sweep_is_clean

        def sweep(self, node, deleted, queue, now):
            full_sweeps.append(node.id)
            return real_sweep(self, node, deleted, queue, now)

        def check(self, node, deleted, touched, now):
            checks.append(node.id)
            return real_check(self, node, deleted, touched, now)

        monkeypatch.setattr(FixpointExecutor, "_consistency_sweep", sweep)
        monkeypatch.setattr(FixpointExecutor, "_sweep_is_clean", check)
        engine = self.run_cycle()
        # every delta-less sweep derive happens inside _consistency_sweep
        assert len(checks) > 100 and not full_sweeps
        firings = sum(node.stats.rule_firings for node in engine.nodes.values())
        assert firings < self.PARENT_RULE_FIRINGS
        assert engine.trace.fingerprint() == self.PARENT_FINGERPRINT
