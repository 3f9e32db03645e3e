"""Unit tests for execution traces and node statistics."""

import pickle
from collections import namedtuple
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dn import EngineConfig, Topology, create_engine
from repro.dn import trace as trace_module
from repro.dn.node import Node
from repro.dn.trace import (
    RETRACTION_KINDS,
    MessageRecord,
    StateChange,
    Trace,
    TraceCompacted,
    _encode,
)
from repro.ndlog.functions import builtin_registry
from repro.ndlog.parser import parse_program
from repro.protocols.pathvector import path_vector_program
from repro.protocols.policy import policy_path_vector_program
from repro.scenarios import generate_scenario


def retained(view) -> int:
    """Records a trace view still holds (its ``len`` counts dropped ones)."""

    return len(view) - view.dropped


class TestTrace:
    def _trace(self) -> Trace:
        trace = Trace()
        trace.record_change(0.1, "a", "path", ("a", "b"), "insert")
        trace.record_change(0.5, "b", "bestPath", ("b", "a"), "insert")
        trace.record_change(2.5, "a", "bestPath", ("a", "b"), "replace")
        trace.record_message(0.2, "a", "b", "path", ("a", "b"))
        trace.record_message(1.2, "b", "a", "path", ("b", "a"), delivered=False)
        trace.finished_at = 3.0
        trace.quiescent = True
        return trace

    def test_counts(self):
        trace = self._trace()
        assert trace.state_change_count == 3
        assert trace.message_count == 2
        assert trace.delivered_message_count == 1

    def test_convergence_time(self):
        trace = self._trace()
        assert trace.last_change_time() == 2.5
        assert trace.last_change_time("path") == 0.1
        assert trace.convergence_time(since=1.0) == 1.5
        assert trace.convergence_time("path", since=1.0) == 0.0

    def test_filters(self):
        trace = self._trace()
        assert len(trace.changes_for("bestPath")) == 2
        assert len(trace.changes_at("a")) == 2
        assert trace.messages_between(0.0, 1.0) == 1

    def test_histogram_and_summary(self):
        trace = self._trace()
        assert trace.message_histogram(1.0) == {0: 1, 1: 1}
        assert "quiescent" in trace.summary()


PREDICATES = ("link", "path", "bestPath")
times = st.floats(min_value=0.0, max_value=50.0, allow_nan=False)
nodes = st.integers(0, 3)
change_records = st.tuples(
    st.just("change"), times, nodes, st.sampled_from(PREDICATES),
    st.tuples(nodes, nodes), st.sampled_from(("insert", "replace", "delete", "expire", "retract")),
)
message_records = st.tuples(
    st.just("message"), times, nodes, nodes, st.sampled_from(PREDICATES),
    st.tuples(nodes, nodes), st.booleans(), st.sampled_from(("assert", "retract")),
)
#: a record, or something a caller may do to the trace between records
steps = st.one_of(
    change_records, message_records, st.sampled_from(("fingerprint", "compact", "pickle"))
)


def record(trace: Trace, step: tuple) -> None:
    if step[0] == "change":
        trace.record_change(*step[1:])
    else:
        trace.record_message(*step[1:])


class TestFold:
    """The fingerprint and the counters are pure functions of the record
    stream: when ``fingerprint()`` / ``compact()`` ran before, or whether
    the trace went through a pickle, cannot be observed in them."""

    @settings(max_examples=150, deadline=None)
    @given(script=st.lists(steps, max_size=60), block=st.integers(1, 7))
    def test_interleaved_folds_equal_one_fold_at_the_end(self, script, block):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(Trace, "FOLD_BLOCK", block)
            control, trace = Trace(), Trace()
            for step in script:
                if step == "fingerprint":
                    trace.fingerprint()
                elif step == "compact":
                    trace.compact()
                elif step == "pickle":
                    trace = pickle.loads(pickle.dumps(trace))
                else:
                    record(control, step)
                    record(trace, step)
            for t in (control, trace):
                t.events_processed, t.finished_at, t.seeds = 7, 3.5, {"channel": 1}
            assert trace.fingerprint() == control.fingerprint()

            changes, messages = list(control.state_changes), list(control.messages)
            assert not control.compacted
            assert retained(trace.state_changes) <= len(changes) == len(trace.state_changes)
            assert trace.state_change_count == len(changes)
            assert trace.message_count == len(messages)
            assert trace.delivered_message_count == sum(m.delivered for m in messages)
            assert trace.retraction_count == sum(c.kind in RETRACTION_KINDS for c in changes)
            assert trace.retraction_message_count == sum(m.kind == "retract" for m in messages)
            assert trace.retraction_message_count == len(control.retraction_messages())
            assert trace.last_change_time() == max((c.time for c in changes), default=0.0)
            for predicate in PREDICATES:
                assert trace.last_change_time(predicate) == max(
                    (c.time for c in changes if c.predicate == predicate), default=0.0
                )
            for predicate in (None, *PREDICATES):
                for since in (0.0, 10.0, 25.0, 49.0):
                    times = [
                        c.time for c in changes
                        if c.time >= since and predicate in (None, c.predicate)
                    ]
                    expected = max(times) - since if times else 0.0
                    assert trace.convergence_time(predicate, since) == expected
            for view, records in ((trace.state_changes, changes), (trace.messages, messages)):
                for start in range(view.dropped, len(records) + 1):
                    assert view[start:] == records[start:]
                if view.dropped:
                    with pytest.raises(TraceCompacted):
                        view[view.dropped - 1 :]
            trace.compact()
            assert retained(trace.state_changes) < block and retained(trace.messages) < block
            assert trace.fingerprint() == control.fingerprint()

    def test_compact_keeps_less_than_a_block(self):
        trace = Trace()
        for i in range(2 * Trace.FOLD_BLOCK + 5):
            trace.record_change(float(i), "a", "path", ("a", i))
        before = trace.fingerprint()
        trace.compact()
        assert retained(trace.state_changes) == 5
        assert len(trace.state_changes) == trace.state_change_count == 2 * Trace.FOLD_BLOCK + 5
        last = 2 * Trace.FOLD_BLOCK + 4
        assert trace.state_changes[-1] == (float(last), "a", "path", ("a", last), "insert")
        assert trace.compacted and trace.fingerprint() == before
        assert len(pickle.dumps(trace)) < 2_000

    def test_compacted_trace_refuses_history_queries(self):
        trace = Trace()
        for i in range(Trace.FOLD_BLOCK + 1):
            trace.record_change(float(i), "a", "path", ("a", i))
            trace.record_message(float(i), "a", "b", "path", ("a", i))
        trace.compact()
        # counters still answer
        assert trace.last_change_time("path") == float(Trace.FOLD_BLOCK)
        assert trace.convergence_time("path", since=1.0) == float(Trace.FOLD_BLOCK - 1)
        assert trace.state_changes[Trace.FOLD_BLOCK:] == [
            (float(Trace.FOLD_BLOCK), "a", "path", ("a", Trace.FOLD_BLOCK), "insert")
        ]
        for query in (
            lambda: list(trace.state_changes),
            lambda: list(trace.messages),
            lambda: trace.state_changes[0],
            lambda: trace.messages[-Trace.FOLD_BLOCK - 1],
            lambda: trace.state_changes[Trace.FOLD_BLOCK - 1 :],
            lambda: trace.state_changes[::-1],
            lambda: trace.changes_for("path"),
            lambda: trace.changes_at("a"),
            lambda: trace.changes_of_kind("insert"),
            lambda: trace.messages_between(0.0, 1.0),
            lambda: trace.message_histogram(),
            lambda: trace.retraction_messages(),
        ):
            with pytest.raises(TraceCompacted, match=r"Trace\.compact\(\)"):
                query()
        with pytest.raises(IndexError):
            trace.state_changes[Trace.FOLD_BLOCK + 1]

    def test_records_are_plain_tuples(self):
        trace = TestTrace()._trace()
        change, message = trace.state_changes[0], trace.messages[1]
        assert isinstance(change, StateChange) and isinstance(message, MessageRecord)
        assert change == (0.1, "a", "path", ("a", "b"), "insert") and change.kind == "insert"
        assert repr(message) == "(1.2, 'b', 'a', 'path', ('b', 'a'), False, 'assert')"
        assert StateChange(0.1, "a", "path", ("a", "b")) == change

    def test_sub_block_compaction_drops_nothing(self):
        trace = TestTrace()._trace()
        trace.compact()
        assert not trace.compacted and len(trace.changes_for("bestPath")) == 2


def run_engine(*, seed=4, loss=0.02, swap_updates=False) -> Trace:
    scenario = generate_scenario("tree", size=10, seed=2, policy="gao_rexford", loss=loss)
    engine = create_engine(
        policy_path_vector_program(), scenario.topology, config=EngineConfig(seed=seed)
    )
    links = scenario.topology.up_links()
    first, second = [(link.src, link.dst) for link in (links[0], links[-1])]
    if swap_updates:  # the same two failures, in the other order
        first, second = second, first
    engine.schedule_link_failure(*first, at=5.0)
    engine.schedule_link_failure(*second, at=6.0)
    return engine.run(until=20.0, extra_facts=scenario.policy_fact_list())


class TestV1Agreement:
    """Equal under the old fingerprint iff equal under fp3, on real runs."""

    def test_equal_and_unequal_pairs_agree(self, fingerprint_v1):
        base, again = run_engine(), run_engine()
        assert fingerprint_v1(base) == fingerprint_v1(again)
        assert base.fingerprint() == again.fingerprint()
        for other in (
            run_engine(seed=5),
            run_engine(loss=0.3),
            run_engine(swap_updates=True),
        ):
            assert fingerprint_v1(other) != fingerprint_v1(base)
            assert other.fingerprint() != base.fingerprint()

    def test_bookkeeping_is_part_of_both(self, fingerprint_v1):
        base, other = run_engine(), run_engine()
        other.seeds["scenario"] = 9
        assert fingerprint_v1(other) != fingerprint_v1(base)
        assert other.fingerprint() != base.fingerprint()


def waves_pin() -> str:
    """``tests/dn/test_message_waves.py``'s main pin: power_law-12 /
    shortest_path / seed 5 / churn 2 / loss 0.02, run to quiescence."""

    sc = generate_scenario(
        "power_law", size=12, seed=5, policy="shortest_path",
        churn_events=2, churn_restore_delay=1.0, loss=0.02,
    )
    config = EngineConfig(seed=5, max_events=10_000_000)
    engine = create_engine(policy_path_vector_program(), sc.topology, config=config)
    sc.churn.apply_to_engine(engine)
    return engine.run(until=30.0, extra_facts=sc.policy_fact_list()).fingerprint()


def seed_burst_cut() -> str:
    """``tests/dn/test_seed_burst.py``'s ``"n"`` cut: power_law-8 /
    gao_rexford / seed 3 / churn 2 / loss 0.01, stopped by a budget of its
    464 base facts."""

    sc = generate_scenario(
        "power_law", size=8, seed=3, policy="gao_rexford",
        churn_events=2, churn_restore_delay=1.0, loss=0.01,
    )
    config = EngineConfig(seed=3, max_events=464)
    engine = create_engine(policy_path_vector_program(), sc.topology, config=config)
    sc.churn.apply_to_engine(engine)
    return engine.run(until=30.0, extra_facts=sc.policy_fact_list()).fingerprint()


#: case → (its fp2 literal before the re-pin, its fp3 literal); the
#: ``waves_pin`` pair was recomputed, under both folds, when settles began to
#: net their sends (that trace ships fewer messages since), and again when
#: aggregate changes began to be emitted in group-key order
#: (``tests/dn/test_message_waves.py`` says what that moved)
V2_PINS = {
    waves_pin: (
        "58c0e656f22e065fcb08ca06b1af99304d24dbcc2eb7261a7aa59d66aede5377",
        "c37265e30060ac25f62961ac8edc5c9582a16bf3f653bf3443a846af01e7e103",
    ),
    seed_burst_cut: (
        "cda6995ebbf3161ed68798ba4dc3b5294183a8369badd336d6f6fe52f8986959",
        "2e2cd2d5fbd8c535a13909de5bff355ef596784b4ab525f8c30e91c6a0dddc77",
    ),
}


class TestV2Agreement:
    """The fp3 re-pins name the same executions: with the block encoder
    put back to ``repr`` and the tag to ``fp2``, a pinned case hashes to
    its literal from before the re-pin; as it is, to the new one."""

    @pytest.mark.parametrize("case", list(V2_PINS), ids=lambda case: case.__name__)
    @pytest.mark.parametrize("version", ["fp2", "fp3"])
    def test_pinned_case(self, case, version, monkeypatch):
        if version == "fp2":
            monkeypatch.setattr(trace_module, "_encode", lambda records: repr(records).encode())
            monkeypatch.setattr(trace_module, "FINGERPRINT_TAG", "fp2")
        old, new = V2_PINS[case]
        assert case() == (old if version == "fp2" else new)


Site = namedtuple("Site", "name")

#: path-vector costs scaled by a registered function that returns Fractions
SCALED_PATHS = parse_program(
    """
    materialize(link, infinity, infinity, keys(1,2)).
    materialize(path, infinity, infinity, keys(1,2,3)).
    materialize(bestPathCost, infinity, infinity, keys(1,2)).
    r1 path(@S,D,P,C) :- link(@S,D,C0), P=f_init(S,D), C=f_scale(C0).
    r2 path(@S,D,P,C) :- link(@S,Z,C0), path(@Z,D,P2,C2), C=f_scale(C0)+C2,
                         P=f_concatPath(S,P2), f_inPath(P2,S)=false.
    r3 bestPathCost(@S,D,min<C>) :- path(@S,D,P,C).
    """
)


def outside_domain_run(case: str, *, shards: int = 1, first_cost: int = 1) -> tuple[str, bool]:
    """Converge a 4-ring whose records hold values marshal rejects, fail a
    link, run again: ``(fingerprint, whether the second run compacted)``."""

    if case == "namedtuple_nodes":
        nodes, program, registry = [Site(name) for name in "abcd"], path_vector_program(), None
    else:
        nodes, program = [0, 1, 2, 3], SCALED_PATHS
        registry = builtin_registry({"f_scale": lambda cost: Fraction(cost, 3)})
    topology = Topology()
    for i, cost in enumerate([first_cost, 2, 1, 4]):
        topology.add_link(nodes[i], nodes[(i + 1) % 4], cost=cost)
    config = EngineConfig(seed=1, shards=shards, shard_transport="inline")
    engine = create_engine(program, topology, config=config, registry=registry)
    try:
        engine.run()
        engine.schedule_link_failure(nodes[0], nodes[1], at=engine.scheduler.now + 1.0)
        trace = engine.run()
        return trace.fingerprint(), trace.compacted
    finally:
        engine.close()


@pytest.mark.parametrize("case", ["namedtuple_nodes", "fraction_costs"])
class TestOutsideMarshalDomain:
    """Records holding values marshal rejects (a namedtuple node id, a
    ``Fraction`` from a registered function) fold through the ``repr``
    fallback: they run, compact and fingerprint as any other execution."""

    @pytest.fixture(autouse=True)
    def small_blocks(self, monkeypatch):
        # the first run fills whole blocks, so the second run's compact() folds
        monkeypatch.setattr(Trace, "FOLD_BLOCK", 16)

    def test_runs_agree(self, case):
        assert outside_domain_run(case) == outside_domain_run(case)

    def test_shards_agree(self, case):
        assert outside_domain_run(case, shards=2) == outside_domain_run(case)

    def test_second_run_compacts(self, case):
        assert outside_domain_run(case)[1]

    def test_one_value_moves_the_fingerprint(self, case):
        assert outside_domain_run(case, first_cost=3)[0] != outside_domain_run(case)[0]


def test_block_encoding_is_chosen_by_the_values():
    plain = [(0.5, "a", "path", ("a", 1), "insert")]
    assert _encode(plain)[:1] == b"["
    for value in (Site("a"), Fraction(1, 3)):
        outside = [(0.5, "a", "path", ("a", value), "insert")]
        assert _encode(outside)[:1] == b"u"


#: N for the long-lived engine below: fail/restore cycles of the first run
CYCLES = 4


def long_lived_engine(shards: int = 1):
    """A converged engine on the tree-10 gao_rexford scenario and its
    links; every later ``run()`` compacts what the runs before recorded."""

    scenario = generate_scenario("tree", size=10, seed=2, policy="gao_rexford")
    config = EngineConfig(seed=4, shards=shards, shard_transport="inline")
    engine = create_engine(policy_path_vector_program(), scenario.topology, config=config)
    engine.run(extra_facts=scenario.policy_fact_list())
    links = [(link.src, link.dst) for link in scenario.topology.up_links() if link.src < link.dst]
    return engine, links


def churn(engine, links, cycles: range, *, check_bound: bool = True) -> None:
    """Fail and restore one link per cycle, one ``run()`` each, checking
    after every run that earlier runs left at most a sub-block tail."""

    trace = engine.trace
    for i in cycles:
        src, dst = links[i % len(links)]
        for schedule in (engine.schedule_link_failure, engine.schedule_link_restore):
            changes, messages = trace.state_change_count, trace.message_count
            schedule(src, dst, at=engine.scheduler.now + 1.0)
            engine.run()
            if check_bound:
                ran = trace.state_change_count - changes
                assert retained(trace.state_changes) <= ran + Trace.FOLD_BLOCK
                ran = trace.message_count - messages
                assert retained(trace.messages) <= ran + Trace.FOLD_BLOCK


def observed(engine) -> tuple:
    trace = engine.trace
    counts = (
        trace.state_change_count, trace.message_count, trace.delivered_message_count,
        trace.retraction_count, trace.retraction_message_count, trace.last_change_time(),
    )
    return trace.fingerprint(), counts, sorted(engine.rows("bestRoute"))


def checkpoints(shards: int, *, check_bound: bool = True) -> tuple:
    """What a long-lived engine reports after N and after 4N cycles."""

    engine, links = long_lived_engine(shards)
    try:
        churn(engine, links, range(CYCLES), check_bound=check_bound)
        at_n = observed(engine)
        churn(engine, links, range(CYCLES, 4 * CYCLES), check_bound=check_bound)
        assert engine.trace.compacted == check_bound
        return at_n, observed(engine)
    finally:
        engine.close()


class TestLongLivedEngine:
    """Each ``run()`` folds away what the runs before it recorded: a
    long-lived engine holds one run's records, not its history, and every
    fingerprint and count is the uncompacted control's."""

    @pytest.mark.parametrize("shards", [1, 2])
    def test_memory_tracks_one_run_not_history(self, shards):
        compacted = checkpoints(shards)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(Trace, "compact", lambda trace: None)
            control = checkpoints(shards, check_bound=False)
        assert compacted == control
        # history grew past many blocks, so the bound was not vacuous
        assert control[1][1][0] > 4 * Trace.FOLD_BLOCK

    def test_per_run_slice_matches_uncompacted_control(self):
        """``state_changes[before:]`` after a run — that run's own records,
        read from a compacted trace — equals the same slice of a control
        whose trace never compacts."""

        def run_slices(*, compacting: bool) -> list:
            engine, links = long_lived_engine()
            trace = engine.trace
            assert not trace.compacted and trace.state_change_count > Trace.FOLD_BLOCK
            slices = []
            for src, dst in links[:2]:
                before = trace.state_change_count
                engine.schedule_link_failure(src, dst, at=engine.scheduler.now + 1.0)
                engine.run()
                assert trace.state_changes.dropped <= before
                slices.append((before, trace.state_changes[before:]))
                assert len(trace.state_changes) == trace.state_change_count
            assert trace.compacted == compacting
            if compacting:
                with pytest.raises(TraceCompacted):
                    trace.state_changes[0]
                with pytest.raises(TraceCompacted):
                    list(trace.state_changes)
            return slices

        compacted = run_slices(compacting=True)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(Trace, "compact", lambda trace: None)
            control = run_slices(compacting=False)
        assert compacted == control
        assert all(records for _, records in control)


class TestNode:
    def test_insert_and_replace_statistics(self):
        program = parse_program("materialize(route, infinity, infinity, keys(1,2)).\np(@X,Y) :- route(@X,Y,C).")
        node = Node("a", program)
        assert node.insert("route", ("a", "b", 5), now=0.0)
        assert node.insert("route", ("a", "b", 3), now=0.1)  # keyed replace
        assert not node.insert("route", ("a", "b", 3), now=0.2)
        assert node.stats.tuples_inserted == 1
        assert node.stats.tuples_replaced == 1
        assert node.rows("route") == [("a", "b", 3)]

    def test_delete_statistics(self):
        program = parse_program("p(@X) :- q(@X).")
        node = Node("a", program)
        node.insert("q", ("a",), 0.0)
        assert node.delete("q", ("a",))
        assert node.stats.tuples_deleted == 1
        assert node.rows("q") == []
        # an unmaterialized predicate is listed only while it holds rows
        assert "q" not in node.snapshot()
