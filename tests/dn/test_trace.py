"""Unit tests for execution traces and node statistics."""

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bgp.generator import policy_path_vector_program
from repro.dn import EngineConfig, create_engine
from repro.dn.node import Node
from repro.dn.trace import RETRACTION_KINDS, Trace, TraceCompacted
from repro.ndlog.parser import parse_program
from repro.scenarios import generate_scenario


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

            changes, messages = control.state_changes, control.messages
            assert not control.compacted
            assert len(trace.state_changes) <= len(changes)
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
            trace.compact()
            assert len(trace.state_changes) < block and len(trace.messages) < block
            assert trace.fingerprint() == control.fingerprint()

    def test_compact_keeps_less_than_a_block(self):
        trace = Trace()
        for i in range(2 * Trace.FOLD_BLOCK + 5):
            trace.record_change(float(i), "a", "path", ("a", i))
        before = trace.fingerprint()
        trace.compact()
        assert len(trace.state_changes) == 5 and trace.state_change_count == 2 * Trace.FOLD_BLOCK + 5
        assert trace.compacted and trace.fingerprint() == before
        assert len(pickle.dumps(trace)) < 2_000

    def test_compacted_trace_refuses_history_queries(self):
        trace = Trace()
        for i in range(Trace.FOLD_BLOCK + 1):
            trace.record_change(float(i), "a", "path", ("a", i))
            trace.record_message(float(i), "a", "b", "path", ("a", i))
        trace.compact()
        assert trace.last_change_time("path") == float(Trace.FOLD_BLOCK)  # counters still answer
        for query in (
            lambda: trace.convergence_time("path", since=1.0),
            lambda: trace.changes_for("path"),
            lambda: trace.changes_at("a"),
            lambda: trace.changes_of_kind("insert"),
            lambda: trace.messages_between(0.0, 1.0),
            lambda: trace.message_histogram(),
            lambda: trace.retraction_messages(),
        ):
            with pytest.raises(TraceCompacted, match=r"Trace\.compact\(\)"):
                query()

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
    """Equal under the old fingerprint iff equal under fp2, on real runs."""

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
        assert node.snapshot()["q"] == set()
