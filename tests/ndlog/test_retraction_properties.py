"""Property tests for incremental deletion (count/re-derive retraction).

The incremental evaluator must be invisible: for any program and any
interleaved insert/delete sequence over base facts, the database kept at
fixpoint by :class:`~repro.ndlog.seminaive.IncrementalEvaluator` has to
equal the from-scratch fixpoint of the surviving facts — across recursion,
negation and aggregation, on generated code and on the reference
interpreter.  Randomized programs/operation sequences come from hypothesis
strategies.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ndlog.ast import NDlogError
from repro.ndlog.parser import parse_program
from repro.ndlog.codegen import codegen_rule
from repro.ndlog.functions import builtin_registry
from repro.ndlog.plan import NEGATION_DELTA_SUFFIX, negation_delta_rules
from repro.ndlog.seminaive import IncrementalEvaluator, evaluate
from repro.ndlog.store import Table
from repro.protocols.pathvector import path_vector_program


# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

nodes = st.integers(min_value=0, max_value=5)

edge = st.tuples(nodes, nodes, st.integers(min_value=1, max_value=4)).filter(
    lambda e: e[0] != e[1]
)

#: Interleaved base-fact operations; deletes may target absent facts (no-ops)
operations = st.lists(
    st.tuples(st.sampled_from(["insert", "delete"]), edge), min_size=1, max_size=25
)

#: The rule templates of the conformance suite: recursion
#: (cost-bounded, hence well-founded), constants, conditions, negation,
#: aggregation, repeated variables.
RULE_TEMPLATES = [
    "p(@X,Y,C) :- e(@X,Y,C).",
    "p(@X,Z,C) :- e(@X,Y,C1), p(@Y,Z,C2), C=C1+C2, C<=8.",
    "q(@X,Y) :- p(@X,Y,C), C<={bound}.",
    "r(@X,Y) :- p(@X,Y,C), e(@Y,X,C2).",
    "s(@X,Y) :- p(@X,Y,C), X!=Y.",
    "t(@X,Y) :- q(@X,Y), !e(@X,Y,{cost}).",
    "m(@X,min<C>) :- p(@X,Y,C).",
    "k(@X,count<Y>) :- q(@X,Y).",
    "c(@X,Y) :- e(@X,Y,{cost}).",
    "w(@X,S) :- p(@X,X,C), S=C*2.",
    "v(@X,max<C>) :- p(@X,Y,C), !t(@X,Y).",
    "u(@X,sum<C>) :- e(@X,Y,C), Y>={bound2}.",
]

programs = st.builds(
    lambda picks, bound, bound2, cost: "\n".join(
        [RULE_TEMPLATES[0]]
        + [
            RULE_TEMPLATES[i].format(bound=bound, bound2=bound2, cost=cost)
            for i in sorted(picks)
        ]
    ),
    st.sets(st.integers(min_value=1, max_value=len(RULE_TEMPLATES) - 1), max_size=7),
    st.integers(min_value=1, max_value=8),
    st.integers(min_value=0, max_value=5),
    st.integers(min_value=1, max_value=4),
)


def nonempty(snapshot: dict) -> dict:
    """Drop empty tables: touching a predicate materializes its table, so
    the incremental and from-scratch evaluators differ in which empty
    tables exist, never in their contents."""

    return {pred: rows for pred, rows in snapshot.items() if rows}


def apply_ops(inc: IncrementalEvaluator, ops) -> set:
    """Apply an op sequence, returning the surviving base-fact set."""

    facts: set[tuple] = set()
    for op, fact in ops:
        if op == "insert":
            facts.add(fact)
            inc.insert("e", fact)
        else:
            facts.discard(fact)
            inc.delete("e", fact)
    return facts


def assert_matches_scratch(source: str, ops) -> None:
    inc = IncrementalEvaluator(parse_program(source, "incremental"))
    inc.load()
    facts = apply_ops(inc, ops)
    scratch = evaluate(parse_program(source, "scratch"), [("e", f) for f in facts])
    assert nonempty(inc.db.snapshot()) == nonempty(scratch.snapshot())


# ---------------------------------------------------------------------------
# Incremental fixpoint == from-scratch fixpoint
# ---------------------------------------------------------------------------


class TestIncrementalMatchesScratch:
    @settings(max_examples=50, deadline=None)
    @given(source=programs, ops=operations)
    def test_randomized_programs_compiled(self, source, ops):
        assert_matches_scratch(source, ops)

    @settings(max_examples=20, deadline=None)
    @given(source=programs, ops=operations)
    def test_randomized_programs_reference(self, source, ops, reference_rules):
        with reference_rules():
            assert_matches_scratch(source, ops)

    @settings(max_examples=25, deadline=None)
    @given(ops=operations)
    def test_cyclic_support_reach(self, ops):
        # reach has no decreasing measure, so deletions leave tuples whose
        # only remaining support is circular: exactly the case derivation
        # counts cannot decide and the DRed re-derivation phase must
        source = """
        reach(@X,Y) :- e(@X,Y,C).
        reach(@X,Z) :- e(@X,Y,C), reach(@Y,Z).
        """
        assert_matches_scratch(source, ops)

    @settings(max_examples=15, deadline=None)
    @given(ops=operations)
    def test_path_vector_link_churn(self, ops):
        # link is keyed on (src, dst): the surviving-fact model mirrors the
        # table's replacement semantics (an insert under an existing key
        # displaces, a delete only removes an exactly-matching row)
        inc = IncrementalEvaluator(path_vector_program())
        inc.load()
        facts: dict[tuple, tuple] = {}
        for op, fact in ops:
            if op == "insert":
                facts[fact[:2]] = fact
                inc.insert("link", fact)
            else:
                if facts.get(fact[:2]) == fact:
                    del facts[fact[:2]]
                inc.delete("link", fact)
        scratch = evaluate(path_vector_program(), [("link", f) for f in facts.values()])
        a = nonempty(inc.db.snapshot())
        b = nonempty(scratch.snapshot())
        # bestPath is keyed on (S, D): among equal-cost candidates the stored
        # winner is whichever derivation arrived last, which legitimately
        # differs between incremental op order and from-scratch evaluation.
        # Compare everything else exactly, bestPath on its (S, D, C)
        # projection, and require each stored winner to be a valid candidate
        # path of the other run (the tests/dn convention).
        assert {p: r for p, r in a.items() if p != "bestPath"} == {
            p: r for p, r in b.items() if p != "bestPath"
        }
        project = lambda rows: {(r[0], r[1], r[3]) for r in rows}  # noqa: E731
        assert project(a.get("bestPath", set())) == project(b.get("bestPath", set()))
        assert a.get("bestPath", set()) <= b.get("path", set())
        assert b.get("bestPath", set()) <= a.get("path", set())

    def test_keyed_cost_change_displaces_old_row(self):
        # same primary key, new cost: the displaced row's consequences must
        # be retracted before the replacement derives
        inc = IncrementalEvaluator(path_vector_program())
        inc.load([("link", ("a", "b", 1)), ("link", ("b", "a", 1))])
        inc.apply(inserts=[("link", ("a", "b", 7)), ("link", ("b", "a", 7))])
        scratch = evaluate(
            path_vector_program(), [("link", ("a", "b", 7)), ("link", ("b", "a", 7))]
        )
        assert nonempty(inc.db.snapshot()) == nonempty(scratch.snapshot())
        assert set(inc.db.rows("bestPathCost")) == set(scratch.rows("bestPathCost"))

    def test_stats_account_retractions(self):
        inc = IncrementalEvaluator(path_vector_program())
        inc.load([("link", ("a", "b", 1)), ("link", ("b", "a", 1))])
        inc.apply(deletes=[("link", ("a", "b", 1)), ("link", ("b", "a", 1))])
        assert inc.stats.retractions > 0
        assert inc.db.rows("path") == []
        assert inc.db.rows("bestPath") == []


# ---------------------------------------------------------------------------
# Derivation counting at the store level
# ---------------------------------------------------------------------------


class TestDerivationCounts:
    def test_upsert_counts_supports_and_release_decrements(self):
        table = Table("p")
        table.insert((1, 2))
        table.insert((1, 2))
        assert table.count_of((1, 2)) == 2
        assert not table.release((1, 2))  # one support left
        assert (1, 2) in table
        assert table.release((1, 2))  # last support gone, row still stored
        assert (1, 2) in table
        table.delete((1, 2))
        assert (1, 2) not in table

    def test_release_of_absent_or_replaced_row_is_stale(self):
        table = Table("route", keys=(0,))
        assert not table.release((1, "x"))
        table.insert((1, "x"))
        table.insert((1, "y"))  # key re-bound: fresh count for the new row
        assert table.count_of((1, "y")) == 1
        assert not table.release((1, "x"))  # stale retraction ignored
        assert (1, "y") in table

    def test_refresh_extends_lifetime_without_counting(self):
        table = Table("soft", keys=(0, 1), lifetime=5.0)
        table.insert((1, 2), now=0.0)
        assert table.refresh((1, 2), now=4.0)
        assert table.count_of((1, 2)) == 1
        assert table.expired(8.0) == []
        assert table.expired(9.5) == [(1, 2)]
        assert (1, 2) in table  # expired() peeks, expire() removes
        assert not table.refresh((9, 9), now=0.0)

    def test_row_expired_rechecks_lifetime(self):
        table = Table("soft", keys=(0,), lifetime=2.0)
        table.insert((1, "a"), now=0.0)
        assert table.row_expired((1, "a"), 3.0)
        table.refresh((1, "a"), now=3.0)
        assert not table.row_expired((1, "a"), 3.0)
        assert not table.row_expired((1, "b"), 10.0)  # different row


# ---------------------------------------------------------------------------
# Generated retraction variants
# ---------------------------------------------------------------------------


class TestRetractionPlans:
    def test_fire_derivations_keeps_binding_multiplicity(self):
        # two bindings (via Y) derive the same head row: fire() dedups,
        # fire_derivations must report both supports
        program = parse_program("h(@X,Z) :- e(@X,Y), e(@Y,Z).")
        rule = program.rules[0]
        compiled = codegen_rule(rule, builtin_registry())
        from repro.ndlog.store import Database

        db = Database()
        for fact in [(1, 2), (1, 3), (2, 4), (3, 4)]:
            db.insert("e", fact)
        fired = [f.values for f in compiled.fire(db)]
        derived = [f.values for f in compiled.fire_derivations(db)]
        assert fired.count((1, 4)) == 1
        assert derived.count((1, 4)) == 2

    def test_fire_derivations_rejects_aggregates(self):
        program = parse_program("m(@X,min<C>) :- e(@X,Y,C).")
        compiled = codegen_rule(program.rules[0], builtin_registry())
        with pytest.raises(NDlogError, match="recomputed"):
            compiled.fire_derivations(None)

    def test_negation_delta_variant_matches_only_delta_rows(self):
        program = parse_program("h(@X) :- e(@X,Y), !q(@X,Y).")
        rule = program.rules[0]
        variants = negation_delta_rules(rule)
        assert [pred for pred, _ in variants] == ["q"]
        variant = variants[0][1]
        compiled = codegen_rule(variant, builtin_registry())
        from repro.ndlog.seminaive import DeltaIndex
        from repro.ndlog.store import Database

        db = Database()
        db.insert("e", (1, 2))
        db.insert("e", (3, 4))
        db.insert("q", (3, 4))
        # only the delta q-row (1,2) triggers; the stored q-row (3,4) does not
        view = DeltaIndex({"q" + NEGATION_DELTA_SUFFIX: [(1, 2)]})
        assert [f.values for f in compiled.fire_derivations(db, view)] == [(1,)]

    def test_negation_delta_rules_skip_aggregate_heads(self):
        program = parse_program("v(@X,max<C>) :- p(@X,Y,C), !t(@X,Y).")
        assert negation_delta_rules(program.rules[0]) == ()
