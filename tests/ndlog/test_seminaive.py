"""Unit tests for the centralized NDlog evaluator."""

import pytest

from repro.ndlog.ast import NDlogError
from repro.ndlog.parser import parse_program
from repro.ndlog.seminaive import Evaluator, evaluate
from repro.protocols.pathvector import PATH_VECTOR_SOURCE


TRIANGLE = [
    ("link", ("a", "b", 1)),
    ("link", ("b", "a", 1)),
    ("link", ("b", "c", 2)),
    ("link", ("c", "b", 2)),
    ("link", ("a", "c", 5)),
    ("link", ("c", "a", 5)),
]


class TestPathVectorEvaluation:
    def test_best_paths_are_shortest(self):
        program = parse_program(PATH_VECTOR_SOURCE, "pv")
        db = evaluate(program, TRIANGLE)
        best = {(row[0], row[1]): (row[2], row[3]) for row in db.rows("bestPath")}
        assert best[("a", "c")] == (("a", "b", "c"), 3)
        assert best[("c", "a")] == (("c", "b", "a"), 3)
        assert best[("a", "b")] == (("a", "b"), 1)
        assert len(best) == 6

    def test_paths_have_no_cycles(self):
        program = parse_program(PATH_VECTOR_SOURCE, "pv")
        db = evaluate(program, TRIANGLE)
        for row in db.rows("path"):
            path = row[2]
            assert len(path) == len(set(path)), f"cycle in {path}"

    def test_best_cost_is_minimum_of_paths(self):
        program = parse_program(PATH_VECTOR_SOURCE, "pv")
        db = evaluate(program, TRIANGLE)
        costs: dict = {}
        for row in db.rows("path"):
            key = (row[0], row[1])
            costs.setdefault(key, []).append(row[3])
        for s, d, c in db.rows("bestPathCost"):
            assert c == min(costs[(s, d)])

    def test_stats_reported(self):
        program = parse_program(PATH_VECTOR_SOURCE, "pv")
        db, stats = Evaluator(program).run(TRIANGLE)
        assert stats.derived_tuples > 0
        assert stats.iterations >= 1
        assert stats.strata >= 2
        assert stats.per_predicate["path"] > 0


class TestSemantics:
    def test_negation_stratified(self):
        source = """
        reach(@X,Y) :- edge(@X,Y).
        reach(@X,Y) :- edge(@X,Z), reach(@Z,Y).
        unreachable(@X,Y) :- node(@X), node(@Y), X != Y, !reach(@X,Y).
        """
        program = parse_program(source)
        facts = [("edge", (1, 2)), ("node", (1,)), ("node", (2,)), ("node", (3,))]
        db = evaluate(program, facts)
        assert (1, 3) in db.table("unreachable")
        assert (1, 2) not in db.table("unreachable")

    def test_count_aggregate(self):
        source = "degree(@X,count<Y>) :- edge(@X,Y)."
        db = evaluate(parse_program(source), [("edge", (1, 2)), ("edge", (1, 3)), ("edge", (2, 3))])
        assert set(db.rows("degree")) == {(1, 2), (2, 1)}

    def test_max_and_sum_aggregates(self):
        source = "m(@X,max<C>) :- e(@X,C).\ns(@X,sum<C>) :- e(@X,C)."
        db = evaluate(parse_program(source), [("e", (1, 4)), ("e", (1, 6))])
        assert db.rows("m") == [(1, 6)]
        assert db.rows("s") == [(1, 10)]

    def test_assignment_evaluation_order_is_flexible(self):
        # the assignment appears before the literal binding its inputs
        source = "r p(@X,C) :- C=C1*2, e(@X,C1)."
        db = evaluate(parse_program(source), [("e", (1, 3))])
        assert db.rows("p") == [(1, 6)]

    def test_unstratifiable_program_rejected(self):
        source = "p(@X) :- q(@X), !p(@X)."
        with pytest.raises(NDlogError):
            evaluate(parse_program(source), [("q", (1,))])

    def test_fixpoint_bound(self):
        program = parse_program("p(@X,C) :- p(@X,C1), C=C1+1.\np(@X,C) :- seed(@X,C).")
        with pytest.raises(NDlogError):
            Evaluator(program).run([("seed", (1, 0))], max_iterations=10)

    def test_centralized_matches_localized(self):
        from repro.ndlog.localization import localize_program

        program = parse_program(PATH_VECTOR_SOURCE, "pv")
        localized = localize_program(program).program
        db1 = evaluate(program, TRIANGLE)
        db2 = evaluate(localized, TRIANGLE)
        assert set(db1.rows("bestPath")) == set(db2.rows("bestPath"))


class TestComparisonErrors:
    def test_uncomparable_condition_raises_evaluation_error(self):
        from repro.terms import EvaluationError

        program = parse_program("small(@X,Y) :- t(@X,Y), Y < 3.")
        with pytest.raises(EvaluationError, match="cannot compare"):
            evaluate(program, [("t", (1, "not-a-number"))])

    def test_uncomparable_operands_name_both_types(self):
        from repro.terms import EvaluationError
        from repro.ndlog.plan import comparison_fn

        with pytest.raises(EvaluationError, match="str and int"):
            comparison_fn("<=")("s", 3)

    def test_equality_on_mixed_types_still_works(self):
        # = and /= are defined for any operand pair; only orderings raise
        program = parse_program("same(@X,Y) :- t(@X,Y), Y = 3.")
        db = evaluate(program, [("t", (1, "s")), ("t", (2, 3))])
        assert db.rows("same") == [(2, 3)]
