"""Unit tests for the linear-arithmetic decision procedure."""

from fractions import Fraction

from repro.logic.arith import (
    ComparisonSet,
    comparisons_entail,
    comparisons_unsat,
    evaluate,
    linearize,
)
from repro.logic.formulas import eq, ge, gt, le, lt, neq
from repro.terms import func, var


class TestEvaluate:
    def test_ground_arithmetic(self):
        assert evaluate(func("+", 1, 2)) == 3
        assert evaluate(func("*", 3, func("-", 5, 1))) == 12
        assert evaluate(func("/", 1, 2)) == Fraction(1, 2)
        assert evaluate(func("min", 3, 1)) == 1

    def test_non_ground_returns_none(self):
        assert evaluate(func("+", var("X"), 1)) is None
        assert evaluate(var("X")) is None


class TestLinearize:
    def test_combines_like_terms(self):
        expr = linearize(func("-", func("+", "X", "X"), "X"))
        assert expr.as_dict() == {var("X"): Fraction(1)}

    def test_opaque_atoms(self):
        expr = linearize(func("+", func("f", "X"), 2))
        assert expr.constant == 2
        assert func("f", var("X")) in expr.as_dict()


class TestDecisions:
    def test_simple_contradiction(self):
        assert comparisons_unsat([lt("X", 3), gt("X", 5)])
        assert not comparisons_unsat([lt("X", 3), gt("X", 1)])

    def test_the_bestpath_contradiction(self):
        # C <= C2 and C2 < C is the contradiction closing bestPathStrong
        assert comparisons_unsat([le("C", "C2"), lt("C2", "C")])

    def test_equality_propagation(self):
        assert comparisons_unsat([eq("X", 3), gt("X", 4)])
        assert comparisons_unsat([eq("X", "Y"), lt("X", "Y")])

    def test_disequality_handling(self):
        assert comparisons_unsat([eq("X", "Y"), neq("X", "Y")])
        assert comparisons_unsat([le("X", 3), ge("X", 3), neq("X", 3)])
        assert not comparisons_unsat([neq("X", "Y")])

    def test_entailment(self):
        assert comparisons_entail([lt("X", "Y"), lt("Y", "Z")], lt("X", "Z"))
        assert comparisons_entail([le("X", 3)], le("X", 5))
        assert not comparisons_entail([le("X", 5)], le("X", 3))
        assert comparisons_entail([eq("X", "Y")], le("X", "Y"))

    def test_entail_disequality(self):
        assert comparisons_entail([lt("X", "Y")], neq("X", "Y"))

    def test_chained_sums(self):
        # C = C1 + C2, C1 >= 0 entails C >= C2
        assert comparisons_entail(
            [eq("C", func("+", "C1", "C2")), ge("C1", 0)], ge("C", "C2")
        )

    def test_copy_does_not_alias(self):
        cs = ComparisonSet([lt("X", 3)])
        copy = cs.copy()
        copy.add(gt("X", 5))
        assert copy.is_unsatisfiable()
        assert not cs.is_unsatisfiable()
