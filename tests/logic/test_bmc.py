"""Unit tests for finite models, fixpoints, and counterexample search."""

import pytest

from repro.logic.bmc import FiniteModel, find_counterexample, least_fixpoint
from repro.logic.formulas import Comparison, atom, conj, eq, exists, forall, implies, lt
from repro.logic.inductive import Clause, DefinitionTable, InductiveDefinition
from repro.ndlog.plan import comparison_fn
from repro.terms import (
    COMPARISONS,
    Const,
    EvaluationError,
    FunctionRegistry,
    Var,
    func,
    ground_eval,
)


def reach_definitions() -> DefinitionTable:
    X, Y, Z = Var("X"), Var("Y"), Var("Z")
    return DefinitionTable(
        [
            InductiveDefinition(
                "reach",
                (X, Y),
                (
                    Clause((), atom("edge", X, Y)),
                    Clause((Z,), conj(atom("edge", X, Z), atom("reach", Z, Y))),
                ),
            )
        ]
    )


def edge_model(edges) -> FiniteModel:
    model = FiniteModel()
    for a, b in edges:
        model.add_fact("edge", (a, b))
    return model


class TestGroundEval:
    def test_function_registry(self):
        registry = FunctionRegistry({"double": lambda x: 2 * x})
        assert ground_eval(func("double", 3), registry) == 6
        assert ground_eval(func("+", 1, func("double", 2)), registry) == 5

    def test_unbound_variable_raises(self):
        with pytest.raises(EvaluationError):
            ground_eval(Var("X"), FunctionRegistry())


def outcome(thunk):
    """``thunk()``, or the message of the :class:`EvaluationError` it raised."""

    try:
        return thunk()
    except EvaluationError as exc:
        return str(exc)


class TestComparisonAgreement:
    """A finite model and the NDlog engine give a comparison one meaning,
    including the error an unordered operand pair raises."""

    @pytest.mark.parametrize("op", COMPARISONS)
    @pytest.mark.parametrize("left, right", [(1, 2), (2, 2), ("a", "b"), ("a", 1), ((1,), 1)])
    def test_finite_model_agrees_with_the_engine(self, op, left, right):
        model = FiniteModel()
        formula = Comparison(op, Const(left), Const(right))
        engine = comparison_fn(op)
        assert outcome(lambda: model.evaluate(formula)) == outcome(lambda: engine(left, right))

    def test_unordered_pair_names_both_types(self):
        with pytest.raises(EvaluationError, match="types str and int are not ordered"):
            FiniteModel().evaluate(lt("a", 1))


class TestFixpoint:
    def test_transitive_closure(self):
        result = least_fixpoint(reach_definitions(), edge_model([(1, 2), (2, 3), (3, 4)]))
        assert result.reached_fixpoint
        assert result.model.holds("reach", (1, 4))
        assert not result.model.holds("reach", (4, 1))

    def test_bounded_iteration_reports_no_fixpoint(self):
        # a growing counter never reaches a fixpoint within the bound
        X = Var("X")
        defs = DefinitionTable(
            [
                InductiveDefinition(
                    "count",
                    (X,),
                    (
                        Clause((), eq(X, 0)),
                        Clause((Var("Y"),), conj(atom("count", "Y"), eq(X, func("+", "Y", 1)))),
                    ),
                )
            ]
        )
        result = least_fixpoint(defs, FiniteModel(), max_rounds=5)
        assert not result.reached_fixpoint
        assert result.model.holds("count", (3,))

    def test_assignment_and_comparison_in_clause_bodies(self):
        X, Y, C = Var("X"), Var("Y"), Var("C")
        defs = DefinitionTable(
            [
                InductiveDefinition(
                    "cheap",
                    (X, Y),
                    (Clause((C,), conj(atom("edge", X, Y, C), lt(C, 3))),),
                )
            ]
        )
        model = FiniteModel()
        model.add_fact("edge", (1, 2, 1))
        model.add_fact("edge", (2, 3, 5))
        result = least_fixpoint(defs, model)
        assert result.model.holds("cheap", (1, 2))
        assert not result.model.holds("cheap", (2, 3))


class TestEvaluateAndCounterexamples:
    def test_quantified_evaluation(self):
        model = edge_model([(1, 2), (2, 3)])
        X, Y = Var("X"), Var("Y")
        assert model.evaluate(exists((X, Y), atom("edge", X, Y)))
        assert not model.evaluate(forall((X, Y), atom("edge", X, Y)))

    def test_counterexample_found_with_witness(self):
        result = least_fixpoint(reach_definitions(), edge_model([(1, 2), (2, 3)]))
        X, Y = Var("X"), Var("Y")
        claim = forall((X, Y), implies(atom("reach", X, Y), atom("edge", X, Y)))
        ce = find_counterexample(claim, result.model)
        assert ce is not None
        assert ce.assignment["X"] == 1 and ce.assignment["Y"] == 3

    def test_valid_property_has_no_counterexample(self):
        result = least_fixpoint(reach_definitions(), edge_model([(1, 2), (2, 3)]))
        X, Y = Var("X"), Var("Y")
        claim = forall((X, Y), implies(atom("edge", X, Y), atom("reach", X, Y)))
        assert find_counterexample(claim, result.model) is None

    def test_guided_search_over_implication(self):
        # a 5-variable property stays tractable because the antecedent is
        # joined against facts instead of enumerating the universe product
        model = FiniteModel()
        for i in range(8):
            model.add_fact("triple", (i, i + 1, i + 2))
        A, B, C, D, E = (Var(x) for x in "ABCDE")
        claim = forall(
            (A, B, C, D, E),
            implies(
                conj(atom("triple", A, B, C), atom("triple", C, D, E)),
                lt(A, E),
            ),
        )
        assert find_counterexample(claim, model) is None
