"""Unit tests for inductive definitions."""

import pytest

from repro.logic.formulas import Exists, Or, atom, conj, eq
from repro.logic.inductive import Clause, DefinitionTable, InductiveDefinition
from repro.terms import Var, func


def path_definition() -> InductiveDefinition:
    S, D, P, C = Var("S"), Var("D"), Var("P"), Var("C")
    Z, C1, C2, P2 = Var("Z"), Var("C1"), Var("C2"), Var("P2")
    return InductiveDefinition(
        "path",
        (S, D, P, C),
        (
            Clause((), conj(atom("link", S, D, C), eq(P, func("f_init", S, D)))),
            Clause(
                (Z, C1, C2, P2),
                conj(
                    atom("link", S, Z, C1),
                    atom("path", Z, D, P2, C2),
                    eq(C, func("+", C1, C2)),
                ),
            ),
        ),
    )


class TestInductiveDefinition:
    def test_arity_and_recursion_flags(self):
        d = path_definition()
        assert d.arity == 4
        assert d.is_recursive
        simple = InductiveDefinition("q", (Var("X"),), (Clause((), atom("p", "X")),))
        assert not simple.is_recursive

    def test_definition_formula_is_closed_iff(self):
        f = path_definition().definition_formula()
        assert f.free_vars() == frozenset()

    def test_unfold_substitutes_head_args(self):
        d = path_definition()
        unfolded = d.unfold(atom("path", "a", "b", "P0", 5))
        assert isinstance(unfolded, Or)
        base = unfolded.parts[0]
        assert atom("link", "a", "b", 5) in list(base.subformulas())

    def test_unfold_freshens_existentials_to_avoid_capture(self):
        d = path_definition()
        # argument names collide with clause existentials
        unfolded = d.unfold(atom("path", "Z", "D", "P2", "C2"))
        recursive = unfolded.parts[1]
        assert isinstance(recursive, Exists)
        assert Var("Z") not in recursive.vars  # the bound Z must be renamed

    def test_unfold_rejects_other_predicates(self):
        d = path_definition()
        assert d.unfold(atom("link", "a", "b", 1)) is None
        assert d.unfold(atom("path", "a", "b")) is None

    def test_clauses_for_splits_disjuncts(self):
        d = path_definition()
        clauses = d.clauses_for(atom("path", "a", "b", "P", "C"))
        assert len(clauses) == 2

    def test_induction_scheme_mentions_hypothesis(self):
        d = path_definition()
        S, D, P, C = Var("S"), Var("D"), Var("P"), Var("C")
        goal = atom("reach", S, D)
        scheme = d.induction_scheme((S, D, P, C), goal)
        text = str(scheme)
        assert "reach" in text
        assert "link" in text

    def test_induction_scheme_arity_check(self):
        d = path_definition()
        with pytest.raises(ValueError):
            d.induction_scheme((Var("X"),), atom("q", "X"))


class TestDefinitionTable:
    def test_add_get_contains(self):
        table = DefinitionTable([path_definition()])
        assert "path" in table
        assert table.get("path").predicate == "path"
        assert table.get("missing") is None
        assert len(table) == 1

    def test_duplicate_rejected(self):
        table = DefinitionTable([path_definition()])
        with pytest.raises(ValueError):
            table.add(path_definition())

    def test_non_recursive_predicates(self):
        table = DefinitionTable(
            [
                path_definition(),
                InductiveDefinition("best", (Var("X"),), (Clause((), atom("path", "X", "X", "P", "C")),)),
            ]
        )
        assert table.non_recursive_predicates() == ["best"]
        assert set(table.predicates()) == {"path", "best"}
