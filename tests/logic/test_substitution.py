"""Unit tests for unification and matching."""

from repro.logic.formulas import atom, eq
from repro.logic.substitution import (
    compose,
    match_atoms,
    match_formula,
    match_terms,
    occurs_in,
    unify_atoms,
    unify_terms,
)
from repro.terms import Const, Var, func


class TestUnification:
    def test_unify_var_with_const(self):
        subst = unify_terms(Var("X"), Const(3))
        assert subst == {Var("X"): Const(3)}

    def test_unify_symmetric(self):
        assert unify_terms(Const(3), Var("X")) == {Var("X"): Const(3)}

    def test_unify_function_args(self):
        subst = unify_terms(func("f", "X", 2), func("f", 1, "Y"))
        assert subst[Var("X")] == Const(1)
        assert subst[Var("Y")] == Const(2)

    def test_unify_failure_on_mismatch(self):
        assert unify_terms(func("f", 1), func("g", 1)) is None
        assert unify_terms(Const(1), Const(2)) is None

    def test_occurs_check(self):
        assert occurs_in(Var("X"), func("f", "X"))
        assert unify_terms(Var("X"), func("f", "X")) is None

    def test_unifier_is_idempotent(self):
        subst = unify_terms(func("f", "X", "Y"), func("f", "Y", 3))
        assert subst is not None
        t = func("f", "X", "Y").substitute(subst)
        assert t == t.substitute(subst)
        assert t == func("f", 3, 3)

    def test_unify_atoms(self):
        a = atom("path", "S", "D", 3)
        b = atom("path", "a", "D", "C")
        subst = unify_atoms(a, b)
        assert subst[Var("S")] == Const("a")
        assert subst[Var("C")] == Const(3)
        assert unify_atoms(atom("p", 1), atom("q", 1)) is None
        assert unify_atoms(atom("p", 1), atom("p", 1, 2)) is None


class TestMatching:
    def test_match_binds_pattern_vars_only(self):
        subst = match_terms(func("f", "X"), func("f", "Y"))
        assert subst == {Var("X"): Var("Y")}
        # target variables are treated as constants
        assert match_terms(func("f", 1), func("f", "Y")) is None

    def test_match_consistency(self):
        assert match_terms(func("f", "X", "X"), func("f", 1, 2)) is None
        assert match_terms(func("f", "X", "X"), func("f", 1, 1)) == {Var("X"): Const(1)}

    def test_match_atoms_and_formula(self):
        subst = match_atoms(atom("p", "X", 2), atom("p", 7, 2))
        assert subst == {Var("X"): Const(7)}
        assert match_formula(eq("X", 3), eq(5, 3)) == {Var("X"): Const(5)}
        assert match_formula(eq("X", 3), atom("p")) is None


class TestCompose:
    def test_compose_applies_outer_to_inner(self):
        inner = {Var("X"): Var("Y")}
        outer = {Var("Y"): Const(3)}
        composed = compose(outer, inner)
        assert composed[Var("X")] == Const(3)
        assert composed[Var("Y")] == Const(3)
        t = func("f", "X")
        assert t.substitute(composed) == t.substitute(inner).substitute(outer)
