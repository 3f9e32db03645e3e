"""Unit tests for repro.logic.formulas."""

from repro.logic.formulas import (
    And,
    Atom,
    Comparison,
    FALSE,
    Forall,
    Or,
    TRUE,
    atom,
    close,
    conj,
    disj,
    eq,
    exists,
    forall,
    implies,
    lt,
    neg,
    predicates_in,
)
from repro.terms import Const, Var


class TestConstructors:
    def test_atom_coerces_args(self):
        a = atom("link", "S", "D", 3)
        assert a.predicate == "link"
        assert a.args[0] == Var("S")
        assert a.args[2] == Const(3)

    def test_conj_simplification(self):
        assert conj() == TRUE
        assert conj(atom("p")) == atom("p")
        assert conj(atom("p"), TRUE) == atom("p")
        assert conj(atom("p"), FALSE) == FALSE
        assert isinstance(conj(atom("p"), atom("q")), And)

    def test_disj_simplification(self):
        assert disj() == FALSE
        assert disj(atom("p")) == atom("p")
        assert disj(atom("p"), TRUE) == TRUE
        assert isinstance(disj(atom("p"), atom("q")), Or)

    def test_and_flattens_nested(self):
        f = And((And((atom("p"), atom("q"))), atom("r")))
        assert len(f.parts) == 3

    def test_neg_involution(self):
        assert neg(neg(atom("p"))) == atom("p")
        assert neg(TRUE) == FALSE

    def test_comparison_negate(self):
        assert lt("X", 3).negate() == Comparison(">=", Var("X"), Const(3))
        assert eq("X", 3).negate().op == "/="


class TestQuantifiers:
    def test_free_vars_exclude_bound(self):
        f = forall((Var("X"),), atom("p", "X", "Y"))
        assert f.free_vars() == {Var("Y")}

    def test_close_universally_quantifies(self):
        f = close(atom("p", "X", "Y"))
        assert isinstance(f, Forall)
        assert f.free_vars() == frozenset()

    def test_capture_avoiding_substitution(self):
        # substituting Y := X into (FORALL X: p(X, Y)) must rename the bound X
        f = forall((Var("X"),), atom("p", "X", "Y"))
        out = f.substitute({Var("Y"): Var("X")})
        assert isinstance(out, Forall)
        bound = out.vars[0]
        assert bound != Var("X")
        assert Atom("p", (bound, Var("X"))) == out.body

    def test_substitution_drops_bound_bindings(self):
        f = exists((Var("X"),), atom("p", "X"))
        assert f.substitute({Var("X"): Const(1)}) == f

    def test_empty_quantifier_returns_body(self):
        assert forall((), atom("p")) == atom("p")


class TestStructure:
    def test_subformulas_and_atoms(self):
        f = implies(conj(atom("p", "X"), lt("X", 3)), atom("q", "X"))
        atoms = list(f.atoms())
        assert {a.predicate for a in atoms} == {"p", "q"}

    def test_predicates_in(self):
        f = forall((Var("X"),), implies(atom("p", "X"), exists((Var("Y"),), atom("q", "X", "Y"))))
        assert predicates_in(f) == {"p", "q"}

    def test_hashable_in_sets(self):
        s = {atom("p", 1), atom("p", 1), atom("q", 1)}
        assert len(s) == 2
