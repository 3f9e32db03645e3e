"""Unit tests for sequents and the proof tactics."""

import pytest

from repro.logic.formulas import atom, conj, eq, exists, forall, implies, lt, le, neg
from repro.logic.inductive import Clause, DefinitionTable, InductiveDefinition
from repro.logic.sequent import Sequent
from repro.logic.tactics import (
    ProofContext,
    TacticError,
    case,
    expand,
    flatten,
    heuristic_instantiations,
    inst,
    lemma,
    propax,
    skolem,
    skosimp,
    split,
)
from repro.terms import Const, Var, func


class TestSequentClosure:
    def test_axiom_closure(self):
        s = Sequent((atom("p", 1),), (atom("p", 1),))
        assert s.is_closed()

    def test_false_antecedent_true_succedent(self):
        from repro.logic.formulas import FALSE, TRUE

        assert Sequent((FALSE,), ()).is_closed()
        assert Sequent((), (TRUE,)).is_closed()

    def test_arithmetic_closure(self):
        s = Sequent((le("C", "C2"), lt("C2", "C")), ())
        assert s.is_closed()

    def test_equality_rewriting_closure(self):
        s = Sequent((eq("X", 3), atom("p", "X")), (atom("p", 3),))
        assert s.is_closed()

    def test_reflexive_equality_succedent(self):
        assert Sequent((), (eq("X", "X"),)).is_closed()

    def test_ground_comparison_evaluation(self):
        assert Sequent((), (lt(1, 2),)).is_closed()
        assert Sequent((lt(2, 1),), ()).is_closed()

    def test_conjunction_of_antecedents_in_succedent(self):
        s = Sequent((atom("p"), atom("q")), (conj(atom("p"), atom("q")),))
        assert s.is_closed()

    def test_open_goal_not_closed(self):
        assert not Sequent((atom("p", 1),), (atom("p", 2),)).is_closed()


class TestPropositionalTactics:
    def test_flatten_implication(self):
        goal = Sequent.goal(implies(atom("p"), atom("q")))
        (out,) = flatten(goal, ProofContext())
        assert atom("p") in out.antecedents
        assert atom("q") in out.succedents

    def test_flatten_negation_and_conjunction(self):
        goal = Sequent((conj(atom("p"), atom("q")),), (neg(atom("r")),))
        (out,) = flatten(goal, ProofContext())
        assert atom("p") in out.antecedents
        assert atom("q") in out.antecedents
        assert atom("r") in out.antecedents

    def test_flatten_requires_progress(self):
        with pytest.raises(TacticError):
            flatten(Sequent((atom("p"),), (atom("q"),)), ProofContext())

    def test_split_conjunction_in_succedent(self):
        goal = Sequent((), (conj(atom("p"), atom("q")),))
        subgoals = split(goal, ProofContext())
        assert len(subgoals) == 2

    def test_split_antecedent_implication(self):
        goal = Sequent((implies(atom("p"), atom("q")),), (atom("r"),))
        subgoals = split(goal, ProofContext())
        assert len(subgoals) == 2
        assert atom("p") in subgoals[0].succedents
        assert atom("q") in subgoals[1].antecedents

    def test_propax(self):
        assert propax(Sequent((atom("p"),), (atom("p"),)), ProofContext()) == []
        with pytest.raises(TacticError):
            propax(Sequent((atom("p"),), (atom("q"),)), ProofContext())


class TestQuantifierTactics:
    def test_skolem_universal_succedent(self):
        goal = Sequent.goal(forall((Var("X"),), atom("p", "X")))
        (out,) = skolem(goal, ProofContext())
        assert out.succedents[0] == atom("p", "X")

    def test_skolem_freshens_on_collision(self):
        goal = Sequent((atom("q", "X"),), (forall((Var("X"),), atom("p", "X")),))
        (out,) = skolem(goal, ProofContext())
        # the bound X must not be confused with the free X in the antecedent
        assert out.succedents[0] != atom("p", "X")

    def test_skosimp_combines(self):
        goal = Sequent.goal(forall((Var("X"),), implies(atom("p", "X"), atom("q", "X"))))
        (out,) = skosimp(goal, ProofContext())
        assert atom("p", "X") in out.antecedents
        assert atom("q", "X") in out.succedents

    def test_inst_universal_antecedent(self):
        quantified = forall((Var("X"),), implies(atom("p", "X"), atom("q", "X")))
        goal = Sequent((quantified, atom("p", 3)), (atom("q", 3),))
        (out,) = inst(goal, ProofContext(), terms=[3])
        assert implies(atom("p", 3), atom("q", 3)) in out.antecedents

    def test_inst_arity_mismatch(self):
        quantified = forall((Var("X"), Var("Y")), atom("p", "X", "Y"))
        goal = Sequent((quantified,), ())
        with pytest.raises(TacticError):
            inst(goal, ProofContext(), terms=[1])

    def test_inst_existential_succedent(self):
        goal = Sequent((atom("p", 3),), (exists((Var("X"),), atom("p", "X")),))
        (out,) = inst(goal, ProofContext(), terms=[3])
        assert out.is_closed()


class TestDefinitionTactics:
    def _context(self):
        X = Var("X")
        defs = DefinitionTable(
            [InductiveDefinition("even", (X,), (Clause((), eq(X, 0)), Clause((Var("Y"),), conj(atom("even", "Y"), eq(X, func("+", "Y", 2))))))]
        )
        return ProofContext(definitions=defs, lemmas={"zero_least": forall((X,), le(0, "X"))})

    def test_expand_definition(self):
        ctx = self._context()
        goal = Sequent((), (atom("even", 0),))
        (out,) = expand(goal, ctx, name="even")
        (out,) = flatten(out, ctx)  # split the disjunction in the succedent
        assert out.is_closed()  # disjunct 0=0 holds

    def test_expand_unknown_definition(self):
        with pytest.raises(TacticError):
            expand(Sequent((), (atom("odd", 1),)), self._context(), name="odd")

    def test_lemma_brings_axiom(self):
        ctx = self._context()
        goal = Sequent((), (le(0, 5),))
        (out,) = lemma(goal, ctx, name="zero_least")
        assert any(isinstance(f, type(forall((Var("X"),), le(0, "X")))) for f in out.antecedents)

    def test_case_split(self):
        subgoals = case(Sequent((), (atom("q"),)), ProofContext(), formula=atom("p"))
        assert len(subgoals) == 2
        assert atom("p") in subgoals[0].antecedents
        assert atom("p") in subgoals[1].succedents


class TestHeuristicInstantiation:
    def test_joint_matching_binds_all_vars(self):
        S, D, C, C2, P2 = Var("S"), Var("D"), Var("C"), Var("C2"), Var("P2")
        axiom = forall(
            (S, D, C, C2, P2),
            implies(conj(atom("bpc", S, D, C), atom("path", S, D, P2, C2)), le(C, C2)),
        )
        goal = Sequent(
            (axiom, atom("bpc", "a", "b", 5), atom("path", "a", "b", "p", 7)),
            (),
        )
        bindings = heuristic_instantiations(goal, axiom)
        assert any(
            b.get(S) == Const("a") and b.get(C2) == Const(7) and b.get(P2) == Const("p")
            for b in bindings
        )

    def test_existential_succedent_triggers(self):
        X = Var("X")
        goal = Sequent((atom("p", 3),), (exists((X,), atom("p", "X")),))
        bindings = heuristic_instantiations(goal, goal.succedents[0])
        assert {X: Const(3)} in bindings
