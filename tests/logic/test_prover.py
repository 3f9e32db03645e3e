"""Unit tests for the interactive/automated prover."""

import pytest

from repro.logic.formulas import atom, conj, eq, exists, forall, implies, le, lt, neg
from repro.logic.inductive import Clause, InductiveDefinition
from repro.logic.prover import ProofSession, prove
from repro.logic.tactics import ProofContext, TacticError
from repro.logic.theory import Theory
from repro.terms import Var, func


def pathvector_theory() -> Theory:
    """The hand-built path-vector theory used throughout the prover tests."""

    S, D, P, C = Var("S"), Var("D"), Var("P"), Var("C")
    Z, C1, C2, P2 = Var("Z"), Var("C1"), Var("C2"), Var("P2")
    thy = Theory("pathvector")
    thy.define(
        InductiveDefinition(
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
                        eq(P, func("f_concatPath", S, P2)),
                    ),
                ),
            ),
        )
    )
    thy.define(
        InductiveDefinition(
            "bestPath",
            (S, D, P, C),
            (Clause((), conj(atom("bestPathCost", S, D, C), atom("path", S, D, P, C))),),
        )
    )
    thy.axiom(
        "bestPathCost_lower_bound",
        forall(
            (S, D, C),
            implies(
                atom("bestPathCost", S, D, C),
                forall((P2, C2), implies(atom("path", S, D, P2, C2), le(C, C2))),
            ),
        ),
    )
    thy.theorem(
        "bestPathStrong",
        forall(
            (S, D, C, P),
            implies(
                atom("bestPath", S, D, P, C),
                neg(exists((C2, P2), conj(atom("path", S, D, P2, C2), lt(C2, C)))),
            ),
        ),
    )
    return thy


class TestProofSession:
    def test_simple_propositional_proof(self):
        goal = implies(conj(atom("p"), atom("q")), atom("p"))
        session = ProofSession(ProofContext(), goal)
        session.apply("flatten")
        session.apply("assert")
        assert session.is_complete
        result = session.result()
        assert result.proved
        assert result.interactive_steps == 2

    def test_unknown_tactic_raises(self):
        session = ProofSession(ProofContext(), atom("p"))
        with pytest.raises(TacticError):
            session.apply("does-not-exist")

    def test_apply_after_completion_raises(self):
        session = ProofSession(ProofContext(), implies(atom("p"), atom("p")))
        session.apply("flatten")
        session.apply("assert")
        assert session.is_complete
        with pytest.raises(TacticError):
            session.apply("flatten")

    def test_try_apply_reports_no_progress(self):
        session = ProofSession(ProofContext(), atom("p"))
        assert not session.try_apply("flatten")
        assert session.steps == []

    def test_step_accounting(self):
        goal = forall((Var("X"),), implies(atom("p", "X"), atom("p", "X")))
        session = ProofSession(ProofContext(), goal)
        assert session.grind()
        result = session.result()
        assert result.proved
        assert result.interactive_steps == 0
        assert result.automated_steps == result.total_steps > 0
        assert result.automated_fraction == 1.0


class TestGrind:
    def test_grind_proves_bestpathstrong_automatically(self):
        thy = pathvector_theory()
        result = thy.prove_theorem("bestPathStrong", auto=True)
        assert result.proved
        assert result.elapsed_seconds < 1.0  # "a fraction of a second"

    def test_grind_does_not_prove_invalid_goal(self):
        thy = pathvector_theory()
        S, D = Var("S"), Var("D")
        thy.theorem("bogus", forall((S, D), atom("path", S, D, S, D)))
        result = thy.prove_theorem("bogus", auto=True, max_steps=60)
        assert not result.proved

    def test_grind_respects_max_steps(self):
        thy = pathvector_theory()
        S, D = Var("S"), Var("D")
        thy.theorem("bogus2", forall((S, D), atom("link", S, D, 1)))
        result = thy.prove_theorem("bogus2", auto=True, max_steps=5)
        assert not result.proved
        assert result.total_steps <= 6


class TestProveHelper:
    def test_script_then_auto(self):
        ctx = ProofContext()
        goal = implies(atom("p"), atom("p"))
        result = prove(ctx, goal, script=[("flatten",)], auto=True)
        assert result.proved

    def test_assumptions_are_available(self):
        ctx = ProofContext()
        result = prove(ctx, atom("q"), assumptions=[atom("q")], auto=True)
        assert result.proved

    def test_induction_proof_path_implies_link(self):
        thy = pathvector_theory()
        S, D, P, C = Var("S"), Var("D"), Var("P"), Var("C")
        Z, CL = Var("Z"), Var("CL")
        thy.theorem(
            "pathHasLink",
            forall(
                (S, D, P, C),
                implies(atom("path", S, D, P, C), exists((Z, CL), atom("link", S, Z, CL))),
            ),
            script=(("induct", {"predicate": "path"}),),
        )
        result = thy.prove_theorem("pathHasLink")
        assert result.proved
