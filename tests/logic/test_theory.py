"""Unit tests for theories and theory interpretation."""

import pytest

from repro.logic.formulas import atom, forall, implies, le
from repro.logic.inductive import Clause, InductiveDefinition
from repro.logic.theory import Interpretation, Theory
from repro.terms import Var


def abstract_order_theory() -> Theory:
    thy = Theory("partialOrder")
    X, Y, Z = Var("X"), Var("Y"), Var("Z")
    thy.declare("leq", "predicate", arity=2)
    thy.axiom("reflexive", forall((X,), atom("leq", X, X)))
    thy.axiom(
        "transitive",
        forall(
            (X, Y, Z),
            implies(atom("leq", X, Y) & atom("leq", Y, Z), atom("leq", X, Z)),
        ),
    )
    return thy


class TestTheory:
    def test_axiom_and_theorem_registration(self):
        thy = abstract_order_theory()
        assert set(thy.axioms) == {"reflexive", "transitive"}
        with pytest.raises(ValueError):
            thy.axiom("reflexive", atom("p"))

    def test_importing_merges_axioms_and_definitions(self):
        base = abstract_order_theory()
        X = Var("X")
        base.define(InductiveDefinition("zero", (X,), (Clause((), le(X, 0)),)))
        derived = Theory("derived")
        derived.importing(base)
        assert "reflexive" in derived.all_axioms()
        assert derived.all_definitions().get("zero") is not None

    def test_prove_theorem_uses_axioms(self):
        thy = abstract_order_theory()
        A, B, C = Var("A"), Var("B"), Var("C")
        thy.theorem(
            "chain",
            forall(
                (A, B, C),
                implies(atom("leq", A, B) & atom("leq", B, C), atom("leq", A, C)),
            ),
        )
        result = thy.prove_theorem("chain")
        assert result.proved

    def test_unknown_theorem(self):
        with pytest.raises(KeyError):
            abstract_order_theory().prove_theorem("missing")

    def test_prove_all(self):
        thy = abstract_order_theory()
        X = Var("X")
        thy.theorem("self", forall((X,), atom("leq", X, X)))
        results = thy.prove_all()
        assert results["self"].proved


class TestInterpretation:
    def test_obligations_renamed_per_axiom(self):
        abstract = abstract_order_theory()
        concrete = Theory("intOrder")
        interp = Interpretation(abstract, concrete, {"leq": "int_leq"})
        obligations = interp.obligations()
        assert len(obligations) == 2
        assert all("int_leq" in str(ob.statement) for ob in obligations)
        assert all(not ob.discharged for ob in obligations)

    def test_discharge_with_checker(self):
        abstract = abstract_order_theory()
        concrete = Theory("intOrder")
        interp = Interpretation(abstract, concrete, {"leq": "int_leq"})
        results = interp.discharge_with(lambda ob: (True, "exhaustive"))
        assert interp.all_discharged
        assert all(ob.method == "checker" for ob in results)

    def test_discharge_with_prover_uses_concrete_axioms(self):
        abstract = Theory("abstract")
        X = Var("X")
        abstract.declare("p", "predicate", arity=1)
        abstract.axiom("p_holds", forall((X,), atom("p", X)))
        concrete = Theory("concrete")
        concrete.axiom("q_everywhere", forall((X,), atom("q", X)))
        interp = Interpretation(abstract, concrete, {"p": "q"})
        interp.discharge_with_prover()
        assert interp.all_discharged

    def test_report_lists_every_obligation(self):
        abstract = abstract_order_theory()
        interp = Interpretation(abstract, Theory("c"), {})
        report = interp.report()
        assert "reflexive" in report and "transitive" in report
