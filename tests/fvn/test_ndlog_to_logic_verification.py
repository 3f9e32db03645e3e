"""Unit tests for the NDlog→logic compiler (arc 4) and the verification manager."""

import pytest

from repro.fvn.ndlog_to_logic import aggregate_rule_axioms, program_to_theory
from repro.fvn.properties import (
    path_implies_link,
    route_optimality,
    standard_property_suite,
)
from repro.fvn.verification import VerificationManager
from repro.logic.bmc import least_fixpoint, FiniteModel
from repro.ndlog.functions import builtin_registry
from repro.ndlog.parser import parse_program
from repro.ndlog.seminaive import evaluate
from repro.protocols.pathvector import PATH_VECTOR_SOURCE
from repro.protocols.distancevector import DISTANCE_VECTOR_SOURCE


TRIANGLE = [
    ("link", ("a", "b", 1)), ("link", ("b", "a", 1)),
    ("link", ("b", "c", 2)), ("link", ("c", "b", 2)),
    ("link", ("a", "c", 5)), ("link", ("c", "a", 5)),
]


class TestProgramToTheory:
    def test_inductive_definitions_generated(self):
        theory = program_to_theory(parse_program(PATH_VECTOR_SOURCE, "pv"))
        assert set(theory.definitions.predicates()) == {"path", "bestPath"}
        path_def = theory.definitions.get("path")
        assert len(path_def.clauses) == 2  # r1 and r2
        assert path_def.is_recursive

    def test_aggregate_axioms_generated(self):
        theory = program_to_theory(parse_program(PATH_VECTOR_SOURCE, "pv"))
        assert "bestPathCost_r3_lower_bound" in theory.axioms
        assert "bestPathCost_r3_witness" in theory.axioms
        assert "bestPathCost_r3_membership" in theory.axioms

    def test_max_aggregate_gets_upper_bound(self):
        program = parse_program("widest(@S,D,max<B>) :- l(@S,D,B).")
        rule = program.rules[0]
        axioms = aggregate_rule_axioms(rule)
        assert axioms.upper_bound is not None and axioms.lower_bound is None

    def test_generated_axioms_are_closed_formulas(self):
        theory = program_to_theory(parse_program(PATH_VECTOR_SOURCE, "pv"))
        for name, axiom in theory.all_axioms().items():
            assert axiom.free_vars() == frozenset(), name

    def test_translation_is_sound_on_finite_models(self):
        """The generated inductive definitions derive exactly the NDlog facts.

        This is the proof-theoretic/operational equivalence footnote of the
        paper checked concretely: bottom-up evaluation of the generated
        definitions over the same base facts produces the same ``path``
        relation as the NDlog evaluator.
        """

        program = parse_program(PATH_VECTOR_SOURCE, "pv")
        theory = program_to_theory(program)
        db = evaluate(program, TRIANGLE)
        base = FiniteModel(registry=builtin_registry())
        for _, values in TRIANGLE:
            base.add_fact("link", values)
        fixpoint = least_fixpoint(theory.definitions, base)
        assert fixpoint.model.rows("path") == set(db.rows("path"))


class TestVerificationManager:
    @pytest.fixture(scope="class")
    def manager(self):
        return VerificationManager(parse_program(PATH_VECTOR_SOURCE, "pv"))

    def test_route_optimality_proof_takes_seven_interactive_steps(self, manager):
        result = manager.prove_property(route_optimality(), auto=False)
        assert result.proved
        assert result.interactive_steps == 7
        assert result.elapsed_seconds < 1.0

    def test_route_optimality_fully_automated(self, manager):
        result = manager.prove_property(route_optimality(), use_script=False, auto=True)
        assert result.proved
        assert result.interactive_steps == 0

    def test_full_property_suite_proves(self, manager):
        report = manager.verify(standard_property_suite(), instances=[TRIANGLE])
        assert report.proved_count == len(report.verdicts) == 4
        assert report.refuted_count == 0

    def test_minimal_script_measurement(self, manager):
        result, needed = manager.prove_with_minimal_script(route_optimality())
        assert result.proved
        assert needed == 0  # grind alone suffices for this property
        induction_result, induction_needed = manager.prove_with_minimal_script(path_implies_link())
        assert induction_result.proved
        assert induction_needed <= 1

    def test_counterexample_search_refutes_false_property(self, manager):
        from repro.fvn.properties import PropertySpec
        from repro.logic.formulas import atom, forall, implies, eq
        from repro.terms import Var

        S, D, P, C = Var("S"), Var("D"), Var("P"), Var("C")
        bogus = PropertySpec(
            name="allCostsAreOne",
            statement=forall((S, D, P, C), implies(atom("path", S, D, P, C), eq(C, 1))),
        )
        counterexample, _ = manager.search_counterexample(bogus, [TRIANGLE])
        assert counterexample is not None

    def test_distance_vector_theory_also_verifies(self):
        manager = VerificationManager(parse_program(DISTANCE_VECTOR_SOURCE, "dv"))
        # route/cost have different arities than the path-vector schema, so the
        # generic property does not apply; instead check the bestCost bound.
        from repro.fvn.properties import PropertySpec
        from repro.logic.formulas import atom, forall, implies, le
        from repro.terms import Var

        S, D, C, Z, C2 = Var("S"), Var("D"), Var("C"), Var("Z"), Var("C2")
        bound = PropertySpec(
            name="bestCostIsLowerBound",
            statement=forall(
                (S, D, C, Z, C2),
                implies(
                    atom("bestCost", S, D, C) & atom("cost", S, D, Z, C2),
                    le(C, C2),
                ),
            ),
        )
        result = manager.prove_property(bound, use_script=False)
        assert result.proved
