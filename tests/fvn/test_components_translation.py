"""Unit tests for component models and the component→NDlog translation (arc 3)."""

import pytest

from repro.fvn.components import (
    Component,
    ComponentConstraint,
    ComponentError,
    CompositeComponent,
    Port,
)
from repro.fvn.logic_to_ndlog import (
    SchemaAnnotation,
    check_translation_equivalence,
    component_to_rules,
    composite_to_program,
)
from repro.logic.formulas import eq
from repro.terms import Var, func
from repro.ndlog.seminaive import evaluate


def doubler() -> Component:
    """t1: O = 2 * I"""

    return Component(
        name="t1",
        inputs=(Port("i1", ("X",)),),
        outputs=(Port("o1", ("Y",)),),
        constraints=(ComponentConstraint(eq(Var("Y"), func("*", "X", 2)), "Y = 2X"),),
        transform=lambda i1: (i1[0] * 2,),
    )


def incrementer() -> Component:
    """t2: O = I + 1"""

    return Component(
        name="t2",
        inputs=(Port("i2", ("A",)),),
        outputs=(Port("o2", ("B",)),),
        constraints=(ComponentConstraint(eq(Var("B"), func("+", "A", 1)), "B = A + 1"),),
        transform=lambda i2: (i2[0] + 1,),
    )


def adder() -> Component:
    """t3: O = I1 + I2 (the two-input component of Figure 3)."""

    return Component(
        name="t3",
        inputs=(Port("ia", ("U",)), Port("ib", ("V",))),
        outputs=(Port("oc", ("W",)),),
        constraints=(ComponentConstraint(eq(Var("W"), func("+", "U", "V")), "W = U + V"),),
        transform=lambda ia, ib: (ia[0] + ib[0],),
    )


def figure3_composite() -> CompositeComponent:
    """The paper's Figure 3: tc = t3(t1(I1), t2(I2))."""

    tc = CompositeComponent("tc")
    tc.add(doubler())
    tc.add(incrementer())
    tc.add(adder())
    tc.connect("t1", "o1", "t3", "ia")
    tc.connect("t2", "o2", "t3", "ib")
    return tc


class TestComponents:
    def test_duplicate_port_rejected(self):
        with pytest.raises(ComponentError):
            Component("bad", (Port("p", ("X",)), Port("p", ("Y",))), ())

    def test_atomic_run(self):
        assert doubler().run(i1=(3,)) == {"o1": (6,)}

    def test_run_requires_inputs_and_transform(self):
        with pytest.raises(ComponentError):
            doubler().run()
        spec_only = Component("s", (Port("i", ("X",)),), (Port("o", ("Y",)),))
        with pytest.raises(ComponentError):
            spec_only.run(i=(1,))

    def test_inductive_definition_shape(self):
        definition = doubler().inductive_definition()
        assert definition.predicate == "t1"
        assert [v.name for v in definition.params] == ["X", "Y"]
        assert len(definition.clauses) == 1

    def test_composite_wiring_validation(self):
        tc = CompositeComponent("tc")
        tc.add(doubler())
        with pytest.raises(ComponentError):
            tc.connect("t1", "o1", "missing", "i")
        with pytest.raises(ComponentError):
            tc.connect("t1", "bogus", "t1", "i1")

    def test_composite_external_ports(self):
        tc = figure3_composite()
        external_in = {(c, p.name) for c, p in tc.external_inputs()}
        external_out = {(c, p.name) for c, p in tc.external_outputs()}
        assert external_in == {("t1", "i1"), ("t2", "i2")}
        assert external_out == {("t3", "oc")}

    def test_composite_run_matches_arithmetic(self):
        outputs = figure3_composite().run(i1=(3,), i2=(4,))
        assert outputs == {"t3.oc": (11,)}  # 2*3 + (4+1)

    def test_cyclic_wiring_detected(self):
        a = Component("a", (Port("i", ("X",)),), (Port("o", ("Y",)),), transform=lambda i: (i[0],))
        b = Component("b", (Port("i", ("X",)),), (Port("o", ("Y",)),), transform=lambda i: (i[0],))
        tc = CompositeComponent("loop")
        tc.add(a)
        tc.add(b)
        tc.connect("a", "o", "b", "i")
        tc.connect("b", "o", "a", "i")
        with pytest.raises(ComponentError):
            tc.topological_order()

    def test_composite_theory_definitions(self):
        theory = figure3_composite().theory()
        assert set(theory.definitions.predicates()) == {"t1", "t2", "t3", "tc"}
        # the composite definition hides internal wires behind existentials
        tc_def = theory.definitions.get("tc")
        assert tc_def.clauses[0].exists_vars


class TestTranslationToNDlog:
    def test_atomic_component_rule_shape(self):
        rules = component_to_rules(doubler())
        assert len(rules) == 1
        rule = rules[0]
        assert rule.head.predicate == "t1_out_o1"
        assert rule.body_literals[0].predicate == "t1_in_i1"
        assert rule.assignments  # Y = 2X became an assignment

    def test_figure3_program_matches_paper_translation(self):
        program = composite_to_program(figure3_composite())
        heads = {r.head.predicate for r in program.rules}
        assert heads == {"t1_out_o1", "t2_out_o2", "t3_out_oc"}
        t3_rule = next(r for r in program.rules if r.head.predicate == "t3_out_oc")
        body_preds = set(t3_rule.body_predicates())
        assert body_preds == {"t1_out_o1", "t2_out_o2"}

    def test_generated_program_evaluates_correctly(self):
        program = composite_to_program(figure3_composite())
        db = evaluate(program, [("tc_in_i1", (3,)), ("tc_in_i2", (4,))])
        assert db.rows("t3_out_oc") == [(11,)]

    def test_translation_equivalence_checker(self):
        result = check_translation_equivalence(figure3_composite(), {"i1": (5,), "i2": (7,)})
        assert result.matches
        assert result.component_outputs["t3.oc"] == (18,)

    def test_schema_annotation_sets_location(self):
        schema = SchemaAnnotation(default_attribute="X")
        rules = component_to_rules(doubler(), schema=schema)
        assert rules[0].body_literals[0].location == 0

    def test_unsupported_constraint_rejected(self):
        from repro.logic.formulas import disj
        from repro.ndlog.ast import NDlogError

        weird = Component(
            "w",
            (Port("i", ("X",)),),
            (Port("o", ("Y",)),),
            constraints=(ComponentConstraint(disj(eq(Var("Y"), 1), eq(Var("Y"), 2))),),
        )
        with pytest.raises(NDlogError):
            component_to_rules(weird)
