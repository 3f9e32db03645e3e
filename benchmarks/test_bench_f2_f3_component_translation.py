"""F2/F3 — the component decompositions of Figures 2 and 3 translate to NDlog.

Figure 2 decomposes BGP into activeAS / export / pvt / import / bestRoute;
Figure 3 shows the generic compositional component ``tc`` whose translation
the paper gives explicitly (``t3_out(O3) :- t1_out(O1), t2_out(O2), C3``).
The bench builds both component graphs, generates their NDlog programs, and
differentially tests the generated programs against direct component
execution on concrete inputs.
"""

import pytest

from repro.analysis import render_table
from repro.bgp.model import bgp_model, policy_registry
from repro.fvn.components import Component, ComponentConstraint, CompositeComponent, Port
from repro.fvn.logic_to_ndlog import check_translation_equivalence, composite_to_program
from repro.logic.formulas import eq
from repro.protocols.policy import disagree_policies, shortest_path_policies
from repro.terms import Var, func


def figure3_composite() -> CompositeComponent:
    t1 = Component(
        "t1", (Port("i1", ("X",)),), (Port("o1", ("Y",)),),
        constraints=(ComponentConstraint(eq(Var("Y"), func("*", "X", 2)), "O1 = 2*I1"),),
        transform=lambda i1: (i1[0] * 2,),
    )
    t2 = Component(
        "t2", (Port("i2", ("A",)),), (Port("o2", ("B",)),),
        constraints=(ComponentConstraint(eq(Var("B"), func("+", "A", 1)), "O2 = I2+1"),),
        transform=lambda i2: (i2[0] + 1,),
    )
    t3 = Component(
        "t3", (Port("ia", ("U",)), Port("ib", ("V",))), (Port("oc", ("W",)),),
        constraints=(ComponentConstraint(eq(Var("W"), func("+", "U", "V")), "O3 = O1+O2"),),
        transform=lambda ia, ib: (ia[0] + ib[0],),
    )
    tc = CompositeComponent("tc")
    for component in (t1, t2, t3):
        tc.add(component)
    tc.connect("t1", "o1", "t3", "ia")
    tc.connect("t2", "o2", "t3", "ib")
    return tc


def test_bench_figure3_translation(benchmark, experiment_report):
    composite = figure3_composite()
    program = benchmark(composite_to_program, composite)
    t3_rule = next(r for r in program.rules if r.head.predicate == "t3_out_oc")
    assert set(t3_rule.body_predicates()) == {"t1_out_o1", "t2_out_o2"}
    equivalence = check_translation_equivalence(composite, {"i1": (3,), "i2": (4,)})
    assert equivalence.matches
    experiment_report(
        "F2/F3",
        [
            "Figure 3 translation matches the paper's schema:",
            *[f"  {rule}" for rule in program.rules],
            f"differential test (I1=3, I2=4): component graph and NDlog both yield "
            f"{equivalence.component_outputs['t3.oc'][0]}",
        ],
    )


@pytest.mark.parametrize("policy_name", ["shortest_path", "disagree"])
def test_bench_figure2_bgp_translation(benchmark, experiment_report, policy_name):
    policies = shortest_path_policies() if policy_name == "shortest_path" else disagree_policies()
    model = bgp_model(policies)

    def translate_and_check():
        program = composite_to_program(model)
        equivalence = check_translation_equivalence(
            model,
            {"r0": (1, 0, 0, (0,), 100, 0.0, 1)},
            functions=policy_registry(policies),
        )
        return program, equivalence

    program, equivalence = benchmark(translate_and_check)
    assert equivalence.matches, equivalence.detail
    rows = [[rule.name, rule.head.predicate, len(rule.body)] for rule in program.rules]
    experiment_report(
        "F2/F3",
        [f"Figure 2 BGP pipeline ({policy_name} policies) → NDlog, equivalence holds"]
        + render_table(["rule", "head", "body items"], rows).splitlines(),
    )
