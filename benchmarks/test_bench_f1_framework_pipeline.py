"""F1 — the FVN framework pipeline of Figure 1, end to end.

Figure 1 is an architecture figure rather than a data figure; its
reproduction is an executable demonstration that all eight arcs exist and
compose: properties (1), meta-model/specification (2), generation (3),
NDlog→logic (4), theorem proving (5), model checking (6), execution (7), and
counterexample feedback (8).  The bench runs the complete workflow for the
path-vector protocol and reports which arcs were exercised and at what cost.
"""


from repro.analysis import render_table
from repro.fvn.framework import FVN
from repro.fvn.properties import standard_property_suite
from repro.metarouting import safe_bgp_system
from repro.protocols.pathvector import path_vector_program
from repro.workloads.topologies import random_topology


def full_pipeline():
    fvn = FVN("pathvector-pipeline")
    fvn.design_algebra(safe_bgp_system(max_cost=8), sample=12)       # arc 2 (design)
    fvn.use_ndlog(path_vector_program())
    for spec in standard_property_suite():                          # arc 1
        fvn.add_property(spec)
    fvn.specify_ndlog()                                             # arc 4
    topology = random_topology(5, seed=9)
    instance = [("link", fact) for fact in topology.link_facts()]
    fvn.verify(instances=[instance])                                # arcs 5 + 8
    fvn.model_check(lambda state: True, extra_facts=instance[:2],   # arc 6
                    max_states=50, max_depth=3)
    fvn.execute(topology)                                           # arc 7
    return fvn


def test_bench_full_pipeline(benchmark, experiment_report):
    fvn = benchmark(full_pipeline)
    assert fvn.verification is not None and fvn.verification.proved_count == 4
    assert fvn.execution is not None and fvn.execution.trace.quiescent
    exercised = set(fvn.record.exercised)
    assert {1, 2, 4, 5, 6, 7, 8} <= exercised
    rows = [[arc, description] for arc, description in sorted(fvn.record.arcs.items())]
    experiment_report(
        "F1",
        ["Figure 1: every arc of the FVN framework exercised in one workflow"]
        + render_table(["arc", "what happened"], rows).splitlines(),
    )


def test_bench_component_generation_arc3(benchmark, experiment_report):
    """The remaining arc (3): verified component specification → NDlog."""

    from repro.bgp.model import bgp_model
    from repro.protocols.policy import shortest_path_policies

    def generate():
        fvn = FVN("bgp-generation")
        fvn.design_components(bgp_model(shortest_path_policies()))
        fvn.specify_components()
        return fvn.generate_ndlog()

    program = benchmark(generate)
    assert len(program.rules) == 4
    experiment_report(
        "F1",
        [f"arc 3: generated {len(program.rules)} NDlog rules from the verified BGP component model"],
    )
