"""Differential conformance suite for the code-generation evaluator tier.

The codegen backend (:mod:`repro.ndlog.codegen`) must be *invisible*: for
any program and any fact set, the generated-source tier has to produce the
same fixpoint as the closure-compiled join plans and the AST interpreter —
across recursion, negation, aggregation, duplicate variables, constants,
keyed displacement, and interleaved insert/delete sequences — and a
distributed run with ``codegen=True`` has to be ``Trace.fingerprint()``
byte-identical to the closure, interpreted and scan-join tiers on 1 and 4
shards, soft state included.

Randomized programs and operation sequences come from hypothesis; the rule
templates mirror ``test_retraction_properties.py`` so the three tiers are
stressed on exactly the feature matrix codegen claims to cover.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bgp.generator import policy_path_vector_program
from repro.dn import EngineConfig, ShardedEngine, create_engine
from repro.ndlog.ast import MaterializeDecl
from repro.ndlog.codegen import CodegenRule, codegen_rule
from repro.ndlog.functions import builtin_registry
from repro.ndlog.parser import parse_program
from repro.ndlog.seminaive import IncrementalEvaluator, evaluate
from repro.scenarios import generate_scenario

#: every fingerprint compared here is also checked against the pre-fp2
#: definition (tests/conftest.py): equal under v1 iff equal under fp2
pytestmark = pytest.mark.usefixtures("fp_agreement")


# ---------------------------------------------------------------------------
# Strategies (the retraction-suite feature matrix)
# ---------------------------------------------------------------------------

nodes = st.integers(min_value=0, max_value=5)

edge = st.tuples(nodes, nodes, st.integers(min_value=1, max_value=4)).filter(
    lambda e: e[0] != e[1]
)

edge_facts = st.lists(edge, min_size=0, max_size=15)

operations = st.lists(
    st.tuples(st.sampled_from(["insert", "delete"]), edge), min_size=1, max_size=20
)

RULE_TEMPLATES = [
    "p(@X,Y,C) :- e(@X,Y,C).",
    "p(@X,Z,C) :- e(@X,Y,C1), p(@Y,Z,C2), C=C1+C2, C<=8.",
    "q(@X,Y) :- p(@X,Y,C), C<={bound}.",
    "r(@X,Y) :- p(@X,Y,C), e(@Y,X,C2).",
    "s(@X,Y) :- p(@X,Y,C), X!=Y.",
    "t(@X,Y) :- q(@X,Y), !e(@X,Y,{cost}).",
    "m(@X,min<C>) :- p(@X,Y,C).",
    "k(@X,count<Y>) :- q(@X,Y).",
    "c(@X,Y) :- e(@X,Y,{cost}).",
    "w(@X,S) :- p(@X,X,C), S=C*2.",
    "v(@X,max<C>) :- p(@X,Y,C), !t(@X,Y).",
    "u(@X,sum<C>) :- e(@X,Y,C), Y>={bound2}.",
]

programs = st.builds(
    lambda picks, bound, bound2, cost: "\n".join(
        [RULE_TEMPLATES[0]]
        + [
            RULE_TEMPLATES[i].format(bound=bound, bound2=bound2, cost=cost)
            for i in sorted(picks)
        ]
    ),
    st.sets(st.integers(min_value=1, max_value=len(RULE_TEMPLATES) - 1), max_size=7),
    st.integers(min_value=1, max_value=8),
    st.integers(min_value=0, max_value=5),
    st.integers(min_value=1, max_value=4),
)


def nonempty(snapshot: dict) -> dict:
    return {pred: rows for pred, rows in snapshot.items() if rows}


# ---------------------------------------------------------------------------
# Three-tier fixpoint equality (centralized)
# ---------------------------------------------------------------------------


class TestThreeTierFixpointEquality:
    """codegen == compiled plan == AST interpreter, from scratch."""

    @settings(max_examples=60, deadline=None)
    @given(source=programs, facts=edge_facts)
    def test_randomized_programs(self, source, facts):
        extra = [("e", f) for f in facts]
        codegen_db = evaluate(parse_program(source, "cg"), extra, codegen=True)
        plan_db = evaluate(parse_program(source, "plan"), extra, codegen=False)
        interp_db = evaluate(parse_program(source, "ast"), extra, compile_rules=False)
        assert (
            nonempty(codegen_db.snapshot())
            == nonempty(plan_db.snapshot())
            == nonempty(interp_db.snapshot())
        )

    @settings(max_examples=20, deadline=None)
    @given(source=programs, facts=edge_facts)
    def test_scan_join_variant(self, source, facts):
        """The no-index lowering is its own generated code path."""

        extra = [("e", f) for f in facts]
        codegen_db = evaluate(
            parse_program(source, "cg"), extra, codegen=True, use_indexes=False
        )
        plan_db = evaluate(
            parse_program(source, "plan"), extra, codegen=False, use_indexes=False
        )
        assert nonempty(codegen_db.snapshot()) == nonempty(plan_db.snapshot())

    @settings(max_examples=15, deadline=None)
    @given(facts=edge_facts)
    def test_duplicate_variables_and_self_joins(self, facts):
        source = """
        d(@X,Y) :- e(@X,Y,C), e(@Y,X,C).
        g(@X) :- e(@X,X,C).
        h(@X,Y) :- e(@X,Y,C), e(@X,Y,C2), C<C2.
        """
        extra = [("e", f) for f in facts] + [("e", (2, 2, 3))]
        codegen_db = evaluate(parse_program(source, "cg"), extra, codegen=True)
        interp_db = evaluate(parse_program(source, "ast"), extra, compile_rules=False)
        assert nonempty(codegen_db.snapshot()) == nonempty(interp_db.snapshot())


# ---------------------------------------------------------------------------
# Retraction: incremental fixpoint equality under insert/delete churn
# ---------------------------------------------------------------------------


class TestRetractionConformance:
    """The codegen retraction variants (``fire_derivations``, negation
    deltas) against the compiled-plan tier and the from-scratch fixpoint."""

    @settings(max_examples=40, deadline=None)
    @given(source=programs, ops=operations)
    def test_incremental_matches_plan_and_scratch(self, source, ops):
        cg = IncrementalEvaluator(parse_program(source, "cg"), codegen=True)
        plan = IncrementalEvaluator(parse_program(source, "plan"), codegen=False)
        cg.load()
        plan.load()
        facts: set[tuple] = set()
        for op, fact in ops:
            if op == "insert":
                facts.add(fact)
                cg.insert("e", fact)
                plan.insert("e", fact)
            else:
                facts.discard(fact)
                cg.delete("e", fact)
                plan.delete("e", fact)
        scratch = evaluate(
            parse_program(source, "scratch"), [("e", f) for f in facts], codegen=True
        )
        assert (
            nonempty(cg.db.snapshot())
            == nonempty(plan.db.snapshot())
            == nonempty(scratch.snapshot())
        )

    @settings(max_examples=20, deadline=None)
    @given(ops=operations)
    def test_cyclic_support_rederivation(self, ops):
        # reach has no decreasing measure: deletions force the DRed
        # over-delete/re-derive phase through the generated full-pass code
        source = """
        reach(@X,Y) :- e(@X,Y,C).
        reach(@X,Z) :- e(@X,Y,C), reach(@Y,Z).
        """
        cg = IncrementalEvaluator(parse_program(source, "cg"), codegen=True)
        cg.load()
        facts: set[tuple] = set()
        for op, fact in ops:
            if op == "insert":
                facts.add(fact)
                cg.insert("e", fact)
            else:
                facts.discard(fact)
                cg.delete("e", fact)
        scratch = evaluate(
            parse_program(source, "scratch"), [("e", f) for f in facts], codegen=False
        )
        assert nonempty(cg.db.snapshot()) == nonempty(scratch.snapshot())

    def test_keyed_displacement(self):
        # link is keyed on (src, dst): an insert under a live key must
        # retract the displaced row's consequences through generated code
        from repro.protocols.pathvector import path_vector_program

        cg = IncrementalEvaluator(path_vector_program(), codegen=True)
        cg.load([("link", ("a", "b", 1)), ("link", ("b", "a", 1))])
        cg.apply(inserts=[("link", ("a", "b", 7)), ("link", ("b", "a", 7))])
        scratch = evaluate(
            path_vector_program(),
            [("link", ("a", "b", 7)), ("link", ("b", "a", 7))],
            codegen=False,
        )
        assert nonempty(cg.db.snapshot()) == nonempty(scratch.snapshot())


# ---------------------------------------------------------------------------
# Distributed byte-identity: codegen=True vs the reference tiers
# ---------------------------------------------------------------------------


def soften_links(program, lifetime: float = 3.0):
    decl = program.materialized["link"]
    program.materialized["link"] = MaterializeDecl(
        "link", lifetime, decl.max_size, decl.keys
    )
    return program


def run_distributed(*, shards, soft=False, **tier):
    """One distributed run → everything the identity contract quantifies
    over (inline shard transport: same code path as processes, minus IPC).
    ``tier`` holds rule-tier overrides; none is the codegen tier."""

    scenario = generate_scenario(
        "tree",
        size=10,
        seed=3,
        policy="gao_rexford",
        churn_events=2,
        churn_restore_delay=1.0,
        loss=0.01,
    )
    program = policy_path_vector_program()
    if soft:
        program = soften_links(program)
    config = EngineConfig(
        seed=3,
        shards=shards,
        shard_transport="inline",
        refresh_interval=1.5 if soft else None,
        **tier,
    )
    engine = create_engine(program, scenario.topology, config=config)
    if scenario.churn is not None:
        scenario.churn.apply_to_engine(engine)
    try:
        trace = engine.run(until=12.0, extra_facts=scenario.policy_fact_list())
        if isinstance(engine, ShardedEngine):
            engine.validate_shards()
        return {
            "fingerprint": trace.fingerprint(),
            "tables": nonempty(engine.global_snapshot()),
            "quiescent": trace.quiescent,
            "events": trace.events_processed,
        }
    finally:
        engine.close()


class TestDistributedFingerprintIdentity:
    """codegen flips nothing observable: trace fingerprints (the full
    ordered change stream) and final tables are byte-identical to every
    other rule tier's."""

    @pytest.mark.parametrize(
        "rule_tier", ["closures", "interpreted", "scan-join"], indirect=True
    )
    @pytest.mark.parametrize("shards", [1, 4])
    def test_config_matrix(self, shards, rule_tier):
        with_codegen = run_distributed(shards=shards)
        reference = run_distributed(shards=shards, **rule_tier)
        assert with_codegen == reference
        assert with_codegen["events"] > 0

    def test_soft_state_expiry_identical(self):
        with_codegen = run_distributed(shards=2, soft=True)
        without = run_distributed(shards=2, soft=True, codegen=False)
        assert with_codegen == without


# ---------------------------------------------------------------------------
# Lowering coverage: the randomized programs actually hit the codegen tier
# ---------------------------------------------------------------------------


class TestLoweringCoverage:
    @settings(max_examples=25, deadline=None)
    @given(source=programs)
    def test_all_template_rules_lower_to_generated_code(self, source):
        """Every rule the strategies emit compiles to a CodegenRule (no
        silent fallback to the plan tier — the suite would otherwise be
        diffing the plan tier against itself)."""

        registry = builtin_registry()
        for rule in parse_program(source, "cover").rules:
            compiled = codegen_rule(rule, registry)
            assert isinstance(compiled, CodegenRule)
            assert "def " in compiled.source
