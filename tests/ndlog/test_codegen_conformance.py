"""Differential conformance suite: generated code against the reference.

Generated code (:mod:`repro.ndlog.codegen`) is the only rule evaluator the
engines run, and it must be *invisible*: for any program and any fact set
it has to produce the fixpoint the reference interpreter
(:mod:`repro.ndlog.reference`, AST walking with scan joins) produces —
across recursion, negation, aggregation, duplicate variables, constants,
function applications, keyed displacement, and interleaved insert/delete
sequences — and a distributed run on generated code has to be
``Trace.fingerprint()`` byte-identical to the same run on the reference,
on 1, 2 and 4 shards, soft state included.

Randomized programs and operation sequences come from hypothesis; the rule
templates mirror ``test_retraction_properties.py``, and each template is
also checked on its own, as is every text of the golden corpus
(``tests/ndlog/corpus``).  The reference runs
inside the ``reference_rules`` fixture, which swaps
``repro.ndlog.rules.RULE_ENGINE`` — the attribute every evaluator and
engine builds its rule engine from.
"""

import pathlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dn import DistributedEngine, EngineConfig, ShardedEngine, create_engine
from repro.dn.network import Topology
from repro.ndlog.ast import MaterializeDecl, NDlogError
from repro.ndlog.codegen import codegen_rule, emit_program_source
from repro.ndlog.functions import builtin_registry
from repro.ndlog.parser import parse_program
from repro.ndlog.plan import comparison_fn
from repro.ndlog.seminaive import DeltaIndex, IncrementalEvaluator, RuleEngine, evaluate
from repro.ndlog.store import Database
from repro.protocols.distancevector import distance_vector_program
from repro.protocols.pathvector import path_vector_program
from repro.protocols.policy import policy_path_vector_program
from repro.scenarios import generate_scenario
from repro.terms import EvaluationError

#: every fingerprint compared here is also checked against the original (v1)
#: definition (tests/conftest.py): equal under v1 iff equal under fp3
pytestmark = pytest.mark.usefixtures("fp_agreement")


# ---------------------------------------------------------------------------
# Strategies (the retraction-suite feature matrix)
# ---------------------------------------------------------------------------

nodes = st.integers(min_value=0, max_value=5)

edge = st.tuples(nodes, nodes, st.integers(min_value=1, max_value=4)).filter(
    lambda e: e[0] != e[1]
)

edge_facts = st.lists(edge, min_size=0, max_size=15)

#: simple graphs: at most one edge per ordered pair
edges = st.lists(edge, min_size=1, max_size=12, unique_by=lambda e: (e[0], e[1]))

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
# Fixpoint equality (centralized)
# ---------------------------------------------------------------------------


class TestFixpointEquality:
    """codegen == reference, from scratch."""

    @settings(max_examples=60, deadline=None)
    @given(source=programs, facts=edge_facts)
    def test_randomized_programs(self, source, facts, reference_rules):
        extra = [("e", f) for f in facts]
        codegen_db = evaluate(parse_program(source, "cg"), extra)
        with reference_rules():
            reference_db = evaluate(parse_program(source, "ref"), extra)
        assert codegen_db.snapshot() == reference_db.snapshot()

    @settings(max_examples=15, deadline=None)
    @given(facts=edge_facts)
    def test_duplicate_variables_and_self_joins(self, facts, reference_rules):
        source = """
        d(@X,Y) :- e(@X,Y,C), e(@Y,X,C).
        g(@X) :- e(@X,X,C).
        h(@X,Y) :- e(@X,Y,C), e(@X,Y,C2), C<C2.
        """
        extra = [("e", f) for f in facts] + [("e", (2, 2, 3))]
        codegen_db = evaluate(parse_program(source, "cg"), extra)
        with reference_rules():
            reference_db = evaluate(parse_program(source, "ref"), extra)
        assert nonempty(codegen_db.snapshot()) == nonempty(reference_db.snapshot())

    @pytest.mark.parametrize(
        "program", [path_vector_program, distance_vector_program], ids=["pv", "dv"]
    )
    @settings(max_examples=10, deadline=None)
    @given(edge_list=edges)
    def test_protocol_fixpoints(self, program, edge_list, reference_rules):
        facts = [("link", e) for e in edge_list]
        codegen_db = evaluate(program(), facts)
        with reference_rules():
            reference_db = evaluate(program(), facts)
        assert codegen_db.snapshot() == reference_db.snapshot()


# ---------------------------------------------------------------------------
# Retraction: incremental fixpoint equality under insert/delete churn
# ---------------------------------------------------------------------------


class TestRetractionConformance:
    """The generated retraction variants (``derive``, negation
    deltas) against the reference and the from-scratch fixpoint."""

    @settings(max_examples=40, deadline=None)
    @given(source=programs, ops=operations)
    def test_incremental_matches_reference_and_scratch(self, source, ops, reference_rules):
        cg = IncrementalEvaluator(parse_program(source, "cg"))
        with reference_rules():
            ref = IncrementalEvaluator(parse_program(source, "ref"))
        cg.load()
        ref.load()
        facts: set[tuple] = set()
        for op, fact in ops:
            if op == "insert":
                facts.add(fact)
                cg.insert("e", fact)
                ref.insert("e", fact)
            else:
                facts.discard(fact)
                cg.delete("e", fact)
                ref.delete("e", fact)
        scratch = evaluate(parse_program(source, "scratch"), [("e", f) for f in facts])
        assert (
            nonempty(cg.db.snapshot())
            == nonempty(ref.db.snapshot())
            == nonempty(scratch.snapshot())
        )

    @settings(max_examples=20, deadline=None)
    @given(ops=operations)
    def test_cyclic_support_rederivation(self, ops, reference_rules):
        # reach has no decreasing measure: deletions force the DRed
        # over-delete/re-derive phase through the generated full-pass code
        source = """
        reach(@X,Y) :- e(@X,Y,C).
        reach(@X,Z) :- e(@X,Y,C), reach(@Y,Z).
        """
        cg = IncrementalEvaluator(parse_program(source, "cg"))
        cg.load()
        facts: set[tuple] = set()
        for op, fact in ops:
            if op == "insert":
                facts.add(fact)
                cg.insert("e", fact)
            else:
                facts.discard(fact)
                cg.delete("e", fact)
        with reference_rules():
            scratch = evaluate(parse_program(source, "scratch"), [("e", f) for f in facts])
        assert nonempty(cg.db.snapshot()) == nonempty(scratch.snapshot())

    def test_keyed_displacement(self, reference_rules):
        # link is keyed on (src, dst): an insert under a live key must
        # retract the displaced row's consequences through generated code
        cg = IncrementalEvaluator(path_vector_program())
        cg.load([("link", ("a", "b", 1)), ("link", ("b", "a", 1))])
        cg.apply(inserts=[("link", ("a", "b", 7)), ("link", ("b", "a", 7))])
        with reference_rules():
            scratch = evaluate(
                path_vector_program(),
                [("link", ("a", "b", 7)), ("link", ("b", "a", 7))],
            )
        assert nonempty(cg.db.snapshot()) == nonempty(scratch.snapshot())


# ---------------------------------------------------------------------------
# One construct at a time: every rule template, every run
# ---------------------------------------------------------------------------

#: template index → a name for the construct it adds on top of ``p``
CONSTRUCTS = {
    1: "recursion",
    2: "comparison",
    3: "join",
    4: "inequality",
    5: "negation",
    6: "min",
    7: "count",
    8: "constant",
    9: "assignment",
    10: "max-over-negation",
    11: "sum",
}

#: templates whose body reads a predicate another template derives
REQUIRES = {5: (2,), 7: (2,), 10: (2, 5)}


def construct_source(index: int, bound: int, bound2: int, cost: int) -> str:
    picks = sorted({index, *REQUIRES.get(index, ())})
    return "\n".join(
        [RULE_TEMPLATES[0]]
        + [
            RULE_TEMPLATES[i].format(bound=bound, bound2=bound2, cost=cost)
            for i in picks
        ]
    )


template_params = {
    "bound": st.integers(min_value=1, max_value=8),
    "bound2": st.integers(min_value=0, max_value=5),
    "cost": st.integers(min_value=1, max_value=4),
}


@pytest.mark.parametrize("index", list(CONSTRUCTS), ids=list(CONSTRUCTS.values()))
class TestConstructConformance:
    """The randomized programs above draw template subsets, so a given run
    may skip a construct; here each template is pinned, with only the rules
    it reads, so every construct meets the reference in every run."""

    @settings(max_examples=20, deadline=None)
    @given(facts=edge_facts, **template_params)
    def test_from_scratch(self, index, facts, bound, bound2, cost, reference_rules):
        source = construct_source(index, bound, bound2, cost)
        extra = [("e", f) for f in facts]
        codegen_db = evaluate(parse_program(source, "cg"), extra)
        with reference_rules():
            reference_db = evaluate(parse_program(source, "ref"), extra)
        assert codegen_db.snapshot() == reference_db.snapshot()

    @settings(max_examples=15, deadline=None)
    @given(ops=operations, **template_params)
    def test_under_churn(self, index, ops, bound, bound2, cost, reference_rules):
        source = construct_source(index, bound, bound2, cost)
        cg = IncrementalEvaluator(parse_program(source, "cg"))
        with reference_rules():
            ref = IncrementalEvaluator(parse_program(source, "ref"))
        cg.load()
        ref.load()
        facts: set[tuple] = set()
        for op, fact in ops:
            if op == "insert":
                facts.add(fact)
                cg.insert("e", fact)
                ref.insert("e", fact)
            else:
                facts.discard(fact)
                cg.delete("e", fact)
                ref.delete("e", fact)
            assert nonempty(cg.db.snapshot()) == nonempty(ref.db.snapshot())
        scratch = evaluate(parse_program(source, "scratch"), [("e", f) for f in facts])
        assert nonempty(cg.db.snapshot()) == nonempty(scratch.snapshot())


# ---------------------------------------------------------------------------
# The golden corpus: the bundled paper programs and the edge-case texts
# ---------------------------------------------------------------------------

CORPUS = sorted((pathlib.Path(__file__).parent / "corpus").glob("*.ndl"))

#: policy_path_vector aggregates inside its advertise recursion, so it has
#: a distributed fixpoint only (checked in the distributed section below)
CENTRALIZED = [p for p in CORPUS if p.stem != "policy_path_vector"]


def corpus_program(path: pathlib.Path, name: str):
    return parse_program(path.read_text(), name)


def base_fact(arity: int, row: tuple) -> tuple:
    """A base row of the given arity (every corpus base relation has
    arity 2 or 3) cut from a drawn ``(x, y, c)`` edge."""

    return row[:arity]


@pytest.mark.parametrize("ndl", CENTRALIZED, ids=lambda p: p.stem)
class TestCorpusConformance:
    """Each corpus text — the programs the goldens pin the generated source
    of — evaluates to the reference's fixpoint, and stays on it while its
    base relations churn."""

    @settings(max_examples=15, deadline=None)
    @given(data=st.data())
    def test_fixpoint_matches_reference(self, ndl, data, reference_rules):
        program = corpus_program(ndl, "cg")
        arities = program.predicate_arities()
        extra = [
            (pred, base_fact(arities[pred], row))
            for pred in sorted(program.base_predicates())
            for row in data.draw(edges, label=pred)
        ]
        codegen_db = evaluate(program, extra)
        with reference_rules():
            reference_db = evaluate(corpus_program(ndl, "ref"), extra)
        assert codegen_db.snapshot() == reference_db.snapshot()

    @settings(max_examples=10, deadline=None)
    @given(pool=edges, data=st.data())
    def test_churn_matches_reference(self, ndl, pool, data, reference_rules):
        # rows come from one pool with a single cost per (x, y), so no
        # insert displaces a live row under its key (displacement is
        # test_keyed_displacement's subject)
        program = corpus_program(ndl, "cg")
        arities = program.predicate_arities()
        base = sorted(program.base_predicates())
        ops = data.draw(
            st.lists(
                st.tuples(
                    st.sampled_from(["insert", "delete"]),
                    st.sampled_from(base),
                    st.sampled_from(pool),
                ),
                min_size=1,
                max_size=20,
            ),
            label="ops",
        )
        cg = IncrementalEvaluator(program)
        with reference_rules():
            ref = IncrementalEvaluator(corpus_program(ndl, "ref"))
        cg.load()
        ref.load()
        for op, pred, row in ops:
            fact = base_fact(arities[pred], row)
            if op == "insert":
                cg.insert(pred, fact)
                ref.insert(pred, fact)
            else:
                cg.delete(pred, fact)
                ref.delete(pred, fact)
            assert nonempty(cg.db.snapshot()) == nonempty(ref.db.snapshot())


# ---------------------------------------------------------------------------
# Distributed byte-identity: generated code vs the reference
# ---------------------------------------------------------------------------


def soften_links(program, lifetime: float = 3.0):
    decl = program.materialized["link"]
    program.materialized["link"] = MaterializeDecl(
        "link", lifetime, decl.max_size, decl.keys
    )
    return program


def run_distributed(*, shards, soft=False):
    """One distributed run → everything the identity contract quantifies
    over (inline shard transport: same code path as processes, minus IPC)."""

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


SOFT_STATE_SOURCE = """
materialize(link, 3, infinity, keys(1,2)).
materialize(reach, 3, infinity, keys(1,2)).
materialize(deg, infinity, infinity, keys(1)).
r1 reach(@X,Y) :- link(@X,Y,C).
r2 reach(@Y,Z) :- link(@X,Y,C), reach(@X,Z), Z != Y.
r3 deg(@X,count<Y>) :- reach(@X,Y).
"""


def run_soft_state(edge_list, *, refresh=None):
    engine = DistributedEngine(
        parse_program(SOFT_STATE_SOURCE, "soft"),
        Topology.from_edges(edge_list),
        config=EngineConfig(refresh_interval=refresh, max_events=200_000),
    )
    engine.run(until=10.0)
    return engine


def run_corpus(ndl, edge_list, rows):
    """One distributed run of a corpus text over ``edge_list``; base
    relations other than ``link`` are seeded from ``rows``."""

    program = corpus_program(ndl, ndl.stem)
    base = program.base_predicates()
    config = EngineConfig(
        seed=1, max_events=100_000, link_predicate="link" if "link" in base else None
    )
    engine = DistributedEngine(program, Topology.from_edges(edge_list), config=config)
    try:
        trace = engine.run(until=10.0, extra_facts=rows)
        return trace.fingerprint(), nonempty(engine.global_snapshot())
    finally:
        engine.close()


class TestDistributedFingerprintIdentity:
    """Generated code flips nothing observable: trace fingerprints (the full
    ordered change stream) and final tables are byte-identical to the
    reference's."""

    @pytest.mark.parametrize("shards", [1, 4])
    def test_config_matrix(self, shards, reference_rules):
        with_codegen = run_distributed(shards=shards)
        with reference_rules():
            reference = run_distributed(shards=shards)
        assert with_codegen == reference
        assert with_codegen["events"] > 0

    def test_soft_state_expiry_identical(self, reference_rules):
        with_codegen = run_distributed(shards=2, soft=True)
        with reference_rules():
            reference = run_distributed(shards=2, soft=True)
        assert with_codegen == reference

    @settings(max_examples=15, deadline=None)
    @given(edge_list=edges)
    def test_soft_state_expiry_runs_match(self, edge_list, reference_rules):
        codegen = run_soft_state(edge_list)
        with reference_rules():
            reference = run_soft_state(edge_list)
        assert codegen.global_snapshot() == reference.global_snapshot()
        assert codegen.total_messages() == reference.total_messages()

    @settings(max_examples=8, deadline=None)
    @given(edge_list=edges)
    def test_soft_state_refresh_runs_match(self, edge_list, reference_rules):
        codegen = run_soft_state(edge_list, refresh=2.0)
        with reference_rules():
            reference = run_soft_state(edge_list, refresh=2.0)
        assert codegen.global_snapshot() == reference.global_snapshot()

    @pytest.mark.parametrize("ndl", CORPUS, ids=lambda p: p.stem)
    @settings(max_examples=5, deadline=None)
    @given(edge_list=edges, data=st.data())
    def test_corpus_program_runs_match(self, ndl, edge_list, data, reference_rules):
        program = corpus_program(ndl, ndl.stem)
        arities = program.predicate_arities()
        hosts = {x for e in edge_list for x in e[:2]}
        rows = [
            (pred, row[: arities[pred]])
            for pred in sorted(program.base_predicates() - {"link"})
            for row in data.draw(edges, label=pred)
            if row[0] in hosts and row[1] in hosts
        ]
        codegen = run_corpus(ndl, edge_list, rows)
        with reference_rules():
            reference = run_corpus(ndl, edge_list, rows)
        assert codegen == reference


# ---------------------------------------------------------------------------
# Comparison, error and compile-time semantics
# ---------------------------------------------------------------------------


class TestSemantics:
    def test_uncomparable_condition_raises_evaluation_error(self, reference_rules):
        program = parse_program("small(@X,Y) :- t(@X,Y), Y < 3.")
        with pytest.raises(EvaluationError, match="cannot compare"):
            evaluate(program, [("t", (1, "not-a-number"))])
        with reference_rules(), pytest.raises(EvaluationError, match="cannot compare"):
            evaluate(program, [("t", (1, "not-a-number"))])

    def test_comparison_fn_names_both_types(self):
        with pytest.raises(EvaluationError, match="str and int"):
            comparison_fn("<=")("s", 3)

    def test_equality_on_mixed_types_still_works(self):
        program = parse_program("same(@X,Y) :- t(@X,Y), Y = 3.")
        db = evaluate(program, [("t", (1, "s")), ("t", (2, 3))])
        assert db.rows("same") == [(2, 3)]

    def test_unknown_function_is_no_match_in_condition(self):
        # like ground_eval, an unregistered function fails the branch quietly
        program = parse_program("p(@X) :- t(@X,Y), f_unknown(Y) = 1.")
        db = evaluate(program, [("t", (1, 2))])
        assert db.rows("p") == []

    def test_unevaluable_literal_is_a_dead_plan(self, reference_rules):
        # the head variable is only reachable through a function term the
        # matcher can never evaluate: the reference derives nothing, and the
        # generated code must load (despite the slotless head variable) and
        # agree rather than reject the rule
        source = "h(@Y) :- p(f_last(Y))."
        facts = [("p", (3,))]
        codegen_db = evaluate(parse_program(source), facts)
        with reference_rules():
            reference_db = evaluate(parse_program(source), facts)
        assert codegen_db.snapshot() == reference_db.snapshot()
        assert codegen_db.rows("h") == []

    def test_unsafe_head_raises_at_compile_time(self):
        program = parse_program("bad h(@X,Z,Y) :- p(@X).", strict=False)
        with pytest.raises(NDlogError) as raised:
            RuleEngine().precompile(program.rules)
        assert str(raised.value) == "rule bad: unsafe head variables {Y, Z}"
        # the source dump stays total over the program
        assert "# rule bad: rejected -- rule bad: unsafe head variables {Y, Z}" in (
            emit_program_source(program)
        )

    def test_duplicate_variable_in_literal(self):
        program = parse_program("loop(@X) :- e(@X,X,C).")
        facts = [("e", (1, 1, 9)), ("e", (1, 2, 9))]
        db = evaluate(program, facts)
        assert db.rows("loop") == [(1,)]

    def test_delta_passes_match_the_full_join(self):
        # fire with an explicit delta view and without; the delta-restricted
        # union across passes must equal the full join
        rule = parse_program("p(@X,Z) :- e(@X,Y), e(@Y,Z).").rules[0]
        compiled = codegen_rule(rule, builtin_registry())
        db = Database()
        for fact in [(1, 2), (2, 3), (3, 1)]:
            db.insert("e", fact)
        full = set(compiled.fire(db))
        view = DeltaIndex({"e": [(1, 2), (2, 3), (3, 1)]})
        restricted = set(compiled.fire(db, view))
        assert full == restricted == {(1, 3), (2, 1), (3, 2)}
