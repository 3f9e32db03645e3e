"""Rules return bare head rows, in the order their records had.

``fire_rule`` and ``derive`` — on generated code and on the reference
interpreter — used to wrap every derived row in a ``RuleFiring`` record
(rule name, head predicate, row, location); they now return the rows
themselves, and routing reads the predicate and location off the rule
head.  Every digest in :data:`PINS` was computed before that change, as
``[f.values for f in derive(...)]`` (and likewise for ``fire_rule``), by
this module's own builders with undistinguished delta views.  An equal
digest is the same rows in the same order, for every text of the golden
corpus (``tests/ndlog/corpus``):

* from scratch — each rule fired whole, derived whole, and derived once per
  positive body literal with half that literal's rows as the delta, the
  delta marked ``distinct`` the way the distributed executor marks its own
  (so one-pass derivations run without their binding-dedup set);
* under churn — every firing an incremental evaluator makes while it loads
  the base facts, deletes a quarter of them and restores them;
* distributed — every firing a 4-node engine's executor makes (its own
  deltas are ``distinct``) through a link flap and the same churn, then the
  from-scratch firings against each node's final database.

The policy program has no centralized fixpoint, so only its distributed
part runs.

Two digests were re-pinned when settles began to net their sends: the
distributed firings of ``distance_vector`` and ``policy_path_vector`` see
fewer messages since (with the netting taken out, both old digests
reproduce).  Four were re-pinned when the executor began to maintain
aggregates group by group: ``distance_vector``, ``link_state``,
``path_vector`` and ``policy_path_vector``, the programs whose aggregates
group beyond the location.  Their distributed part now derives the
aggregate's plain-head variant under the groups a settle's changed rows can
move instead of firing it whole, and emits group changes in group-key
order.  The from-scratch
and incremental parts of every digest are unchanged, and the distributed
engine ends every run on equal tables and per-settle change multisets.
"""

import hashlib
import pathlib

import pytest

from repro.dn import DistributedEngine, EngineConfig, Topology
from repro.ndlog import seminaive
from repro.ndlog.ast import Literal
from repro.ndlog.codegen import codegen_rule
from repro.ndlog.functions import builtin_registry
from repro.ndlog.parser import parse_program
from repro.ndlog.reference import ReferenceEngine
from repro.ndlog.seminaive import DeltaIndex, IncrementalEvaluator, RuleEngine, evaluate
from repro.ndlog.store import Database

CORPUS_DIR = pathlib.Path(__file__).parent / "corpus"

ENGINES = {"codegen": RuleEngine, "reference": ReferenceEngine}

#: corpus program → digest (generated code and reference derive alike)
PINS = {
    "distance_vector": "56acdf49f5cc1f7c",
    "edge_cases": "f35480dc2e89ead7",
    "fallback": "29a4f6a514032e2b",
    "heartbeat": "0bc61c336b0376e7",
    "link_state": "ecd4a0918252ab63",
    "path_vector": "7567571a6016363c",
    "policy_path_vector": "c43410f19147fa0b",
}

#: aggregation in a recursive cycle: no centralized fixpoint to fire against
DISTRIBUTED_ONLY = {"policy_path_vector"}

#: a 4-node graph, both directions of each edge
EDGES = [(0, 1, 1), (1, 2, 2), (2, 3, 1), (3, 0, 3), (1, 3, 1)]


def base_facts(program) -> list[tuple[str, tuple]]:
    """The base facts a corpus program reads, over :data:`EDGES`."""

    links = EDGES + [(b, a, c) for a, b, c in EDGES]
    rows = {
        "link": links,
        "e": links + [(2, 2, 3)],
        "importPref": [(a, b, (a + b) % 2) for a, b, _ in links],
        "exportDeny": [(1, 2, 0), (3, 0, 2)],
        "neighbor": [(a, b) for a, b, _ in links],
        "heartbeat": [(a, b) for a, b, _ in links if a < b],
        "soft": [(0, 1), (1, 2), (3, 3)],
    }
    heads = {rule.head.predicate for rule in program.rules}
    read = {
        item.predicate
        for rule in program.rules
        for item in rule.body
        if isinstance(item, Literal)
    }
    return [
        (predicate, row)
        for predicate in sorted(read - heads)
        for row in rows.get(predicate, ())
    ]


def bare(rows):
    """The rows a call returned (they are the call's whole result)."""

    return rows


def distinct_view(delta) -> DeltaIndex:
    return DeltaIndex(delta, distinct=True)


def topology() -> Topology:
    topology = Topology()
    for a, b, cost in EDGES:
        topology.add_link(a, b, cost=cost)
    return topology


def derived_digest(name: str, engine_class) -> str:
    """The digest of every row ``engine_class`` derives for corpus program
    ``name``, in order (see the module docstring)."""

    program = parse_program((CORPUS_DIR / f"{name}.ndl").read_text(), name)
    facts = base_facts(program)
    digest = hashlib.sha256()

    def note(*record) -> None:
        digest.update(repr(record).encode())

    class Recording(engine_class):
        def fire_rule(self, rule, db, *, delta=None):
            rows = super().fire_rule(rule, db, delta=delta)
            note("fire", rule.name, bare(rows))
            return rows

        def derive(self, rule, db, *, delta=None):
            rows = super().derive(rule, db, delta=delta)
            note("derive", rule.name, bare(rows))
            return rows

    def fire_everything(engine, db) -> None:
        for rule in program.rules:
            note("fire", rule.name, bare(engine.fire_rule(rule, db)))
            if rule.head.has_aggregate:
                continue
            note("derive", rule.name, bare(engine.derive(rule, db)))
            for item in rule.body:
                if isinstance(item, Literal) and not item.negated:
                    view = distinct_view({item.predicate: db.rows(item.predicate)[::2]})
                    rows = engine.derive(rule, db, delta=view)
                    note("delta", rule.name, item.predicate, bare(rows))

    centralized = name not in DISTRIBUTED_ONLY
    if centralized:
        fire_everything(engine_class(builtin_registry()), evaluate(program, facts))
    churned = [fact for fact in facts if fact[0] != "link"][::4]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(seminaive, "RULE_ENGINE", Recording)
        if centralized:
            evaluator = IncrementalEvaluator(program)
            evaluator.load(facts)
            evaluator.apply(deletes=churned)
            evaluator.apply(inserts=churned)
        engine = DistributedEngine(program, topology(), config=EngineConfig(seed=3))
        engine.schedule_link_failure(1, 2, at=1.0)
        engine.schedule_link_restore(1, 2, at=2.0)
        for predicate, row in churned:
            engine.schedule_fact_delete(predicate, row, at=1.0)
            engine.schedule_fact(predicate, row, at=2.0)
        engine.run(until=4.0, extra_facts=[f for f in facts if f[0] != "link"])
    for node in sorted(engine.nodes):
        fire_everything(engine_class(builtin_registry()), engine.nodes[node].db)
    return digest.hexdigest()[:16]


@pytest.mark.parametrize("engine", sorted(ENGINES))
@pytest.mark.parametrize("name", sorted(PINS))
def test_rows_match_the_record_pin(name, engine):
    assert derived_digest(name, ENGINES[engine]) == PINS[name]


def test_every_corpus_text_is_pinned():
    assert {path.stem for path in CORPUS_DIR.glob("*.ndl")} == set(PINS)


class TestDistinctViews:
    """A ``distinct`` view lets a one-pass ``derive`` drop its binding
    dedup — and only a one-pass one."""

    def rule_and_db(self, source, facts):
        rule = parse_program(source).rules[0]
        db = Database()
        for fact in facts:
            db.insert("e", fact)
        return rule, db

    def test_a_self_join_met_by_both_delta_passes_counts_once(self):
        # both e literals see the delta, so the binding X=1, Y=2, Z=3 is
        # met by the pass over each of them: one support, not two
        rule, db = self.rule_and_db("h(@X,Z) :- e(@X,Y), e(@Y,Z).", [(1, 2), (2, 3)])
        compiled = codegen_rule(rule, builtin_registry())
        for distinct in (False, True):
            view = DeltaIndex({"e": [(1, 2), (2, 3)]}, distinct=distinct)
            assert compiled.derive(db, view) == [(1, 3)]
            assert ReferenceEngine().derive(rule, db, delta=view) == [(1, 3)]

    def test_repeated_delta_rows_keep_the_dedup(self):
        rule, db = self.rule_and_db("h(@X,Y) :- e(@X,Y).", [(1, 2)])
        compiled = codegen_rule(rule, builtin_registry())
        assert compiled.derive(db, DeltaIndex({"e": [(1, 2), (1, 2)]})) == [(1, 2)]
        assert compiled.derive(db, DeltaIndex({"e": [(1, 2)]}, distinct=True)) == [(1, 2)]
