"""Centralized NDlog evaluation: stratified semi-naive fixpoints over generated code.

This module computes the stratified model of an NDlog program over a single
database, ignoring distribution.  It is used to

* validate the distributed runtime (both must agree on the final state),
* validate the NDlog→logic translation (the finite-model fixpoint of the
  generated inductive definitions must match),
* execute programs generated from component models (paper Section 3.2.2).

Rules run through :class:`~repro.ndlog.rules.RuleEngine`, which lowers
each rule once to specialized Python source (:mod:`repro.ndlog.codegen`)
and caches it — the same evaluator the distributed engine and its shard
workers run.  Inside each stratum, semi-naive iteration restricts every
pass to derivations that use at least one new tuple, so recursive programs
such as the path-vector protocol do not recompute the full join every
round.

Every evaluator here builds ``repro.ndlog.rules.RULE_ENGINE(registry)``,
read when it is built: that attribute, not one of this module, is where
tests put the reference interpreter.  ``RuleEngine``, ``DeltaIndex``,
``row_key`` and ``_hashable`` are re-exported from :mod:`repro.ndlog.rules`
for the callers that import them from here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from ..terms import FunctionRegistry
from . import rules
from .ast import Fact, NDlogError, Program
from .localization import strip_locations
from .plan import (  # noqa: F401  (re-exported: public API of this module)
    comparison_fn,
    order_body,
)
from .rules import (  # noqa: F401  (re-exported: public API of this module)
    DeltaIndex,
    RuleEngine,
    _hashable,
    row_key,
)
from .store import Database
from .stratification import Stratification, stratify


def _base_rows(facts: Iterable[Fact | tuple]) -> list[tuple[str, tuple]]:
    """``(predicate, values)`` of each of ``facts``: a :class:`Fact` or a
    ``(predicate, values)`` pair."""

    return [
        (fact.predicate, tuple(fact.values))
        if isinstance(fact, Fact)
        else (fact[0], tuple(fact[1]))
        for fact in facts
    ]


@dataclass
class EvaluationStats:
    """Bookkeeping produced by a centralized evaluation."""

    iterations: int = 0
    firings: int = 0
    derived_tuples: int = 0
    strata: int = 0
    per_predicate: dict[str, int] = field(default_factory=dict)


class Evaluator:
    """Stratified semi-naive evaluation of a program over one database."""

    def __init__(
        self,
        program: Program,
        *,
        registry: Optional[FunctionRegistry] = None,
    ) -> None:
        program.check()
        self.program = program
        self.engine = rules.RULE_ENGINE(registry)
        self.stratification: Stratification = stratify(program)
        # Per-program execution state (generated rule code) is built once at
        # load time, not rebuilt per semi-naive pass.
        self.engine.precompile(program.rules)

    def _prepare_database(self, extra_facts: Iterable[Fact | tuple]) -> Database:
        db = Database()
        for decl in self.program.materialized.values():
            db.declare_from(decl)
        for predicate, values in _base_rows([*self.program.facts, *extra_facts]):
            db.insert(predicate, values)
        return db

    def run(
        self,
        extra_facts: Iterable[Fact | tuple] = (),
        *,
        max_iterations: int = 10_000,
    ) -> tuple[Database, EvaluationStats]:
        """Compute the stratified fixpoint.  Returns the database and stats."""

        db = self._prepare_database(extra_facts)
        stats = EvaluationStats(strata=self.stratification.stratum_count)
        for stratum in range(self.stratification.stratum_count):
            rules = self.stratification.rules_in_stratum(self.program, stratum)
            if not rules:
                continue
            aggregate_rules = [r for r in rules if r.head.has_aggregate]
            plain_rules = [r for r in rules if not r.head.has_aggregate]
            # Aggregate rules read lower strata only (enforced by stratify),
            # so one evaluation pass at stratum entry suffices.
            for rule in aggregate_rules:
                rows = self.engine.fire_rule(rule, db)
                if not rows:
                    continue
                stats.firings += len(rows)
                predicate = rule.head.predicate
                changed = db.table(predicate).insert_many(rows)
                if changed:
                    stats.derived_tuples += len(changed)
                    stats.per_predicate[predicate] = (
                        stats.per_predicate.get(predicate, 0) + len(changed)
                    )
            # Semi-naive fixpoint over the remaining rules.
            delta: dict[str, set[tuple]] = {
                p: set(db.rows(p)) for p in db.predicates() if db.rows(p)
            }
            first_round = True
            while delta:
                stats.iterations += 1
                if stats.iterations > max_iterations:
                    raise NDlogError("evaluation did not reach a fixpoint (bound exceeded)")
                new_delta: dict[str, set[tuple]] = {}
                view = None if first_round else DeltaIndex(delta)
                for rule in plain_rules:
                    rows = self.engine.fire_rule(rule, db, delta=view)
                    if not rows:
                        continue
                    stats.firings += len(rows)
                    predicate = rule.head.predicate
                    changed = db.table(predicate).insert_many(rows)
                    if changed:
                        # the delta bucket is created on genuinely new tuples
                        # only — an empty delta set would keep the fixpoint
                        # loop spinning
                        bucket = new_delta.get(predicate)
                        if bucket is None:
                            bucket = new_delta[predicate] = set()
                        bucket.update(changed)
                        stats.derived_tuples += len(changed)
                        stats.per_predicate[predicate] = (
                            stats.per_predicate.get(predicate, 0) + len(changed)
                        )
                delta = new_delta
                first_round = False
        return db, stats


class IncrementalEvaluator:
    """Stratified evaluation under **insertions and deletions** of base facts.

    The monotone :class:`Evaluator` computes a fixpoint once; this class
    keeps a database at fixpoint while base facts come and go.  It has no
    maintenance algorithm of its own: it runs the distributed engine's on
    one node.  The program's location specifiers are stripped
    (:func:`~repro.ndlog.localization.strip_locations`), so every row is
    local to one :class:`~repro.dn.node.Node`, and each :meth:`apply` is
    one :meth:`FixpointExecutor.settle
    <repro.dn.executor.FixpointExecutor.settle>` of its deletions (forced)
    then its insertions: derivation counts, over-delete and re-derive of
    recursive predicates (DRed), negation-delta variants, group-scoped
    aggregate maintenance and keyed refills.  ``stats`` is the node's
    :class:`~repro.dn.node.NodeStats`.

    Facts go to base predicates only, as on the engine: :meth:`apply` (and
    so :meth:`load`, :meth:`insert` and :meth:`delete`) refuses a batch
    naming a predicate some rule derives with :class:`NDlogError`
    (:meth:`~repro.ndlog.ast.Program.check_base_fact`) before changing
    anything.

    After any ``apply`` the database equals, on the program's predicates,
    the from-scratch fixpoint of the surviving base facts (the property
    tests in ``tests/ndlog/test_retraction_properties.py`` check this on
    randomized programs and insert/delete sequences).  A settle that needs
    more than ``max_rounds`` rounds raises :class:`NDlogError`.
    """

    def __init__(
        self,
        program: Program,
        *,
        registry: Optional[FunctionRegistry] = None,
        max_rounds: int = 100_000,
    ) -> None:
        # imported here: ``evaluate`` and the translation checks load no engine
        from ..dn.executor import FixpointExecutor
        from ..dn.node import Node

        program.check()
        stratify(program)  # a program with no centralized fixpoint is refused
        self.program = program
        self.engine = rules.RULE_ENGINE(registry)
        self.max_rounds = max_rounds
        local = strip_locations(program)
        self._node = Node(0, local, self.engine)
        self._executor = FixpointExecutor(local, self.engine)
        self.db = self._node.db
        self.stats = self._node.stats

    def load(self, extra_facts: Iterable[Fact | tuple] = ()) -> Database:
        """Evaluate the program's facts (plus extras) to the initial fixpoint."""

        return self.apply(inserts=_base_rows([*self.program.facts, *extra_facts]))

    def insert(self, predicate: str, values: Sequence[object]) -> None:
        self.apply(inserts=[(predicate, tuple(values))])

    def delete(self, predicate: str, values: Sequence[object]) -> None:
        self.apply(deletes=[(predicate, tuple(values))])

    def apply(
        self,
        inserts: Iterable[tuple[str, Sequence[object]]] = (),
        deletes: Iterable[tuple[str, Sequence[object]]] = (),
    ) -> Database:
        """Apply a batch of base-fact changes and restore the fixpoint."""

        ops = [("delete", predicate, tuple(values)) for predicate, values in deletes]
        ops += [("insert", predicate, tuple(values)) for predicate, values in inserts]
        for predicate in dict.fromkeys(predicate for _, predicate, _ in ops):
            self.program.check_base_fact(predicate)
        sends = self._executor.settle(self._node, ops, 0.0, [], max_rounds=self.max_rounds)
        assert not sends, "a program without locations sends nothing"
        return self.db


def evaluate(
    program: Program,
    extra_facts: Iterable[Fact | tuple] = (),
    *,
    registry: Optional[FunctionRegistry] = None,
) -> Database:
    """Convenience wrapper: evaluate and return just the database."""

    db, _ = Evaluator(program, registry=registry).run(extra_facts)
    return db
