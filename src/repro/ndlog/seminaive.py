"""Centralized NDlog evaluation: stratified semi-naive fixpoints over generated code.

This module computes the stratified model of an NDlog program over a single
database, ignoring distribution.  It is used to

* validate the distributed runtime (both must agree on the final state),
* validate the NDlog→logic translation (the finite-model fixpoint of the
  generated inductive definitions must match),
* execute programs generated from component models (paper Section 3.2.2).

Rules run through :class:`RuleEngine`, which lowers each rule once to
specialized Python source (:mod:`repro.ndlog.codegen`) and caches it —
the same evaluator the distributed engine and its shard workers run.
Inside each stratum, semi-naive iteration restricts every pass to
derivations that use at least one new tuple, so recursive programs such as
the path-vector protocol do not recompute the full join every round.

:data:`RULE_ENGINE` is the one place an evaluator's rule engine comes from;
the reference interpreter (:mod:`repro.ndlog.reference`) is what tests put
there to check generated code against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import itemgetter
from typing import Callable, Iterable, Mapping, Optional, Sequence

from ..terms import FunctionRegistry
from .ast import Fact, NDlogError, Program, Rule
from .codegen import CodegenRule, codegen_rule
from .functions import builtin_registry
from .localization import strip_locations
from .plan import (  # noqa: F401  (re-exported: public API of this module)
    comparison_fn,
    order_body,
)
from .store import Database
from .stratification import Stratification, stratify


class DeltaIndex(dict):
    """Per-pass grouped views over semi-naive delta rows: a map predicate →
    delta rows.

    Delta relations are small but are matched once per outer binding, so the
    same hash-grouping used for stored tables pays off: rows are grouped by
    the literal's bound argument positions on first probe and reused for the
    rest of the pass.

    ``distinct`` is the caller's word that no predicate's rows repeat (an
    executor's delta: rows it has just stored or removed), which lets a
    one-pass ``derive`` skip its binding dedup (see
    :meth:`~repro.ndlog.codegen.CodegenRule.derive`).  Such a delta is also
    already a map of tuple lists, so its lists are adopted, not copied —
    the caller must not mutate them while the view is in use.
    """

    __slots__ = ("_groups", "distinct")

    def __init__(
        self, delta: Mapping[str, Iterable[tuple]], *, distinct: bool = False
    ) -> None:
        dict.__init__(
            self,
            delta
            if distinct
            else {predicate: [tuple(row) for row in rows] for predicate, rows in delta.items()},
        )
        self._groups: dict[tuple[str, tuple[int, ...]], dict[tuple, list[tuple]]] = {}
        self.distinct = distinct

    def rows(self, predicate: str) -> Sequence[tuple]:
        return self.get(predicate, ())

    def groups(
        self, predicate: str, positions: tuple[int, ...]
    ) -> dict[tuple, list[tuple]]:
        """The grouped rows of ``predicate`` keyed by ``positions``.

        Built on first use and cached for the pass.  Raises ``TypeError``
        when a row holds an unhashable value at a grouped position (callers
        fall back to scanning ``rows``, exactly like stored-table probes).
        Generated code hoists this dict out of its probe loops.
        """

        key = (predicate, positions)
        groups = self._groups.get(key)
        if groups is None:
            groups = {}
            last = positions[-1]
            # itemgetter builds a multi-position key in C; one position
            # would come back bare, so that key is wrapped by hand
            getter = itemgetter(*positions) if len(positions) > 1 else None
            for row in self.get(predicate, ()):
                if last >= len(row):
                    continue
                group_key = getter(row) if getter is not None else (row[last],)
                bucket = groups.get(group_key)
                if bucket is None:
                    groups[group_key] = [row]
                else:
                    bucket.append(row)
            self._groups[key] = groups
        return groups


class RuleEngine:
    """Evaluates individual rules against a database through generated code.

    Each rule is lowered once to a :class:`~repro.ndlog.codegen.CodegenRule`
    (specialized Python source, :mod:`repro.ndlog.codegen`) and cached for
    the lifetime of the engine.  Compilation snapshots the function
    registry — register custom functions before evaluating.
    """

    def __init__(self, registry: Optional[FunctionRegistry] = None) -> None:
        self.registry = registry or builtin_registry()
        # caches key by rule identity and retain the rule object so a
        # recycled id() can never alias a stale entry
        self._plan_cache: dict[int, tuple[Rule, CodegenRule]] = {}

    def precompile(self, rules: Iterable[Rule]) -> None:
        """Compile every rule up front, at program-load time, so no code
        generation happens on the hot evaluation path."""

        for rule in rules:
            self.plan_for(rule)

    def plan_for(self, rule: Rule) -> CodegenRule:
        """The cached generated plan for ``rule`` (compiled on first use)."""

        entry = self._plan_cache.get(id(rule))
        if entry is not None and entry[0] is rule:
            return entry[1]
        # the entry pins the exact rule object it was built for: holding the
        # reference keeps id(rule) from being recycled, and the identity
        # check stays valid even when the codegen cache returns a shared
        # CodegenRule built from a structurally-equal rule instance
        compiled = codegen_rule(rule, self.registry)
        self._plan_cache[id(rule)] = (rule, compiled)
        return compiled

    def fire_rule(
        self,
        rule: Rule,
        db: Database,
        *,
        delta: Optional[Mapping[str, Iterable[tuple]]] = None,
    ) -> list[tuple]:
        """Evaluate a rule, returning the derived head rows, deduplicated.

        ``delta`` restricts the join semi-naively (at least one positive
        body literal matches a delta tuple).  Aggregate rules are recomputed
        over the full body (aggregation is not meaningfully incremental for
        ``min``/``max`` under insert-only deltas), grouping per the head's
        non-aggregate attributes.  Rows are bare tuples: the head predicate
        and location are the rule's.
        """

        view = delta if delta is None or isinstance(delta, DeltaIndex) else DeltaIndex(delta)
        return self.plan_for(rule).fire(db, view)

    def derive(
        self,
        rule: Rule,
        db: Database,
        *,
        delta: Optional[Mapping[str, Iterable[tuple]]] = None,
    ) -> list[tuple]:
        """Enumerate head rows at body-binding multiplicity.

        The counting/retraction twin of :meth:`fire_rule`: one row per
        distinct body binding, with no same-row deduplication, so callers
        can maintain derivation counts (each row is one support gained or —
        when ``delta`` holds retracted tuples still present in ``db`` — one
        support lost).  Aggregate heads are rejected; they are recomputed
        and diffed instead.
        """

        view = delta if delta is None or isinstance(delta, DeltaIndex) else DeltaIndex(delta)
        return self.plan_for(rule).derive(db, view)

    def deriver(self, rule: Rule) -> Callable[..., list[tuple]]:
        """:meth:`derive` bound to ``rule`` as a compiled settle calls it,
        ``(db, view=None) -> rows`` with ``view`` a :class:`DeltaIndex`:
        the rule's generated ``derive`` itself, compiled now — unless a
        subclass overrides :meth:`derive`, which then sees every call."""

        if type(self).derive is not RuleEngine.derive:
            return lambda db, view=None: self.derive(rule, db, delta=view)
        return self.plan_for(rule).derive


#: The rule engine class every evaluator builds — :class:`Evaluator`,
#: :class:`IncrementalEvaluator` and :class:`~repro.dn.engine.DistributedEngine`
#: all call ``RULE_ENGINE(registry)``.  The library never reassigns it; tests
#: swap in :class:`repro.ndlog.reference.ReferenceEngine` to run a suite
#: against the reference interpreter (shard workers fork with their engine's).
RULE_ENGINE = RuleEngine


def _hashable(value: object) -> object:
    if isinstance(value, list):
        return tuple(value)
    return value


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
        self.engine = RULE_ENGINE(registry)
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


def row_key(row: tuple) -> tuple:
    """A hashable stand-in for a row (per-value ``_hashable`` fallback)."""

    try:
        hash(row)
        return row
    except TypeError:
        return tuple(_hashable(v) for v in row)


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
        # imported here: repro.dn imports this module
        from ..dn.executor import FixpointExecutor
        from ..dn.node import Node

        program.check()
        stratify(program)  # a program with no centralized fixpoint is refused
        self.program = program
        self.engine = RULE_ENGINE(registry)
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
