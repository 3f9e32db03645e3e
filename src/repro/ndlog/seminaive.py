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

from collections import deque
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Iterable, Mapping, Optional, Sequence

from ..logic.bmc import FunctionRegistry
from .aggregates import diff_rows
from .ast import Fact, NDlogError, Program, Rule
from .codegen import CodegenRule, codegen_rule
from .functions import builtin_registry
from .plan import (  # noqa: F401  (re-exported: public API of this module)
    NEGATION_DELTA_SUFFIX,
    comparison_fn,
    negation_delta_rules,
    order_body,
)
from .store import Database
from .stratification import DependencyGraph, Stratification, needs_recompute, stratify


class DeltaIndex:
    """Per-pass grouped views over semi-naive delta rows.

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

    def __init__(
        self, delta: Mapping[str, Iterable[tuple]], *, distinct: bool = False
    ) -> None:
        self._rows: dict[str, Sequence[tuple]] = (
            dict(delta)
            if distinct
            else {
                predicate: [tuple(row) for row in rows]
                for predicate, rows in delta.items()
            }
        )
        self._groups: dict[tuple[str, tuple[int, ...]], dict[tuple, list[tuple]]] = {}
        self.distinct = distinct

    def __contains__(self, predicate: str) -> bool:
        return predicate in self._rows

    def rows(self, predicate: str) -> Sequence[tuple]:
        return self._rows.get(predicate, ())

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
            for row in self._rows.get(predicate, ()):
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
        self._negation_cache: dict[int, tuple[Rule, tuple[tuple[str, Rule], ...]]] = {}

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

    def negation_variants(self, rule: Rule) -> tuple[tuple[str, Rule], ...]:
        """The cached negation-delta variants of a rule.

        ``(negated_predicate, variant_rule)`` pairs (see
        :func:`repro.ndlog.plan.negation_delta_rules`); variants are
        precompiled so retraction rounds pay no per-round analysis.
        """

        entry = self._negation_cache.get(id(rule))
        if entry is None or entry[0] is not rule:
            variants = negation_delta_rules(rule)
            self.precompile(variant for _, variant in variants)
            entry = (rule, variants)
            self._negation_cache[id(rule)] = entry
        return entry[1]

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


#: The rule engine class every evaluator builds — :class:`Evaluator`,
#: :class:`IncrementalEvaluator`, :class:`~repro.dn.engine.DistributedEngine`
#: and :class:`~repro.dn.shard.ShardWorker` all call
#: ``RULE_ENGINE(registry)``.  The library never reassigns it; tests swap in
#: :class:`repro.ndlog.reference.ReferenceEngine` to run a suite against the
#: reference interpreter (forked shard workers inherit the swap).
RULE_ENGINE = RuleEngine


def _hashable(value: object) -> object:
    if isinstance(value, list):
        return tuple(value)
    return value


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
        for fact in list(self.program.facts) + list(extra_facts):
            if isinstance(fact, Fact):
                db.insert(fact.predicate, fact.values)
            else:
                predicate, values = fact
                db.insert(predicate, tuple(values))
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


@dataclass
class RetractionStats:
    """Bookkeeping produced by incremental evaluation."""

    rounds: int = 0
    derivations: int = 0
    retractions: int = 0
    rederived: int = 0
    view_recomputes: int = 0


class IncrementalEvaluator:
    """Stratified evaluation under **insertions and deletions** of base facts.

    The monotone :class:`Evaluator` computes a fixpoint once; this class
    keeps a database at fixpoint while base facts come and go, using the
    count/re-derive algorithm:

    * every stored row carries a **derivation count** (supports) maintained
      per body binding via :meth:`RuleEngine.derive`;
    * a deletion **releases** one support of each derived tuple it fed
      (deletion deltas join against the old database: retraction rules fire
      *before* the deleted rows are physically removed); a tuple whose last
      support is gone is retracted and its own consequences released in the
      next round;
    * tuples of **recursive predicates** are over-deleted on *any* lost
      support (counts cannot see cyclic support), then **re-derived** from
      the surviving database, so tuples with alternative well-founded
      derivations come back and tuples whose remaining support was circular
      stay dead (DRed);
    * **negated** predicates get compiled negation-delta variants: an
      insertion into ``q`` retracts the bindings it newly blocks, a deletion
      from ``q`` asserts the bindings it was blocking;
    * **aggregate** rules are recomputed over the changed body and diffed
      against their memoized previous output
      (:func:`repro.ndlog.aggregates.diff_rows`), per stratum.

    After any ``apply`` the database equals the from-scratch fixpoint of the
    surviving base facts (the property tests in
    ``tests/ndlog/test_retraction_properties.py`` check this on randomized
    programs and insert/delete sequences).
    """

    def __init__(
        self,
        program: Program,
        *,
        registry: Optional[FunctionRegistry] = None,
        max_rounds: int = 100_000,
    ) -> None:
        program.check()
        self.program = program
        self.engine = RULE_ENGINE(registry)
        self.stratification: Stratification = stratify(program)
        self.recursive_predicates = DependencyGraph(program).recursive_predicates()
        self.max_rounds = max_rounds
        self.stats = RetractionStats()
        self.db = Database()
        for decl in program.materialized.values():
            self.db.declare_from(decl)
        self.counting_rules = [r for r in program.rules if not needs_recompute(r)]
        self.view_rules = [r for r in program.rules if needs_recompute(r)]
        self.engine.precompile(self.counting_rules + self.view_rules)
        #: positive body predicate → counting rules it can (re)trigger
        self._triggers: dict[str, list[Rule]] = {}
        for rule in self.counting_rules:
            for pred in {lit.predicate for lit in rule.positive_literals}:
                self._triggers.setdefault(pred, []).append(rule)
        #: head predicate → counting rules deriving it (for keyed refills)
        self._head_rules: dict[str, list[Rule]] = {}
        for rule in self.counting_rules:
            self._head_rules.setdefault(rule.head.predicate, []).append(rule)
        #: negated predicate → negation-delta variant rules it triggers
        self._negation_triggers: dict[str, list[Rule]] = {}
        for rule in self.counting_rules:
            for pred, variant in self.engine.negation_variants(rule):
                self._negation_triggers.setdefault(pred, []).append(variant)
        order = {id(rule): i for i, rule in enumerate(program.rules)}
        self._view_order = sorted(
            self.view_rules,
            key=lambda r: (self.stratification.rule_strata.get(r.name, 0), order[id(r)]),
        )
        self._view_memo: dict[int, set[tuple]] = {}
        self._view_seen: dict[int, int] = {}
        # change tracking: predicate → tick of its latest physical change
        self._tick = 0
        self._dirty: dict[str, int] = {}
        # the op worklist: ``(kind, predicate, row)`` with kind one of
        # ``insert`` (one support gained), ``retract`` (one support lost),
        # ``delete`` (forced removal).  Ops are processed in FIFO order —
        # a round takes the longest same-direction prefix — because an
        # assertion and a later retraction of the same tuple (e.g. a
        # negation-enabled derivation whose premise is then retracted) must
        # cancel in order, not be reordered deletions-first.
        self._queue: "deque[tuple[str, str, tuple]]" = deque()
        self._overdeleted: dict[str, dict[tuple, tuple]] = {}
        # keyed-displacement tracking: a displacement destroys the displaced
        # row's support count, so when the stored row under a once-displaced
        # key is later retracted, the key is re-derived ("refilled") from the
        # surviving database
        self._displaced: dict[str, set[tuple]] = {}
        self._refill: dict[str, set[tuple]] = {}

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def load(self, extra_facts: Iterable[Fact | tuple] = ()) -> Database:
        """Evaluate the program's facts (plus extras) to the initial fixpoint."""

        inserts: list[tuple[str, tuple]] = [
            (fact.predicate, tuple(fact.values)) for fact in self.program.facts
        ]
        for item in extra_facts:
            if isinstance(item, Fact):
                inserts.append((item.predicate, tuple(item.values)))
            else:
                predicate, values = item
                inserts.append((predicate, tuple(values)))
        self.apply(inserts=inserts)
        return self.db

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

        for predicate, values in deletes:
            self._queue.append(("delete", predicate, tuple(values)))
        for predicate, values in inserts:
            self._queue.append(("insert", predicate, tuple(values)))
        self._settle_counting()
        self._view_sweep()
        return self.db

    # ------------------------------------------------------------------
    # Change bookkeeping
    # ------------------------------------------------------------------
    def _mark_dirty(self, predicate: str) -> None:
        self._tick += 1
        self._dirty[predicate] = self._tick

    def _bump_round(self) -> None:
        self.stats.rounds += 1
        if self.stats.rounds > self.max_rounds:
            raise NDlogError(
                "incremental evaluation did not reach a fixpoint (round bound "
                "exceeded)"
            )

    # ------------------------------------------------------------------
    # Counting fixpoint (deletion → re-derivation → insertion rounds)
    # ------------------------------------------------------------------
    def _settle_counting(self) -> None:
        while self._queue or self._overdeleted or self._refill:
            self._bump_round()
            if self._queue:
                # one round = the longest same-direction prefix of the FIFO
                # worklist, so paired assert/retract ops stay ordered
                deleting = self._queue[0][0] != "insert"
                ops: list[tuple[str, str, tuple]] = []
                while self._queue and (self._queue[0][0] != "insert") == deleting:
                    ops.append(self._queue.popleft())
                if deleting:
                    self._deletion_round(ops)
                else:
                    self._insertion_round(ops)
            elif self._overdeleted:
                self._rederive_round()
            else:
                self._refill_round()

    def _fire_negation_deltas(
        self, changed: Mapping[str, list[tuple]], *, retracting: bool
    ) -> None:
        """Fire negation-delta variants for changed rows of negated predicates.

        ``retracting=True`` when the rows were *inserted* (newly blocked
        bindings are retracted); ``False`` when the rows were *deleted*
        (newly enabled bindings are derived).
        """

        for predicate, rows in changed.items():
            variants = self._negation_triggers.get(predicate)
            if not variants:
                continue
            delta = {predicate + NEGATION_DELTA_SUFFIX: rows}
            kind = "retract" if retracting else "insert"
            for variant in variants:
                head = variant.head.predicate
                for row in self.engine.derive(variant, self.db, delta=delta):
                    self._queue.append((kind, head, row))

    def _deletion_round(self, ops: list[tuple[str, str, tuple]]) -> None:
        removed: dict[str, list[tuple]] = {}
        rederivable: dict[str, dict[tuple, tuple]] = {}
        displacing: set[tuple[str, tuple]] = set()
        marked: set[tuple[str, tuple]] = set()

        def mark(predicate: str, row: tuple, rederive: bool = False) -> None:
            key = (predicate, row_key(row))
            if key in marked:
                return
            marked.add(key)
            removed.setdefault(predicate, []).append(row)
            if rederive:
                rederivable.setdefault(predicate, {})[key[1]] = row

        for kind, predicate, row in ops:
            table = self.db.table(predicate)
            if kind in ("delete", "displace"):
                # forced removals (base-fact deletion, keyed displacement)
                # must not come back through re-derivation
                if table.current(row) == row:
                    mark(predicate, row)
                    if kind == "displace":
                        # the displacing insertion is already queued and will
                        # occupy the key: refilling here would re-derive both
                        # tie candidates and livelock
                        displacing.add((predicate, table.key_of(row)))
            elif predicate in self.recursive_predicates:
                # counts cannot see cyclic support: over-delete on any lost
                # derivation, re-derive survivors afterwards (DRed)
                if row in table:
                    mark(predicate, row, rederive=True)
            elif table.release(row):
                mark(predicate, row)
        if not removed:
            return
        # fire retraction joins against the OLD database (rows still present)
        view = DeltaIndex(removed)
        retracts: list[tuple[str, str, tuple]] = []
        seen_rules: set[int] = set()
        for predicate in removed:
            for rule in self._triggers.get(predicate, ()):
                if id(rule) in seen_rules:
                    continue
                seen_rules.add(id(rule))
                head = rule.head.predicate
                retracts.extend(
                    ("retract", head, row)
                    for row in self.engine.derive(rule, self.db, delta=view)
                )
        # physically remove, then release each lost support
        for predicate, rows in removed.items():
            table = self.db.table(predicate)
            displaced_keys = self._displaced.get(predicate)
            for row in rows:
                if displaced_keys:
                    key = table.key_of(row)
                    if key in displaced_keys and (predicate, key) not in displacing:
                        # the winner of an earlier displacement is gone: the
                        # displaced alternatives must be re-derived
                        displaced_keys.discard(key)
                        self._refill.setdefault(predicate, set()).add(key)
                table.delete(row)
                self.stats.retractions += 1
            self._mark_dirty(predicate)
        for predicate, rows in rederivable.items():
            self._overdeleted.setdefault(predicate, {}).update(rows)
        self._queue.extend(retracts)
        # deletions from negated predicates enable previously blocked bindings
        self._fire_negation_deltas(removed, retracting=False)

    def _rederive_round(self) -> None:
        """Re-insert over-deleted tuples that still have a derivation.

        Runs once the deletion worklist is empty: counting rules whose head
        predicate lost tuples are re-fired over the surviving database; an
        over-deleted tuple enumerated again has a well-founded alternative
        derivation and comes back with its support count rebuilt, while
        tuples whose only remaining support was cyclic stay retracted.
        """

        overdeleted = self._overdeleted
        self._overdeleted = {}
        support: dict[tuple[str, tuple], int] = {}
        for rule in self.counting_rules:
            pending = overdeleted.get(rule.head.predicate)
            if not pending:
                continue
            predicate = rule.head.predicate
            for row in self.engine.derive(rule, self.db):
                key = (predicate, row_key(row))
                if key[1] in pending:
                    support[key] = support.get(key, 0) + 1
        # a view (aggregate) rule's memoized output also supports its rows
        for rule in self.view_rules:
            pending = overdeleted.get(rule.head.predicate)
            if not pending:
                continue
            for row in self._view_memo.get(id(rule), ()):
                key = (rule.head.predicate, row_key(row))
                if key[1] in pending:
                    support[key] = support.get(key, 0) + 1
        if not support:
            return
        reinserted: dict[str, list[tuple]] = {}
        for (predicate, hashed_row), supports in support.items():
            row = overdeleted[predicate][hashed_row]
            table = self.db.table(predicate)
            for _ in range(supports):
                table.upsert(row)
            reinserted.setdefault(predicate, []).append(row)
            self.stats.rederived += 1
            self._mark_dirty(predicate)
        # downstream consequences: the re-inserted rows are a fresh delta
        view = DeltaIndex(reinserted)
        seen_rules: set[int] = set()
        for predicate in reinserted:
            for rule in self._triggers.get(predicate, ()):
                if id(rule) in seen_rules:
                    continue
                seen_rules.add(id(rule))
                head = rule.head.predicate
                for row in self.engine.derive(rule, self.db, delta=view):
                    self._queue.append(("insert", head, row))
        self._fire_negation_deltas(reinserted, retracting=True)

    def _refill_round(self) -> None:
        """Re-derive keyed rows whose displacement winner was retracted.

        A keyed insertion that displaces a different row destroys the
        displaced row's support count (the table holds one row per key).
        When the stored row under such a key is later retracted, the rules
        deriving the predicate are re-fired and every derivation whose key
        is being refilled — and whose key slot is currently empty — is
        queued as a fresh support, so surviving alternatives (e.g. the
        equal-cost best path that lost an earlier tie) come back.
        """

        refill = self._refill
        self._refill = {}
        for predicate, keys in refill.items():
            table = self.db.table(predicate)
            for rule in self._head_rules.get(predicate, ()):
                for row in self.engine.derive(rule, self.db):
                    if table.key_of(row) in keys and table.current(row) is None:
                        self._queue.append(("insert", predicate, row))

    def _insertion_round(self, ops: list[tuple[str, str, tuple]]) -> None:
        delta: dict[str, list[tuple]] = {}
        for _, predicate, row in ops:
            table = self.db.table(predicate)
            previous = table.current(row)
            if previous is not None and previous != row:
                # keyed displacement: retract the displaced row's
                # consequences first, then retry the insertion; the key is
                # remembered so a later retraction of the winner re-derives
                # the losers (their support counts are destroyed here)
                self._displaced.setdefault(predicate, set()).add(table.key_of(row))
                self._queue.append(("displace", predicate, previous))
                self._queue.append(("insert", predicate, row))
                continue
            changed, _ = table.upsert(row)
            self.stats.derivations += 1
            if changed:
                delta.setdefault(predicate, []).append(row)
                self._mark_dirty(predicate)
        if not delta:
            return
        view = DeltaIndex(delta)
        seen_rules: set[int] = set()
        for predicate in delta:
            for rule in self._triggers.get(predicate, ()):
                if id(rule) in seen_rules:
                    continue
                seen_rules.add(id(rule))
                head = rule.head.predicate
                for row in self.engine.derive(rule, self.db, delta=view):
                    self._queue.append(("insert", head, row))
        # insertions into negated predicates block bindings that relied on
        # their absence
        self._fire_negation_deltas(delta, retracting=True)

    # ------------------------------------------------------------------
    # Aggregate (view) rules: recompute and diff, per stratum
    # ------------------------------------------------------------------
    def _view_sweep(self) -> None:
        if not self._view_order:
            return
        for _ in range(self.max_rounds):
            progressed = False
            for rule in self._view_order:
                rid = id(rule)
                body_tick = max(
                    (
                        self._dirty.get(lit.predicate, 0)
                        for lit in rule.body_literals
                    ),
                    default=0,
                )
                if rid in self._view_memo and body_tick <= self._view_seen.get(rid, -1):
                    continue
                self._view_seen[rid] = self._tick
                self.stats.view_recomputes += 1
                added, removed, rows = diff_rows(
                    self._view_memo.get(rid, set()), self.engine.fire_rule(rule, self.db)
                )
                self._view_memo[rid] = rows
                if not added and not removed:
                    continue
                progressed = True
                for row in removed:
                    self._queue.append(("retract", rule.head.predicate, row))
                for row in added:
                    self._queue.append(("insert", rule.head.predicate, row))
                self._settle_counting()
            if not progressed:
                return
        raise NDlogError(
            "incremental evaluation did not reach a fixpoint (view sweep bound "
            "exceeded)"
        )


def evaluate(
    program: Program,
    extra_facts: Iterable[Fact | tuple] = (),
    *,
    registry: Optional[FunctionRegistry] = None,
) -> Database:
    """Convenience wrapper: evaluate and return just the database."""

    db, _ = Evaluator(program, registry=registry).run(extra_facts)
    return db
