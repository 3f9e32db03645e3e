"""The reference rule evaluator: an AST interpreter with scan joins.

Generated code (:mod:`repro.ndlog.codegen`) is the only rule evaluator the
engines run.  This module is the slow, direct reading of the rule text it
is checked against: body items are ordered by
:func:`~repro.ndlog.plan.order_body` and matched left to right, every
positive literal scans its whole relation, bindings are plain dicts, and
every term is evaluated by :func:`~repro.terms.ground_eval` at the
moment it is needed (so custom functions late-bind).  There are no
indexes, no compiled state and no options.

Two kinds of caller use it:

* **provenance** (:mod:`repro.obs.provenance`): ``explain`` and ``why_not``
  need body solving from *initial* bindings (:meth:`ReferenceEngine.
  solve_body`) and over body *prefixes* (:meth:`ReferenceEngine.
  solve_items`), which generated code does not offer;
* **tests**: :class:`ReferenceEngine` is call-compatible with
  :class:`~repro.ndlog.seminaive.RuleEngine`, so a test swaps it in for
  :data:`repro.ndlog.seminaive.RULE_ENGINE` (the ``rule_tier`` fixture) and
  runs a whole suite — centralized, distributed or sharded — against it.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, Mapping, Optional, Sequence

from ..terms import EvaluationError, FunctionRegistry, Var, ground_eval
from .aggregates import aggregate_rows
from .ast import Assignment, BodyItem, Condition, Literal, NDlogError, Rule
from .functions import builtin_registry
from .plan import comparison_fn, order_body
from .seminaive import DeltaIndex, _hashable
from .store import Database

Bindings = dict[Var, object]


def match_literal(
    literal: Literal,
    row: Sequence[object],
    bindings: Bindings,
    registry: FunctionRegistry,
) -> Optional[Bindings]:
    """Match a body literal against a stored row, extending ``bindings``."""

    if len(row) != literal.arity:
        return None
    local = dict(bindings)
    for arg, value in zip(literal.args, row):
        if isinstance(arg, Var):
            if arg in local:
                if local[arg] != value:
                    return None
            else:
                local[arg] = value
        else:
            try:
                if ground_eval(arg, registry, local) != value:
                    return None
            except EvaluationError:
                return None
    return local


class ReferenceEngine:
    """Evaluates individual rules by interpreting their AST."""

    def __init__(self, registry: Optional[FunctionRegistry] = None) -> None:
        self.registry = registry or builtin_registry()
        # caches key by rule identity and retain the rule object so a
        # recycled id() can never alias a stale entry
        self._order_cache: dict[int, tuple[Rule, list[BodyItem]]] = {}

    def precompile(self, rules: Iterable[Rule]) -> None:
        """Order every rule body up front (an unorderable body raises here,
        at load time, as it does for generated code)."""

        for rule in rules:
            self.ordered_body(rule)

    def ordered_body(self, rule: Rule) -> list[BodyItem]:
        entry = self._order_cache.get(id(rule))
        if entry is None or entry[0] is not rule:
            entry = (rule, order_body(rule))
            self._order_cache[id(rule)] = entry
        return entry[1]

    # ------------------------------------------------------------------
    # Body solving
    # ------------------------------------------------------------------
    def solve_body(
        self,
        rule: Rule,
        db: Database,
        *,
        delta: Optional[Mapping[str, Iterable[tuple]]] = None,
        initial: Optional[Bindings] = None,
    ) -> Iterator[Bindings]:
        """Enumerate variable bindings satisfying the rule body.

        When ``delta`` is given, at least one positive body literal must be
        matched against a delta tuple (semi-naive restriction).  This is
        implemented by running one pass per delta-restricted literal
        position, matching that position against the delta relation and all
        other positions against the full database.
        """

        ordered = self.ordered_body(rule)
        if delta is None:
            yield from self._solve(ordered, 0, dict(initial or {}), db, None, -1)
            return
        view = delta if isinstance(delta, DeltaIndex) else DeltaIndex(delta)
        seen: set[tuple] = set()
        for position, literal in enumerate(ordered):
            if not isinstance(literal, Literal) or literal.negated:
                continue
            if literal.predicate not in view:
                continue
            for binding in self._solve(ordered, 0, dict(initial or {}), db, view, position):
                key = tuple(sorted((v.name, _hashable(val)) for v, val in binding.items()))
                if key in seen:
                    continue
                seen.add(key)
                yield binding

    def solve_items(
        self, items: Sequence[BodyItem], db: Database, initial: Optional[Bindings] = None
    ) -> Iterator[Bindings]:
        """Enumerate bindings satisfying ``items`` (an ordered body or a
        prefix of one) over the full database."""

        yield from self._solve(list(items), 0, dict(initial or {}), db, None, -1)

    def _solve(
        self,
        items: list[BodyItem],
        index: int,
        bindings: Bindings,
        db: Database,
        delta: Optional[DeltaIndex],
        delta_position: int,
    ) -> Iterator[Bindings]:
        if index == len(items):
            yield bindings
            return
        item = items[index]
        if isinstance(item, Literal) and not item.negated:
            if delta is not None and index == delta_position:
                rows: Iterable[tuple] = delta.rows(item.predicate)
            else:
                rows = db.rows(item.predicate)
            for row in rows:
                local = match_literal(item, row, bindings, self.registry)
                if local is not None:
                    yield from self._solve(items, index + 1, local, db, delta, delta_position)
            return
        if isinstance(item, Literal) and item.negated:
            try:
                values = tuple(ground_eval(a, self.registry, bindings) for a in item.args)
            except EvaluationError:
                return
            if values not in db.table(item.predicate):
                yield from self._solve(items, index + 1, bindings, db, delta, delta_position)
            return
        if isinstance(item, Assignment):
            try:
                value = ground_eval(item.expression, self.registry, bindings)
            except EvaluationError:
                return
            if item.variable in bindings:
                if bindings[item.variable] == value:
                    yield from self._solve(items, index + 1, bindings, db, delta, delta_position)
                return
            local = dict(bindings)
            local[item.variable] = value
            yield from self._solve(items, index + 1, local, db, delta, delta_position)
            return
        if isinstance(item, Condition):
            try:
                left = ground_eval(item.left, self.registry, bindings)
                right = ground_eval(item.right, self.registry, bindings)
            except EvaluationError:
                return
            if comparison_fn(item.op)(left, right):
                yield from self._solve(items, index + 1, bindings, db, delta, delta_position)
            return
        raise NDlogError(f"unsupported body item {item!r}")

    # ------------------------------------------------------------------
    # Head instantiation
    # ------------------------------------------------------------------
    def _head_rows(
        self,
        rule: Rule,
        db: Database,
        delta: Optional[Mapping[str, Iterable[tuple]]],
    ) -> list[tuple]:
        rows: list[tuple] = []
        for binding in self.solve_body(rule, db, delta=delta):
            row = []
            for arg in rule.head.plain_args():
                try:
                    row.append(ground_eval(arg, self.registry, binding))
                except EvaluationError as exc:
                    raise NDlogError(
                        f"rule {rule.name}: cannot evaluate head argument {arg}: {exc}"
                    ) from exc
            rows.append(tuple(row))
        return rows

    def fire_rule(
        self,
        rule: Rule,
        db: Database,
        *,
        delta: Optional[Mapping[str, Iterable[tuple]]] = None,
    ) -> list[tuple]:
        """The derived head rows, deduplicated.  Aggregate rules are
        recomputed over the full body, grouping per the head's
        non-aggregate attributes."""

        head = rule.head
        effective_delta = None if head.has_aggregate else delta
        return aggregate_rows(head, self._head_rows(rule, db, effective_delta))

    def derive(
        self,
        rule: Rule,
        db: Database,
        *,
        delta: Optional[Mapping[str, Iterable[tuple]]] = None,
    ) -> list[tuple]:
        """Head rows at body-binding multiplicity (one row per distinct body
        binding); aggregate heads are rejected."""

        if rule.head.has_aggregate:
            raise NDlogError(
                f"rule {rule.name}: aggregate heads are recomputed, not "
                "incrementally retracted"
            )
        return self._head_rows(rule, db, delta)

    def deriver(self, rule: Rule) -> Callable[..., list[tuple]]:
        """:meth:`derive` bound to ``rule``, called ``(db, view=None)`` by a
        compiled settle (see :meth:`repro.ndlog.seminaive.RuleEngine.deriver`)."""

        return lambda db, view=None: self.derive(rule, db, delta=view)
