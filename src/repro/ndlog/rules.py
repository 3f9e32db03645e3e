"""Rule evaluation through generated code: what every evaluator runs.

:class:`RuleEngine` lowers each rule once to specialized Python source
(:mod:`repro.ndlog.codegen`) and caches it; the distributed engine, its
shard workers and the centralized evaluators (:mod:`repro.ndlog.seminaive`)
all fire rules through it.  :class:`DeltaIndex` is the grouped view over a
semi-naive delta that generated code probes, and :func:`row_key` the
hashable stand-in for a row that holds a list.

:data:`RULE_ENGINE` is the one place an evaluator's rule engine comes from;
the reference interpreter (:mod:`repro.ndlog.reference`) is what tests put
there to check generated code against.  An engine imports this module, not
:mod:`repro.ndlog.seminaive`, so running a program loads no centralized
evaluator.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Callable, Iterable, Mapping, Optional, Sequence

from ..terms import FunctionRegistry
from .ast import Rule
from .codegen import CodegenRule, codegen_rule
from .functions import builtin_registry
from .store import Database


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


#: The rule engine class every evaluator builds —
#: :class:`~repro.ndlog.seminaive.Evaluator`,
#: :class:`~repro.ndlog.seminaive.IncrementalEvaluator` and
#: :class:`~repro.dn.engine.DistributedEngine` all call ``RULE_ENGINE(registry)``.  The library never reassigns it; tests
#: swap in :class:`repro.ndlog.reference.ReferenceEngine` to run a suite
#: against the reference interpreter (shard workers fork with their engine's).
RULE_ENGINE = RuleEngine


def _hashable(value: object) -> object:
    if isinstance(value, list):
        return tuple(value)
    return value


def row_key(row: tuple) -> tuple:
    """A hashable stand-in for a row (per-value ``_hashable`` fallback)."""

    try:
        hash(row)
        return row
    except TypeError:
        return tuple(_hashable(v) for v in row)
