"""Route provenance: ``explain`` and ``why_not`` over a settled engine.

Third pillar of ``repro.obs``.  Declarative networking's observability
story (paper Section 2) is that a route *is* a derivation: every
``bestPath`` tuple exists because some chain of rule firings grounds out
in base ``link`` facts.  This module reconstructs that chain on demand —
:func:`explain` returns the derivation DAG of a stored row down to base
facts, and :func:`why_not` reports, per candidate rule, how far a body
got before failing for a row that does *not* exist.

Provenance is reconstructed **after the fact** rather than recorded
during evaluation: runtime recording would thread extra state through the
generated rule code and the shard result channel, risking exactly the
fingerprint perturbation the observability contract forbids.  Instead we

1. build a *union database* of every node's stored rows — a sharded
   engine's coordinator row views, which equal its workers' tables (sound for
   localized programs: rewriting places all positive body literals of a
   rule at a single site, so any satisfying join is site-consistent and
   its rows all appear in the union);
2. unify the target row with each candidate rule head (aggregate head
   arguments unify through their underlying variable, so for
   ``min<C>`` heads only min-achieving bodies survive);
3. enumerate supporting body bindings with the reference interpreter
   (:class:`~repro.ndlog.reference.ReferenceEngine` — the evaluator that
   honors initial bindings and solves body prefixes), and recurse into the
   ground rows of positive body literals.

Leaves are **base facts**: predicates the engine's node host protects
(externally injected) or predicates no rule derives.  Memoization, cycle
detection, and depth/derivation caps keep the search bounded; rule order
and sorted bindings keep output deterministic.

Public entry points: :func:`explain`, :func:`why_not`,
:func:`union_database`.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..ndlog.ast import Literal, Rule
from ..ndlog.reference import ReferenceEngine
from ..ndlog.store import Database
from ..terms import Const, EvaluationError, Var, ground_eval

#: Wildcard marker accepted in ``why_not`` target values (``None`` on the
#: JSON wire): the position is left unconstrained during head unification.
WILDCARD = None


def union_database(engine) -> Database:
    """One keyless database holding every node's stored rows.

    Rows from different nodes cannot displace each other: union tables are
    keyless, so the full row is its own identity.
    """

    db = Database()
    for node_id in sorted(engine.nodes, key=str):
        for predicate, rows in engine.nodes[node_id].snapshot().items():
            for row in rows:
                db.insert(predicate, row)
    return db


def _unify_head(
    rule: Rule, values: Sequence[object], registry
) -> Optional[tuple[dict, list[tuple[object, object]]]]:
    """Bind head variables against ``values`` (``WILDCARD`` skips).

    Returns ``(initial_bindings, deferred)`` where ``deferred`` holds
    non-variable, non-constant head arguments (function expressions) to be
    checked once a body binding makes them ground — or ``None`` when the
    head cannot match.
    """

    args = rule.head.plain_args()
    if len(args) != len(values):
        return None
    bindings: dict = {}
    deferred: list[tuple[object, object]] = []
    for arg, value in zip(args, values):
        if value is WILDCARD:
            continue
        if isinstance(arg, Var):
            if arg in bindings:
                if bindings[arg] != value:
                    return None
            else:
                bindings[arg] = value
        elif isinstance(arg, Const):
            if arg.value != value:
                return None
        else:
            deferred.append((arg, value))
    return bindings, deferred


def _deferred_ok(deferred, registry, binding) -> bool:
    for expr, expected in deferred:
        try:
            if ground_eval(expr, registry, binding) != expected:
                return False
        except EvaluationError:
            return False
    return True


def _ground_literal(literal: Literal, registry, binding) -> Optional[tuple]:
    """The stored row a positive body literal denotes under ``binding``."""

    row = []
    for arg in literal.args:
        try:
            row.append(ground_eval(arg, registry, binding))
        except EvaluationError:
            return None
    return tuple(row)


def _binding_key(binding: dict) -> tuple:
    return tuple(sorted((var.name, repr(value)) for var, value in binding.items()))


class _Explainer:
    """Top-down proof search shared by :func:`explain` and :func:`why_not`."""

    def __init__(self, engine, *, max_depth: int = 32, max_derivations: int = 4) -> None:
        self.registry = engine.registry
        self.db = union_database(engine)
        self.rules_by_head: dict[str, list[Rule]] = {}
        for rule in engine.program.rules:
            self.rules_by_head.setdefault(rule.head.predicate, []).append(rule)
        self.protected = set(engine.host.protected)
        self.interp = ReferenceEngine(engine.registry)
        self.max_depth = max_depth
        self.max_derivations = max_derivations
        self._memo: dict[tuple, dict] = {}

    def is_base(self, predicate: str) -> bool:
        return predicate in self.protected or predicate not in self.rules_by_head

    def explain(self, predicate: str, values: tuple, depth: int = 0, stack: frozenset = frozenset()):
        node = {"predicate": predicate, "values": list(values)}
        present = tuple(values) in {tuple(r) for r in self.db.rows(predicate)}
        if not present:
            node["kind"] = "absent"
            return node
        if self.is_base(predicate):
            node["kind"] = "base"
            return node
        key = (predicate, values)
        if key in self._memo:
            return self._memo[key]
        if key in stack:
            node["kind"] = "cycle"
            return node
        if depth >= self.max_depth:
            node["kind"] = "depth_limit"
            return node
        stack = stack | {key}
        derivations: list[dict] = []
        truncated = 0
        for rule in self.rules_by_head[predicate]:
            unified = _unify_head(rule, values, self.registry)
            if unified is None:
                continue
            initial, deferred = unified
            bindings = sorted(
                self.interp.solve_body(rule, self.db, initial=initial), key=_binding_key
            )
            for binding in bindings:
                if not _deferred_ok(deferred, self.registry, binding):
                    continue
                if len(derivations) >= self.max_derivations:
                    truncated += 1
                    continue
                body = []
                ok = True
                for literal in rule.positive_literals:
                    row = _ground_literal(literal, self.registry, binding)
                    if row is None:
                        ok = False
                        break
                    body.append(self.explain(literal.predicate, row, depth + 1, stack))
                if ok:
                    derivations.append({"rule": rule.name, "body": body})
        node["kind"] = "derived" if derivations else "underivable"
        node["derivations"] = derivations
        if truncated:
            node["truncated"] = truncated
        self._memo[key] = node
        return node

    def why_not(self, predicate: str, values: tuple) -> dict:
        """Why no stored row matches ``values`` (``None`` = wildcard)."""

        report: dict = {"predicate": predicate, "values": list(values)}
        matching = [
            list(row)
            for row in sorted(self.db.rows(predicate), key=repr)
            if len(row) == len(values)
            and all(v is WILDCARD or v == r for v, r in zip(values, row))
        ]
        if matching:
            report["present"] = True
            report["matching"] = matching[: self.max_derivations]
            return report
        report["present"] = False
        if self.is_base(predicate):
            report["reason"] = "base predicate: the fact was never injected"
            return report
        attempts = []
        for rule in self.rules_by_head[predicate]:
            unified = _unify_head(rule, values, self.registry)
            if unified is None:
                attempts.append({"rule": rule.name, "unifies": False})
                continue
            initial, _ = unified
            ordered = self.interp.ordered_body(rule)
            satisfied = 0
            blocking = None
            for k in range(1, len(ordered) + 1):
                solutions = self.interp.solve_items(ordered[:k], self.db, initial)
                if next(solutions, None) is None:
                    blocking = str(ordered[k - 1])
                    break
                satisfied = k
            attempts.append(
                {
                    "rule": rule.name,
                    "unifies": True,
                    "body_items": len(ordered),
                    "satisfied_prefix": satisfied,
                    "blocking": blocking,
                }
            )
        report["rules"] = attempts
        return report


def explain(
    engine,
    predicate: str,
    values: Sequence[object],
    *,
    max_depth: int = 32,
    max_derivations: int = 4,
) -> dict:
    """Derivation DAG of a stored row, down to base facts.

    The returned node dict carries ``predicate``, ``values``, and ``kind``
    (``base`` | ``derived`` | ``absent`` | ``underivable`` | ``cycle`` |
    ``depth_limit``); derived nodes add ``derivations`` — a list of
    ``{"rule", "body": [child nodes]}`` capped at ``max_derivations`` (the
    overflow count lands in ``truncated``).
    """

    explainer = _Explainer(engine, max_depth=max_depth, max_derivations=max_derivations)
    return explainer.explain(predicate, tuple(values))


def why_not(
    engine,
    predicate: str,
    values: Sequence[object],
    *,
    max_derivations: int = 4,
) -> dict:
    """Best-effort account of why no row matches ``values``.

    ``None`` entries in ``values`` are wildcards.  When a match exists the
    report says so (``present: true`` with sample rows); otherwise each
    candidate rule reports the longest satisfiable prefix of its (greedily
    ordered) body and the first blocking item.
    """

    explainer = _Explainer(engine, max_derivations=max_derivations)
    return explainer.why_not(predicate, tuple(values))
