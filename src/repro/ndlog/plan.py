"""Rule plans: the per-rule analysis the code generator lowers.

Every rule runs as generated Python source (:mod:`repro.ndlog.codegen`).
This module holds what is decided about a rule before any source is
emitted, once per program, so neither the generator nor the reference
interpreter (:mod:`repro.ndlog.reference`) re-derives it:

* the body order (:func:`order_body`), shared by both;
* the join layout (:func:`rule_layout`): every variable gets a **slot**,
  each positive literal argument becomes a *store* (bind ``row[pos]``), a
  *check* (compare ``row[pos]`` against a slot or constant) or an
  *eval-check* (compare against a term over bound slots), the argument
  positions an index probe can use are fixed statically, and a literal
  argument unevaluable at match time marks the plan **dead**;
* the negation-delta variants retraction fires (:func:`negation_delta_rules`);
* :func:`comparison_fn`, the pre-dispatched condition operators.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Callable

from ..terms import COMPARISON_FNS, Const, Var
from .ast import (
    Assignment,
    BodyItem,
    Condition,
    HeadLiteral,
    Literal,
    NDlogError,
    Rule,
)


# ---------------------------------------------------------------------------
# Body ordering (shared with the reference interpreter)
# ---------------------------------------------------------------------------


def order_body(rule: Rule) -> list[BodyItem]:
    """Greedy safe ordering of body items.

    Positive literals come in source order; each assignment/condition/negated
    literal is placed as soon as its variables are bound.  Raises when the
    rule cannot be ordered (should have been caught by ``check_safety``).
    """

    pending: list[BodyItem] = list(rule.body)
    ordered: list[BodyItem] = []
    bound: set[Var] = set()
    while pending:
        progressed = False
        for item in list(pending):
            if isinstance(item, Literal) and not item.negated:
                ordered.append(item)
                pending.remove(item)
                bound |= item.variables()
                progressed = True
                break
            if isinstance(item, Assignment) and item.expression.free_vars() <= bound:
                ordered.append(item)
                pending.remove(item)
                bound.add(item.variable)
                progressed = True
                break
            if isinstance(item, (Condition,)) and item.variables() <= bound:
                ordered.append(item)
                pending.remove(item)
                progressed = True
                break
            if isinstance(item, Literal) and item.negated and item.variables() <= bound:
                ordered.append(item)
                pending.remove(item)
                progressed = True
                break
        if not progressed:
            raise NDlogError(f"rule {rule.name}: cannot order body items safely")
    return ordered


# ---------------------------------------------------------------------------
# Pre-dispatched comparisons
# ---------------------------------------------------------------------------


def comparison_fn(op: str) -> Callable[[object, object], bool]:
    """The pre-dispatched callable for a condition operator: the shared
    kernel's :data:`~repro.terms.COMPARISON_FNS` entry, so an unordered
    operand pair raises :class:`~repro.terms.EvaluationError` naming both
    operand types.
    """

    fn = COMPARISON_FNS.get(op)
    if fn is None:
        raise NDlogError(f"unknown comparison operator {op!r}")
    return fn


# Row-op kinds of a positive literal's layout (see :func:`rule_layout`).
_OP_STORE = 0  # write row[pos] into a slot
_OP_CONST = 1  # reject unless row[pos] == constant
_OP_SLOT = 2  # reject unless row[pos] == env[slot]
_OP_EVAL = 3  # reject unless row[pos] == the value of a term over bound slots


#: Suffix naming the synthetic delta predicate a negated literal is matched
#: against in its rule's negation-delta variant.
NEGATION_DELTA_SUFFIX = "~negdelta"


def negation_delta_rules(rule: Rule) -> tuple[tuple[str, Rule], ...]:
    """Delta variants of a rule for changes of its **negated** predicates.

    Incremental retraction needs to react when a negated body predicate
    changes: inserting ``q(c)`` retracts every derivation whose body relied
    on ``!q(c)``, and deleting ``q(c)`` enables the derivations it was
    blocking.  For each negated literal this builds a variant rule where
    that literal becomes a *positive* literal over a synthetic predicate
    (``q~negdelta``), appended after the rest of the body so all its
    variables are already bound.  Firing the variant with a delta view
    ``{q~negdelta: changed_rows}`` enumerates exactly the bindings whose
    negated literal grounds to a changed ``q`` tuple — the evaluators
    dispatch those firings as retractions (for ``q`` insertions) or
    derivations (for ``q`` deletions).

    Returns ``(negated_predicate, variant_rule)`` pairs; aggregate-headed
    rules are recomputed wholesale and get no variants.
    """

    if rule.head.has_aggregate:
        return ()
    variants: list[tuple[str, Rule]] = []
    for index, item in enumerate(rule.body):
        if not isinstance(item, Literal) or not item.negated:
            continue
        synthetic = sys.intern(item.predicate + NEGATION_DELTA_SUFFIX)
        # placed last: safety guarantees all its variables are bound by the
        # rest of the body, so the delta probe uses every argument position
        positive = Literal(synthetic, item.args, location=None, negated=False)
        body = rule.body[:index] + rule.body[index + 1 :] + (positive,)
        variants.append(
            (item.predicate, Rule(f"{rule.name}~negdelta{index}", rule.head, body))
        )
    return tuple(variants)


def binding_rule(rule: Rule) -> Rule:
    """The plain-head variant of an aggregate rule.

    Its head is the aggregate head with each ``min<C>`` replaced by its
    variable, so an ordinary ``derive`` of it yields one raw head row per
    body binding — the rows :func:`~repro.ndlog.aggregates.aggregate_rows`
    folds.  Deriving it over a delta enumerates only the bindings that
    delta reaches, which is how an executor re-folds a few groups without
    re-firing the whole rule.  The variant is an ordinary rule, compiled
    once by whichever rule tier runs it.
    """

    head = rule.head
    plain = HeadLiteral(head.predicate, head.plain_args(), head.location)
    return Rule(f"{rule.name}~bindings", plain, rule.body)


@dataclass(frozen=True, slots=True)
class RuleLayout:
    """The structural join plan of one rule.

    Produced by :func:`rule_layout` and lowered by the code generator
    (:mod:`repro.ndlog.codegen`): slot assignment, body order,
    probe-position selection, and check placement are decided here, once.

    ``specs`` is one tuple per ordered body item:

    * ``("literal", predicate, arity, sid, probe_positions, probe_getters,
      pre_checks, stores, post_checks)`` — a positive literal.  Checks and
      stores are ``(_OP_* , position, payload)`` triples; ``_OP_EVAL``
      payloads are the raw :class:`~repro.terms.Term` (the generator
      lowers them to expressions).  ``probe_getters`` pairs ``(slot, const)`` per
      probe position.
    * ``("negation", predicate, arg_terms)``
    * ``("assignment", slot, expression_term, fresh)``
    * ``("condition", op, left_term, right_term)``
    """

    rule: Rule
    specs: tuple[tuple, ...]
    slots: dict[Var, int]
    delta_candidates: tuple[tuple[int, str], ...]
    dead: bool

    def unsafe_head_variables(self) -> list[str]:
        return sorted(
            v.name for v in self.rule.head.variables() if v not in self.slots
        )


def rule_layout(rule: Rule) -> RuleLayout:
    """Compute the join-plan structure of ``rule``."""

    ordered = order_body(rule)
    slots: dict[Var, int] = {}
    bound: set[Var] = set()
    specs: list[tuple] = []
    delta_candidates: list[tuple[int, str]] = []
    dead = False
    sid = 0
    for item in ordered:
        if isinstance(item, Literal) and not item.negated:
            pre_checks: list[tuple] = []
            stores: list[tuple] = []
            post_checks: list[tuple] = []
            probe_positions: list[int] = []
            probe_getters: list[tuple] = []
            literal_bound: set[Var] = set()
            for pos, arg in enumerate(item.args):
                if isinstance(arg, Var):
                    if arg in bound:
                        slot = slots[arg]
                        if arg in literal_bound:
                            # duplicate occurrence bound earlier in this same
                            # literal: must be checked after the store runs
                            post_checks.append((_OP_SLOT, pos, slot))
                        else:
                            pre_checks.append((_OP_SLOT, pos, slot))
                            probe_positions.append(pos)
                            probe_getters.append((slot, None))
                    else:
                        slot = slots.setdefault(arg, len(slots))
                        bound.add(arg)
                        literal_bound.add(arg)
                        stores.append((_OP_STORE, pos, slot))
                elif isinstance(arg, Const):
                    pre_checks.append((_OP_CONST, pos, arg.value))
                    probe_positions.append(pos)
                    probe_getters.append((None, arg.value))
                else:
                    if arg.free_vars() <= bound:
                        post_checks.append((_OP_EVAL, pos, arg))
                    else:
                        # the reference interpreter rejects every row here
                        # (the term is unevaluable at match time), so the
                        # rule derives nothing — a dead plan
                        dead = True
            specs.append(
                (
                    "literal",
                    item.predicate,
                    item.arity,
                    sid,
                    tuple(probe_positions),
                    tuple(probe_getters),
                    tuple(pre_checks),
                    tuple(stores),
                    tuple(post_checks),
                )
            )
            delta_candidates.append((sid, item.predicate))
            sid += 1
        elif isinstance(item, Literal):
            specs.append(("negation", item.predicate, tuple(item.args)))
        elif isinstance(item, Assignment):
            fresh = item.variable not in bound
            slot = slots.setdefault(item.variable, len(slots))
            bound.add(item.variable)
            specs.append(("assignment", slot, item.expression, fresh))
        elif isinstance(item, Condition):
            specs.append(("condition", item.op, item.left, item.right))
        else:
            raise NDlogError(f"unsupported body item {item!r}")
    return RuleLayout(
        rule, tuple(specs), slots, tuple(delta_candidates), dead
    )
