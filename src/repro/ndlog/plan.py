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
* :func:`comparison_fn`, the pre-dispatched condition operators;
* the program-level plan of a distributed settle (:func:`settle_plan`):
  which rules a changed predicate triggers, the one seed literal of each
  key-scoped derive (keyed refills, scoped sweep checks, group re-folds),
  which predicates a settle may sweep and which it over-deletes — what
  the settle code generator and the executor run.  Every access path a
  settle takes is decided here, from the program text alone: nothing a
  run did (which indexes exist) steers it.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Callable, Iterable, NamedTuple, Optional

from ..terms import COMPARISON_FNS, Const, Var
from .ast import (
    Assignment,
    BodyItem,
    Condition,
    HeadLiteral,
    Literal,
    NDlogError,
    Program,
    Rule,
)
from .stratification import DependencyGraph


# ---------------------------------------------------------------------------
# Body ordering (shared with the reference interpreter)
# ---------------------------------------------------------------------------


def order_body(rule: Rule) -> list[BodyItem]:
    """Greedy safe ordering of body items.

    Positive literals come in source order; each assignment/condition/negated
    literal is placed as soon as its variables are bound.  Raises when the
    rule cannot be ordered (:meth:`Program.check` refuses such a rule first).
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


# ---------------------------------------------------------------------------
# The settle plan: what a distributed node's settle runs, decided per program
# ---------------------------------------------------------------------------


class KeySeed(NamedTuple):
    """How a key-scoped derive enters one rule: the rows of body predicate
    ``predicate`` whose arguments at ``positions`` (ascending) equal a key's
    components at ``slots`` are the only rows that can derive a head under
    that key.  ``whole``: the slots are the whole key, in order, so a key is
    its own lookup value."""

    predicate: str
    positions: tuple[int, ...]
    slots: tuple[int, ...]
    whole: bool


class ScopedDerive(NamedTuple):
    """One key-scoped derive: ``rule`` (``derive``: its position in
    :attr:`SettlePlan.derived`) derived under a set of keys — the head's
    values at ``key_positions`` — through ``seed`` (see :func:`key_seed`)."""

    rule: Rule
    derive: int
    seed: KeySeed
    key_positions: tuple[int, ...]


class ViewPlan(NamedTuple):
    """How one aggregate rule is maintained group by group.

    ``scoped`` derives the rule's plain-head variant
    (:func:`binding_rule`) under a set of group keys.  ``group_of`` maps
    each body predicate to one reader per literal reading it: the positions
    of a changed row that hold the group key every binding through that
    literal has, and the row position holding those bindings' aggregated
    value (``None`` when the literal does not bind it).  A predicate maps
    to ``None`` when some literal of it does not bind the whole group, so a
    change to it re-fires the whole rule.

    ``outranked`` is set for a single ``min`` (``">"``) or ``max``
    (``"<"``) at head position ``value_at``: ``value outranked current``
    says the group's current value beats a changed row's value, so the row
    gains or loses only bindings that cannot hold the group's value and
    cannot change the group.
    """

    scoped: ScopedDerive
    group_of: dict[str, Optional[tuple[tuple[tuple[int, ...], Optional[int]], ...]]]
    outranked: Optional[str]
    value_at: int


#: aggregate functions whose fold does not depend on the order bindings
#: arrive in.  A float ``sum``/``avg`` does: a scoped re-fold and the whole
#: firing that rebuilds a restored memo could differ in the last bit, so
#: those rules are always recomputed whole.
ORDER_FREE_AGGREGATES = frozenset(("min", "max", "count"))


@dataclass(frozen=True, eq=False)
class SettlePlan:
    """The per-program analysis behind a distributed settle.

    Rules are named by position, never by identity, so one plan serves
    every engine over an equal program (see
    :func:`~repro.ndlog.codegen.compile_settle`):

    * ``derived`` — every rule a settle derives over a delta view, each
      once, in a fixed order: the program's non-aggregate rules, then
      their negation-delta variants, then the plain-head variants of
      group-maintained aggregates.  The maps below and generated settle
      code name each by its position here.
    * ``triggers`` — body predicate → the derived positions of the
      non-aggregate rules it triggers, and ``view_triggers`` → the program
      positions of the aggregate rules it triggers, both ascending (program
      order); ``negation_triggers`` — negated predicate → the derived
      positions of its negation-delta variants.
    * ``head_rules`` — head predicate → the derived positions of its
      non-aggregate rules (keyed refills re-derive them); ``key_plans`` —
      head predicate → one :class:`ScopedDerive` per deriving rule, under
      the head table's primary key (absent when some rule has no seed).
    * ``sweep_rules`` — the *purely local* derived predicates a
      consistency sweep may repair, with their rules' derived positions;
      ``sweep_bodies`` — the body predicates whose lost rows make each
      one's check due; ``sweep_plans`` — the predicates whose check may be
      key-scoped; ``overdeleted`` — the sweepable predicates that reach
      themselves through sweepable bodies, whose rows a lost support
      removes whatever their count (see :func:`settle_plan`).
    * ``view_plans`` — aggregate rule (by program position) → its group
      plan (absent: always recomputed whole), in program order, and
      ``view_reads`` the predicates they read.
    """

    program: Program
    derived: tuple[Rule, ...]
    triggers: dict[str, tuple[int, ...]]
    view_triggers: dict[str, tuple[int, ...]]
    negation_triggers: dict[str, tuple[int, ...]]
    head_rules: dict[str, tuple[int, ...]]
    key_plans: dict[str, tuple[ScopedDerive, ...]]
    sweep_rules: dict[str, tuple[int, ...]]
    sweep_bodies: dict[str, frozenset[str]]
    sweep_plans: frozenset[str]
    overdeleted: frozenset[str]
    view_plans: dict[int, ViewPlan]
    view_reads: frozenset[str]


def capped(program: Program, predicates: Iterable[str]) -> bool:
    """Is any of ``predicates`` a size-capped table?  Its FIFO eviction
    removes rows without a delta, so no scoped check or recompute hears of
    them."""

    materialized = program.materialized
    return any(
        decl.max_size != float("inf")
        for decl in map(materialized.get, predicates)
        if decl is not None
    )


def purely_local(rule: Rule) -> bool:
    """Does every firing of ``rule`` store its head at the firing node?

    True when the head has no location (never shipped) or its location
    variable is the rule's body site variable (post-localization every
    positive body literal reads at one site).  Only such predicates can be
    judged — and repaired — from one node's tables alone.
    """

    head_location = rule.head.location
    if head_location is None:
        return True
    head_term = rule.head.plain_args()[head_location]
    body_terms = [
        lit.location_term for lit in rule.positive_literals if lit.location is not None
    ]
    return bool(body_terms) and all(term == head_term for term in body_terms)


def key_positions(program: Program, rule: Rule) -> tuple[int, ...]:
    """The head positions of the primary key of ``rule``'s head table."""

    decl = program.materialized.get(rule.head.predicate)
    if decl is not None and decl.keys:
        return tuple(k - 1 for k in decl.keys)
    return tuple(range(rule.head.arity))


def key_seed(program: Program, rule: Rule, positions: tuple[int, ...]) -> Optional[KeySeed]:
    """The body literal through which ``rule`` is derived for a handful of
    head keys — the head's values at ``positions`` — instead of for the
    whole node, or ``None`` when no literal can seed it.

    A positive literal qualifies when it carries key variables (beyond the
    location variable, which every local row shares): its rows matching a
    key there are a superset of the rows any binding under that key can
    use, so feeding them as the delta of an ordinary derive enumerates
    every such binding.  Key attributes computed by assignments
    (``P=f_concatPath(S,P2)``) bind nothing and are filtered after the
    derive.  Of the literals binding the most key attributes, the seed is
    the first whose lookup positions are its table's primary key (its
    lookups read the row map, and no index is built or kept for it), else
    the first in body order: a function of the program alone, as the order
    a scoped derive emits its rows in must be.
    """

    head = rule.head
    args = head.plain_args()
    slot_of: dict[Var, int] = {}
    for slot, position in enumerate(positions):
        term = args[position]
        if isinstance(term, Var):
            slot_of.setdefault(term, slot)
    location = args[head.location] if head.location is not None else None
    ranked: list[tuple[int, KeySeed]] = []
    for literal in rule.positive_literals:
        bound: dict[Var, int] = {}
        for position, arg in enumerate(literal.args):
            if isinstance(arg, Var) and arg in slot_of:
                bound.setdefault(arg, position)
        selective = sum(1 for var in bound if var != location)
        if selective:
            pairs = sorted((position, slot_of[var]) for var, position in bound.items())
            ranked.append(
                (
                    selective,
                    KeySeed(
                        literal.predicate,
                        tuple(position for position, _ in pairs),
                        tuple(slot for _, slot in pairs),
                        [slot for _, slot in pairs] == list(range(len(positions))),
                    ),
                )
            )
    best = max((selective for selective, _ in ranked), default=0)
    seeds = [seed for selective, seed in ranked if selective == best]
    for seed in seeds:
        decl = program.materialized.get(seed.predicate)
        if decl is not None and seed.positions == tuple(k - 1 for k in decl.keys):
            return seed
    return seeds[0] if seeds else None


def view_plan(program: Program, rule: Rule, derive: int) -> Optional[ViewPlan]:
    """How aggregate ``rule`` can be re-folded group by group, its
    plain-head variant at ``derive`` in the derived rules, or ``None`` when
    it is always recomputed whole: a group-by argument that is not a
    variable, a fold that depends on binding order
    (:data:`ORDER_FREE_AGGREGATES`), a size-capped body table, or no seed
    binding a group variable beyond the location."""

    head = rule.head
    group_positions = tuple(head.group_by_indices)
    group_vars = [head.args[position] for position in group_positions]
    if (
        not all(isinstance(var, Var) for var in group_vars)
        or any(agg.function not in ORDER_FREE_AGGREGATES for _, agg in head.aggregates)
        or capped(program, rule.body_predicates())
    ):
        return None
    plain = binding_rule(rule)
    seed = key_seed(program, plain, group_positions)
    if seed is None:
        return None
    (value_at, aggregate), *more = head.aggregates
    outranked = None
    if not more and aggregate.function in ("min", "max"):
        outranked = ">" if aggregate.function == "min" else "<"
    group_of: dict[str, Optional[tuple]] = {}
    for literal in rule.body_literals:
        position_of: dict[Var, int] = {}
        for position, arg in enumerate(literal.args):
            if isinstance(arg, Var):
                position_of.setdefault(arg, position)
        readers = group_of.get(literal.predicate, ())
        if readers is None:
            continue
        if all(var in position_of for var in group_vars):
            positions = tuple(position_of[var] for var in group_vars)
            reader = (positions, position_of.get(aggregate.variable))
            group_of[literal.predicate] = readers + (reader,)
        else:
            group_of[literal.predicate] = None
    return ViewPlan(
        ScopedDerive(plain, derive, seed, group_positions), group_of, outranked, value_at
    )


def settle_plan(program: Program) -> SettlePlan:
    """The :class:`SettlePlan` of a (localized) program."""

    rules = program.rules
    plain = [r for r, rule in enumerate(rules) if not rule.head.has_aggregate]
    #: program position → derived position, of the non-aggregate rules
    derive_of = {r: i for i, r in enumerate(plain)}
    derived = [rules[r] for r in plain]
    negation_triggers: dict[str, list[int]] = {}
    for r in plain:
        for predicate, variant in negation_delta_rules(rules[r]):
            negation_triggers.setdefault(predicate, []).append(len(derived))
            derived.append(variant)
    triggers: dict[str, list[int]] = {}
    view_triggers: dict[str, list[int]] = {}
    view_plans: dict[int, ViewPlan] = {}
    view_reads: set[str] = set()
    for r, rule in enumerate(rules):
        for predicate in dict.fromkeys(rule.body_predicates()):
            if rule.head.has_aggregate:
                view_triggers.setdefault(predicate, []).append(r)
            else:
                triggers.setdefault(predicate, []).append(derive_of[r])
        if rule.head.has_aggregate:
            plan = view_plan(program, rule, len(derived))
            if plan is not None:
                view_plans[r] = plan
                view_reads |= plan.group_of.keys()
                derived.append(plan.scoped.rule)
    head_rules: dict[str, list[int]] = {}
    for r in plain:
        head_rules.setdefault(rules[r].head.predicate, []).append(derive_of[r])
    aggregate_heads = {rule.head.predicate for rule in rules if rule.head.has_aggregate}
    key_plans: dict[str, tuple[ScopedDerive, ...]] = {}
    sweep_rules: dict[str, tuple[int, ...]] = {}
    for predicate, positions in head_rules.items():
        scoped = []
        for i in positions:
            keys = key_positions(program, derived[i])
            seed = key_seed(program, derived[i], keys)
            if seed is None:
                break
            scoped.append(ScopedDerive(derived[i], i, seed, keys))
        else:
            key_plans[predicate] = tuple(scoped)
        if predicate in aggregate_heads:
            continue  # view-maintained (recompute-and-diff) predicates
        if all(purely_local(derived[i]) for i in positions):
            sweep_rules[predicate] = tuple(positions)
    sweep_bodies = {
        predicate: frozenset(
            body for i in positions for body in derived[i].body_predicates()
        )
        for predicate, positions in sweep_rules.items()
    }
    # rows of a predicate that reaches itself through sweepable bodies can
    # count each other alive around a cycle: they are over-deleted on any
    # lost support, and a lost row makes its own check due, whose repair
    # re-asserts what is still derivable (insertion rounds re-derive the
    # rest: DRed)
    sweepable = Program(
        program.name, [derived[i] for positions in sweep_rules.values() for i in positions]
    )
    overdeleted = frozenset(DependencyGraph(sweepable).recursive_predicates())
    for predicate in overdeleted:
        sweep_bodies[predicate] |= {predicate}
    # FIFO eviction removes rows without a deletion delta, so no key is ever
    # touched for it: size-capped tables stay on the full sweep
    sweep_plans = frozenset(
        predicate
        for predicate, bodies in sweep_bodies.items()
        if predicate in key_plans and not capped(program, bodies | {predicate})
    )
    return SettlePlan(
        program=program,
        derived=tuple(derived),
        triggers={p: tuple(positions) for p, positions in triggers.items()},
        view_triggers={p: tuple(positions) for p, positions in view_triggers.items()},
        negation_triggers={p: tuple(positions) for p, positions in negation_triggers.items()},
        head_rules={p: tuple(positions) for p, positions in head_rules.items()},
        key_plans=key_plans,
        sweep_rules=sweep_rules,
        sweep_bodies=sweep_bodies,
        sweep_plans=sweep_plans,
        overdeleted=overdeleted,
        view_plans=view_plans,
        view_reads=frozenset(view_reads),
    )
