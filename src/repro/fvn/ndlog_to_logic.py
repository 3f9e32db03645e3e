"""Compiling NDlog programs into logical specifications (arc 4).

Paper Section 3.1: the set of NDlog rules defining a predicate is equivalent
to an inductively defined predicate in PVS — each rule becomes one clause of
the inductive definition, with rule body variables not appearing in the head
becoming clause existentials.  This module implements that translation plus
the treatment of head aggregates:

* a non-aggregate rule ``p(args) :- body`` contributes the clause
  ``EXISTS locals: body``;
* an aggregate rule such as ``bestPathCost(@S,D,min<C>) :- path(@S,D,P,C)``
  is captured by *axioms* describing the aggregate's defining properties —
  for ``min``: a **lower-bound** axiom (the aggregate value is ⩽ every
  group member) and a **witness** axiom (the value is attained by some
  member).  These are exactly the facts the ``bestPathStrong`` proof needs.

The output is a :class:`~repro.logic.theory.Theory` ready for the prover,
mirroring what reference [22] (DNV) generates for PVS.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from ..logic.formulas import (
    Atom,
    Comparison,
    Formula,
    conj,
    eq,
    exists,
    forall,
    ge,
    implies,
    le,
)
from ..logic.inductive import Clause, InductiveDefinition
from ..logic.theory import Theory
from ..ndlog.ast import Assignment, Condition, Literal, NDlogError, Program, Rule
from ..terms import Var


def literal_to_atom(literal: Literal) -> Formula:
    """A body literal as an atom (location specifiers are dropped — the
    logical semantics is location-agnostic, as in the paper's examples)."""

    atom = Atom(literal.predicate, tuple(literal.args))
    if literal.negated:
        from ..logic.formulas import Not

        return Not(atom)
    return atom


def body_item_to_formula(item) -> Formula:
    if isinstance(item, Literal):
        return literal_to_atom(item)
    if isinstance(item, Assignment):
        return eq(item.variable, item.expression)
    if isinstance(item, Condition):
        return Comparison(item.op, item.left, item.right)
    raise NDlogError(f"cannot translate body item {item!r}")


def rule_to_clause(rule: Rule, head_params: Sequence[Var]) -> Clause:
    """One NDlog rule as a clause of its head predicate's inductive definition.

    The clause body equates the canonical head parameters with the rule's
    head argument expressions and conjoins the translated body items; rule
    variables that are not head parameters become clause existentials.
    """

    body_parts: list[Formula] = []
    head_args = rule.head.plain_args()
    for param, arg in zip(head_params, head_args):
        if isinstance(arg, Var) and arg == param:
            continue
        body_parts.append(eq(param, arg))
    for item in rule.body:
        body_parts.append(body_item_to_formula(item))
    body = conj(*body_parts)
    local_vars = tuple(
        v
        for v in sorted(body.free_vars(), key=lambda x: x.name)
        if v not in tuple(head_params)
    )
    return Clause(local_vars, body, name=rule.name)


def _canonical_params(rules: list[Rule]) -> tuple[Var, ...]:
    """Canonical parameter variables for a predicate's definition.

    Prefer the head argument names of the first rule where they are plain,
    distinct variables; otherwise generate ``X1..Xn``.
    """

    first = rules[0]
    args = first.head.plain_args()
    names: list[Var] = []
    used: set[str] = set()
    for index, arg in enumerate(args):
        if isinstance(arg, Var) and arg.name not in used:
            names.append(arg)
            used.add(arg.name)
        else:
            fresh = Var(f"X{index + 1}")
            while fresh.name in used:
                fresh = Var(fresh.name + "_")
            names.append(fresh)
            used.add(fresh.name)
    return tuple(names)


@dataclass
class AggregateAxioms:
    """The generated axioms for one aggregate rule."""

    predicate: str
    lower_bound: Optional[Formula]
    upper_bound: Optional[Formula]
    witness: Formula
    membership: Formula


def aggregate_rule_axioms(rule: Rule) -> AggregateAxioms:
    """Axiomatize an aggregate rule (``min``/``max``/``count`` heads).

    For ``agg(@G.., min<V>) :- body``:

    * lower bound:  ``agg(G.., V) ∧ body[V→V2] ⇒ V ≤ V2``
    * witness:      ``agg(G.., V) ⇒ ∃ locals: body``
    * membership:   ``body ⇒ ∃ V: agg(G.., V)``  (the group is represented)

    ``max`` flips the bound; ``count``/``sum``/``avg`` only get witness and
    membership (their numeric value is not axiomatized — sufficient for the
    properties in this reproduction, and easy to extend).
    """

    aggs = rule.head.aggregates
    if len(aggs) != 1:
        raise NDlogError(
            f"rule {rule.name}: exactly one aggregate per head is supported "
            f"({len(aggs)} found)"
        )
    agg_index, aggregate = aggs[0]
    head_args = list(rule.head.plain_args())
    agg_var = aggregate.variable
    group_args = [a for i, a in enumerate(head_args) if i != agg_index]

    body_formula = conj(*(body_item_to_formula(item) for item in rule.body))
    body_vars = sorted(body_formula.free_vars(), key=lambda v: v.name)
    # Group variables keep the head's argument order so generated axioms and
    # interactive proof scripts agree on quantifier positions.
    group_vars: list[Var] = []
    for arg in group_args:
        for v in arg.free_vars():
            if v not in group_vars:
                group_vars.append(v)
    local_vars = [v for v in body_vars if v not in group_vars and v != agg_var]

    head_atom = Atom(rule.head.predicate, tuple(head_args))

    # lower / upper bound over a renamed copy of the body
    rename = {agg_var: Var(agg_var.name + "2")}
    for v in local_vars:
        rename[v] = Var(v.name + "2")
    renamed_body = body_formula.substitute(rename)
    renamed_locals = [rename[v] for v in local_vars]

    lower_bound: Optional[Formula] = None
    upper_bound: Optional[Formula] = None
    quantified = tuple(group_vars) + (agg_var, rename[agg_var]) + tuple(renamed_locals)
    if aggregate.function == "min":
        lower_bound = forall(
            quantified,
            implies(conj(head_atom, renamed_body), le(agg_var, rename[agg_var])),
        )
    elif aggregate.function == "max":
        upper_bound = forall(
            quantified,
            implies(conj(head_atom, renamed_body), ge(agg_var, rename[agg_var])),
        )

    witness = forall(
        tuple(group_vars) + (agg_var,),
        implies(head_atom, exists(tuple(local_vars), body_formula) if local_vars else body_formula),
    )
    membership = forall(
        tuple(group_vars) + (agg_var,) + tuple(local_vars),
        implies(
            body_formula,
            exists((Var(agg_var.name + "_best"),), Atom(
                rule.head.predicate,
                tuple(
                    Var(agg_var.name + "_best") if i == agg_index else a
                    for i, a in enumerate(head_args)
                ),
            )),
        ),
    )
    return AggregateAxioms(
        predicate=rule.head.predicate,
        lower_bound=lower_bound,
        upper_bound=upper_bound,
        witness=witness,
        membership=membership,
    )


def program_to_theory(program: Program, *, name: Optional[str] = None) -> Theory:
    """Compile an NDlog program into a theory (arc 4 of Figure 1).

    Derived predicates defined only by non-aggregate rules become inductive
    definitions; aggregate-defined predicates contribute aggregate axioms.
    Base (EDB) predicates stay uninterpreted, exactly as in the paper's PVS
    encoding where ``link`` is an uninterpreted relation.
    """

    program.check()
    theory = Theory(name or f"{program.name}_theory")
    for predicate in sorted(program.derived_predicates()):
        rules = program.rules_for(predicate)
        aggregate_rules = [r for r in rules if r.head.has_aggregate]
        plain_rules = [r for r in rules if not r.head.has_aggregate]
        if aggregate_rules and plain_rules:
            raise NDlogError(
                f"predicate {predicate!r} mixes aggregate and non-aggregate rules"
            )
        if aggregate_rules:
            for rule in aggregate_rules:
                axioms = aggregate_rule_axioms(rule)
                if axioms.lower_bound is not None:
                    theory.axiom(f"{predicate}_{rule.name}_lower_bound", axioms.lower_bound)
                if axioms.upper_bound is not None:
                    theory.axiom(f"{predicate}_{rule.name}_upper_bound", axioms.upper_bound)
                theory.axiom(f"{predicate}_{rule.name}_witness", axioms.witness)
                theory.axiom(f"{predicate}_{rule.name}_membership", axioms.membership)
            continue
        params = _canonical_params(plain_rules)
        clauses = tuple(rule_to_clause(rule, params) for rule in plain_rules)
        theory.define(
            InductiveDefinition(
                predicate=predicate,
                params=params,
                clauses=clauses,
                doc=f"Generated from NDlog rules {', '.join(r.name for r in plain_rules)}.",
            )
        )
    return theory
