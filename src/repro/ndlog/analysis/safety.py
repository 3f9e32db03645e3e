"""Safety / range-restriction pass (codes NDL001–NDL003).

Reimplements :meth:`repro.ndlog.ast.Rule.check_safety` as a diagnostic
producer: instead of raising on the first unsafe rule, every head variable,
negated-literal variable, and condition/assignment variable that no positive
body literal (or reachable assignment) binds is reported with its own span.
"""

from __future__ import annotations

from typing import Iterator

from ...terms import Var
from ..ast import Program, Rule
from .diagnostics import Diagnostic


def _bound_variables(rule: Rule) -> set[Var]:
    """Variables bound by positive literals plus assignments whose right
    side is already bound (iterated to a fixpoint, mirroring
    ``Rule.check_safety``)."""

    bound: set[Var] = set()
    for lit in rule.positive_literals:
        bound |= lit.variables()
    changed = True
    while changed:
        changed = False
        for assign in rule.assignments:
            if assign.variable not in bound and assign.expression.free_vars() <= bound:
                bound.add(assign.variable)
                changed = True
    return bound


def _names(variables: set[Var]) -> str:
    return ", ".join(sorted(v.name for v in variables))


def check_rule_safety(rule: Rule) -> Iterator[Diagnostic]:
    bound = _bound_variables(rule)
    unbound_head = rule.head.variables() - bound
    if unbound_head:
        yield Diagnostic(
            "NDL001",
            f"head variables {{{_names(unbound_head)}}} of {rule.head.predicate!r} "
            "are not bound by any positive body literal or assignment",
            rule=rule.name,
            predicate=rule.head.predicate,
            span=rule.head.span or rule.span,
        )
    for lit in rule.negative_literals:
        unbound = lit.variables() - bound
        if unbound:
            yield Diagnostic(
                "NDL002",
                f"variables {{{_names(unbound)}}} in negated literal {lit} are "
                "unbound — negation would range over an infinite domain",
                rule=rule.name,
                predicate=lit.predicate,
                span=lit.span or rule.span,
            )
    for cond in rule.conditions:
        unbound = cond.variables() - bound
        if unbound:
            yield Diagnostic(
                "NDL003",
                f"variables {{{_names(unbound)}}} in condition {cond} are never bound",
                rule=rule.name,
                span=cond.span or rule.span,
            )
    # assignments whose expression can never be evaluated (their inputs are
    # not bound anywhere) — the fixpoint above already excluded them
    for assign in rule.assignments:
        if assign.variable in bound:
            continue
        unbound = assign.expression.free_vars() - bound
        yield Diagnostic(
            "NDL003",
            f"assignment {assign} depends on unbound variables "
            f"{{{_names(unbound)}}}" if unbound else f"assignment {assign} is unusable",
            rule=rule.name,
            span=assign.span or rule.span,
        )


def check_safety(program: Program) -> list[Diagnostic]:
    """Run the safety pass over every rule of a program."""

    out: list[Diagnostic] = []
    for rule in program.rules:
        out.extend(check_rule_safety(rule))
    return out
