"""Location-specifier well-formedness (codes NDL301–NDL304).

NDlog's *link restriction* requires every rule body to span at most two
locations joined by a literal that carries both (the ``link`` role in the
localization rewrite).  On the source program that is
:func:`repro.ndlog.localization.link_findings` (NDL301/NDL302), whose first
finding :func:`~repro.ndlog.localization.localize_rule` refuses; on the
localized rewrite this pass adds NDL303/NDL304, properties of the
single-location rules the distributed engine actually runs.
"""

from __future__ import annotations

from typing import Iterable, Optional

from ...terms import Term
from ..ast import NDlogError, Program, Rule
from ..localization import _body_locations, link_findings, localize_rule
from .diagnostics import Diagnostic


def _check_localized_rule(
    rule: Rule, span_of: dict[str, Optional[object]]
) -> Iterable[Diagnostic]:
    """Post-localization checks over a single-location rule."""

    locations = _body_locations(rule)
    body_loc: Optional[Term] = locations[0] if locations else None
    span = span_of.get(rule.name)
    for lit in rule.negative_literals:
        loc = lit.location_term
        if loc is not None and body_loc is not None and loc != body_loc:
            yield Diagnostic(
                "NDL304",
                f"rule {rule.name} negates {lit} at {loc} but its body is "
                f"local to {body_loc}; negation cannot be tested remotely",
                rule=rule.name,
                predicate=lit.predicate,
                span=lit.span or span,
            )
    head_loc = rule.head.as_literal().location_term
    if head_loc is None or body_loc is None or head_loc == body_loc:
        return
    carried = any(
        any(arg == head_loc for arg in lit.args) for lit in rule.positive_literals
    )
    if not carried:
        yield Diagnostic(
            "NDL303",
            f"rule {rule.name} ships its head to {head_loc}, which no "
            "positive body literal carries — the destination may be "
            "unreachable from the deriving node",
            rule=rule.name,
            predicate=rule.head.predicate,
            span=rule.head.span or span,
        )


def check_locations(program: Program) -> list[Diagnostic]:
    """Run the location pass pre- and post-localization.  Rules localize
    one by one, so a rule refused above keeps no other from the
    post-localization checks; those run over the rewrite in
    :func:`~repro.ndlog.localization.localize_program`'s order (shipping
    rules first)."""

    out = [Diagnostic(*f) for rule in program.rules for f in link_findings(rule)]
    shipping: dict[str, Rule] = {}
    rewritten: list[Rule] = []
    for rule in program.rules:
        try:
            rewritten.extend(localize_rule(rule, shipping))
        except NDlogError:
            continue  # its link-restriction finding is reported above
    span_of = {r.name: r.span for r in program.rules}
    for rule in [*shipping.values(), *rewritten]:
        out.extend(_check_localized_rule(rule, span_of))
    return out
