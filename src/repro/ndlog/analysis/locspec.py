"""Location-specifier well-formedness (codes NDL301–NDL304).

NDlog's *link restriction* requires every rule body to span at most two
locations joined by a literal that carries both (the ``link`` role in the
localization rewrite).  This pass checks that statically, both on the
source program (NDL301/NDL302, mirroring the conditions under which
:func:`repro.ndlog.localization.localize_rule` raises) and on the localized
rewrite (NDL303/NDL304, properties of the single-location rules the
distributed engine actually runs).
"""

from __future__ import annotations

from typing import Iterable, Optional

from ...terms import Term
from ..ast import NDlogError, Program, Rule
from ..localization import _body_locations, _find_connecting_literal, localize_program
from .diagnostics import Diagnostic


def _unsafe(rule: Rule) -> bool:
    try:
        rule.check_safety()
    except NDlogError:
        return True
    return False


def _has_localizing_orientation(rule: Rule, loc_a: Term, loc_b: Term) -> bool:
    """Mirror of the search in :func:`localize_rule`: some connecting
    literal can be shipped so that the remaining body is single-location."""

    for source, target in ((loc_a, loc_b), (loc_b, loc_a)):
        connecting = _find_connecting_literal(rule, source, target)
        if connecting is None:
            continue
        others = [
            lit
            for lit in rule.positive_literals
            if lit is not connecting and lit.location_term not in (None, target)
        ]
        if not others:
            return True
    return False


def _check_source_rule(rule: Rule) -> Iterable[Diagnostic]:
    locations = _body_locations(rule)
    if len(locations) > 2:
        rendered = ", ".join(str(loc) for loc in locations)
        yield Diagnostic(
            "NDL301",
            f"rule {rule.name} body spans {len(locations)} locations "
            f"({rendered}); only link-restricted rules (at most two) are "
            "localizable",
            rule=rule.name,
            predicate=rule.head.predicate,
            span=rule.span,
        )
        return
    if len(locations) == 2:
        loc_a, loc_b = locations
        if not _has_localizing_orientation(rule, loc_a, loc_b):
            yield Diagnostic(
                "NDL302",
                f"rule {rule.name} is not link-restricted: no positive body "
                f"literal connecting {loc_a} and {loc_b} can be shipped to "
                "make the body single-location",
                rule=rule.name,
                predicate=rule.head.predicate,
                span=rule.span,
            )


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
    """Run the location pass pre- and post-localization."""

    out: list[Diagnostic] = []
    for rule in program.rules:
        out.extend(_check_source_rule(rule))
    if any(d.is_error for d in out):
        # localization would raise on the same rules; the source diagnostics
        # already carry the better message
        return out
    if any(_unsafe(rule) for rule in program.rules):
        # localize_program re-runs check_safety and would raise; the safety
        # pass owns those reports, so skip the post-localization stage
        return out
    span_of = {r.name: r.span for r in program.rules}
    try:
        localized = localize_program(program).program
    except NDlogError as exc:  # pragma: no cover - source checks mirror it
        out.append(Diagnostic("NDL302", f"localization failed: {exc}"))
        return out
    for rule in localized.rules:
        out.extend(_check_localized_rule(rule, span_of))
    return out
