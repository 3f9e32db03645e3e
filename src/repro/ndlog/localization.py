"""Rule localization for distributed execution.

Declarative networking compiles NDlog rules into *localized* rules whose
body literals all reside at a single node; communication then happens only
when a rule's head is located at a different node than its body (the derived
tuple is shipped there).  The canonical example is rule ``r2`` of the
path-vector program (paper Section 2.2):

.. code-block:: none

    r2 path(@S,D,P,C) :- link(@S,Z,C1), path(@Z,D,P2,C2), ...

whose body spans ``@S`` and ``@Z``.  The standard rewrite (Loo et al.,
"Declarative Networking") introduces a *link-destination* relation that ships
each link tuple to its other endpoint, after which the body is entirely local
to ``@Z``:

.. code-block:: none

    r2a linkD(@Z,S,C1)  :- link(@S,Z,C1).
    r2b path(@S,D,P,C)  :- linkD(@Z,S,C1), path(@Z,D,P2,C2), ...

Only *link-restricted* rules (bodies spanning exactly two locations joined by
a link-like literal) can be localized; that is the same restriction the
declarative networking literature imposes, and all programs generated by
this repository satisfy it.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, replace
from typing import Iterator, Optional

from ..terms import Term
from .ast import BodyItem, Finding, HeadLiteral, Literal, MaterializeDecl, Program, Rule, refuse


#: Suffix appended to a relation name for its shipped-to-destination variant.
LINK_DESTINATION_SUFFIX = "_d"


@dataclass
class LocalizationResult:
    """The localized program plus bookkeeping about what was rewritten."""

    program: Program
    rewritten_rules: list[str]
    auxiliary_predicates: list[str]

    @property
    def changed(self) -> bool:
        return bool(self.rewritten_rules)


def _body_locations(rule: Rule) -> list[Term]:
    """Distinct location terms appearing in the rule's positive body literals."""

    locations: list[Term] = []
    for lit in rule.positive_literals:
        loc = lit.location_term
        if loc is not None and loc not in locations:
            locations.append(loc)
    return locations


def is_localized(rule: Rule) -> bool:
    """Is the rule body already single-location?"""

    return len(_body_locations(rule)) <= 1


def _shipment(rule: Rule, loc_a: Term, loc_b: Term) -> Optional[tuple[Literal, Term]]:
    """The positive body literal to ship, and where to: located at one of
    the two locations and carrying the other (the ``link`` role in the
    rewrite), such that every other located positive literal sits at the
    target.  ``None`` when no orientation makes the body local."""

    for source, target in ((loc_a, loc_b), (loc_b, loc_a)):
        for connecting in rule.positive_literals:
            if connecting.location_term == source and target in connecting.args:
                break
        else:
            continue
        if all(
            lit is connecting or lit.location_term in (None, target)
            for lit in rule.positive_literals
        ):
            return connecting, target
    return None


def link_findings(rule: Rule) -> Iterator[Finding]:
    """Link restriction (NDL301/NDL302): a rule body spans at most two
    locations, joined by a literal that can be shipped to make it local."""

    locations = _body_locations(rule)
    if len(locations) > 2:
        rendered = ", ".join(str(loc) for loc in locations)
        yield (
            "NDL301",
            f"rule {rule.name} body spans {len(locations)} locations ({rendered}); "
            "only link-restricted rules (at most two) are localizable",
            rule.name, rule.head.predicate, rule.span,
        )
    elif len(locations) == 2 and _shipment(rule, *locations) is None:
        loc_a, loc_b = locations
        yield (
            "NDL302",
            f"rule {rule.name} is not link-restricted: no positive body literal "
            f"connecting {loc_a} and {loc_b} can be shipped to make the body "
            "single-location",
            rule.name, rule.head.predicate, rule.span,
        )


def localize_rule(
    rule: Rule,
    aux_rules: dict[str, Rule],
    aux_sources: Optional[dict[str, tuple[str, int]]] = None,
) -> list[Rule]:
    """Localize one rule, adding any auxiliary shipping rules to ``aux_rules``.

    Returns the rewritten rule(s) (excluding auxiliary rules already present
    in ``aux_rules``).  ``aux_sources``, when given, records each auxiliary
    predicate's provenance as ``(source predicate, shipped-location index)``
    so storage declarations can be derived for the shipped variant.  Raises
    :class:`NDlogError` for rules that are not link-restricted.
    """

    if is_localized(rule):
        return [rule]
    refuse(link_findings(rule))
    shipment = _shipment(rule, *_body_locations(rule))
    assert shipment is not None  # link_findings refuses a rule without one
    connecting, target = shipment
    # interned like parsed predicate names (the distributed engine keys
    # trigger maps and tables by these generated names on the hot path)
    aux_pred = sys.intern(connecting.predicate + LINK_DESTINATION_SUFFIX)
    # Reorder arguments so the target location comes first (location 0).
    target_index = connecting.args.index(target)
    reordered = (
        (connecting.args[target_index],)
        + connecting.args[:target_index]
        + connecting.args[target_index + 1 :]
    )
    if aux_pred not in aux_rules:
        aux_head = HeadLiteral(aux_pred, reordered, location=0)
        aux_rules[aux_pred] = Rule(
            f"{rule.name}_ship_{connecting.predicate}", aux_head, (connecting,)
        )
        if aux_sources is not None:
            aux_sources[aux_pred] = (connecting.predicate, target_index)
    shipped = Literal(aux_pred, reordered, location=0, negated=False)
    new_body = tuple(shipped if item is connecting else item for item in rule.body)
    return [Rule(rule.name, rule.head, new_body)]


def localize_program(program: Program) -> LocalizationResult:
    """Localize every rule of a program.

    The returned program contains the auxiliary shipping rules followed by
    the (possibly rewritten) original rules; facts and materialize
    declarations are preserved.
    """

    aux_rules: dict[str, Rule] = {}
    aux_sources: dict[str, tuple[str, int]] = {}
    rewritten: list[Rule] = []
    rewritten_names: list[str] = []
    for rule in program.rules:
        if is_localized(rule):
            rewritten.append(rule)
            continue
        new_rules = localize_rule(rule, aux_rules, aux_sources)
        rewritten.extend(new_rules)
        rewritten_names.append(rule.name)
    localized = Program(program.name + "_localized")
    for decl in program.materialized.values():
        localized.add_materialize(decl)
    # Shipped copies inherit the source relation's storage semantics: a
    # soft-state tuple stays soft where it lands (otherwise a dropped
    # retraction would leak a *hard* remote copy forever, defeating the
    # paper's soft-state remedy), and the primary key follows the argument
    # reordering that moved the shipped-to location to the front.
    for aux_pred, (source_pred, target_index) in aux_sources.items():
        decl = program.materialized.get(source_pred)
        if decl is None:
            continue
        shipped_location = target_index + 1  # materialize keys are 1-based
        keys = tuple(
            sorted(
                1 if k == shipped_location else (k + 1 if k < shipped_location else k)
                for k in decl.keys
            )
        )
        localized.add_materialize(
            MaterializeDecl(aux_pred, decl.lifetime, decl.max_size, keys)
        )
    for rule in list(aux_rules.values()) + rewritten:
        localized.add_rule(rule)
    for fact in program.facts:
        localized.add_fact(fact)
    return LocalizationResult(
        program=localized,
        rewritten_rules=rewritten_names,
        auxiliary_predicates=sorted(aux_rules),
    )


def strip_locations(program: Program) -> Program:
    """``program`` with every location specifier dropped, so one node
    holds every row and every rule derives where it fires: the centralized
    reading that :class:`~repro.ndlog.seminaive.IncrementalEvaluator` runs
    on one node.  Rule names, materialize declarations and facts are kept.
    """

    def unlocated(item: BodyItem) -> BodyItem:
        return replace(item, location=None) if isinstance(item, Literal) else item

    stripped = Program(program.name)
    for decl in program.materialized.values():
        stripped.add_materialize(decl)
    for rule in program.rules:
        head = replace(rule.head, location=None)
        stripped.add_rule(Rule(rule.name, head, tuple(map(unlocated, rule.body)), rule.span))
    for fact in program.facts:
        stripped.add_fact(fact)
    return stripped
