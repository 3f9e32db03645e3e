"""Predicate dependency analysis and stratification.

NDlog evaluation (both the centralized evaluator and the NDlog→logic
translation) needs to know:

* the **predicate dependency graph** — which derived predicates depend on
  which others, and whether the dependency passes through negation or an
  aggregate;
* a **stratification** — an assignment of predicates to strata such that
  negated / aggregated dependencies point strictly downward.  Programs with
  negation or aggregation inside a recursive cycle are rejected (they have no
  stratified semantics, and the paper's translation to inductive definitions
  would be unsound for them).
"""

from __future__ import annotations

from dataclasses import dataclass

from .ast import NDlogError, Program, Rule


@dataclass(frozen=True)
class Dependency:
    """An edge ``head depends on body`` in the predicate dependency graph."""

    head: str
    body: str
    negated: bool = False
    aggregated: bool = False
    rule: str = ""

    @property
    def is_stratifying(self) -> bool:
        """Must ``body`` live in a strictly lower stratum than ``head``?"""

        return self.negated or self.aggregated


class DependencyGraph:
    """The predicate dependency graph of an NDlog program."""

    def __init__(self, program: Program) -> None:
        self.program = program
        self.dependencies: list[Dependency] = []
        for rule in program.rules:
            aggregated = rule.head.has_aggregate
            for lit in rule.body_literals:
                self.dependencies.append(
                    Dependency(
                        head=rule.head.predicate,
                        body=lit.predicate,
                        negated=lit.negated,
                        aggregated=aggregated,
                        rule=rule.name,
                    )
                )

    def predicates(self) -> set[str]:
        out = set(self.program.predicates())
        for dep in self.dependencies:
            out.add(dep.head)
            out.add(dep.body)
        return out

    def edges_into(self, predicate: str) -> list[Dependency]:
        return [d for d in self.dependencies if d.head == predicate]

    def recursive_predicates(self) -> set[str]:
        """Predicates involved in a dependency cycle (including self-loops)."""

        adjacency: dict[str, set[str]] = {}
        for dep in self.dependencies:
            adjacency.setdefault(dep.head, set()).add(dep.body)
        reachable_cache: dict[str, set[str]] = {}

        def reachable(start: str) -> set[str]:
            if start in reachable_cache:
                return reachable_cache[start]
            seen: set[str] = set()
            stack = list(adjacency.get(start, ()))
            while stack:
                node = stack.pop()
                if node in seen:
                    continue
                seen.add(node)
                stack.extend(adjacency.get(node, ()))
            reachable_cache[start] = seen
            return seen

        return {p for p in adjacency if p in reachable(p)}


def needs_recompute(rule: Rule) -> bool:
    """Must a rule be recomputed (and diffed) rather than delta-maintained?

    Aggregate heads fold whole groups, so a deletion inside a group cannot
    be applied as a per-binding count decrement — the group is recomputed
    over the post-deletion body and the old/new outputs are diffed
    (:func:`repro.ndlog.aggregates.diff_rows` centrally; the distributed
    executor re-folds and compares only the changed groups).  Non-aggregate rules —
    including rules with negated literals, which get compiled
    negation-delta variants — are maintained incrementally by derivation
    counting.
    """

    return rule.head.has_aggregate


@dataclass
class Stratification:
    """Predicate → stratum assignment plus rule evaluation order."""

    strata: dict[str, int]
    rule_strata: dict[str, int]

    @property
    def stratum_count(self) -> int:
        return (max(self.strata.values()) + 1) if self.strata else 1

    def rules_in_stratum(self, program: Program, stratum: int) -> list[Rule]:
        return [r for r in program.rules if self.rule_strata.get(r.name, 0) == stratum]


def stratify(program: Program) -> Stratification:
    """Compute a stratification, or raise :class:`NDlogError`.

    Uses the standard iterative algorithm: start every predicate at stratum
    0 and raise head strata to satisfy ``stratum(head) >= stratum(body)`` for
    positive dependencies and ``stratum(head) >= stratum(body) + 1`` for
    negated/aggregated dependencies, until a fixpoint.  If a stratum ever
    exceeds the number of predicates, the program is not stratifiable.
    """

    graph = DependencyGraph(program)
    predicates = graph.predicates()
    strata: dict[str, int] = {p: 0 for p in predicates}
    limit = max(len(predicates), 1)
    changed = True
    while changed:
        changed = False
        for dep in graph.dependencies:
            required = strata[dep.body] + (1 if dep.is_stratifying else 0)
            if strata[dep.head] < required:
                strata[dep.head] = required
                if strata[dep.head] > limit:
                    raise NDlogError(
                        "program is not stratifiable: negation or aggregation "
                        f"in a recursive cycle through {dep.head!r}"
                    )
                changed = True
    rule_strata: dict[str, int] = {}
    for rule in program.rules:
        rule_strata[rule.name] = strata[rule.head.predicate]
    return Stratification(strata, rule_strata)
