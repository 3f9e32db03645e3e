"""Predicate dependency analysis and stratification.

NDlog evaluation (both the centralized evaluator and the NDlog→logic
translation) needs to know:

* the **predicate dependency graph** — which derived predicates depend on
  which others, and whether the dependency passes through negation or an
  aggregate — and its strongly connected components;
* a **stratification** — an assignment of predicates to strata such that
  negated / aggregated dependencies point strictly downward.  A negated or
  aggregated dependency inside a cycle (NDL201–NDL203) has no stratified
  semantics (the paper's translation to inductive definitions would be
  unsound for it): :func:`stratify` refuses it, ``fvn-lint`` reports it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .ast import Finding, Program, Rule, refuse


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
        self.adjacency: dict[str, set[str]] = {}
        for dep in self.dependencies:
            self.adjacency.setdefault(dep.head, set()).add(dep.body)

    def predicates(self) -> set[str]:
        out = set(self.program.predicates())
        for dep in self.dependencies:
            out.add(dep.head)
            out.add(dep.body)
        return out

    def edges_into(self, predicate: str) -> list[Dependency]:
        return [d for d in self.dependencies if d.head == predicate]

    def components(self) -> dict[str, frozenset[str]]:
        """The strongly connected component of every predicate on an edge
        (Kosaraju: finish order on the graph, then searches of its reverse)."""

        order: list[str] = []
        seen: set[str] = set()
        for start in self.adjacency:
            if start in seen:
                continue
            seen.add(start)
            stack: list[tuple[str, Iterator[str]]] = [(start, iter(self.adjacency[start]))]
            while stack:
                node, successors = stack[-1]
                succ = next((s for s in successors if s not in seen), None)
                if succ is None:
                    stack.pop()
                    order.append(node)
                else:
                    seen.add(succ)
                    stack.append((succ, iter(self.adjacency.get(succ, ()))))
        reverse: dict[str, list[str]] = {}
        for head, bodies in self.adjacency.items():
            for body in bodies:
                reverse.setdefault(body, []).append(head)
        component_of: dict[str, frozenset[str]] = {}
        for root in reversed(order):
            if root in component_of:
                continue
            members, frontier = {root}, [root]
            while frontier:
                for head in reverse.get(frontier.pop(), ()):
                    if head not in members and head not in component_of:
                        members.add(head)
                        frontier.append(head)
            component_of.update(dict.fromkeys(members, frozenset(members)))
        return component_of

    def recursive_predicates(self) -> set[str]:
        """Predicates involved in a dependency cycle (including self-loops)."""

        return {
            p for p, component in self.components().items()
            if len(component) > 1 or p in self.adjacency.get(p, ())
        }

    def _cycle_through(self, dep: Dependency, component: frozenset[str]) -> str:
        """The cycle the edge ``head -> body`` closes: a shortest path
        ``body -> ... -> head`` inside the component, plus the edge itself."""

        parents = {dep.body: dep.body}
        frontier = [dep.body]
        while frontier and dep.head not in parents:
            nxt: list[str] = []
            for node in frontier:
                for succ in sorted(self.adjacency.get(node, ())):
                    if succ in component and succ not in parents:
                        parents[succ] = node
                        nxt.append(succ)
            frontier = nxt
        path = [dep.head]
        while path[-1] != dep.body:
            path.append(parents[path[-1]])
        return " -> ".join([dep.head] + path[::-1])

    def stratification_findings(self) -> Iterator[Finding]:
        """Every negated (NDL201; NDL203 on the rule's own head) or
        aggregated (NDL202) dependency inside a recursive cycle."""

        component_of = self.components()
        spans = {r.name: r.span for r in self.program.rules}
        seen: set[tuple[str, str, str, bool]] = set()
        for dep in self.dependencies:
            component = component_of[dep.head]
            key = (dep.rule, dep.head, dep.body, dep.negated)
            if not dep.is_stratifying or dep.body not in component or key in seen:
                continue
            seen.add(key)
            if dep.negated and dep.head == dep.body:
                code, message = "NDL203", (
                    f"rule {dep.rule} negates its own head predicate {dep.head!r} "
                    "— the rule has no stratified semantics"
                )
            elif dep.negated:
                code, message = "NDL201", (
                    f"rule {dep.rule} negates {dep.body!r} inside the recursive cycle "
                    f"{self._cycle_through(dep, component)}; no stratification exists"
                )
            else:
                code, message = "NDL202", (
                    f"rule {dep.rule} aggregates over {dep.body!r} inside the recursive "
                    f"cycle {self._cycle_through(dep, component)}; only the distributed "
                    "engine evaluates this (stratified evaluation rejects it)"
                )
            yield code, message, dep.rule, dep.head, spans.get(dep.rule)


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
    """Compute a stratification, or refuse the program's first NDL2xx
    finding with :class:`NDlogError`.

    Uses the standard iterative algorithm: start every predicate at stratum
    0 and raise head strata to satisfy ``stratum(head) >= stratum(body)`` for
    positive dependencies and ``stratum(head) >= stratum(body) + 1`` for
    negated/aggregated dependencies, until a fixpoint — which exists once
    no such dependency lies inside a cycle.
    """

    graph = DependencyGraph(program)
    refuse(graph.stratification_findings(), "program is not stratifiable: ")
    strata: dict[str, int] = {p: 0 for p in graph.predicates()}
    changed = True
    while changed:
        changed = False
        for dep in graph.dependencies:
            required = strata[dep.body] + (1 if dep.is_stratifying else 0)
            if strata[dep.head] < required:
                strata[dep.head] = required
                changed = True
    rule_strata: dict[str, int] = {}
    for rule in program.rules:
        rule_strata[rule.name] = strata[rule.head.predicate]
    return Stratification(strata, rule_strata)
