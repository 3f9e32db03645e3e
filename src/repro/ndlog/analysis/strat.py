"""Stratification diagnostics (codes NDL201–NDL203).

:func:`repro.ndlog.stratification.stratify` rejects unstratifiable programs
with a one-line runtime error naming a single predicate.  This pass finds
the actual witnesses: it computes the strongly connected components of the
dependency graph and reports every stratifying edge (negated or aggregated
dependency) that stays inside a component, rendering the cycle it closes.

Self-negation (``p :- ..., !p ...``) gets its own code (NDL203) because it
is almost always a typo rather than an intended fixpoint.  Negation through
a longer cycle is NDL201 (an error: no evaluator in this repository gives
it a semantics).  Aggregation through a cycle is NDL202 and only a
*warning*: the distributed engine evaluates monotonic aggregates through
recursion — the generated policy path-vector program depends on
exactly this — even though stratified centralized evaluation rejects it.
"""

from __future__ import annotations

from ..ast import Program
from ..stratification import Dependency, DependencyGraph
from .diagnostics import Diagnostic


def _strongly_connected_components(
    nodes: set[str], adjacency: dict[str, set[str]]
) -> list[set[str]]:
    """Tarjan's algorithm, iterative (programs are small but recursion limits
    are cheap to avoid)."""

    index: dict[str, int] = {}
    lowlink: dict[str, int] = {}
    on_stack: set[str] = set()
    stack: list[str] = []
    components: list[set[str]] = []
    counter = 0

    for start in sorted(nodes):
        if start in index:
            continue
        work = [(start, iter(sorted(adjacency.get(start, ()))))]
        index[start] = lowlink[start] = counter
        counter += 1
        stack.append(start)
        on_stack.add(start)
        while work:
            node, successors = work[-1]
            advanced = False
            for succ in successors:
                if succ not in index:
                    index[succ] = lowlink[succ] = counter
                    counter += 1
                    stack.append(succ)
                    on_stack.add(succ)
                    work.append((succ, iter(sorted(adjacency.get(succ, ())))))
                    advanced = True
                    break
                if succ in on_stack:
                    lowlink[node] = min(lowlink[node], index[succ])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
            if lowlink[node] == index[node]:
                component: set[str] = set()
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.add(member)
                    if member == node:
                        break
                components.append(component)
    return components


def _cycle_through(
    dep: Dependency, adjacency: dict[str, set[str]], component: set[str]
) -> list[str]:
    """Render the cycle the edge ``head -> body`` closes: a shortest path
    ``body -> ... -> head`` inside the component, plus the edge itself."""

    if dep.head == dep.body:
        return [dep.head, dep.head]
    frontier = [dep.body]
    parents: dict[str, str] = {dep.body: dep.body}
    while frontier and dep.head not in parents:
        nxt: list[str] = []
        for node in frontier:
            for succ in sorted(adjacency.get(node, ())):
                if succ in component and succ not in parents:
                    parents[succ] = node
                    nxt.append(succ)
        frontier = nxt
    if dep.head not in parents:  # pragma: no cover - head,body share an SCC
        return [dep.head, dep.body]
    path = [dep.head]
    while path[-1] != dep.body:
        path.append(parents[path[-1]])
    path.reverse()
    # path is now body -> ... -> head; prepend head for the closing edge
    return [dep.head] + path


def check_stratification(program: Program) -> list[Diagnostic]:
    """Report every negated/aggregated dependency inside a recursive cycle."""

    graph = DependencyGraph(program)
    adjacency: dict[str, set[str]] = {}
    for dep in graph.dependencies:
        adjacency.setdefault(dep.head, set()).add(dep.body)
    components = _strongly_connected_components(graph.predicates(), adjacency)
    component_of: dict[str, set[str]] = {}
    for component in components:
        for member in component:
            component_of[member] = component

    rule_spans = {r.name: r.span for r in program.rules}
    out: list[Diagnostic] = []
    seen: set[tuple[str, str, str, bool]] = set()
    for dep in graph.dependencies:
        if not dep.is_stratifying:
            continue
        component = component_of.get(dep.head, {dep.head})
        recursive = dep.body in component and (
            len(component) > 1 or dep.body in adjacency.get(dep.body, ())
            or dep.head == dep.body
        )
        if not recursive:
            continue
        dedup = (dep.rule, dep.head, dep.body, dep.negated)
        if dedup in seen:
            continue
        seen.add(dedup)
        span = rule_spans.get(dep.rule)
        if dep.negated and dep.head == dep.body:
            out.append(
                Diagnostic(
                    "NDL203",
                    f"rule {dep.rule} negates its own head predicate "
                    f"{dep.head!r} — the rule has no stratified semantics",
                    rule=dep.rule,
                    predicate=dep.head,
                    span=span,
                )
            )
            continue
        cycle = " -> ".join(_cycle_through(dep, adjacency, component))
        if dep.negated:
            out.append(
                Diagnostic(
                    "NDL201",
                    f"rule {dep.rule} negates {dep.body!r} inside the recursive "
                    f"cycle {cycle}; no stratification exists",
                    rule=dep.rule,
                    predicate=dep.head,
                    span=span,
                )
            )
        else:
            out.append(
                Diagnostic(
                    "NDL202",
                    f"rule {dep.rule} aggregates over {dep.body!r} inside the "
                    f"recursive cycle {cycle}; only the distributed engine "
                    "evaluates this (stratified evaluation rejects it)",
                    rule=dep.rule,
                    predicate=dep.head,
                    span=span,
                )
            )
    return out
