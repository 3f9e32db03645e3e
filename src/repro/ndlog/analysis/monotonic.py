"""Monotonicity classification (the report's ``monotonicity`` field).

A derived predicate is *non-monotonic* when some derivation path into it
passes through a negated literal or an aggregate head: inserting a body
tuple can then **remove** previously derived tuples.  The distributed
engine always evaluates with derivation retraction, so the classification
is lint output for the operator — which predicates can shrink when the
configuration grows — and emits no diagnostic.
"""

from __future__ import annotations

from ..ast import Program
from ..stratification import DependencyGraph

MONOTONIC = "monotonic"
NON_MONOTONIC = "non_monotonic"


def classify_monotonicity(program: Program) -> dict[str, str]:
    """``predicate -> "monotonic" | "non_monotonic"`` for derived predicates.

    A predicate is non-monotonic iff it can reach a negated or aggregated
    dependency edge by following the dependency graph downward (i.e. some
    rule deriving it — directly or transitively — negates or aggregates).
    """

    graph = DependencyGraph(program)
    tainted: set[str] = {d.head for d in graph.dependencies if d.is_stratifying}
    # propagate upward: head inherits taint from any body predicate
    changed = True
    while changed:
        changed = False
        for dep in graph.dependencies:
            if dep.body in tainted and dep.head not in tainted:
                tainted.add(dep.head)
                changed = True
    return {
        pred: (NON_MONOTONIC if pred in tainted else MONOTONIC)
        for pred in sorted(program.derived_predicates())
    }
