"""Stratification diagnostics (codes NDL201–NDL203).

The findings of :meth:`repro.ndlog.stratification.DependencyGraph.
stratification_findings`, whose first one :func:`~repro.ndlog.
stratification.stratify` refuses: every negated or aggregated dependency
inside a strongly connected component of the dependency graph, with the
cycle it closes.

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
from ..stratification import DependencyGraph
from .diagnostics import Diagnostic


def check_stratification(program: Program) -> list[Diagnostic]:
    """Report every negated/aggregated dependency inside a recursive cycle."""

    return [Diagnostic(*f) for f in DependencyGraph(program).stratification_findings()]
