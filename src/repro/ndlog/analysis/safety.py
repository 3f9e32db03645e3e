"""Safety / range-restriction pass (codes NDL001–NDL003).

The findings of :meth:`repro.ndlog.ast.Rule.safety_findings`, the rule
whose first finding :meth:`~repro.ndlog.ast.Program.check` refuses: every
unbound head, negated-literal, condition and assignment variable, each with
its own span.
"""

from __future__ import annotations

from ..ast import Program
from .diagnostics import Diagnostic


def check_safety(program: Program) -> list[Diagnostic]:
    """Run the safety pass over every rule of a program."""

    return [Diagnostic(*f) for rule in program.rules for f in rule.safety_findings()]
