"""Static analysis for NDlog programs (``fvn-lint``).

:func:`analyze_program` runs every pass over a :class:`repro.ndlog.ast.
Program` and returns an :class:`AnalysisReport` of coded diagnostics (see
``docs/ANALYSIS.md`` for the catalogue):

* safety / range restriction (NDL0xx),
* schema & type inference (NDL1xx),
* stratification (NDL2xx),
* location-specifier well-formedness (NDL3xx),

plus a per-predicate monotonicity classification (``report.monotonicity``).

Static *obligation discharge* — proving campaign monitor properties ahead
of time with the tactic prover — lives in :mod:`.discharge` and is imported
explicitly by its users (it pulls in the harness-facing layers; the passes
here stay dependency-light so the engines can call them at boot).
"""

from __future__ import annotations

from ..ast import Program
from .diagnostics import (
    CODES,
    ERROR,
    WARNING,
    WARNING_CODES,
    AnalysisReport,
    Diagnostic,
    severity_of,
)
from .locspec import check_locations
from .monotonic import classify_monotonicity
from .safety import check_safety
from .schema import check_schema
from .strat import check_stratification

__all__ = [
    "CODES",
    "ERROR",
    "WARNING",
    "WARNING_CODES",
    "AnalysisReport",
    "Diagnostic",
    "analyze_program",
    "check_locations",
    "check_safety",
    "check_schema",
    "check_stratification",
    "classify_monotonicity",
    "severity_of",
]


def analyze_program(program: Program) -> AnalysisReport:
    """Run all static passes over ``program``."""

    report = AnalysisReport(program=program.name)
    report.extend(check_safety(program))
    report.extend(check_schema(program))
    report.extend(check_stratification(program))
    report.extend(check_locations(program))
    report.monotonicity = classify_monotonicity(program)
    return report
