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

from typing import TYPE_CHECKING

from ..._lazy import lazy_exports

if TYPE_CHECKING:
    from ..ast import Program
    from .diagnostics import AnalysisReport

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "diagnostics": (
        "CODES", "ERROR", "WARNING", "WARNING_CODES", "AnalysisReport", "Diagnostic",
        "severity_of",
    ),
    "locspec": ("check_locations",),
    "monotonic": ("classify_monotonicity",),
    "safety": ("check_safety",),
    "schema": ("check_schema",),
    "strat": ("check_stratification",),
})
__all__.append("analyze_program")


def analyze_program(program: Program) -> AnalysisReport:
    """Run all static passes over ``program``."""

    from . import diagnostics, locspec, monotonic, safety, schema, strat

    report = diagnostics.AnalysisReport(program=program.name)
    report.extend(safety.check_safety(program))
    report.extend(schema.check_schema(program))
    report.extend(strat.check_stratification(program))
    report.extend(locspec.check_locations(program))
    report.monotonicity = monotonic.classify_monotonicity(program)
    return report
