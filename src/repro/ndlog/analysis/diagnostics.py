"""Diagnostic codes, records, and reports for the NDlog static analyzer.

Every finding the analyzer can emit has a stable ``NDL###`` code listed in
:data:`CODES` (the hundreds digit groups the pass: 0xx safety, 1xx schema,
2xx stratification, 3xx location).  ``docs/ANALYSIS.md``
documents each code with an example and a fix — ``scripts/check_docs.py``
extracts the keys of :data:`CODES` with ``ast`` and fails the build if one
is undocumented.

Severities are two-valued: an ``error`` means the program is rejected by
(or unsound under) at least one of the repository's evaluators, a
``warning`` flags something the engines tolerate but the operator should
know about (e.g. aggregation through recursion, which only the distributed
engine evaluates meaningfully).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..ast import Span

ERROR = "error"
WARNING = "warning"

#: Every diagnostic code the analyzer can emit, with its one-line meaning.
#: Keys are extracted by ``scripts/check_docs.py`` (keep this a dict literal).
CODES = {
    "NDL001": "unsafe head variable: not bound by a positive body literal or assignment",
    "NDL002": "unsafe variable in a negated body literal",
    "NDL003": "unsafe variable in a comparison or assignment expression",
    "NDL101": "predicate used with inconsistent arities",
    "NDL102": "materialize keys(...) position out of the predicate's arity range",
    "NDL103": "materialize declaration for a predicate the program never mentions",
    "NDL104": "conflicting field types inferred for one predicate position",
    "NDL201": "negation through a recursive cycle (no stratified semantics)",
    "NDL202": "aggregation through a recursive cycle (distributed engine only)",
    "NDL203": "rule negates its own head predicate",
    "NDL301": "rule body spans more than two locations",
    "NDL302": "multi-location rule has no connecting (link-restricted) literal",
    "NDL303": "head shipped to a location no positive body literal carries",
    "NDL304": "negated literal at a location other than the rule's body location",
}

#: Codes reported at ``warning`` severity; everything else in :data:`CODES`
#: is an ``error``.  NDL202 is a warning because the distributed engine
#: evaluates monotonic aggregates through recursion (the generated
#: policy path-vector program relies on this), even though stratified
#: centralized evaluation rejects such programs.
WARNING_CODES = frozenset({"NDL103", "NDL202", "NDL303"})


def severity_of(code: str) -> str:
    """The fixed severity of a diagnostic code."""

    return WARNING if code in WARNING_CODES else ERROR


@dataclass(frozen=True)
class Diagnostic:
    """One analyzer finding, tied to a code, a rule, and (when parsed from
    source) a line/column span."""

    code: str
    message: str
    rule: Optional[str] = None
    predicate: Optional[str] = None
    span: Optional[Span] = None

    @property
    def severity(self) -> str:
        return severity_of(self.code)

    @property
    def is_error(self) -> bool:
        return self.severity == ERROR

    def format(self, program: str = "") -> str:
        """Render one human-readable diagnostic line."""

        where = program or "<program>"
        if self.span is not None:
            where = f"{where}:{self.span.line}:{self.span.column}"
        parts = [f"{where}: {self.severity} {self.code}: {self.message}"]
        if self.rule:
            parts.append(f"[rule {self.rule}]")
        return " ".join(parts)

    def to_dict(self) -> dict:
        return {
            "code": self.code,
            "severity": self.severity,
            "message": self.message,
            "rule": self.rule,
            "predicate": self.predicate,
            "line": self.span.line if self.span else None,
            "column": self.span.column if self.span else None,
        }


@dataclass
class AnalysisReport:
    """The combined result of every analyzer pass over one program."""

    program: str
    diagnostics: list[Diagnostic] = field(default_factory=list)
    #: predicate → ``"monotonic"`` | ``"non_monotonic"`` (derived predicates)
    monotonicity: dict[str, str] = field(default_factory=dict)

    @property
    def errors(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.is_error]

    @property
    def warnings(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics if not d.is_error]

    @property
    def ok(self) -> bool:
        """No error-severity diagnostics (warnings do not fail a program)."""

        return not self.errors

    def codes(self) -> set[str]:
        return {d.code for d in self.diagnostics}

    def by_code(self, code: str) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.code == code]

    def extend(self, diagnostics) -> None:
        self.diagnostics.extend(diagnostics)

    def format(self) -> str:
        """The text report ``fvn-lint`` prints for one program."""

        lines = [d.format(self.program) for d in self.diagnostics]
        lines.append(
            f"{self.program}: {len(self.errors)} error(s), "
            f"{len(self.warnings)} warning(s)"
        )
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "program": self.program,
            "ok": self.ok,
            "errors": len(self.errors),
            "warnings": len(self.warnings),
            "diagnostics": [d.to_dict() for d in self.diagnostics],
            "monotonicity": dict(sorted(self.monotonicity.items())),
        }
