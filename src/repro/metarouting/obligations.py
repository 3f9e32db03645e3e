"""Proof obligations for routing-algebra instantiations (paper Section 3.3.2).

The paper encodes the abstract algebra as a PVS theory ``routeAlgebra``; a
concrete protocol algebra is a theory interpretation of it, and the PVS type
checker generates and discharges the instantiation obligations (the four
axioms plus totality of the preference relation).

Here the abstract ``routeAlgebra`` theory is built once (as formulas over
abstract symbols ``prefRel``, ``labelApply``, ``prohibitPath``), and a
concrete :class:`~repro.metarouting.algebra.RoutingAlgebra` discharges the
obligations with the exhaustive finite-carrier checks from
:mod:`repro.metarouting.axioms` — the same division of labour: the designer
writes the instantiation, the machinery discharges the obligations.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from ..logic.formulas import atom, eq, forall, implies
from ..logic.theory import Interpretation, Obligation, Theory
from ..terms import func, var
from .algebra import RoutingAlgebra
from .axioms import AlgebraReport, check_all_axioms


def route_algebra_theory() -> Theory:
    """The abstract ``routeAlgebra`` theory: declarations plus the axioms
    (maximality, absorption, monotonicity, isotonicity, totality)."""

    thy = Theory(
        "routeAlgebra",
        doc="Abstract metarouting algebra (sig, prefRel, label, labelApply, org, prohibitPath).",
    )
    thy.declare("sig", "sort", doc="path signatures Σ")
    thy.declare("label", "sort", doc="link labels L")
    thy.declare("prefRel", "predicate", arity=2, doc="s1 ⪯ s2 (s1 at least as preferred)")
    thy.declare("labelApply", "function", arity=2, doc="l ⊕ s")
    thy.declare("prohibitPath", "constant", doc="φ")
    thy.declare("org", "predicate", arity=1, doc="origination signatures O")

    S, S1, S2, L = var("S"), var("S1"), var("S2"), var("L")
    phi = func("prohibitPath")
    thy.axiom("totality", forall((S1, S2), atom("prefRel", S1, S2) | atom("prefRel", S2, S1)))
    thy.axiom("maximality", forall((S,), atom("prefRel", S, phi)))
    thy.axiom("absorption", forall((L,), eq(func("labelApply", L, phi), phi)))
    thy.axiom(
        "monotonicity",
        forall((L, S), atom("prefRel", S, func("labelApply", L, S))),
    )
    thy.axiom(
        "isotonicity",
        forall(
            (L, S1, S2),
            implies(
                atom("prefRel", S1, S2),
                atom("prefRel", func("labelApply", L, S1), func("labelApply", L, S2)),
            ),
        ),
    )
    return thy


@dataclass
class InstantiationResult:
    """Outcome of instantiating ``routeAlgebra`` with a concrete algebra."""

    algebra: str
    interpretation: Interpretation
    obligations: list[Obligation]
    axiom_report: AlgebraReport
    elapsed_seconds: float

    @property
    def discharged(self) -> int:
        return sum(1 for ob in self.obligations if ob.discharged)

    @property
    def total(self) -> int:
        return len(self.obligations)

    @property
    def all_discharged(self) -> bool:
        return self.discharged == self.total

    @property
    def well_behaved(self) -> bool:
        return self.axiom_report.is_well_behaved

    def summary(self) -> str:
        return (
            f"{self.algebra}: {self.discharged}/{self.total} obligations discharged "
            f"({'well-behaved' if self.well_behaved else 'NOT well-behaved'}, "
            f"{self.elapsed_seconds * 1000:.2f} ms)"
        )


def _concrete_theory(algebra: RoutingAlgebra) -> Theory:
    thy = Theory(algebra.name, doc=algebra.doc)
    thy.declare(f"{algebra.name}.prefRel", "predicate", arity=2)
    thy.declare(f"{algebra.name}.labelApply", "function", arity=2)
    thy.declare(f"{algebra.name}.prohibitPath", "constant")
    return thy


def instantiate(algebra: RoutingAlgebra, *, sample: int = 32) -> InstantiationResult:
    """Interpret ``routeAlgebra`` with a concrete algebra and discharge the
    obligations by exhaustive checking over the (sampled) carrier."""

    abstract = route_algebra_theory()
    concrete = _concrete_theory(algebra)
    mapping = {
        "prefRel": f"{algebra.name}.prefRel",
        "labelApply": f"{algebra.name}.labelApply",
        "prohibitPath": f"{algebra.name}.prohibitPath",
        "org": f"{algebra.name}.org",
    }
    interpretation = Interpretation(abstract, concrete, mapping, name=algebra.name)
    report = check_all_axioms(algebra, sample=sample)

    def checker(obligation: Obligation) -> tuple[bool, str]:
        axiom = obligation.source_axiom
        if axiom == "totality":
            counterexample = algebra.check_total_order()
            return counterexample is None, (
                "total order verified" if counterexample is None else f"incomparable pair {counterexample!r}"
            )
        if axiom in report.reports:
            axiom_report = report.reports[axiom]
            detail = (
                f"{axiom_report.checked_cases} cases"
                if axiom_report.holds
                else f"counterexample {axiom_report.counterexample!r}"
            )
            return axiom_report.holds, detail
        return False, f"no checker for axiom {axiom!r}"

    start = time.perf_counter()
    obligations = interpretation.discharge_with(checker)
    elapsed = time.perf_counter() - start
    return InstantiationResult(
        algebra=algebra.name,
        interpretation=interpretation,
        obligations=obligations,
        axiom_report=report,
        elapsed_seconds=elapsed,
    )


def instantiate_all(algebras: list[RoutingAlgebra], *, sample: int = 32) -> list[InstantiationResult]:
    """Instantiate ``routeAlgebra`` for every algebra in the list."""

    return [instantiate(a, sample=sample) for a in algebras]
