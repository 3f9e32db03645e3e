"""Static obligation discharge: prove monitor properties before running.

The FVN pitch is verifying protocols *before* they execute; PRs so far only
checked executions (runtime monitors, post-hoc property sweeps).  This
module closes that gap for campaigns:

* the program's monitor properties (:mod:`repro.fvn.properties`) are proved
  with the tactic prover via :class:`repro.fvn.verification.
  VerificationManager.prove_with_minimal_script` — the shortest interactive
  prefix that lets ``grind`` close the proof is recorded as a **replayable
  proof script** (the prefix plus a terminal ``grind`` entry with its
  parameters);
* the campaign policy's routing algebra is instantiated against the
  abstract ``routeAlgebra`` theory (:mod:`repro.metarouting.obligations`)
  and its obligations discharged by the finite-carrier checks;
* a monitor kind is classified ``statically_proven`` only when **every**
  property backing it proved *and* the algebra discharged all obligations —
  policies whose algebras are not well-behaved (``random_pref``,
  ``disagree``) keep all their monitors at runtime, which is exactly when
  divergence is possible.

Results are cached per (program digest, policy): campaigns expand one program
into thousands of runs and must not re-prove per run.

This module belongs to the verification arc.  The runtime reaches it only
from inside the two functions that run it: the campaign runner's
``static_proofs`` path and ``fvn-lint --prove``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from ..dn.monitors import PROPERTY_MONITORS
from ..logic.prover import ProofSession
from ..metarouting.algebra import RoutingAlgebra
from ..metarouting.obligations import InstantiationResult, instantiate
from ..metarouting.systems import (
    bgp_system,
    policy_shortest_path_system,
    safe_bgp_system,
)
from ..ndlog.ast import Program
from ..ndlog.codegen import program_digest
from .properties import (
    PropertySpec,
    cycle_freedom,
    standard_property_suite,
)
from .verification import VerificationManager

#: Default step budget for the automated strategy, recorded in scripts.
GRIND_MAX_STEPS = 400


def _jsonify(value):
    """Coerce script parameters to JSON-safe values (Var → its name)."""

    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, (list, tuple)):
        return [_jsonify(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonify(v) for k, v in value.items()}
    return str(value)


@dataclass(frozen=True)
class PropertyProof:
    """One property proved (or not) ahead of a campaign."""

    property: str
    monitor_kind: Optional[str]
    proved: bool
    interactive_steps: int
    total_steps: int
    #: replayable script: interactive prefix + terminal ``grind`` entry
    script: tuple = ()

    def to_dict(self) -> dict:
        return {
            "property": self.property,
            "monitor_kind": self.monitor_kind,
            "proved": self.proved,
            "interactive_steps": self.interactive_steps,
            "total_steps": self.total_steps,
            "script": _jsonify(list(self.script)),
        }


@dataclass
class DischargeReport:
    """Everything proved statically for one (program, policy) pair."""

    program: str
    policy: Optional[str]
    proofs: list[PropertyProof] = field(default_factory=list)
    algebra: Optional[str] = None
    algebra_well_behaved: bool = False
    algebra_obligations_discharged: bool = False
    algebra_obligations: list[dict] = field(default_factory=list)

    @property
    def proven_monitors(self) -> tuple[str, ...]:
        """Monitor kinds whose *every* backing property proved, gated on the
        policy algebra discharging all of its instantiation obligations."""

        if not (self.algebra_well_behaved and self.algebra_obligations_discharged):
            return ()
        by_kind: dict[str, list[bool]] = {}
        for proof in self.proofs:
            if proof.monitor_kind is not None:
                by_kind.setdefault(proof.monitor_kind, []).append(proof.proved)
        return tuple(
            sorted(kind for kind, verdicts in by_kind.items() if all(verdicts))
        )

    def proof_for(self, property_name: str) -> Optional[PropertyProof]:
        for proof in self.proofs:
            if proof.property == property_name:
                return proof
        return None

    def to_dict(self) -> dict:
        return {
            "program": self.program,
            "policy": self.policy,
            "algebra": self.algebra,
            "algebra_well_behaved": self.algebra_well_behaved,
            "algebra_obligations_discharged": self.algebra_obligations_discharged,
            "algebra_obligations": list(self.algebra_obligations),
            "proven_monitors": list(self.proven_monitors),
            "proofs": [p.to_dict() for p in self.proofs],
        }


def property_suite_for(program: Program) -> list[PropertySpec]:
    """The provable property corpus for a program's schema.

    Only the plain path-vector schema (``path``/``bestPath``/
    ``bestPathCost``) has a generated theory the tactic prover closes; the
    policy program's aggregate-through-recursion structure (NDL202) has no
    stratified translation, so its suite is empty and every monitor stays
    at runtime.
    """

    heads = program.head_predicates()
    if {"path", "bestPath", "bestPathCost"} <= heads:
        return standard_property_suite() + [cycle_freedom()]
    return []


def algebra_for_policy(policy: Optional[str]) -> RoutingAlgebra:
    """The metarouting algebra modelling a campaign policy kind."""

    if policy in (None, "none", "shortest_path"):
        return policy_shortest_path_system()
    if policy == "gao_rexford":
        return safe_bgp_system()
    if policy in ("random_pref", "disagree"):
        return bgp_system()
    raise ValueError(f"no routing algebra registered for policy {policy!r}")


def _prove_suite(program: Program, suite: Sequence[PropertySpec]) -> list[PropertyProof]:
    if not suite:
        return []
    manager = VerificationManager(program)
    proofs: list[PropertyProof] = []
    for spec in suite:
        result, prefix = manager.prove_with_minimal_script(
            spec, max_steps=GRIND_MAX_STEPS
        )
        script: tuple = ()
        if result.proved:
            auto_expand = (
                list(spec.auto_expand) if spec.auto_expand is not None else None
            )
            script = tuple(
                (entry[0], dict(entry[1]) if len(entry) > 1 else {})
                for entry in spec.script[:prefix]
            ) + (
                (
                    "grind",
                    {"auto_expand": auto_expand, "max_steps": GRIND_MAX_STEPS},
                ),
            )
        proofs.append(
            PropertyProof(
                property=spec.name,
                monitor_kind=PROPERTY_MONITORS.get(spec.name),
                proved=result.proved,
                interactive_steps=prefix if result.proved else len(spec.script),
                total_steps=result.total_steps,
                script=script,
            )
        )
    return proofs


#: (program digest, policy name) → its report
_CACHE: dict[tuple[str, Optional[str]], DischargeReport] = {}


def discharge_program(
    program: Program, *, policy: Optional[str] = None
) -> DischargeReport:
    """Prove what can be proved statically for a (program, policy) pair.

    Cached on the program's :func:`~repro.ndlog.codegen.program_digest`
    and the policy name — campaign workers call this once per pool
    process, not once per run.
    """

    key = (program_digest(program), policy)
    cached = _CACHE.get(key)
    if cached is not None:
        return cached
    report = DischargeReport(program=program.name, policy=policy)
    try:
        algebra = algebra_for_policy(policy)
    except ValueError:
        algebra = None
    if algebra is not None:
        instantiation: InstantiationResult = instantiate(algebra)
        report.algebra = instantiation.algebra
        report.algebra_well_behaved = instantiation.well_behaved
        report.algebra_obligations_discharged = instantiation.all_discharged
        report.algebra_obligations = [
            {
                "name": ob.name,
                "source_axiom": ob.source_axiom,
                "discharged": ob.discharged,
                "detail": ob.detail,
            }
            for ob in instantiation.obligations
        ]
    report.proofs = _prove_suite(program, property_suite_for(program))
    _CACHE[key] = report
    return report


#: Classification labels for campaign monitors (``docs/ANALYSIS.md``).
STATICALLY_PROVEN = "statically_proven"
RUNTIME_MONITORED = "runtime_monitored"


def classify_monitors(
    program: Program,
    kinds: Iterable[str],
    *,
    policy: Optional[str] = None,
) -> dict[str, str]:
    """``kind -> "statically_proven" | "runtime_monitored"`` for a campaign.

    Runs :func:`discharge_program` and marks a monitor proven only when
    every property backing it proved and the policy's routing algebra
    discharged all obligations.
    """

    report = discharge_program(program, policy=policy)
    proven = set(report.proven_monitors)
    return {
        kind: (STATICALLY_PROVEN if kind in proven else RUNTIME_MONITORED)
        for kind in kinds
    }


def replay_proof(
    program: Program, property_name: str, script: Iterable
) -> bool:
    """Re-run a recorded proof script from scratch; ``True`` iff it closes.

    This is the provenance check for ``statically_proven`` monitors: anyone
    holding the campaign artifacts can rebuild the theory from the program
    and replay the recorded script without the original proof search.
    """

    suite = {spec.name: spec for spec in property_suite_for(program)}
    spec = suite.get(property_name)
    if spec is None:
        return False
    manager = VerificationManager(program)
    context = manager.theory.context()
    assumptions = list(manager.theory.all_axioms().values())
    session = ProofSession(
        context, spec.statement, name=spec.name, assumptions=assumptions
    )
    for entry in script:
        if session.is_complete:
            break
        tactic = entry[0]
        params = dict(entry[1]) if len(entry) > 1 and entry[1] else {}
        try:
            if tactic == "grind":
                auto_expand = params.get("auto_expand")
                session.grind(
                    auto_expand=tuple(auto_expand) if auto_expand is not None else None,
                    max_steps=int(params.get("max_steps", GRIND_MAX_STEPS)),
                )
            else:
                session.apply(tactic, **params)
        except Exception:
            return False
    return session.is_complete
