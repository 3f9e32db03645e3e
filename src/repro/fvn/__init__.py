"""FVN core: the paper's primary contribution, tying logic, NDlog, and
execution together.

Submodules implement the arcs of the paper's Figure 1:

* :mod:`repro.fvn.components` — component-based network models (§3.2);
* :mod:`repro.fvn.ndlog_to_logic` — NDlog → logical specification (arc 4);
* :mod:`repro.fvn.logic_to_ndlog` — component specification → NDlog (arc 3);
* :mod:`repro.fvn.properties` — the property/invariant library (arc 1);
* :mod:`repro.fvn.verification` — theorem proving + counterexample search
  (arcs 5 and 8);
* :mod:`repro.fvn.discharge` — proving campaign monitor properties ahead of
  execution (the runtime monitors themselves live in
  :mod:`repro.dn.monitors`);
* :mod:`repro.fvn.soft_state_rewrite` — the soft-state encoding of §4.2;
* :mod:`repro.fvn.linear` / :mod:`repro.fvn.modelcheck` — the
  transition-system view and bounded model checking (arcs 6 and 8);
* :mod:`repro.fvn.framework` — the orchestrating :class:`FVN` workflow.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "components": (
        "Component", "ComponentConstraint", "ComponentError", "CompositeComponent", "Port", "Wire",
    ),
    "framework": ("FVN", "PipelineRecord"),
    "linear": ("State", "Transition", "TransitionSystem"),
    "logic_to_ndlog": (
        "SchemaAnnotation", "TranslationEquivalence", "check_translation_equivalence",
        "component_to_rules", "composite_to_program",
    ),
    "modelcheck": (
        "ModelCheckResult", "check_eventually_expires", "check_invariant", "check_reachable",
    ),
    "ndlog_to_logic": (
        "AggregateAxioms", "aggregate_rule_axioms", "program_to_theory", "rule_to_clause",
    ),
    "properties": (
        "PropertySpec", "best_path_is_path", "cycle_freedom", "path_implies_link",
        "reachability_soundness", "route_optimality", "route_optimality_weak",
        "standard_property_suite",
    ),
    "soft_state_rewrite": ("RewriteMetrics", "SoftStateRewrite", "rewrite_soft_state"),
    "verification": ("PropertyVerdict", "VerificationManager", "VerificationReport"),
    "repro.dn.monitors": (
        "MONITOR_KINDS", "PATH_VECTOR_SCHEMA", "POLICY_SCHEMA", "MonitorSchema",
        "MonitorViolation", "RuntimeMonitor", "build_monitor", "monitor_for_property",
        "monitors_from_properties", "posthoc_violations", "schema_for_program",
        "standard_monitors",
    ),
})
