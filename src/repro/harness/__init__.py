"""Parallel experiment-campaign orchestration with runtime monitors.

The paper's pitch is that declarative protocols are *verified and executed*.
This package operationalizes the "executed, at scale" half: declarative
campaign specs (:mod:`repro.harness.spec`) expand a scenario grid — graph
family × size × policy × churn × loss × engine configuration × seed — into
deterministic seeded run descriptors, a resumable process-parallel runner
(:mod:`repro.harness.runner`) executes them on the distributed NDlog engine
with FVN runtime invariant monitors (:mod:`repro.dn.monitors`) attached,
and per-run records stream to JSONL artifacts
(:mod:`repro.harness.records`) that :mod:`repro.harness.report` summarizes
and diffs.  The CLI front end is ``fvn-campaign`` /
``python -m repro.harness`` (:mod:`repro.harness.cli`).
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "records": ("RunRecord", "read_ledger", "read_results", "summarize"),
    "report": ("diff_campaigns", "format_summary", "load_records"),
    "runner": ("CampaignResult", "build_program", "execute_run", "run_campaign"),
    "spec": (
        "NO_POLICY", "CampaignSpec", "RunDescriptor", "SpecError", "load_spec",
        "spec_from_mapping",
    ),
})
