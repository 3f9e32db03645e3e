"""Analysis of experiment outputs: convergence, proof effort, tables.

Reproduces the quantities the paper's evaluation narrative discusses
(Sections 3.2 and 5): protocol convergence behavior over execution traces
and the manual-vs-automated proof effort comparison the FVN pipeline is
meant to shrink.  Consumes :class:`repro.dn.trace.Trace` objects and
verification results; produces plain-text tables for experiment reports.

Public entry points: :class:`ConvergenceMetrics` (per-run convergence
time / message / state-change summaries), :class:`ProofEffort` (proof-step
accounting), :func:`speedup`, :func:`mean`, and :func:`render_table`.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "metrics": ("ConvergenceMetrics", "ProofEffort", "mean", "render_table", "speedup"),
})
