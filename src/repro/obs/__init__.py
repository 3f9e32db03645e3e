"""Deterministic observability for the FVN runtime: metrics, tracing, provenance.

Three pillars, one contract — *telemetry observes, never perturbs*:

* :mod:`repro.obs.metrics` — a process-local registry of counters and
  histograms (rule firings, fixpoint rounds, delta batch sizes, shard
  round-trips, serving verb latencies, …) with cross-process merge and
  deterministic snapshots;
* :mod:`repro.obs.tracing` — wall-clock spans around flush waves, WAL and
  snapshot writes, and campaign stages, exportable as Chrome trace-event
  JSON (``fvn-trace``, ``--trace-out``);
* :mod:`repro.obs.provenance` — on-demand ``explain``/``why_not``:
  derivation DAGs of stored routes down to base facts, reconstructed from
  the stored rows so evaluation itself carries no extra state.

Enabling any pillar leaves ``Trace.fingerprint()`` and campaign
``results.jsonl`` byte-identical to a disabled run; the test suite and
the ``obs-smoke`` CI job enforce this.

Public entry points: the :mod:`~repro.obs.metrics` and
:mod:`~repro.obs.tracing` modules plus :func:`~repro.obs.provenance.explain`
and :func:`~repro.obs.provenance.why_not`, each bound here on first use.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "metrics": ("metrics",),
    "tracing": ("tracing",),
    "provenance": ("explain", "why_not"),
})
