"""Formally Verifiable Networking (FVN) — a reproduction of Wang et al.,
HotNets 2009.

The package unifies the design, specification, verification, and
implementation of network protocols in one logic-based framework:

* :mod:`repro.logic` — a small PVS-like proof assistant (terms, formulas,
  inductive definitions, theories, sequent prover, tactics, finite models);
* :mod:`repro.ndlog` — Network Datalog: parser, evaluator, localization,
  soft-state stores;
* :mod:`repro.dn` — the distributed declarative-networking runtime;
* :mod:`repro.fvn` — the FVN core: component models, the two translations
  (NDlog <-> logic), properties, verification, soft-state rewrite, and the
  transition-system model checker;
* :mod:`repro.metarouting` — routing algebras, axioms, compositions, and
  obligation discharge;
* :mod:`repro.bgp` — policy routing: the component BGP model, SPP gadgets,
  SPVP dynamics, and NDlog generation;
* :mod:`repro.protocols` — the protocol library (path vector, distance
  vector, link state, heartbeat);
* :mod:`repro.workloads` / :mod:`repro.analysis` — topology and event
  generators, and experiment metrics;
* :mod:`repro.scenarios` — scalable scenario generation (families × sizes ×
  policies × churn × loss);
* :mod:`repro.harness` — the parallel experiment-campaign orchestrator with
  runtime invariant monitors (``fvn-campaign`` CLI).

Quickstart::

    from repro.protocols import PathVectorProtocol
    from repro.workloads import ring_topology

    protocol = PathVectorProtocol(ring_topology(5))
    protocol.run_distributed()
    print(protocol.best_paths())
"""

from ._lazy import lazy_exports

__version__ = "0.1.0"

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    name: (name,)
    for name in (
        "analysis", "bgp", "dn", "fvn", "harness", "logic", "metarouting", "ndlog",
        "protocols", "scenarios", "workloads",
    )
})
