"""The protocol library: NDlog programs with typed Python front ends.

* :mod:`repro.protocols.pathvector` — the paper's running example (r1–r4);
* :mod:`repro.protocols.distancevector` — distance vector, including the
  dynamic simulator that exhibits count-to-infinity;
* :mod:`repro.protocols.linkstate` — link-state flooding plus local SPF;
* :mod:`repro.protocols.heartbeat` — the soft-state workload for §4.2;
* :mod:`repro.protocols.policy` — the policy path-vector protocol (§3.2.2)
  and the BGP import/export policy tables it runs under.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "distancevector": (
        "CountToInfinityReport", "DISTANCE_VECTOR_SOURCE", "DistanceVectorSimulator",
        "INFINITY_METRIC", "distance_vector_program",
    ),
    "heartbeat": ("HEARTBEAT_SOURCE", "heartbeat_facts", "heartbeat_program"),
    "linkstate": ("LINK_STATE_SOURCE", "LinkStateProtocol", "LinkStateRoute", "link_state_program"),
    "pathvector": ("PATH_VECTOR_SOURCE", "BestPath", "PathVectorProtocol", "path_vector_program"),
    "policy": (
        "PolicyTable", "policy_facts", "policy_path_vector_program", "policy_path_vector_source",
    ),
})
