"""Policy-based interdomain routing (BGP) models for FVN.

Implements the paper's Section 3.2: the component-based BGP decomposition of
Figure 2, import/export policies, the Stable Paths Problem gadgets (Disagree,
Good Gadget, Bad Gadget), the SPVP dynamics that exhibit policy-conflict
divergence, and generators producing executable NDlog from the verified
specification.

Public entry points: :func:`policy_path_vector_program` /
:func:`policy_facts` (the policy path-vector NDlog the engine and harness
execute, at home in :mod:`repro.protocols.policy` with the policy tables),
:func:`bgp_component_program` and the Figure-2 component models in
:mod:`repro.bgp.model`, the SPP gadget library in :mod:`repro.bgp.spp`,
and :class:`SPVPSimulator` for policy-conflict dynamics.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "generator": ("bgp_component_program",),
    "model": (
        "BGPIterationResult", "ComponentBGPSimulator", "best_route_component", "bgp_model",
        "export_component", "import_component", "peer_transformation", "pvt_component",
    ),
    "simulation": ("SPVPResult", "SPVPSimulator"),
    "spp": (
        "EPSILON", "GADGETS", "SPPInstance", "bad_gadget", "disagree", "good_gadget",
        "shortest_path_instance",
    ),
    "repro.protocols.policy": (
        "DEFAULT_LOCAL_PREF", "PolicyRule", "PolicyTable", "Route", "best_route",
        "disagree_policies", "gao_rexford_policies", "policy_facts", "policy_path_vector_program",
        "policy_path_vector_source", "prefer_route", "shortest_path_policies",
    ),
})
