"""Workload generation: topologies and dynamic perturbation scripts."""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "events": (
        "WorkloadEvent", "WorkloadScript", "periodic_refresh_workload",
    ),
    "topologies": (
        "as_hierarchy_topology", "full_mesh_topology", "grid_topology", "labeled_edges",
        "line_topology", "random_topology", "ring_topology", "star_topology", "to_edge_list",
    ),
})
