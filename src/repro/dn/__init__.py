"""Distributed declarative-networking runtime (the FVN execution substrate).

Simulates a network of nodes each running the localized NDlog program, with
batched, retraction-aware semi-naive evaluation, message delays/loss,
topology dynamics, and execution traces for convergence analysis.  This
package plays the role the P2 system plays in the paper (arc 7 of Figure 1).
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "engine": ("DistributedEngine", "EngineConfig", "create_engine", "run_program"),
    "events": ("Event", "EventScheduler"),
    "executor": ("FixpointExecutor",),
    "faults": ("Fault", "FaultInjector", "FaultPlan"),
    "host": ("ShardWorker",),
    "network": ("Channel", "Link", "Message", "NodeId", "Topology"),
    "node": ("Node", "NodeStats"),
    "partition": ("PARTITION_STRATEGIES", "edge_cut", "partition_nodes"),
    "shard": ("ShardCrash", "ShardedEngine", "ShardError", "ShardTimeout"),
    "trace": ("MessageRecord", "StateChange", "Trace", "TraceCompacted"),
})
