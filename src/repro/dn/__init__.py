"""Distributed declarative-networking runtime (the FVN execution substrate).

Simulates a network of nodes each running the localized NDlog program, with
batched, retraction-aware semi-naive evaluation, message delays/loss,
topology dynamics, and execution traces for convergence analysis.  This
package plays the role the P2 system plays in the paper (arc 7 of Figure 1).
"""

from .engine import DistributedEngine, EngineConfig, create_engine, run_program
from .events import Event, EventScheduler
from .executor import FixpointExecutor
from .faults import Fault, FaultInjector, FaultPlan
from .host import ShardWorker
from .network import Channel, Link, Message, NodeId, Topology
from .node import Node, NodeStats
from .partition import PARTITION_STRATEGIES, edge_cut, partition_nodes
from .shard import ShardCrash, ShardedEngine, ShardError, ShardTimeout
from .trace import MessageRecord, StateChange, Trace, TraceCompacted

__all__ = [
    "Channel",
    "DistributedEngine",
    "EngineConfig",
    "Event",
    "EventScheduler",
    "Fault",
    "FaultInjector",
    "FaultPlan",
    "FixpointExecutor",
    "Link",
    "Message",
    "MessageRecord",
    "Node",
    "NodeId",
    "NodeStats",
    "PARTITION_STRATEGIES",
    "ShardCrash",
    "ShardError",
    "ShardTimeout",
    "ShardWorker",
    "ShardedEngine",
    "StateChange",
    "Topology",
    "Trace",
    "TraceCompacted",
    "create_engine",
    "edge_cut",
    "partition_nodes",
    "run_program",
]
