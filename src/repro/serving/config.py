"""Configuration of the routing service daemon.

:class:`ServerConfig` is the single knob surface for ``python -m
repro.serving serve``: it names the scenario the daemon boots (family /
size / topology seed / policy / loss), the engine variant it runs (shards,
partition, refresh interval, soft-state overrides), and the serving-layer
behaviour (simulation step per update, settle budget, snapshot cadence,
state directory).  Every field is documented in ``docs/CONFIG.md`` —
``scripts/check_docs.py`` fails the build if one is missing.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Mapping, Optional

from ..dn.monitors import MONITOR_KINDS


@dataclass
class ServerConfig:
    """Tunable parameters of one serving daemon."""

    #: Interface the socket server binds.
    host: str = "127.0.0.1"
    #: TCP port to listen on (0 picks a free port; the chosen port is
    #: written to ``state_dir/server.json`` and printed on stdout).
    port: int = 0
    #: Durability directory (ledger, snapshots, server.json).  ``None``
    #: runs purely in memory: no recovery after a crash.
    state_dir: Optional[str] = None
    #: Scenario topology family (see ``repro.scenarios.SCENARIO_FAMILIES``).
    family: str = "tree"
    #: Scenario node count.
    size: int = 24
    #: Scenario/topology random seed.
    topo_seed: int = 0
    #: AS-policy kind (``repro.scenarios.policies.POLICY_KINDS``) selecting
    #: the policy path-vector program; ``None`` runs plain path-vector.
    policy: Optional[str] = None
    #: Uniform per-message loss probability on every link.
    loss: float = 0.0
    #: Engine channel seed (drives the loss RNG; part of the fingerprint).
    seed: int = 0
    #: Shard worker count (1 = single-process engine).  Snapshots and
    #: recovery work the same on every count.
    shards: int = 1
    #: Node→shard assignment strategy (``"hash"`` or ``"metis-lite"``).
    partition: str = "hash"
    #: Periodic soft-state refresh interval for base facts (None disables).
    refresh_interval: Optional[float] = None
    #: Soft-state lifetime overrides, predicate → lifetime seconds.
    soft_state: dict = field(default_factory=dict)
    #: Runtime invariant monitors attached to the engine.
    monitors: tuple = MONITOR_KINDS[:3]
    #: Simulation-time gap between the current settled time and the point
    #: at which the next external update lands.  Fixed per update so the
    #: applied simulation schedule — and hence the trace fingerprint — is a
    #: pure function of the update sequence.
    sim_step: float = 0.05
    #: Event budget for one settle (the fixpoint after each update).
    settle_max_events: int = 200_000
    #: Take a fingerprint-stamped snapshot every N applied updates
    #: (0 disables; ignored when ``state_dir`` is None; skipped when the
    #: settle stopped at ``settle_max_events``).
    snapshot_every: int = 50
    #: Most recent request-key acks remembered for exactly-once retry
    #: dedup (see ``docs/FAULTS.md``); older keys fall out LRU-style.
    dedup_cache: int = 1024
    #: Path to a JSON :class:`~repro.dn.faults.FaultPlan` injected into the
    #: daemon for chaos testing (``None`` disables fault injection).
    fault_plan: Optional[str] = None
    #: Boot even when the static analyzer (``fvn-lint``) finds
    #: error-severity diagnostics in the serving program; the default
    #: refuses to serve unsafe programs (see ``docs/ANALYSIS.md``).
    allow_unsafe: bool = False
    #: Write a Chrome trace-event JSON of the daemon's spans (recovery,
    #: updates, settles, snapshots — see ``docs/OBSERVABILITY.md``) to this
    #: path on shutdown (``None`` disables tracing).
    trace_out: Optional[str] = None

    # ------------------------------------------------------------------
    #: fields an operator may change across restarts without invalidating
    #: the persisted ledger/snapshot state
    RESTART_SAFE = (
        "host",
        "port",
        "state_dir",
        "dedup_cache",
        "fault_plan",
        "allow_unsafe",
        "trace_out",
    )

    def to_dict(self) -> dict:
        out = asdict(self)
        out["monitors"] = list(self.monitors)
        out["soft_state"] = dict(self.soft_state)
        return out

    @classmethod
    def from_dict(cls, data: Mapping) -> "ServerConfig":
        kwargs = {k: data[k] for k in cls.__dataclass_fields__ if k in data}
        if "monitors" in kwargs:
            kwargs["monitors"] = tuple(kwargs["monitors"])
        if "soft_state" in kwargs:
            kwargs["soft_state"] = dict(kwargs["soft_state"])
        return cls(**kwargs)

    def adopt_persisted(self, persisted: Mapping) -> "ServerConfig":
        """The config a restarted daemon must run: every determinism-bearing
        field comes from the persisted boot record, only
        :data:`RESTART_SAFE` fields from the command line."""

        merged = dict(persisted)
        for key in self.RESTART_SAFE:
            merged[key] = getattr(self, key)
        return ServerConfig.from_dict(merged)
