"""Routing-as-a-service: a persistent query/update daemon over the engine.

The batch-shaped stack (build engine → run → read tables) becomes a
long-running service: :class:`~repro.serving.service.RouteService` keeps one
:func:`~repro.dn.engine.create_engine` execution (1 or N shards) alive and
applies a stream of topology/policy updates (`link_fail`, `link_restore`,
`cost_change`, `set_fact`, `del_fact`, `refresh`) while answering queries
(`best_path`, `routes`, `table`, `status`, `fingerprint`, `what_if`) at safe
points — the engine's settled states.  :class:`~repro.serving.server.
RouteServer` exposes it over a newline-JSON socket protocol
(:mod:`repro.serving.protocol`), :class:`~repro.serving.client.ServingClient`
is the matching client, and ``python -m repro.serving serve|query|update``
the CLI.

Durability reuses the harness's ledger machinery: every update is appended
to a write-ahead JSONL ledger before it is applied, and periodic snapshots
(on any shard count) are stamped with ``Trace.fingerprint()`` — a SIGKILL'd
daemon restarts from the snapshot, replays the ledger tail, and provably
reaches byte-identical state (:mod:`repro.serving.checkpoint`,
``docs/SERVING.md``).
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "client": ("ServingClient", "ServingError", "read_server_info"),
    "config": ("ServerConfig",),
    "protocol": ("QUERY_VERBS", "UPDATE_VERBS", "VERBS", "ProtocolError"),
    "server": ("RouteServer", "run_server"),
    "service": ("RouteService",),
})
