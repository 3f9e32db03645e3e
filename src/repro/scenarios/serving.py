"""Bridge scenario churn schedules onto the serving wire protocol.

The scenario generator expresses link churn as a
:class:`~repro.workloads.events.WorkloadScript` scheduled against a batch
engine before ``run``.  A serving daemon instead takes its churn *live*,
one update request at a time — so this module translates a script (or a
whole scenario) into the request dicts the daemon's update verbs accept,
and can drive them through a :class:`~repro.serving.client.ServingClient`.
``scripts/serving_smoke.py`` and ``scripts/chaos_smoke.py`` use this to
replay exactly the churn a campaign cell would have applied, but through
the socket.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Optional

from ..workloads.events import WorkloadEvent, WorkloadScript
from .generator import Scenario

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..serving.client import ServingClient

#: WorkloadScript event kind → serving update verb
_VERB_BY_KIND = {
    "fail_link": "link_fail",
    "restore_link": "link_restore",
    "set_cost": "cost_change",
    "inject_fact": "set_fact",
}


def update_for_event(event: WorkloadEvent) -> dict:
    """The serving update request mirroring one workload event."""

    verb = _VERB_BY_KIND.get(event.kind)
    if verb is None:
        raise ValueError(f"no serving verb for workload event kind {event.kind!r}")
    if event.kind == "inject_fact":
        return {
            "verb": verb,
            "args": {"predicate": event.predicate, "values": list(event.values)},
        }
    args = {"src": event.src, "dst": event.dst}
    if event.kind == "set_cost":
        args["cost"] = event.cost if event.cost is not None else 1.0
    return {"verb": verb, "args": args}


def churn_updates(source: Scenario | WorkloadScript | None) -> list[dict]:
    """Every update request of a scenario's churn schedule, in schedule
    order (empty when the scenario has no churn)."""

    if source is None:
        return []
    script = source.churn if isinstance(source, Scenario) else source
    if script is None:
        return []
    return [update_for_event(event) for event in script.events]


def drive_churn(
    client: "ServingClient",
    source: Scenario | WorkloadScript | Iterable[dict],
    *,
    limit: Optional[int] = None,
) -> list[dict]:
    """Push a churn schedule through a serving client, one settled update
    per request, returning the daemon's acknowledgements."""

    if isinstance(source, (Scenario, WorkloadScript)) or source is None:
        updates = churn_updates(source)
    else:
        updates = list(source)
    if limit is not None:
        updates = updates[:limit]
    return [
        client.call(update["verb"], update.get("args", {})) for update in updates
    ]
