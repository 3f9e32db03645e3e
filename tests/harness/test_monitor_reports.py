"""Monitor reports pinned across a change of how monitors read state.

Each digest below is the SHA-256 of ``json.dumps(rows, sort_keys=True)``,
``rows`` being ``[run_id, monitors, monitors_ok, state_changes]`` of every
run of one campaign cell, executed inline with :func:`execute_run`.  The
digests were computed by this module's :func:`cell_digest` on the commit
before monitors read the engine's tables, when each monitor checked a
private mirror rebuilt from per-change callbacks.  None of these runs caps
a table, so that mirror and the tables held the same rows, and a monitor
that reads the tables must report exactly what the mirror did: the same
first-violation times, counts, active violations and examples.

The grid: tree / power_law / waxman at 12 nodes, ``none`` /
``shortest_path`` / ``gao_rexford``, churn {0, 4}, loss {0, 0.2}; a
soft-state cell (``path`` 2.0 s, ``link`` 3.0 s, refresh 1.0, plain
path-vector only, the one program with those tables); and the plain grid
without ``shortest_path`` on 2 process shards.  Every cell holds runs
whose ``route_validity`` monitor records violations, so a check that lost
or invented one moves its digest.

The ``plain`` and ``shards2`` digests were re-pinned when aggregate changes
began to be emitted in group-key order (not memo-set order).  Only the 14
policy-program runs at loss 0.2 moved: the channel draws loss per message
in send order, so reordered sends lose other messages.  Every lossless run,
and every plain path-vector run, kept its row.
"""

import hashlib
import json

import pytest

from repro.harness.runner import execute_run
from repro.harness.spec import CampaignSpec

GRID = dict(
    families=("tree", "power_law", "waxman"),
    sizes=(12,),
    policies=("none", "shortest_path", "gao_rexford"),
    churn_events=(0, 4),
    loss=(0.0, 0.2),
    seeds=(1,),
)

CELLS = {
    "plain": (
        CampaignSpec(name="plain", **GRID),
        "1ede432052459154cbb2812818964b5187c89d26371c4d73894e1736684009ff",
    ),
    "soft_state": (
        CampaignSpec(
            name="soft",
            soft_state={"path": 2.0, "link": 3.0},
            refresh_interval=1.0,
            **{**GRID, "policies": ("none",)},
        ),
        "18a1a61731712629b65897d3f8c4c984a351a0d9e4ed6e7cf20a88e8d7530a39",
    ),
    "shards2": (
        CampaignSpec(
            name="sh2", shards=(2,), **{**GRID, "policies": ("none", "gao_rexford")}
        ),
        "5d312bd798035ea3af5f89703fefbc25e510f268c4a806ba54530639d738e728",
    ),
}


def cell_digest(spec: CampaignSpec) -> tuple[str, int]:
    """``(digest, runs whose monitors recorded a violation)`` of a cell."""

    rows = []
    violating = 0
    for descriptor in spec.expand():
        record = execute_run(descriptor.to_dict())
        rows.append(
            [record["run_id"], record["monitors"], record["monitors_ok"], record["state_changes"]]
        )
        violating += any(report["violations"] for report in record["monitors"])
    digest = hashlib.sha256(json.dumps(rows, sort_keys=True).encode()).hexdigest()
    return digest, violating


@pytest.mark.parametrize("cell", sorted(CELLS))
def test_monitor_reports_match_pinned_digest(cell):
    spec, pinned = CELLS[cell]
    digest, violating = cell_digest(spec)
    assert violating > 0
    assert digest == pinned
