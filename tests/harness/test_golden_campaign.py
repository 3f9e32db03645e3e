"""A campaign's ``results.jsonl`` against bytes committed from an earlier
commit.

The determinism contract is otherwise only checked *across configurations
of one commit* (workers, shards, obs, resume all agree with each other), so
a change that reorders every configuration together would pass.  The two
files under ``golden/`` were written by the commit **before** the seeding
burst became one weighted scheduler event; this module reruns the same
8-run mini-campaign (tree-8 and power_law-8 × shortest_path / gao_rexford ×
churn {0, 2}, loss 0.01, all four monitors, stale-route comparison on) and
compares byte for byte — inline, on a 2-worker pool, and on 2 process
shards per run.  They were rewritten once since, when settles began to net
their sends: two power_law runs' count and timing columns moved (messages,
events, retractions, state changes, convergence time), and no monitor
verdict or route column did.

``pytest --update-goldens`` rewrites them; do that only in a change that
means to move the engine's observable behaviour.
"""

from pathlib import Path

import pytest

from repro.harness import CampaignSpec, run_campaign
from repro.harness.records import RESULTS_NAME, read_results

GOLDEN_DIR = Path(__file__).parent / "golden"


def mini_spec(shards: int = 1) -> CampaignSpec:
    return CampaignSpec(
        name="golden-mini",
        families=("tree", "power_law"),
        sizes=(8,),
        policies=("shortest_path", "gao_rexford"),
        seeds=(4,),
        churn_events=(0, 2),
        loss=(0.01,),
        # an explicit axis tags run ids ``-sh2`` and lands in ``params``, so
        # the sharded campaign has its own golden file
        shards=(shards,),
    )


@pytest.mark.parametrize(
    "golden, shards, workers",
    [
        ("mini_campaign.results.jsonl", 1, 1),
        ("mini_campaign.results.jsonl", 1, 2),
        ("mini_campaign_sh2.results.jsonl", 2, 1),
    ],
)
def test_results_match_committed_bytes(golden, shards, workers, tmp_path, update_goldens):
    result = run_campaign(mini_spec(shards), tmp_path / "out", workers=workers)
    assert result.run_count == 8
    assert all(record.status == "ok" and record.quiescent for record in result.records)
    produced = (tmp_path / "out" / RESULTS_NAME).read_bytes()
    path = GOLDEN_DIR / golden
    if update_goldens:
        path.write_bytes(produced)
    assert produced == path.read_bytes()


def test_sharded_golden_is_the_plain_golden():
    """The two committed files agree on every measured field: only the
    run id and the descriptor's engine override tell them apart."""

    plain = read_results(GOLDEN_DIR / "mini_campaign.results.jsonl")
    sharded = read_results(GOLDEN_DIR / "mini_campaign_sh2.results.jsonl")
    assert len(plain) == len(sharded) == 8
    for a, b in zip(plain, sharded):
        left, right = a.deterministic_dict(), b.deterministic_dict()
        assert right["params"].pop("engine") == {"shards": 2}
        assert left["params"].pop("engine") == {}
        for record in (left, right):
            del record["run_id"], record["params"]["run_id"]  # "-sh2" tag
        assert left == right
