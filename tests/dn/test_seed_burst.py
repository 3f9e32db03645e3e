"""The seeding burst is one weighted scheduler event — and nothing else moved.

``DistributedEngine.seed_facts`` used to schedule one ``insert`` event per
base fact; it now schedules a single ``seed`` event that *stands for* one
unit of event budget per fact (``Event.units``) and feeds the facts into the
node queues in list order.  Everything observable must be exactly what the
per-fact path produced: ``events_processed``, ``quiescent``, where a
``max_events`` cut-off lands inside the burst, what a resumed ``run()``
does, the place of other ``t=0`` events relative to the burst, and every
fingerprint — on 1 shard, 2 inline shards, process shards, the reference
rule interpreter, and through a serving boot + SIGKILL recovery.

Every literal in :data:`PINS` was computed at the parent commit (per-fact
seeding) *before* the change, by running this module's own builders; a
value that moves here is a behaviour change, not a golden to regenerate.
The fingerprint literals were re-pinned when the fold moved from ``fp2``
to ``fp3``; each names the same trace as before
(``tests/dn/test_trace.py::TestV2Agreement`` replays two under ``fp2``).
The final fingerprints and the cuts past the burst were re-pinned once more
when aggregate changes began to be emitted in group-key order (not
memo-set order); event counts and the cuts inside the burst did not move.
The scenarios are lossy and the channel draws loss per message in send
order; with their loss set to 0 the runs end, before and after that change,
on equal tables and per-settle change multisets.  The daemon pin is
lossless, and an in-process daemon driven by the same verbs ends on equal
tables and per-settle change multisets before and after.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.dn import EngineConfig, ShardedEngine, create_engine
from repro.protocols.policy import policy_path_vector_program
from repro.scenarios import generate_scenario

REPO_ROOT = Path(__file__).resolve().parents[2]

#: every fingerprint compared here is also checked against the original (v1)
#: definition (tests/conftest.py): equal under v1 iff equal under fp3
pytestmark = pytest.mark.usefixtures("fp_agreement")

BIG = 10_000_000

PINS = {
    # power_law-8 / gao_rexford / seed 3 / churn 2 / loss 0.01
    "small": {
        "facts": 464,
        "nodes": 8,
        "events": 570,
        "fingerprint": "786823e53878c91fdd4aee9cb49639898dd125aeba013d42a53fe89e1ad6bd0a",
        # budget → (events_processed, quiescent, fingerprint at the cut)
        "cuts": {
            "1": (1, False, "64fc07b2ca7584edd7ddfb8745d6adb21447e6ad23ef6b3271ed5f4634584f6d"),
            "n-1": (463, False, "1afba7b1e2a2a83a2e349cc590d1da2877b4a4e16cc778b8ef925cdb66b82e59"),
            "n": (464, False, "2e2cd2d5fbd8c535a13909de5bff355ef596784b4ab525f8c30e91c6a0dddc77"),
            "n+1": (465, False, "9db0496020149e5f6c06f1758bd05fe6a370275e978c1ac203e4f2cf3888848d"),
            "n+nodes": (472, False, "d7420e25e3f20f3613228a59a404c33cb5c8f8e1cfedb9c5324f7dbbfaaeee3a"),
        },
        "fact_first": "87365ced97484023e2241153138249790d97909e773cc26dc06917a179f8ce6f",
        "fact_after_seed": "fe270723a8ca06aaaa47ffb79f59c0f7febef8f35eb4e9332bc535104745e5d1",
        "failure_first": "f78d9207ce5267efe8eb52fa5e8ee26f74f940e60d03d6c3ea47b106c94fed49",
        "failure_after_seed": "aac975f082bc47f0fba978a2237f9e5e636b42378003cce127d85afdd810e932",
    },
    # power_law-20 / gao_rexford / seed 1 / churn 2 / loss 0.01; the parent
    # queued 7472 events in seed_facts
    "gao20": {
        "facts": 7472,
        "events": 7787,
        "fingerprint": "508c549e89f1b4b136f2581f98415f48ec3315001a83d7ea8bb77578e7b344c7",
    },
    # tree-10 gao_rexford daemon after three fail/restore pairs
    "serving": "2a28e378f282464f2fa23f2bbbf0764042a8696165b8484897f2bd25df550205",
}


def scenario(size: int, seed: int):
    return generate_scenario(
        "power_law",
        size=size,
        seed=seed,
        policy="gao_rexford",
        churn_events=2,
        churn_restore_delay=1.0,
        loss=0.01,
    )


def small_engine(shards: int = 1, *, transport: str = "inline", **config):
    """The small pinned scenario: ``(engine, policy facts)``, churn applied,
    not yet seeded.  Inline shards hold no OS resources, so only the
    process-transport test depends on :func:`finish` closing the engine."""

    sc = scenario(8, 3)
    engine = create_engine(
        policy_path_vector_program(),
        sc.topology,
        config=EngineConfig(
            seed=3, shards=shards, shard_transport=transport, **{"max_events": BIG, **config}
        ),
    )
    sc.churn.apply_to_engine(engine)
    return engine, sc.policy_fact_list()


def finish(engine) -> str:
    """Run to quiescence with a fresh, ample budget; the final fingerprint."""

    try:
        engine.config.max_events = BIG
        trace = engine.run(until=30.0)
        assert trace.quiescent
        if isinstance(engine, ShardedEngine):
            engine.validate_shards()
        return trace.fingerprint()
    finally:
        engine.close()


def budgets(pins: dict) -> dict[str, int]:
    n = pins["facts"]
    return {"1": 1, "n-1": n - 1, "n": n, "n+1": n + 1, "n+nodes": n + pins["nodes"]}


# ----------------------------------------------------------------------
# (a) the budget boundary
# ----------------------------------------------------------------------
@pytest.mark.parametrize("shards", [1, 2])
@pytest.mark.parametrize("label", ["1", "n-1", "n", "n+1", "n+nodes"])
def test_budget_cut_inside_the_burst(label, shards):
    pins = PINS["small"]
    engine, facts = small_engine(shards, max_events=budgets(pins)[label])
    trace = engine.run(until=30.0, extra_facts=facts)
    assert len(engine._base_facts) == pins["facts"]
    cut = (trace.events_processed, trace.quiescent, trace.fingerprint())
    assert cut == pins["cuts"][label]
    # a second run() with a fresh budget picks the burst up where it stopped
    assert finish(engine) == pins["fingerprint"]
    assert engine.trace.events_processed == pins["events"]


@pytest.mark.parametrize("shards", [1, 2])
def test_same_budget_resumed_in_segments(shards):
    """Repeated ``run()`` calls under one small budget walk through the
    burst in equal steps and still land on the uncut fingerprint."""

    pins = PINS["small"]
    step = pins["facts"] // 3 + 1
    engine, facts = small_engine(shards, max_events=step)
    for segment in range(1, 4):
        trace = engine.run(until=30.0, extra_facts=facts)
        assert trace.events_processed == segment * step
        assert not trace.quiescent
    assert finish(engine) == pins["fingerprint"]


# ----------------------------------------------------------------------
# (b) other t=0 events keep their place relative to the burst
# ----------------------------------------------------------------------
EXTRA_FACT = ("importPref", (0, 1, 50))  # displaces the seeded (0, 1, 0)


def _failed_link(engine):
    link = engine.topology.up_links()[0]
    return link.src, link.dst


@pytest.mark.parametrize("shards", [1, 2])
@pytest.mark.parametrize(
    "pin, seed_first, what",
    [
        ("fact_first", False, "fact"),
        ("fact_after_seed", True, "fact"),
        ("failure_first", False, "failure"),
        ("failure_after_seed", True, "failure"),
    ],
)
def test_t0_events_keep_their_place(pin, seed_first, what, shards):
    engine, facts = small_engine(shards)
    if seed_first:
        engine.seed_facts(facts)
    if what == "fact":
        engine.schedule_fact(*EXTRA_FACT, at=0.0)
    else:
        engine.schedule_link_failure(*_failed_link(engine), at=0.0)
    if not seed_first:
        engine.seed_facts(facts)
    assert finish(engine) == PINS["small"][pin]


# ----------------------------------------------------------------------
# (c) the reference rule interpreter, real worker processes, the daemon
# ----------------------------------------------------------------------
@pytest.mark.parametrize("shards", [1, 2])
@pytest.mark.parametrize("rule_tier", ["reference"], indirect=True)
def test_rule_tier_cell(rule_tier, shards):
    # generated code and the reference are fingerprint-identical: the
    # reference lands on the pinned value too
    engine, facts = small_engine(shards)
    engine.seed_facts(facts)
    assert finish(engine) == PINS["small"]["fingerprint"]
    assert engine.trace.events_processed == PINS["small"]["events"]


def test_process_shards():
    engine, facts = small_engine(2, transport="process")
    engine.seed_facts(facts)
    assert finish(engine) == PINS["small"]["fingerprint"]
    assert engine.trace.events_processed == PINS["small"]["events"]


def _serving(state_dir: Path, *args: str) -> list[str]:
    return [sys.executable, "-m", "repro.serving", *args, "--state-dir", str(state_dir)]


def _serving_env() -> dict:
    env = os.environ.copy()
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    return env


def _boot(state_dir: Path) -> subprocess.Popen:
    daemon = subprocess.Popen(
        _serving(
            state_dir, "serve", "--family", "tree", "--size", "10",
            "--policy", "gao_rexford", "--snapshot-every", "4",
        ),
        env=_serving_env(), stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
    )
    line = daemon.stdout.readline()
    assert "serving on" in line, f"daemon failed to boot: {line!r}"
    return daemon


def _send(state_dir: Path, *args: str) -> dict:
    done = subprocess.run(
        _serving(state_dir, *args), env=_serving_env(),
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    return json.loads(done.stdout)


def test_serving_boot_and_sigkill_recovery(tmp_path):
    state = tmp_path / "state"
    daemon = _boot(state)
    try:
        for dst in ("1", "2", "1"):
            _send(state, "update", "link_fail", "--src", "0", "--dst", dst)
            _send(state, "update", "link_restore", "--src", "0", "--dst", dst)
        before = _send(state, "query", "fingerprint")
    finally:
        daemon.kill()
        daemon.wait(timeout=30)
    assert before["fingerprint"] == PINS["serving"]
    # the boot's seeding burst is replayed (ledger tail) or restored
    # (snapshot) on restart: same fingerprint either way
    daemon = _boot(state)
    try:
        assert _send(state, "query", "status")["recovered_from"] == "snapshot+replay"
        assert _send(state, "query", "fingerprint") == before
    finally:
        _send(state, "query", "stop")
        assert daemon.wait(timeout=30) == 0


# ----------------------------------------------------------------------
# (d) the count claim
# ----------------------------------------------------------------------
def test_seeding_queues_one_event_and_still_counts_every_fact():
    pins = PINS["gao20"]
    sc = scenario(20, 1)
    engine = create_engine(
        policy_path_vector_program(), sc.topology,
        config=EngineConfig(seed=1, max_events=BIG),
    )
    sc.churn.apply_to_engine(engine)
    scheduled = engine.scheduler.pending  # the churn schedule
    engine.seed_facts(sc.policy_fact_list())
    assert len(engine._base_facts) == pins["facts"]
    # one seed event (plus at most the two maintenance timers), not one
    # event per configured fact
    assert 1 <= engine.scheduler.pending - scheduled <= 3
    assert "seed" in engine.scheduler.pending_kinds()
    trace = engine.run(until=30.0)
    assert trace.quiescent
    assert trace.events_processed == pins["events"]
    assert trace.fingerprint() == pins["fingerprint"]
