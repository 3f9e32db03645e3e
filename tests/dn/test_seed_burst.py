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
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.bgp.generator import policy_path_vector_program
from repro.dn import EngineConfig, ShardedEngine, create_engine
from repro.scenarios import generate_scenario

REPO_ROOT = Path(__file__).resolve().parents[2]

#: every fingerprint compared here is also checked against the pre-fp2
#: definition (tests/conftest.py): equal under v1 iff equal under fp2
pytestmark = pytest.mark.usefixtures("fp_agreement")

BIG = 10_000_000

PINS = {
    # power_law-8 / gao_rexford / seed 3 / churn 2 / loss 0.01
    "small": {
        "facts": 464,
        "nodes": 8,
        "events": 570,
        "fingerprint": "042ee7cb28df31c1358ee8a5b677514c2855df69fb024efdfc65b81ac1d927b0",
        # budget → (events_processed, quiescent, fingerprint at the cut)
        "cuts": {
            "1": (1, False, "06ddfc5cbc4b01f8f4aff40e99f45888fafac127d21ee58939bd3d663813d027"),
            "n-1": (463, False, "eb9581b8049bc55083386fe606bb5e9f6f4c4954d2896fe997decbaace243393"),
            "n": (464, False, "cda6995ebbf3161ed68798ba4dc3b5294183a8369badd336d6f6fe52f8986959"),
            "n+1": (465, False, "83ccb2ed7e68e7bd868a144359b9748b0f97787abe5e775a11a0f6b503fc2c5e"),
            "n+nodes": (472, False, "035081d2c08c5f0a813504e7b9ce3ea314d435cd80ac6616112c766b931ec396"),
        },
        "fact_first": "2691ec2021e5bab75b188401fa201f2e6466483ab234782e2d20b62d027d656d",
        "fact_after_seed": "c7a560e80dfd00cad08b7db9fffcab044f6311bb8e5a4a53af7482ed3b9691b4",
        "failure_first": "3f9db425cdbc755a8e1090fbcd69730ae5e0d3e2921d06e7a5cecfe265fb9670",
        "failure_after_seed": "7a8bc5a5affd6b6c6780699085e2b8aabff014a5d1681689c1c5ff23e359a4a7",
    },
    # power_law-20 / gao_rexford / seed 1 / churn 2 / loss 0.01; the parent
    # queued 7472 events in seed_facts
    "gao20": {
        "facts": 7472,
        "events": 7787,
        "fingerprint": "88eabdef143f5644d1ada66f36c456a6c3bd9d0b3547137437137af0d468e290",
    },
    # tree-10 gao_rexford daemon after three fail/restore pairs
    "serving": "f0c8298656ab3cc1a0cef80e40eaf4cb3e0d635ced054676d828490447b6c3ca",
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
