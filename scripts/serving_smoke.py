#!/usr/bin/env python
"""CI smoke test for the routing service daemon.

Exercises the full serving stack the way an operator would, end to end,
once per shard count in ``SHARDS`` (one-process and sharded daemons take
the same snapshot and recovery path):

1. boot a durable daemon through the CLI (``python -m repro.serving serve``);
2. hammer it with concurrent clients — one thread pushing the scenario's
   churn schedule as live updates, two threads reading best paths — over
   the real socket;
3. check the runtime invariant monitors are green and every update settled;
4. require ``snapshot.pkl`` to track live state, not history: the churn
   schedule is driven ``CHURN_PASSES`` times, every pass ends with all links
   restored, and the snapshot after the last pass may not exceed the one
   after the first by more than 25 %;
5. SIGKILL the daemon mid-life, restart it, and require it to recover from
   the snapshot plus the ledger tail (``recovered_from ==
   "snapshot+replay"``) to a ``Trace.fingerprint()`` **byte-identical** to
   the pre-kill state;
6. write the collected evidence to ``--artifacts`` for upload.

Exits non-zero on any failure.  Usage::

    PYTHONPATH=src python scripts/serving_smoke.py --artifacts smoke-out
"""

from __future__ import annotations

import argparse
import subprocess
import sys
import tempfile
import threading
from pathlib import Path

from _smoke_common import start_daemon, write_evidence  # noqa: F401 (sets sys.path)

from repro.scenarios import churn_updates, generate_scenario  # noqa: E402
from repro.serving import ServingClient  # noqa: E402

FAMILY = "tree"
SIZE = 20
CHURN_EVENTS = 6
CHURN_PASSES = 3
SNAPSHOT_EVERY = 4
#: shard counts the scenario runs on, one daemon each
SHARDS = (1, 2)
#: how much larger than the first pass's snapshot the last pass's may be
SNAPSHOT_GROWTH_LIMIT = 1.25


def boot(state_dir: Path, log_path: Path, shards: int) -> subprocess.Popen:
    return start_daemon(
        state_dir, log_path,
        "--family", FAMILY, "--size", str(SIZE),
        "--snapshot-every", str(SNAPSHOT_EVERY),
        "--shards", str(shards),
    )


def smoke(shards: int, updates: list, pass_length: int, log_path: Path) -> dict:
    """Drive one daemon on ``shards`` through churn, queries, SIGKILL and
    recovery; returns its evidence (raises SystemExit on a pre-kill
    failure)."""

    evidence: dict = {"shards": shards}
    with tempfile.TemporaryDirectory() as tmp:
        state_dir = Path(tmp) / "state"
        state_dir.mkdir()
        daemon = boot(state_dir, log_path, shards)
        try:
            acks: list = []
            snapshot_sizes: dict = {}  # seq -> bytes of the snapshot taken there
            query_count = [0, 0]

            def updater() -> None:
                with ServingClient.from_state_dir(state_dir, timeout=120) as client:
                    for update in updates:
                        ack = client.call(update["verb"], update["args"])
                        acks.append(ack)
                        if ack["seq"] % SNAPSHOT_EVERY == 0:
                            # written before the ack; the next update is not sent yet
                            snapshot_sizes[ack["seq"]] = (state_dir / "snapshot.pkl").stat().st_size

            def querier(slot: int) -> None:
                with ServingClient.from_state_dir(state_dir, timeout=120) as client:
                    for dst in range(1, SIZE, 2):
                        answer = client.best_path(0, dst)
                        assert "found" in answer
                        query_count[slot] += 1

            threads = [threading.Thread(target=updater)] + [
                threading.Thread(target=querier, args=(slot,)) for slot in (0, 1)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(300)
            if any(thread.is_alive() for thread in threads):
                raise SystemExit(f"smoke clients timed out ({shards} shards)")

            with ServingClient.from_state_dir(state_dir, timeout=120) as client:
                status = client.query("status")
                fingerprint = client.query("fingerprint")
            evidence["updates_acked"] = len(acks)
            evidence["all_settled"] = all(ack["settled"] for ack in acks)
            evidence["queries_answered"] = sum(query_count)
            evidence["monitors_ok"] = status["monitors_ok"]
            evidence["monitors"] = status["monitors"]
            evidence["pre_kill_fingerprint"] = fingerprint["fingerprint"]
            evidence["pre_kill_seq"] = fingerprint["seq"]
            # same live state (every link up) after the first and the last pass
            first, last = snapshot_sizes[pass_length], snapshot_sizes[len(updates)]
            evidence["snapshot_bytes"] = snapshot_sizes
            evidence["snapshot_bytes_first"] = first
            evidence["snapshot_bytes_last"] = last
            evidence["snapshot_bounded"] = last <= SNAPSHOT_GROWTH_LIMIT * first
            if not (evidence["all_settled"] and evidence["monitors_ok"]):
                raise SystemExit(f"serving smoke failed pre-kill: {evidence}")
            if not evidence["snapshot_bounded"]:
                raise SystemExit(f"snapshot.pkl grows with history: {evidence}")

            # hard-kill mid-life, restart, demand byte-identical recovery
            daemon.kill()
            daemon.wait(timeout=60)
            daemon = boot(state_dir, log_path, shards)
            with ServingClient.from_state_dir(state_dir, timeout=120) as client:
                recovered = client.query("fingerprint")
                recovered_status = client.query("status")
                client.query("stop")
            daemon.wait(timeout=60)
            evidence["recovered_from"] = recovered_status["recovered_from"]
            evidence["recovered_seq"] = recovered["seq"]
            evidence["recovered_fingerprint"] = recovered["fingerprint"]
            evidence["byte_identical"] = (
                recovered["fingerprint"] == evidence["pre_kill_fingerprint"]
                and recovered["seq"] == evidence["pre_kill_seq"]
            )
        finally:
            if daemon.poll() is None:
                daemon.kill()
                daemon.wait(timeout=30)
    return evidence


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--artifacts", default="serving-smoke-out", help="evidence output directory"
    )
    args = parser.parse_args()
    artifacts = Path(args.artifacts)
    artifacts.mkdir(parents=True, exist_ok=True)

    # the same churn a campaign cell would schedule, replayed live
    scenario = generate_scenario(
        FAMILY, size=SIZE, seed=0, churn_events=CHURN_EVENTS, churn_restore_delay=1.0
    )
    one_pass = churn_updates(scenario)
    assert one_pass, "scenario produced no churn to drive"
    assert len(one_pass) % SNAPSHOT_EVERY == 0, "a pass must end on a snapshot"
    updates = one_pass * CHURN_PASSES

    runs = [
        smoke(shards, updates, len(one_pass), artifacts / "daemon.log") for shards in SHARDS
    ]
    write_evidence(artifacts, {"family": FAMILY, "size": SIZE, "runs": runs})
    failed = False
    for run in runs:
        if not run["byte_identical"]:
            print(f"FAIL ({run['shards']} shards): recovered state diverged from pre-kill fingerprint")
            failed = True
        if run["recovered_from"] != "snapshot+replay":
            print(f"FAIL ({run['shards']} shards): recovered by {run['recovered_from']}, not the snapshot")
            failed = True
    if failed:
        return 1
    for run in runs:
        print(
            f"serving smoke OK on {run['shards']} shard(s): {run['updates_acked']} "
            f"updates, {run['queries_answered']} queries, monitors green, snapshot "
            f"{run['snapshot_bytes_first']} -> {run['snapshot_bytes_last']} bytes, "
            f"crash recovery byte-identical ({run['recovered_from']})"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
