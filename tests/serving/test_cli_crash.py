"""Crash recovery through the real CLI: a daemon SIGKILLed mid-update-
stream restarts from its snapshot + ledger tail and reaches the exact
fingerprint of an uninterrupted run (torn ledger lines included); a
``serve --shards 2`` daemon ends on the one-shard daemon's fingerprint."""

import json
import os
import subprocess
import sys
from pathlib import Path

from repro.serving import ServingClient

REPO_ROOT = Path(__file__).resolve().parents[2]

SERVE_ARGS = ["--family", "tree", "--size", "14", "--snapshot-every", "3"]


def serving_env() -> dict:
    env = os.environ.copy()
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    return env


def start_daemon(state_dir: Path, *extra: str) -> subprocess.Popen:
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.serving", "serve",
         "--state-dir", str(state_dir), *SERVE_ARGS, *extra],
        env=serving_env(),
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    line = proc.stdout.readline()
    assert "serving on" in line, f"daemon failed to boot: {line!r}"
    return proc


def send(state_dir: Path, *args: str) -> dict:
    completed = subprocess.run(
        [sys.executable, "-m", "repro.serving", *args, "--state-dir", str(state_dir)],
        env=serving_env(),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stdout + completed.stderr
    return json.loads(completed.stdout)


def push_updates(state_dir: Path, rounds: int) -> None:
    for i in range(rounds):
        dst = str(i % 4 + 1)
        send(state_dir, "update", "link_fail", "--src", "0", "--dst", dst)
        send(state_dir, "update", "link_restore", "--src", "0", "--dst", dst)


class TestCrashRecovery:
    def test_sigkill_restart_reaches_identical_fingerprint(self, tmp_path):
        state = tmp_path / "state"
        daemon = start_daemon(state)
        try:
            push_updates(state, rounds=3)
            before = send(state, "query", "fingerprint")
            assert before["seq"] == 6
        finally:
            daemon.kill()
            daemon.wait(timeout=30)

        # snapshot cadence 3 ⇒ the kill left the seq-6 snapshot (written
        # before that update was acknowledged): digests, counters and live
        # tables, no history — recovery restores it and is byte-identical,
        # record counts included
        daemon = start_daemon(state)
        try:
            status = send(state, "query", "status")
            assert status["recovered_from"] == "snapshot+replay"
            assert send(state, "query", "fingerprint") == before
            # and the daemon keeps working after recovery
            ack = send(state, "update", "link_fail", "--src", "0", "--dst", "1")
            assert ack["seq"] == 7 and ack["settled"]
        finally:
            send(state, "query", "stop")
            assert daemon.wait(timeout=30) == 0

    def test_sigkill_with_torn_ledger_line(self, tmp_path):
        state = tmp_path / "state"
        daemon = start_daemon(state)
        try:
            push_updates(state, rounds=2)
            before = send(state, "query", "fingerprint")
        finally:
            daemon.kill()
            daemon.wait(timeout=30)

        # simulate the torn tail a kill mid-append leaves behind
        with (state / "updates.jsonl").open("a") as handle:
            handle.write('{"seq": 5, "verb": "link_fail", "args": {"sr')

        daemon = start_daemon(state)
        try:
            after = send(state, "query", "fingerprint")
            assert after["seq"] == before["seq"]
            assert after["fingerprint"] == before["fingerprint"]
        finally:
            send(state, "query", "stop")
            daemon.wait(timeout=30)

    def test_cli_one_shot_client_flags(self, tmp_path):
        state = tmp_path / "state"
        daemon = start_daemon(state)
        try:
            answer = send(state, "query", "best_path", "--src", "0", "--dst", "5")
            assert answer["found"] and answer["path"][0] == 0
            table = send(state, "query", "table", "--predicate", "link", "--node", "0")
            assert table["count"] > 0
            raw = send(
                state, "query", "routes", "--args", json.dumps({"node": 0})
            )
            assert raw["count"] > 0
        finally:
            send(state, "query", "stop")
            daemon.wait(timeout=30)

    def test_sharded_daemon_matches_single_shard(self, tmp_path):
        """``serve --shards 2`` boots worker processes behind the socket,
        settles every update, and ends on the one-shard daemon's fingerprint."""

        fingerprints = {}
        for shards in (1, 2):
            state = tmp_path / f"sh{shards}"
            daemon = start_daemon(state, "--shards", str(shards))
            try:
                with ServingClient.from_state_dir(state, timeout=120) as client:
                    for dst in (1, 2):
                        for verb in ("link_fail", "link_restore"):
                            assert client.update(verb, src=0, dst=dst)["settled"]
                    status = client.query("status")
                    assert status["shards"] == shards and status["seq"] == 4
                    assert status["settled"] and status["monitors_ok"]
                    fingerprints[shards] = client.query("fingerprint")
                    client.stop()
                assert daemon.wait(timeout=30) == 0
            finally:
                if daemon.poll() is None:
                    daemon.kill()
                    daemon.wait(timeout=30)
        assert fingerprints[2] == fingerprints[1]
