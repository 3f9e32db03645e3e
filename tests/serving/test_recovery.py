"""Durability contract: snapshot round-trips, ledger replay, and crash
recovery all reach byte-identical ``Trace.fingerprint()`` state."""

import hashlib
import json
import pickle
import random
import struct
from dataclasses import replace

import pytest

from repro.dn.engine import DistributedEngine, EngineConfig, restore_engine
from repro.dn.monitors import MONITOR_KINDS, build_monitor
from repro.dn.trace import Trace
from repro.harness.records import canonical_json
from repro.protocols import pathvector
from repro.protocols.pathvector import path_vector_program
from repro.scenarios import generate_scenario
from repro.serving import RouteService, ServerConfig
from repro.serving.checkpoint import SNAPSHOT_FORMAT, open_snapshot, seal_snapshot
from repro.serving.service import (
    BOOT_NAME,
    LEDGER_NAME,
    SNAPSHOT_NAME,
    build_serving_program,
)

COMPACT = Trace.compact

UPDATES = [
    ("link_fail", {"src": 0, "dst": 1}),
    ("cost_change", {"src": 1, "dst": 2, "cost": 7.5}),
    ("set_fact", {"predicate": "link", "values": [0, 5, 2.0]}),
    ("link_restore", {"src": 0, "dst": 1}),
    ("del_fact", {"predicate": "link", "values": [0, 5, 2.0]}),
]


def reference_fingerprint(**config_overrides) -> str:
    """Fingerprint of an uninterrupted, non-durable run of UPDATES."""

    service = RouteService(
        ServerConfig(family="tree", size=16, snapshot_every=0, **config_overrides)
    )
    try:
        for verb, args in UPDATES:
            service.apply_update(verb, args)
        return service.query("fingerprint", {})["fingerprint"]
    finally:
        service.close()


def durable_config(tmp_path, **overrides) -> ServerConfig:
    kwargs = {
        "family": "tree",
        "size": 16,
        "state_dir": str(tmp_path / "state"),
        "snapshot_every": 2,
    }
    kwargs.update(overrides)
    return ServerConfig(**kwargs)


def run_durable(config) -> str:
    service = RouteService(config)
    try:
        for verb, args in UPDATES:
            service.apply_update(verb, args)
        return service.query("fingerprint", {})["fingerprint"]
    finally:
        service.close()


def captured(shards: int, updates=UPDATES[:3], size: int = 16) -> tuple[dict, str]:
    """A pickled round trip of the capture of a tree daemon on ``shards``
    after ``updates``, and its fingerprint."""

    service = RouteService(
        ServerConfig(family="tree", size=size, shards=shards, snapshot_every=0)
    )
    try:
        for verb, args in updates:
            service.apply_update(verb, args)
        fingerprint = service.engine.trace.fingerprint()
        return pickle.loads(pickle.dumps(service.engine.capture())), fingerprint
    finally:
        service.close()


class TestSnapshotRoundTrip:
    def test_capture_restore_identity(self):
        capture, fingerprint = captured(1)
        config = ServerConfig(family="tree", size=16)
        engine = restore_engine(
            build_serving_program(config),
            capture,
            config=EngineConfig(seed=config.seed, max_events=config.settle_max_events),
        )
        assert engine.trace.fingerprint() == fingerprint

    @pytest.mark.parametrize("restore_shards", [1, 2])
    def test_sharded_capture_restore_identity(self, restore_shards):
        """A 2-shard engine captures the same state as a 1-shard one, and
        it restores on either shard count: same fingerprint, and the row
        views of a restored 2-shard engine match its workers."""

        capture, fingerprint = captured(2)
        single, single_fingerprint = captured(1)
        assert fingerprint == single_fingerprint
        assert capture["nodes"] == single["nodes"]
        config = ServerConfig(family="tree", size=16)
        engine = restore_engine(
            build_serving_program(config),
            capture,
            config=EngineConfig(seed=config.seed, shards=restore_shards),
        )
        try:
            assert engine.trace.fingerprint() == fingerprint
            assert engine.global_snapshot() == restore_engine(
                build_serving_program(config), single, config=EngineConfig(seed=config.seed)
            ).global_snapshot()
            if restore_shards > 1:
                engine.validate_shards()
        finally:
            engine.close()

    @pytest.mark.parametrize("shards", [1, 2])
    def test_capture_leaves_the_engine_unchanged(self, shards):
        """Reading a capture consumes no scheduler sequence number (what_if
        captures the live engine on every query) and, sharded, takes no
        respawn checkpoint and keeps the request logs."""

        service = RouteService(
            ServerConfig(family="tree", size=12, shards=shards, snapshot_every=0)
        )
        try:
            service.apply_update(*UPDATES[0])
            engine = service.engine
            if shards > 1:
                logs = [list(log) for log in engine.host._logs]
                checkpoints = list(engine.shard_checkpoints)
            first = pickle.dumps(engine.capture())
            second = pickle.dumps(engine.capture())
            assert first == second
            assert engine.scheduler.next_seqno() == pickle.loads(first)["scheduler"]["counter"]
            if shards > 1:
                assert [list(log) for log in engine.host._logs] == logs
                assert engine.shard_checkpoints == checkpoints
        finally:
            service.close()


def test_monitor_state_adds_little_to_a_capture():
    """Monitors read the engine's tables and keep only their violations:
    a settled tree-28 capture with three monitors pickles within 1 % of
    the same capture without them."""

    def capture_bytes(kinds) -> int:
        scenario = generate_scenario("tree", size=28, seed=0)
        engine = DistributedEngine(
            path_vector_program(), scenario.topology, config=EngineConfig(seed=0)
        )
        for kind in kinds:
            engine.attach_monitor(build_monitor(kind))
        engine.run()
        engine.finalize_monitors()
        assert all(monitor.ok for monitor in engine.monitors)
        return len(pickle.dumps(engine.capture()))

    bare = capture_bytes(())
    assert capture_bytes(MONITOR_KINDS[:3]) <= 1.01 * bare


class TestRecovery:
    def test_live_durable_run_matches_reference(self, tmp_path):
        assert run_durable(durable_config(tmp_path)) == reference_fingerprint()

    def test_snapshot_plus_ledger_tail(self, tmp_path):
        config = durable_config(tmp_path)
        reference = run_durable(config)
        recovered = RouteService(durable_config(tmp_path))
        try:
            assert recovered.recovered_from == "snapshot+replay"
            assert recovered.seq == len(UPDATES)
            assert recovered.query("fingerprint", {})["fingerprint"] == reference
        finally:
            recovered.close()

    def test_full_ledger_replay_without_snapshot(self, tmp_path):
        config = durable_config(tmp_path)
        reference = run_durable(config)
        (tmp_path / "state" / SNAPSHOT_NAME).unlink()
        recovered = RouteService(durable_config(tmp_path))
        try:
            assert recovered.recovered_from == "replay"
            assert recovered.query("fingerprint", {})["fingerprint"] == reference
        finally:
            recovered.close()

    def test_torn_ledger_line_is_skipped(self, tmp_path):
        reference = run_durable(durable_config(tmp_path))
        ledger = tmp_path / "state" / LEDGER_NAME
        with ledger.open("a") as handle:
            handle.write('{"seq": 6, "verb": "link_fail", "args": {"sr')
        recovered = RouteService(durable_config(tmp_path))
        try:
            assert recovered.seq == len(UPDATES)
            assert recovered.query("fingerprint", {})["fingerprint"] == reference
        finally:
            recovered.close()

    def test_corrupt_snapshot_falls_back_to_replay(self, tmp_path):
        reference = run_durable(durable_config(tmp_path))
        (tmp_path / "state" / SNAPSHOT_NAME).write_bytes(b"not a pickle")
        recovered = RouteService(durable_config(tmp_path))
        try:
            assert recovered.recovered_from == "replay"
            assert recovered.query("fingerprint", {})["fingerprint"] == reference
        finally:
            recovered.close()

    def recover(self, tmp_path, **overrides) -> tuple[str, str]:
        recovered = RouteService(durable_config(tmp_path, **overrides))
        try:
            return recovered.recovered_from, recovered.query("fingerprint", {})["fingerprint"]
        finally:
            recovered.close()

    def test_flipped_byte_in_a_table_row_falls_back_to_replay(self, tmp_path):
        """The fingerprint stamp only vouches for the trace; a bit flipped in
        a table row that still unpickles is caught by the body checksum."""

        service = RouteService(durable_config(tmp_path))
        try:
            service.apply_update("set_fact", {"predicate": "link", "values": [0, 5, 1234.5]})
            service.apply_update("link_fail", {"src": 0, "dst": 1})  # pushes it out of the tail
            reference = service.query("fingerprint", {})["fingerprint"]
        finally:
            service.close()
        path = tmp_path / "state" / SNAPSHOT_NAME
        data = path.read_bytes()
        intact = open_snapshot(data)
        # flip the lowest mantissa bit of a pickled 1234.5 that only a table
        # row holds (a row still in the trace's tail shares its tuple with it)
        needle = b"G" + struct.pack(">d", 1234.5)
        at = data.find(needle)
        while at >= 0:
            last = at + len(needle) - 1
            tampered = data[:last] + bytes([data[last] ^ 1]) + data[last + 1 :]
            forged = pickle.loads(tampered.partition(b"\n")[2])
            if (
                forged["engine"]["nodes"] != intact["engine"]["nodes"]
                and forged["engine"]["trace"].fingerprint() == intact["fingerprint"]
            ):
                break
            at = data.find(needle, at + 1)
        else:
            pytest.fail("no table row alone holds the marker cost")
        # the config and fingerprint stamps still verify: only the checksum tells
        assert forged["config"] == intact["config"]
        assert open_snapshot(tampered) is None
        path.write_bytes(tampered)
        assert self.recover(tmp_path) == ("replay", reference)

    def test_truncated_snapshot_falls_back_to_replay(self, tmp_path):
        reference = run_durable(durable_config(tmp_path))
        path = tmp_path / "state" / SNAPSHOT_NAME
        data = path.read_bytes()
        for cut in (len(data) - 1, len(data) // 2, len(SNAPSHOT_FORMAT) + 3, 0):
            path.write_bytes(data[:cut])
            assert self.recover(tmp_path) == ("replay", reference)
        path.write_bytes(data)
        assert self.recover(tmp_path) == ("snapshot+replay", reference)

    def test_previous_format_snapshot_falls_back_to_replay(
        self, tmp_path, monkeypatch, fingerprint_v1
    ):
        """What the daemon wrote before ``SNAPSHOT_FORMAT``: a bare pickle
        carrying the full Trace, stamped with the v1 fingerprint."""

        config = durable_config(tmp_path)
        with monkeypatch.context() as patch:
            patch.setattr(Trace, "compact", lambda trace: None)  # keep history
            service = RouteService(config)
            try:
                for verb, args in UPDATES:
                    service.apply_update(verb, args)
                reference = service.query("fingerprint", {})["fingerprint"]
                old_snapshot = {
                    "seq": service.seq,
                    "fingerprint": fingerprint_v1(service.engine.trace),
                    "config": service.config.to_dict(),
                    "engine": service.engine.capture(),
                    "acks": [],
                }
                payload = pickle.dumps(old_snapshot)
            finally:
                service.close()
        assert open_snapshot(payload) is None
        (tmp_path / "state" / SNAPSHOT_NAME).write_bytes(payload)
        assert self.recover(tmp_path) == ("replay", reference)

    def reseal_as(self, tmp_path, older_format: str) -> str:
        """Run UPDATES durably, then re-seal the snapshot under an older
        format tag with a valid body checksum; returns the reference
        fingerprint."""

        reference = run_durable(durable_config(tmp_path))
        path = tmp_path / "state" / SNAPSHOT_NAME
        body = path.read_bytes().partition(b"\n")[2]
        older = f"{older_format} {hashlib.sha256(body).hexdigest()}".encode()
        path.write_bytes(older + b"\n" + body)
        return reference

    @pytest.mark.parametrize(
        "version, carried",
        [
            pytest.param(2, "pickled view memos", id="format-2"),
            pytest.param(3, "the Trace's records as dataclasses in bare lists", id="format-3"),
            pytest.param(4, "each row with its insertion and expiry times", id="format-4"),
            pytest.param(5, "fp2 digest chains and NamedTuple tail records", id="format-5"),
            pytest.param(6, "each monitor's mirror of its watched tables", id="format-6"),
            pytest.param(7, "every table's hash-index buckets", id="format-7"),
            pytest.param(8, "maintenance timers only, no pending events", id="format-8"),
            pytest.param(9, "monitor classes pickled under repro.fvn.monitors", id="format-9"),
            pytest.param(10, "each table's index positions", id="format-10"),
            pytest.param(11, "no program digest", id="format-11"),
            pytest.param(12, "the predicates the engine protected", id="format-12"),
        ],
    )
    def test_intact_older_format_snapshot_falls_back_to_replay(
        self, tmp_path, version, carried
    ):
        """An older file — ``carried`` names what its body held that the
        current format does not — is refused for full replay even sealed
        with a valid checksum, so none of it reaches an engine."""

        assert SNAPSHOT_FORMAT == "fvn-snapshot/13"
        reference = self.reseal_as(tmp_path, f"fvn-snapshot/{version}")
        assert self.recover(tmp_path) == ("replay", reference)

    def test_program_change_recovers_by_full_replay(self, tmp_path, monkeypatch):
        """A daemon restarted on code whose ``r2`` cost term changed refuses
        its snapshot, a capture of the old program, and rebuilds from the
        ledger: it serves the ``bestPath`` rows the changed rules derive."""

        updates = [("link_fail", {"src": 1, "dst": 3}), ("link_fail", {"src": 2, "dst": 6})]

        def serve(config):
            service = RouteService(config)
            try:
                for verb, args in updates:
                    service.apply_update(verb, args)
                return service.query("table", {"predicate": "bestPath"})["rows"]
            finally:
                service.close()

        old_rows = serve(durable_config(tmp_path, size=8))
        assert (tmp_path / "state" / SNAPSHOT_NAME).exists()
        monkeypatch.setattr(
            pathvector,
            "PATH_VECTOR_SOURCE",
            pathvector.PATH_VECTOR_SOURCE.replace("C=C1+C2,", "C=C1+C2+C2,"),
        )
        new_rows = serve(ServerConfig(family="tree", size=8, snapshot_every=0))
        assert new_rows != old_rows
        recovered = RouteService(durable_config(tmp_path, size=8))
        try:
            assert recovered.recovered_from == "replay"
            assert recovered.seq == len(updates)
            assert recovered.query("status", {})["program_digest"] == (
                recovered.engine.program_digest
            )
            assert recovered.query("table", {"predicate": "bestPath"})["rows"] == new_rows
        finally:
            recovered.close()

    def test_sealed_snapshot_round_trips(self):
        snapshot = {"seq": 3, "engine": {"nodes": {0: [("link", (0, 1, 2.5))]}}}
        data = seal_snapshot(snapshot)
        assert data.startswith(SNAPSHOT_FORMAT.encode() + b" ")
        assert open_snapshot(data) == snapshot

    def test_recovery_continues_accepting_updates(self, tmp_path):
        run_durable(durable_config(tmp_path))
        recovered = RouteService(durable_config(tmp_path))
        try:
            ack = recovered.apply_update("link_fail", {"src": 0, "dst": 1})
            assert ack["seq"] == len(UPDATES) + 1 and ack["settled"]
        finally:
            recovered.close()

    def churn_then_recover(self, tmp_path, links, **overrides) -> tuple[str, str, str]:
        """Fail and restore each of ``links`` in turn on a durable daemon,
        then reopen it: ``(live fingerprint, recovered_from, recovered
        fingerprint)``."""

        service = RouteService(durable_config(tmp_path, **overrides))
        try:
            for src, dst in links:
                service.apply_update("link_fail", {"src": src, "dst": dst})
                service.apply_update("link_restore", {"src": src, "dst": dst})
            live = service.query("fingerprint", {})["fingerprint"]
        finally:
            service.close()
        return (live, *self.recover(tmp_path, **overrides))

    def test_policy_daemon_recovers_restored_view_memos_in_live_order(self, tmp_path):
        """A restored aggregate memo must hold the live one's groups and
        rows.  Memos unpickled from a snapshot used to iterate in another
        order, and while changes were emitted in memo order this daemon
        recovered to another fingerprint.  Memos are rebuilt on restore,
        and changes are emitted in group-key order, so only content is
        load-bearing now; the case stays as a recovery regression."""

        live, how, recovered = self.churn_then_recover(
            tmp_path, [(0, 1), (0, 2), (0, 1)],
            size=10, policy="gao_rexford", snapshot_every=4,
        )
        assert how == "snapshot+replay"
        assert recovered == live

    @pytest.mark.parametrize("topo_seed", [1, 2])
    def test_policy_daemon_recovers_after_random_churn(self, tmp_path, topo_seed):
        topology = generate_scenario(
            "power_law", size=16, seed=topo_seed, policy="gao_rexford"
        ).topology
        links = sorted(
            (link.src, link.dst) for link in topology.links() if link.src < link.dst
        )
        rng = random.Random(topo_seed)
        live, how, recovered = self.churn_then_recover(
            tmp_path, [rng.choice(links) for _ in range(12)],
            family="power_law", size=16, topo_seed=topo_seed,
            policy="gao_rexford", snapshot_every=5,
        )
        assert how == "snapshot+replay"
        assert recovered == live

    @pytest.mark.parametrize("shards", [1, 2])
    def test_snapshot_written_mid_settle_recovers(self, tmp_path, monkeypatch, shards):
        """A daemon whose settle budget runs out snapshots with events still
        pending; killed after two more updates, it recovers from that
        snapshot plus the ledger tail to the replay-only control's
        fingerprint, on 1 and 2 inline shards."""

        engine_config = RouteService._engine_config
        monkeypatch.setattr(
            RouteService,
            "_engine_config",
            lambda service: replace(engine_config(service), shard_transport="inline"),
        )
        overrides = dict(snapshot_every=1, settle_max_events=40, shards=shards)
        service = RouteService(durable_config(tmp_path, **overrides))
        path = tmp_path / "state" / SNAPSHOT_NAME
        try:
            unsettled = []
            for seq, (verb, args) in enumerate(UPDATES, 1):
                unsettled.append(not service.apply_update(verb, args)["settled"])
                if seq == 3:
                    written = path.read_bytes()
            # the daemon dies before it writes the last two snapshots
            live = service.query("fingerprint", {})["fingerprint"]
        finally:
            service.close()
        assert unsettled[2] and open_snapshot(written)["engine"]["pending"]
        path.write_bytes(written)
        recovered = RouteService(durable_config(tmp_path, **overrides))
        try:
            assert recovered.recovered_from == "snapshot+replay"
            assert recovered.query("fingerprint", {})["fingerprint"] == live
        finally:
            recovered.close()
        assert live == reference_fingerprint(settle_max_events=40)

    def test_sharded_daemon_recovers_from_snapshot(self, tmp_path):
        """A 2-shard daemon snapshots like a 1-shard one and recovers from
        the snapshot plus the ledger tail to the 1-shard fingerprint."""

        reference = reference_fingerprint()
        config = durable_config(tmp_path, shards=2)
        assert run_durable(config) == reference
        recovered = RouteService(durable_config(tmp_path, shards=2))
        try:
            assert recovered.recovered_from == "snapshot+replay"
            assert recovered.query("fingerprint", {})["fingerprint"] == reference
            recovered.engine.validate_shards()
        finally:
            recovered.close()

    def test_restored_sharded_daemon_respawns_from_the_restored_checkpoint(
        self, tmp_path
    ):
        """Kill a worker of a snapshot-restored 2-shard daemon, then apply
        one more update: the respawn loads the checkpoint the restore left
        and the daemon stays on the single-process control's fingerprint."""

        extra = ("link_fail", {"src": 1, "dst": 2})
        run_durable(durable_config(tmp_path, shards=2))
        recovered = RouteService(durable_config(tmp_path, shards=2))
        try:
            assert recovered.recovered_from == "snapshot+replay"
            engine = recovered.engine
            shard = engine.partition_map[0]
            engine.host._clients[shard].kill()
            assert recovered.apply_update(*extra)["settled"]
            assert engine.shard_restarts[shard] == 1
            engine.validate_shards()
            fingerprint = recovered.query("fingerprint", {})["fingerprint"]
        finally:
            recovered.close()
        control = RouteService(ServerConfig(family="tree", size=16, snapshot_every=0))
        try:
            for verb, args in UPDATES + [extra]:
                control.apply_update(verb, args)
            assert control.query("fingerprint", {})["fingerprint"] == fingerprint
        finally:
            control.close()

    def test_boot_record_pins_determinism_fields(self, tmp_path):
        """A restart with different scenario flags must run the persisted
        config — the ledger is only meaningful against the original one."""

        run_durable(durable_config(tmp_path))
        recovered = RouteService(durable_config(tmp_path, size=99, topo_seed=7))
        try:
            assert recovered.config.size == 16
            assert recovered.config.topo_seed == 0
        finally:
            recovered.close()

    def test_state_dir_stamped_with_the_removed_codegen_knob(self, tmp_path):
        """A state dir written while ``ServerConfig`` still had a ``codegen``
        field: its boot record and its snapshot's config stamp both carry
        ``"codegen": true``.  The boot record still loads — ``from_dict``
        ignores the unknown key — but the stamp no longer equals the live
        config, so recovery takes full ledger replay, and lands on the live
        fingerprint."""

        live = run_durable(durable_config(tmp_path))
        state = tmp_path / "state"
        boot = json.loads((state / BOOT_NAME).read_text())
        boot["config"]["codegen"] = True
        (state / BOOT_NAME).write_text(canonical_json(boot) + "\n")
        snapshot = open_snapshot((state / SNAPSHOT_NAME).read_bytes())
        snapshot["config"]["codegen"] = True
        (state / SNAPSHOT_NAME).write_bytes(seal_snapshot(snapshot))

        assert ServerConfig.from_dict(boot["config"]) == durable_config(tmp_path)
        assert self.recover(tmp_path) == ("replay", live)


class TestFingerprintAgreement:
    """v1 ⇔ fp3 over the recovery suite's run pairs.  v1 needs the complete
    record lists, so these daemons run with compaction switched off — which
    fp3, being a pure function of the record stream, cannot observe."""

    @pytest.fixture(autouse=True)
    def keep_history(self, monkeypatch, fp_agreement):
        monkeypatch.setattr(Trace, "compact", lambda trace: None)
        self.checked = fp_agreement

    def test_recovery_paths_and_perturbed_runs(self, tmp_path):
        before = len(self.checked)
        reference = reference_fingerprint()
        assert run_durable(durable_config(tmp_path)) == reference
        for expected in ("snapshot+replay", "replay"):
            recovered = RouteService(durable_config(tmp_path))
            try:
                assert recovered.recovered_from == expected
                assert recovered.query("fingerprint", {})["fingerprint"] == reference
            finally:
                recovered.close()
            (tmp_path / "state" / SNAPSHOT_NAME).unlink(missing_ok=True)
        # negative pairs: another channel seed, loss, another update order
        assert reference_fingerprint(seed=3) != reference
        assert reference_fingerprint(loss=0.2) != reference
        reordered = RouteService(ServerConfig(family="tree", size=16, snapshot_every=0))
        try:
            for verb, args in reversed(UPDATES[:2]):
                reordered.apply_update(verb, args)
            for verb, args in UPDATES[2:]:
                reordered.apply_update(verb, args)
            assert reordered.query("fingerprint", {})["fingerprint"] != reference
        finally:
            reordered.close()
        assert len(self.checked) - before >= 7  # every one of them was v1-checked
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(Trace, "compact", COMPACT)  # and a compacting daemon agrees
            assert reference_fingerprint() == reference
