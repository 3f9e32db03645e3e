"""Exactly-once serving retries: request-key dedup at the service, lost-ack
recovery over real sockets under injected connection resets, torn-snapshot
recovery, and the hardened client error mapping."""

import asyncio
import json
import os
import socket
import threading

import pytest

from repro.dn.faults import SERVING_SCOPE, Fault, FaultInjector, FaultPlan
from repro.serving import (
    RouteServer,
    RouteService,
    ServerConfig,
    ServingClient,
    ServingError,
)
from repro.jsonl import read_jsonl
from repro.serving.checkpoint import open_snapshot
from repro.serving.client import read_server_info


def make_service(tmp_path, **overrides) -> RouteService:
    config = ServerConfig(
        family="tree", size=12, state_dir=str(tmp_path / "state"), **overrides
    )
    return RouteService(config)


def ledgered(service: RouteService) -> list[tuple[int, str, dict]]:
    """``(seq, verb, args)`` of every update line in the service's ledger."""

    return [
        (record["seq"], record["verb"], record["args"])
        for record in read_jsonl(service.ledger_path)
    ]


@pytest.fixture()
def server_factory(tmp_path):
    """Start a RouteServer in a thread; yields (server, shutdown helper)."""

    started: list[tuple[RouteServer, threading.Thread]] = []

    def start(**overrides) -> RouteServer:
        service = make_service(tmp_path, **overrides)
        server = RouteServer(service)
        ready = threading.Event()

        def run():
            async def main():
                await server.start()
                ready.set()
                await server.serve_until_stopped()

            asyncio.run(main())

        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        assert ready.wait(10), "server failed to start"
        started.append((server, thread))
        return server

    yield start
    for server, thread in started:
        if thread.is_alive():
            try:
                with ServingClient(server.host, server.port) as client:
                    client.stop()
            except (OSError, ServingError):
                pass
            thread.join(10)


class TestServiceDedup:
    def test_repeated_key_returns_original_ack(self, tmp_path):
        service = make_service(tmp_path)
        try:
            first = service.apply_update(
                "link_fail", {"src": 0, "dst": 1}, request_key="k1"
            )
            again = service.apply_update(
                "link_fail", {"src": 0, "dst": 1}, request_key="k1"
            )
            assert again["seq"] == first["seq"] == 1
            assert again["deduplicated"] is True
            assert "deduplicated" not in first
            # not double-applied
            assert service.seq == 1
            assert ledgered(service) == [(1, "link_fail", {"src": 0, "dst": 1})]
        finally:
            service.close()

    def test_dedup_survives_daemon_restart(self, tmp_path):
        service = make_service(tmp_path)
        first = service.apply_update(
            "link_fail", {"src": 0, "dst": 1}, request_key="boot-1"
        )
        fingerprint = service.engine.trace.fingerprint()
        service.close()
        reborn = make_service(tmp_path)
        try:
            assert reborn.recovered_from in ("replay", "snapshot+replay")
            retry = reborn.apply_update(
                "link_fail", {"src": 0, "dst": 1}, request_key="boot-1"
            )
            assert retry["seq"] == first["seq"]
            assert retry["deduplicated"] is True
            assert reborn.seq == 1
            assert reborn.engine.trace.fingerprint() == fingerprint
        finally:
            reborn.close()

    def test_dedup_cache_is_bounded(self, tmp_path):
        service = make_service(tmp_path, dedup_cache=2)
        try:
            for n in range(3):
                verb = "link_fail" if n == 0 else "link_restore"
                service.apply_update(verb, {"src": 0, "dst": 1}, request_key=f"k{n}")
            assert list(service._acks) == ["k1", "k2"]  # k0 evicted LRU
        finally:
            service.close()


class TestLostAckOverSockets:
    def test_retry_after_ack_reset_applies_once(self, server_factory):
        server = server_factory()
        server.service.fault_injector = FaultInjector(
            FaultPlan(
                (Fault(kind="reset_connection", scope=SERVING_SCOPE, at=1, arg="ack"),)
            )
        )
        with ServingClient(server.host, server.port, retries=3) as client:
            ack = client.update("link_fail", src=0, dst=1)
            # first attempt applied but the ack was lost to the injected
            # reset; the retry must surface the original ack, not seq 2
            assert ack["seq"] == 1
            assert ack.get("deduplicated") is True
            status = client.query("status")
            assert status["seq"] == 1
        assert server.service.seq == 1
        assert ledgered(server.service) == [(1, "link_fail", {"src": 0, "dst": 1})]

    def test_retry_after_recv_reset_applies_once(self, server_factory):
        server = server_factory()
        server.service.fault_injector = FaultInjector(
            FaultPlan((Fault(kind="reset_connection", scope=SERVING_SCOPE, at=1, arg="recv"),))
        )
        with ServingClient(server.host, server.port, retries=3) as client:
            ack = client.update("link_fail", src=0, dst=1)
            # the request was dropped before dispatch: the retry is the
            # first (and only) application
            assert ack["seq"] == 1
            assert "deduplicated" not in ack
            assert client.query("status")["seq"] == 1

    def test_unkeyed_update_is_not_retried(self, server_factory):
        server = server_factory()
        server.service.fault_injector = FaultInjector(
            FaultPlan((Fault(kind="reset_connection", scope=SERVING_SCOPE, at=1, arg="ack"),))
        )
        with ServingClient(server.host, server.port, retries=0) as client:
            with pytest.raises(ServingError, match="link_fail"):
                client.call("link_fail", {"src": 0, "dst": 1})

    def test_server_survives_client_disconnect_mid_session(self, server_factory):
        server = server_factory()
        raw = socket.create_connection((server.host, server.port), timeout=5)
        raw.sendall(b'{"id": 1, "verb": "ping", "args": {}}\n')
        raw.recv(4096)
        raw.close()  # mid-session disconnect: server must keep serving
        with ServingClient(server.host, server.port) as client:
            assert client.query("ping")["pong"] is True


class TestTornSnapshot:
    def test_torn_snapshot_falls_back_to_replay(self, tmp_path):
        plan = FaultPlan(
            (Fault(kind="tear_snapshot", scope=SERVING_SCOPE, at=1),)
        )
        plan_path = tmp_path / "plan.json"
        plan.save(plan_path)
        service = make_service(
            tmp_path, snapshot_every=1, fault_plan=str(plan_path)
        )
        service.apply_update("link_fail", {"src": 0, "dst": 1})
        fingerprint = service.engine.trace.fingerprint()
        snapshot_path = service.snapshot_path
        service.close()
        # the write really was torn: the body no longer matches its checksum
        assert open_snapshot(snapshot_path.read_bytes()) is None
        reborn = make_service(tmp_path, snapshot_every=1, fault_plan=None)
        try:
            assert reborn.recovered_from == "replay"
            assert reborn.engine.trace.fingerprint() == fingerprint
        finally:
            reborn.close()


class TestClientHardening:
    def test_closed_daemon_maps_to_serving_error(self):
        listener = socket.socket()
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        host, port = listener.getsockname()

        def accept_and_close():
            conn, _ = listener.accept()
            conn.close()

        thread = threading.Thread(target=accept_and_close, daemon=True)
        thread.start()
        try:
            client = ServingClient(host, port, timeout=2)
            with pytest.raises(ServingError, match=r"ping.*request 1"):
                client.call("ping")
            client.close()
        finally:
            listener.close()
            thread.join(5)

    def test_read_server_info_rejects_dead_pid(self, tmp_path):
        (tmp_path / "server.json").write_text(
            json.dumps({"host": "127.0.0.1", "port": 1, "pid": 2**22 + 12345})
        )
        with pytest.raises(ServingError, match="dead pid|unusable"):
            read_server_info(tmp_path, timeout=0.3)

    def test_read_server_info_rejects_missing_keys(self, tmp_path):
        (tmp_path / "server.json").write_text(json.dumps({"host": "127.0.0.1"}))
        with pytest.raises(ServingError, match="missing keys"):
            read_server_info(tmp_path, timeout=0.3)

    def test_read_server_info_waits_for_boot(self, tmp_path):
        path = tmp_path / "server.json"

        def write_later():
            threading.Event().wait(0.3)
            path.write_text(
                json.dumps({"host": "127.0.0.1", "port": 9, "pid": os.getpid()})
            )

        thread = threading.Thread(target=write_later, daemon=True)
        thread.start()
        info = read_server_info(tmp_path, timeout=5)
        assert info["port"] == 9
        thread.join(5)

    def test_read_server_info_polls_with_a_short_backoff(self, tmp_path, monkeypatch):
        """The first wait is a few milliseconds and each next one doubles up
        to a small cap, so a client connects soon after the record lands."""

        path = tmp_path / "server.json"
        waits = []

        def sleep(seconds):
            waits.append(seconds)
            if len(waits) == 8:
                path.write_text(
                    json.dumps({"host": "127.0.0.1", "port": 9, "pid": os.getpid()})
                )

        monkeypatch.setattr("repro.serving.client.time.sleep", sleep)
        assert read_server_info(tmp_path, timeout=60)["port"] == 9
        assert len(waits) == 8
        assert waits[0] <= 0.005
        assert waits == sorted(waits) and waits[-1] == waits[-2] <= 0.01
