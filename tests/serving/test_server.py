"""Socket-level integration: the asyncio server serializing concurrent
clients, protocol error paths, and the stop verb."""

import asyncio
import threading

import pytest

from repro.serving import (
    RouteServer,
    RouteService,
    ServerConfig,
    ServingClient,
    ServingError,
)
from repro.serving.client import read_server_info


@pytest.fixture(params=[1, 2], ids=["1shard", "2shards"])
def running_server(request, tmp_path):
    service = RouteService(
        ServerConfig(
            family="tree",
            size=12,
            shards=request.param,
            state_dir=str(tmp_path / "state"),
        )
    )
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
    yield server
    if thread.is_alive():
        try:
            with ServingClient(server.host, server.port) as client:
                client.stop()
        except (OSError, ServingError):
            pass
        thread.join(10)


class TestServer:
    def test_query_and_update_round_trip(self, running_server):
        with ServingClient(running_server.host, running_server.port) as client:
            assert client.query("ping")["pong"] is True
            assert client.best_path(0, 5)["found"]
            ack = client.update("link_fail", src=0, dst=1)
            assert ack["seq"] == 1 and ack["settled"]
            assert not client.best_path(0, 1)["found"]

    def test_server_info_written(self, running_server, tmp_path):
        info = read_server_info(tmp_path / "state")
        assert info["host"] == running_server.host
        assert info["port"] == running_server.port
        assert info["pid"] > 0

    def test_concurrent_clients_serialize(self, running_server):
        """Updates and queries from racing threads all succeed and the
        update sequence numbers come out dense (1..N, no loss, no dupes)."""

        seqs, found = [], []
        lock = threading.Lock()

        def updater():
            with ServingClient(running_server.host, running_server.port) as client:
                for _ in range(4):
                    a = client.update("link_fail", src=0, dst=1)
                    b = client.update("link_restore", src=0, dst=1)
                    with lock:
                        seqs.extend([a["seq"], b["seq"]])

        def querier():
            with ServingClient(running_server.host, running_server.port) as client:
                for _ in range(8):
                    answer = client.best_path(0, 5)
                    with lock:
                        found.append(answer["found"])

        threads = [threading.Thread(target=updater)] + [
            threading.Thread(target=querier) for _ in range(2)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60)
        assert sorted(seqs) == list(range(1, 9))
        # every query saw a settled state on the 0–5 path (never perturbed)
        assert all(found) and len(found) == 16
        with ServingClient(running_server.host, running_server.port) as client:
            status = client.query("status")
        assert status["seq"] == 8
        assert status["settled"] and status["monitors_ok"]

    def test_error_responses_keep_connection_usable(self, running_server):
        with ServingClient(running_server.host, running_server.port) as client:
            with pytest.raises(ServingError, match="unknown node"):
                client.update("link_fail", src=999, dst=0)
            with pytest.raises(ServingError, match="unknown verb"):
                client.call("frobnicate")
            assert client.query("ping")["pong"] is True

    def test_stop_verb_shuts_down(self, running_server):
        with ServingClient(running_server.host, running_server.port) as client:
            assert client.stop()["stopping"] is True
        deadline = threading.Event()
        deadline.wait(0.5)  # give the loop a beat to tear down
        with pytest.raises(ServingError, match="cannot connect"):
            ServingClient(running_server.host, running_server.port, timeout=2)
