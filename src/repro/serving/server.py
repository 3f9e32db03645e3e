"""The asyncio socket front end of the routing service.

:class:`RouteServer` accepts any number of concurrent connections and
multiplexes their newline-JSON requests onto one :class:`~repro.serving.
service.RouteService`.  Concurrency control is structural: everything runs
on a single event loop, and request dispatch — ledger append, engine
apply, settle, query — is fully synchronous between awaits, so requests
are *serialized* in arrival order no matter how many clients are
connected.  Combined with the service answering queries only at settled
states, this yields the linearizable consistency contract documented in
``docs/SERVING.md``.

The bound address (useful with ``port=0``) and pid are written to
``state_dir/server.json`` so clients and the CLI can find a daemon by its
state directory alone.
"""

from __future__ import annotations

import asyncio
import json
import os
from pathlib import Path

from .config import ServerConfig
from .protocol import (
    QUERY_VERBS,
    UPDATE_VERBS,
    ProtocolError,
    error_response,
    ok_response,
    parse_request,
)
from .service import RouteService, ServiceError

SERVER_INFO_NAME = "server.json"

#: One request line may not exceed this (protects the reader buffer).
MAX_LINE_BYTES = 1 << 20


class RouteServer:
    """Serve one :class:`RouteService` over TCP newline-JSON."""

    def __init__(self, service: RouteService) -> None:
        self.service = service
        self.host: str = service.config.host
        self.port: int = service.config.port
        self._server: asyncio.AbstractServer | None = None
        self._stopping = asyncio.Event()
        #: served-request counters, reported by the CLI on shutdown
        self.requests = {"updates": 0, "queries": 0, "errors": 0}

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._handle_connection,
            host=self.host,
            port=self.port,
            limit=MAX_LINE_BYTES,
        )
        self.host, self.port = self._server.sockets[0].getsockname()[:2]
        self._write_server_info()

    def _write_server_info(self) -> None:
        if self.service.state_dir is None:
            return
        info = {"host": self.host, "port": self.port, "pid": os.getpid()}
        path = Path(self.service.state_dir) / SERVER_INFO_NAME
        path.write_text(json.dumps(info, sort_keys=True) + "\n")

    async def serve_until_stopped(self) -> None:
        """Run until a ``stop`` request (or :meth:`stop`) arrives."""

        await self._stopping.wait()
        await self.aclose()

    def stop(self) -> None:
        self._stopping.set()

    async def aclose(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        self.service.close()

    # ------------------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while not self._stopping.is_set():
                try:
                    line = await reader.readline()
                except (ConnectionResetError, asyncio.LimitOverrunError):
                    break
                if not line:
                    break
                fault = self._reset_probe()
                if fault is not None and fault.arg == "recv":
                    # drop the request before it is dispatched: the client
                    # sees a reset, the service never applied anything
                    writer.transport.abort()
                    break
                response, stop = self._dispatch(line)
                if fault is not None:
                    # the lost-ack case: the update applied (and, if keyed,
                    # its ack is remembered) but the client never hears back
                    writer.transport.abort()
                    break
                writer.write(response)
                try:
                    await writer.drain()
                except (ConnectionResetError, BrokenPipeError):
                    break
                if stop:
                    self.stop()
                    break
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass

    def _reset_probe(self):
        """One ``reset_connection`` fault-injection probe per request."""

        injector = self.service.fault_injector
        if injector is None:
            return None
        from ..dn.faults import SERVING_SCOPE  # loaded with the injector

        return injector.draw("reset_connection", SERVING_SCOPE)

    def _dispatch(self, line: bytes) -> tuple[bytes, bool]:
        """Process one request line synchronously (no awaits → requests
        from all connections serialize in arrival order)."""

        request_id = None
        try:
            request_id, verb, args, request_key = parse_request(line)
            if verb == "stop":
                return ok_response(request_id, {"stopping": True}), True
            if verb in UPDATE_VERBS:
                self.requests["updates"] += 1
                ack = self.service.apply_update(verb, args, request_key=request_key)
                return ok_response(request_id, ack), False
            assert verb in QUERY_VERBS
            self.requests["queries"] += 1
            return ok_response(request_id, self.service.query(verb, args)), False
        except (ProtocolError, ServiceError) as exc:
            self.requests["errors"] += 1
            request_id = getattr(exc, "request_id", None) or request_id
            return error_response(request_id, str(exc)), False


def run_server(config: ServerConfig) -> RouteServer:
    """Boot a service and serve it until a ``stop`` request (blocking)."""

    service = RouteService(config)
    server = RouteServer(service)

    async def main() -> RouteServer:
        await server.start()
        print(f"serving on {server.host}:{server.port}", flush=True)
        await server.serve_until_stopped()
        return server

    return asyncio.run(main())
