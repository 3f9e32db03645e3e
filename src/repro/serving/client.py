"""A blocking socket client for the routing service.

Thin by design: one TCP connection, one in-flight request at a time,
requests and responses framed by :mod:`repro.serving.protocol`.  Drive
concurrency by opening one client per thread (``tests/serving/test_server.py``
and the serving smoke script do exactly that).

Failure semantics: every transport failure (timeout, reset, broken pipe,
refused/closed connection) surfaces as :class:`ServingError` naming the
verb and request id — callers never see raw socket exceptions.  With
``retries > 0`` the client reconnects and retries with capped exponential
backoff, but only when that cannot double-apply: queries are always safe,
updates only when they carry a **request key** (the service dedups keyed
retries against its ledger and returns the original ack — the
exactly-once contract in ``docs/FAULTS.md``).  An unkeyed update that
fails after send is *ambiguous* (it may or may not have applied) and is
surfaced as an error instead of retried.
"""

from __future__ import annotations

import json
import os
import socket
import time
import uuid
from pathlib import Path
from typing import Optional

from .protocol import QUERY_VERBS, decode_line, encode


class ServingError(RuntimeError):
    """The daemon answered ``ok: false``, or the transport failed (the
    message names the verb and request id)."""


def _pid_alive(pid: object) -> bool:
    if not isinstance(pid, int) or pid <= 0:
        return False
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # pragma: no cover - other-user daemon
        return True
    return True


def read_server_info(state_dir: str | Path, *, timeout: float = 10.0) -> dict:
    """The validated ``{host, port, pid}`` record a daemon wrote into its
    state directory (``server.json``).

    Polls with a deadline instead of failing on first read: a daemon that
    is still booting has not written the record yet (or a reader can catch
    the file mid-write), and a record left behind by a *dead* daemon (pid
    no longer alive) would send the client to a connection that can never
    answer.  Raises :class:`ServingError` with the last failure reason
    once ``timeout`` seconds have elapsed.
    """

    path = Path(state_dir) / "server.json"
    deadline = time.monotonic() + timeout
    reason = f"no server.json under {state_dir}: daemon not started?"
    while True:
        try:
            info = json.loads(path.read_text())
            if not isinstance(info, dict):
                raise ValueError("server.json is not a JSON object")
            missing = [k for k in ("host", "port", "pid") if k not in info]
            if missing:
                raise ValueError(f"server.json missing keys {missing}")
            if not _pid_alive(info["pid"]):
                raise ValueError(
                    f"server.json names dead pid {info['pid']} (stale record?)"
                )
            return info
        except FileNotFoundError:
            pass  # daemon still booting
        except (json.JSONDecodeError, ValueError, OSError) as exc:
            reason = f"unusable server.json under {state_dir}: {exc}"
        if time.monotonic() >= deadline:
            raise ServingError(reason)
        time.sleep(0.05)


class ServingClient:
    """Blocking request/response client; usable as a context manager.

    ``retries``/``backoff``/``max_backoff`` control reconnect-and-retry
    for safe requests (queries, and updates carrying a request key).
    """

    def __init__(
        self,
        host: str,
        port: int,
        *,
        timeout: float = 30.0,
        retries: int = 0,
        backoff: float = 0.05,
        max_backoff: float = 2.0,
    ) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        self.retries = retries
        self.backoff = backoff
        self.max_backoff = max_backoff
        self._sock: Optional[socket.socket] = None
        self._file = None
        self._next_id = 0
        #: distinct per client instance, prefixes auto-generated request keys
        self._key_prefix = uuid.uuid4().hex[:12]
        try:
            self._connect()
        except OSError as exc:
            raise ServingError(f"cannot connect to {host}:{port}: {exc}") from exc

    @classmethod
    def from_state_dir(
        cls, state_dir: str | Path, *, timeout: float = 30.0, retries: int = 0
    ) -> "ServingClient":
        info = read_server_info(state_dir)
        return cls(info["host"], info["port"], timeout=timeout, retries=retries)

    # ------------------------------------------------------------------
    def _connect(self) -> None:
        self._drop_connection()
        self._sock = socket.create_connection(
            (self.host, self.port), timeout=self.timeout
        )
        self._file = self._sock.makefile("rwb")

    def _drop_connection(self) -> None:
        if self._file is not None:
            try:
                self._file.close()
            except OSError:
                pass
            self._file = None
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None

    def call(
        self, verb: str, args: Optional[dict] = None, *, request_key: Optional[str] = None
    ) -> dict:
        """Send one request and return the daemon's ``result`` payload.

        Raises :class:`ServingError` on an error response or on transport
        failure; transport failures of *safe* requests (see the module
        docstring) are retried up to ``retries`` times first.
        """

        retryable = verb in QUERY_VERBS or request_key is not None
        attempts = 1 + (self.retries if retryable else 0)
        delay = self.backoff
        last: Optional[ServingError] = None
        for attempt in range(attempts):
            if attempt:
                time.sleep(delay)
                delay = min(delay * 2, self.max_backoff)
            self._next_id += 1
            rid = self._next_id
            try:
                if self._file is None:
                    self._connect()
                request = {"id": rid, "verb": verb, "args": args or {}}
                if request_key is not None:
                    request["key"] = request_key
                self._file.write(encode(request))
                self._file.flush()
                line = self._file.readline()
            except (socket.timeout, TimeoutError) as exc:
                self._drop_connection()
                last = ServingError(
                    f"timed out waiting for {verb!r} response (request {rid}): {exc}"
                )
                continue
            except (
                ConnectionError,
                BrokenPipeError,
                OSError,
            ) as exc:
                self._drop_connection()
                last = ServingError(
                    f"connection failed during {verb!r} (request {rid}): {exc}"
                )
                continue
            if not line:
                self._drop_connection()
                last = ServingError(
                    f"connection closed by daemon during {verb!r} (request {rid})"
                )
                continue
            response = decode_line(line)
            if response.get("id") != rid:
                raise ServingError(
                    f"response id {response.get('id')!r} does not match request {rid}"
                )
            if not response.get("ok"):
                raise ServingError(response.get("error", "unknown daemon error"))
            return response.get("result", {})
        assert last is not None
        raise last

    # convenience wrappers -------------------------------------------------
    def update(self, verb: str, *, request_key: Optional[str] = None, **args) -> dict:
        """One update verb; auto-generates a request key when retries are
        enabled, so convenience updates are exactly-once by default."""

        if request_key is None and self.retries > 0:
            request_key = f"{self._key_prefix}:{self._next_id + 1}"
        return self.call(verb, args, request_key=request_key)

    def query(self, verb: str, **args) -> dict:
        return self.call(verb, args)

    def best_path(self, src, dst) -> dict:
        return self.call("best_path", {"src": src, "dst": dst})

    def stop(self) -> dict:
        return self.call("stop")

    def close(self) -> None:
        self._drop_connection()

    def __enter__(self) -> "ServingClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
