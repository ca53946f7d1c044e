"""Clients for the daemon's line-JSON control API.

:class:`ControlClient` is synchronous — used by the CLI, the live
tests, and the loopback benchmark, all of which run *outside* the
daemon's event loop, so a plain blocking socket is the right tool.
:class:`AsyncControlClient` is its asyncio twin for drivers that hold
many control connections open concurrently (the ``repro.load``
generators).  Both speak one request object per line out, one response
object per line back, strictly in order.

Failures are structured: the daemon answers ``{"ok": false, "code": ...,
"error": ...}`` and :class:`ControlError` carries the stable ``code``
(``bad_request``, ``no_such_channel``, ``enclave_crashed``, …) so
callers branch on codes, not prose.  Timeouts are explicit deadline
errors that say what was being waited for, never silent hangs.
"""

from __future__ import annotations

import asyncio
import json
import random
import socket
import time
from typing import Any, Dict, Optional

from repro.errors import ReproError

# Per-line buffer cap for the control plane's asyncio streams.  The
# asyncio default (64 KiB) is too small for batched hub verbs: one
# ``account-pay-many`` line carries hundreds of hex-encoded signed
# requests (~400 bytes each), so servers and async clients both
# allocate this limit instead.  The blocking client reads through a
# socket file object and needs no cap.
CONTROL_LINE_LIMIT = 1 << 20


class ControlError(ReproError):
    """A control command failed; ``code`` is the stable error code.

    Nothing replays a command after ``timeout`` or ``connection_closed``:
    the daemon may already have applied it, and a replayed ``pay`` is a
    double-pay.
    """

    def __init__(self, message: str, code: str = "error") -> None:
        super().__init__(message)
        self.code = code


class ControlClient:
    """Blocking line-JSON client with call semantics.

    Usable as a context manager; ``call`` raises :class:`ControlError`
    when the daemon answers ``ok: false`` and returns the rest of the
    response object otherwise.
    """

    def __init__(self, host: str, port: int, timeout: float = 120.0) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        self._socket = socket.create_connection((host, port), timeout=timeout)
        self._reader = self._socket.makefile("rb")

    def call(self, cmd: str, timeout: Optional[float] = None,
             **kwargs: Any) -> Dict[str, Any]:
        """Send one command and wait (bounded) for its response.

        ``timeout`` overrides the client default for this call only —
        a ``settle`` needs more room than a ``ping``.
        """
        request = {"cmd": cmd, **kwargs}
        deadline = self.timeout if timeout is None else timeout
        self._socket.settimeout(deadline)
        try:
            self._socket.sendall(json.dumps(request).encode() + b"\n")
            line = self._reader.readline()
        except socket.timeout:
            raise ControlError(
                f"{cmd!r} to {self.host}:{self.port} got no response "
                f"within {deadline:.1f}s", code="timeout") from None
        except OSError as exc:
            raise ControlError(
                f"transport failure for {cmd!r} to "
                f"{self.host}:{self.port}: {exc}",
                code="connection_closed") from exc
        if not line:
            raise ControlError(
                f"daemon at {self.host}:{self.port} hung up "
                f"while {cmd!r} was in flight", code="connection_closed")
        response = json.loads(line)
        if not response.pop("ok", False):
            raise ControlError(
                response.get("error", "unknown daemon error"),
                code=response.get("code", "error"),
            )
        return response

    def close(self) -> None:
        try:
            self._reader.close()
        finally:
            try:
                self._socket.close()
            except OSError:
                pass

    def __enter__(self) -> "ControlClient":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


class AsyncControlClient:
    """Asyncio line-JSON control client.

    One coroutine per connection: the daemon serves each control
    connection serially (it awaits a command before reading the next
    line), so a driver that wants N concurrent commands in flight opens
    N clients — which is exactly how ``repro.load`` models N closed-loop
    users.  Create with :meth:`connect`.
    """

    def __init__(self, host: str, port: int,
                 reader: asyncio.StreamReader,
                 writer: asyncio.StreamWriter,
                 timeout: float = 120.0) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        self._reader = reader
        self._writer = writer

    @classmethod
    async def connect(cls, host: str, port: int,
                      timeout: float = 120.0) -> "AsyncControlClient":
        try:
            reader, writer = await asyncio.wait_for(
                asyncio.open_connection(host, port,
                                        limit=CONTROL_LINE_LIMIT),
                timeout)
        except asyncio.TimeoutError:
            raise ControlError(
                f"connect to {host}:{port} timed out after {timeout:.1f}s",
                code="timeout") from None
        return cls(host, port, reader, writer, timeout=timeout)

    async def call(self, cmd: str, timeout: Optional[float] = None,
                   **kwargs: Any) -> Dict[str, Any]:
        request = {"cmd": cmd, **kwargs}
        deadline = self.timeout if timeout is None else timeout
        try:
            self._writer.write(json.dumps(request).encode() + b"\n")
            await asyncio.wait_for(self._writer.drain(), deadline)
            line = await asyncio.wait_for(self._reader.readline(), deadline)
        except asyncio.TimeoutError:
            raise ControlError(
                f"{cmd!r} to {self.host}:{self.port} got no response "
                f"within {deadline:.1f}s", code="timeout") from None
        except OSError as exc:
            raise ControlError(
                f"transport failure for {cmd!r} to "
                f"{self.host}:{self.port}: {exc}",
                code="connection_closed") from exc
        if not line:
            raise ControlError(
                f"daemon at {self.host}:{self.port} hung up "
                f"while {cmd!r} was in flight", code="connection_closed")
        response = json.loads(line)
        if not response.pop("ok", False):
            raise ControlError(
                response.get("error", "unknown daemon error"),
                code=response.get("code", "error"),
            )
        return response

    async def close(self) -> None:
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (OSError, asyncio.CancelledError):
            pass


def wait_for_control(host: str, port: int, timeout: float = 15.0,
                     interval: float = 0.05) -> ControlClient:
    """Poll until a daemon's control port accepts a ``ping``.

    Daemons started as subprocesses need a beat to bind their listeners;
    this is the launcher's readiness check.  A poll attempt that fails
    mid-ping closes its socket before retrying — a slow-starting daemon
    must not leak one file descriptor per tick — and the poll interval
    backs off (with jitter) so many concurrent launches don't hammer
    the loopback in lockstep.
    """
    deadline = time.monotonic() + timeout
    last_error: Optional[Exception] = None
    sleep = interval
    while time.monotonic() < deadline:
        client: Optional[ControlClient] = None
        try:
            client = ControlClient(host, port, timeout=timeout)
            client.call("ping")
            return client
        except (OSError, ReproError, json.JSONDecodeError) as exc:
            if client is not None:
                client.close()
            last_error = exc
            time.sleep(sleep * (1.0 + random.random() * 0.25))
            sleep = min(sleep * 1.5, 1.0)
    raise ControlError(
        f"no daemon on {host}:{port} after {timeout}s: {last_error}",
        code="timeout")
