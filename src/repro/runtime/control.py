"""The daemon's line-JSON control API: its clients and its one server.

:class:`ControlServer` is the listener both daemons serve — a
:class:`~repro.runtime.daemon.NodeDaemon` and the sharded router in
front of a worker pool.  :class:`ControlClient` is synchronous — used
by the CLI, the live tests, and the loopback benchmark, all of which run
*outside* the daemon's event loop, so a plain blocking socket is the
right tool.  :class:`AsyncControlClient` is its asyncio twin for code
that already runs on an event loop (the sharded router's worker links,
the fleet monitor).  Both speak one request object per line out, one response
object per line back, strictly in order.

Failures are structured: the daemon answers ``{"ok": false, "code": ...,
"error": ...}`` and :class:`ControlError` carries the stable ``code``
(``bad_request``, ``no_such_channel``, ``enclave_crashed``, …) so
callers branch on codes, not prose.  Timeouts are explicit deadline
errors that say what was being waited for, never silent hangs.  The
deadline is the client's, fixed at construction: every keyword of
``call`` is a verb parameter (``connect``, ``echo``, ``approve-associate``
and ``pay-multihop`` take a ``timeout`` of their own).
"""

from __future__ import annotations

import asyncio
import json
import random
import socket
import time
from typing import Any, Awaitable, Callable, Dict, Optional, Set

from repro.errors import ReproError
from repro.runtime.registry import CommandError, code_for_exception

# Per-line buffer cap for the control plane's asyncio streams.  The
# asyncio default (64 KiB) is too small for batched hub verbs: one
# ``account-pay-many`` line carries hundreds of hex-encoded signed
# requests (~400 bytes each), so servers and async clients both
# allocate this limit instead.  The blocking client reads through a
# socket file object and needs no cap.
CONTROL_LINE_LIMIT = 1 << 20


class ControlError(CommandError):
    """A control command failed; ``code`` is the stable error code.

    A :class:`CommandError` as the client sees it, so a router relaying a
    worker's failure answers with the worker's code.  Nothing replays a
    command after ``timeout`` or ``connection_closed``: the daemon may
    already have applied it, and a replayed ``pay`` is a double-pay.
    """


class ControlServer:
    """Line-JSON control listener: one request object per line in, one
    response per line out, strictly in order per connection.

    ``handle`` maps a request to a result; any exception it raises is
    answered ``{"ok": false, "code": ..., "error": ...}`` with the code
    from :func:`code_for_exception` and counted in ``control.errors``
    when ``metrics`` is given.  :meth:`stop` closes the open connections
    too, so a client blocked on a reply sees EOF at once.
    """

    def __init__(self, handle: Callable[[Dict[str, Any]],
                                        Awaitable[Dict[str, Any]]],
                 metrics: Any = None) -> None:
        self.handle = handle
        self.metrics = metrics
        self._server: Optional[asyncio.AbstractServer] = None
        self._connections: Set[asyncio.StreamWriter] = set()

    async def start(self, host: str, port: int) -> int:
        """Bind and listen; returns the bound port."""
        self._server = await asyncio.start_server(
            self._serve, host, port, limit=CONTROL_LINE_LIMIT)
        return self._server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        if self._server is None:
            return
        self._server.close()
        for writer in list(self._connections):
            writer.close()
        await self._server.wait_closed()
        self._server = None

    async def _serve(self, reader: asyncio.StreamReader,
                     writer: asyncio.StreamWriter) -> None:
        self._connections.add(writer)
        try:
            while True:
                line = await reader.readline()
                if not line:
                    break
                try:
                    try:
                        request = json.loads(line)
                    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
                        raise CommandError(
                            f"request is not valid JSON: {exc}",
                            code="bad_request") from None
                    if not isinstance(request, dict):
                        raise CommandError("request must be a JSON object",
                                           code="bad_request")
                    response = {"ok": True, **await self.handle(request)}
                except Exception as exc:  # noqa: BLE001 — report, don't die
                    code = code_for_exception(exc)
                    # A worker's relayed error text already names its type.
                    error = str(exc) if isinstance(exc, ControlError) \
                        else f"{type(exc).__name__}: {exc}"
                    response = {"ok": False, "code": code, "error": error}
                    if self.metrics is not None and self.metrics.enabled:
                        self.metrics.inc("control.errors")
                        self.metrics.inc(f"control.errors[{code}]")
                writer.write(json.dumps(response).encode() + b"\n")
                await writer.drain()
        except asyncio.CancelledError:
            return  # loop teardown at shutdown; exit without the log noise
        except (ConnectionResetError, asyncio.IncompleteReadError):
            pass
        finally:
            self._connections.discard(writer)
            try:
                writer.close()
            except RuntimeError:
                # The event loop is already closed — nothing to flush; the
                # socket dies with the process.  Raising here would only
                # surface as an unraisable warning from the GC finalizer.
                pass


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

    def call(self, cmd: str, **kwargs: Any) -> Dict[str, Any]:
        """Send one command and wait (bounded) for its response."""
        request = {"cmd": cmd, **kwargs}
        try:
            self._socket.sendall(json.dumps(request).encode() + b"\n")
            line = self._reader.readline()
        except socket.timeout:
            raise ControlError(
                f"{cmd!r} to {self.host}:{self.port} got no response "
                f"within {self.timeout:.1f}s", code="timeout") from None
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
    N clients.  Create with :meth:`connect`.
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

    @property
    def closed(self) -> bool:
        return self._writer.is_closing()

    async def call(self, cmd: str, **kwargs: Any) -> Dict[str, Any]:
        """Send one command and wait (bounded) for its response.

        A call that ends without its reply — timeout, cancellation, a
        transport failure — closes the client: the reply may still be on
        its way, and the next call would read it as its own.  Later calls
        raise ``connection_closed``; the owner redials.
        """
        if self.closed:
            raise ControlError(
                f"connection to {self.host}:{self.port} is closed; "
                f"{cmd!r} not sent", code="connection_closed")
        request = {"cmd": cmd, **kwargs}
        try:
            self._writer.write(json.dumps(request).encode() + b"\n")
            await asyncio.wait_for(self._writer.drain(), self.timeout)
            line = await asyncio.wait_for(self._reader.readline(),
                                          self.timeout)
        except asyncio.TimeoutError:
            self._writer.close()
            raise ControlError(
                f"{cmd!r} to {self.host}:{self.port} got no response "
                f"within {self.timeout:.1f}s", code="timeout") from None
        except OSError as exc:
            self._writer.close()
            raise ControlError(
                f"transport failure for {cmd!r} to "
                f"{self.host}:{self.port}: {exc}",
                code="connection_closed") from exc
        except asyncio.CancelledError:
            self._writer.close()
            raise
        if not line:
            self._writer.close()
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
