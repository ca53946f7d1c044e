"""The daemon's line-JSON control API: its clients and its one server.

:class:`ControlServer` is the listener both daemons serve — a
:class:`~repro.runtime.daemon.NodeDaemon` and the sharded router in
front of a worker pool.  It parses lines in the read callback and
answers a handler that returns without suspending (``pay``, ``channel``,
``account-pay``, ``ping``) in that same callback; one that suspends
continues as a Task.  :class:`ControlClient` is synchronous — used by
the CLI, the live tests, and the loopback benchmark, all of which run
*outside* the daemon's event loop, so a plain blocking socket is the
right tool.  :class:`AsyncControlClient` is its asyncio twin for code
that already runs on an event loop (the sharded router's worker links,
the fleet monitor); it pipelines.  Both speak one request object per
line out, one response object per line back, strictly in order.

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
import collections
import json
import random
import socket
import sys
import time
from typing import Any, Awaitable, Callable, Deque, Dict, Optional, Set, \
    Tuple

from repro.errors import ReproError
from repro.runtime.net import dial, listen
from repro.runtime.registry import CommandError, code_for_exception

# Longest control line a server or async client accepts.  Batched hub
# verbs need it: one ``account-pay-many`` line carries hundreds of
# hex-encoded signed requests (~400 bytes each).  The blocking client
# reads through a socket file object and needs no cap.
CONTROL_LINE_LIMIT = 1 << 20


class ControlError(CommandError):
    """A control command failed; ``code`` is the stable error code.

    A :class:`CommandError` as the client sees it, so a router relaying a
    worker's failure answers with the worker's code.  Nothing replays a
    command after ``timeout`` or ``connection_closed``: the daemon may
    already have applied it, and a replayed ``pay`` is a double-pay.
    """


def encode_request(cmd: str, kwargs: Dict[str, Any]) -> bytes:
    return json.dumps({"cmd": cmd, **kwargs}).encode() + b"\n"


def decode_reply(line: bytes) -> Dict[str, Any]:
    """A reply line's fields; an ``ok: false`` reply raises its code."""
    response = json.loads(line)
    if not response.pop("ok", False):
        raise ControlError(response.get("error", "unknown daemon error"),
                           code=response.get("code", "error"))
    return response


class ControlServer:
    """Line-JSON control listener: one request object per line in, one
    response per line out, strictly in order per connection.

    ``handle(request, line)`` returns an awaitable of a dict (answered
    ``{"ok": true, ...}``) or of ``bytes`` (a reply line, written as it
    is); any exception it raises is answered ``{"ok": false, "code": ...,
    "error": ...}`` with the code from :func:`code_for_exception` and
    counted in ``control.errors`` when ``metrics`` is given.  A line over
    :data:`CONTROL_LINE_LIMIT` is answered ``bad_request`` and its
    connection closed.  :meth:`stop` closes the open connections too.
    """

    def __init__(self, handle: Callable[[Dict[str, Any], bytes],
                                        Awaitable[Any]],
                 metrics: Any = None) -> None:
        self.handle = handle
        self.metrics = metrics
        self._server: Optional[asyncio.AbstractServer] = None
        self._connections: Set[_ControlConnection] = set()

    async def start(self, host: str, port: int) -> int:
        """Bind and listen; returns the bound port."""
        self._server = await listen(host, port,
                                    lambda: _ControlConnection(self))
        return self._server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        if self._server is None:
            return
        self._server.close()
        for connection in list(self._connections):
            connection.transport.close()
        await self._server.wait_closed()
        self._server = None


class _ControlConnection(asyncio.Protocol):
    """One control connection: each line answered before the next runs."""

    def __init__(self, server: ControlServer) -> None:
        self.server = server
        self.transport: Any = None
        self.buffer = b""
        self.paused = self.eof = False
        # The request still to be answered, if one suspended; later
        # lines wait for it.
        self.busy: Optional[Awaitable[Any]] = None

    def connection_made(self, transport: Any) -> None:
        self.transport = transport
        self.server._connections.add(self)

    def connection_lost(self, exc: Optional[Exception]) -> None:
        self.server._connections.discard(self)
        self.buffer = b""

    def data_received(self, data: bytes) -> None:
        self.buffer = self.buffer + data if self.buffer else data
        self._serve_lines()

    def eof_received(self) -> bool:
        # The client is done sending: answer what it sent, then hang up.
        if self.buffer[-1:] not in (b"", b"\n"):
            self.buffer += b"\n"
        self.eof = True
        self._serve_lines()
        return True

    def _serve_lines(self) -> None:
        buffer, start = self.buffer, 0
        while self.busy is None and not self.transport.is_closing():
            end = buffer.find(b"\n", start, start + CONTROL_LINE_LIMIT + 1)
            if end < 0:
                if len(buffer) - start > CONTROL_LINE_LIMIT:
                    self.buffer = b""
                    self._fail(CommandError(
                        f"request line longer than CONTROL_LINE_LIMIT "
                        f"({CONTROL_LINE_LIMIT} bytes); closing",
                        code="bad_request"))
                    self.transport.close()
                    return
                break
            self._serve(buffer[start:end + 1])
            start = end + 1
        self.buffer = buffer[start:] if start else buffer
        if self.eof and self.busy is None:
            self.transport.close()
            return
        # Unanswered input stays bounded: past one line's worth, the
        # socket is not read until the backlog is served.
        full = len(self.buffer) > CONTROL_LINE_LIMIT
        if full and not self.paused:
            self.transport.pause_reading()
        elif self.paused and not full:
            self.transport.resume_reading()
        self.paused = full

    def _serve(self, line: bytes) -> None:
        try:
            try:
                request = json.loads(line)
            except ValueError as exc:  # bad JSON or bad UTF-8
                raise CommandError(f"request is not valid JSON: {exc}",
                                   code="bad_request") from None
            if not isinstance(request, dict):
                raise CommandError("request must be a JSON object",
                                   code="bad_request")
            pending = self.server.handle(request, line)
            if asyncio.iscoroutine(pending):
                pending = _start_eagerly(pending)
            if pending.done():
                self._answer(pending.result())
                return
        except Exception as exc:  # noqa: BLE001 — report, don't die
            self._fail(exc)
            return
        self.busy = pending
        pending.add_done_callback(self._finished)

    def _finished(self, pending: "asyncio.Future[Any]") -> None:
        self.busy = None
        if pending.cancelled():
            self.transport.close()  # loop teardown: nobody to answer
            return
        try:
            self._answer(pending.result())
        except Exception as exc:  # noqa: BLE001 — report, don't die
            self._fail(exc)
        self._serve_lines()

    def _answer(self, result: Any) -> None:
        if not isinstance(result, bytes):
            result = json.dumps({"ok": True, **result}).encode() + b"\n"
        self.transport.write(result)

    def _fail(self, exc: Exception) -> None:
        code = code_for_exception(exc)
        metrics = self.server.metrics
        if metrics is not None and metrics.enabled:
            metrics.inc("control.errors")
            metrics.inc(f"control.errors[{code}]")
        # A worker's relayed error text already names its type.
        error = str(exc) if isinstance(exc, ControlError) \
            else f"{type(exc).__name__}: {exc}"
        self.transport.write(json.dumps(
            {"ok": False, "code": code, "error": error}).encode() + b"\n")


def _start_eagerly(coro: Any) -> "asyncio.Future[Any]":
    """Run ``coro`` now, up to its first suspension; a Task runs the rest.

    Python 3.12's eager tasks do exactly this, and run the first step as
    the Task itself, which 3.12's ``wait_for`` needs.  Before 3.12 the
    first step runs here, outside any Task, and a Task resumes the
    coroutine where it stopped (``wait_for`` needs no task there)."""
    loop = asyncio.get_running_loop()
    if sys.version_info >= (3, 12):
        return asyncio.Task(coro, loop=loop, eager_start=True)
    try:
        signal = coro.send(None)
    except StopIteration as finished:
        done = loop.create_future()
        done.set_result(finished.value)
        return done
    return loop.create_task(_resume(coro, signal))


async def _resume(coro: Any, signal: Any) -> Any:
    return await _Continued(coro, signal)


class _Continued:
    """Relays a started coroutine's suspensions to the Task awaiting it,
    and the Task's sends and throws back."""

    def __init__(self, coro: Any, signal: Any) -> None:
        self.coro, self.signal = coro, signal

    def __await__(self) -> Any:
        signal = self.signal
        while True:
            try:
                value = yield signal
                step = self.coro.send
            except BaseException as exc:  # noqa: BLE001 — passed on, below
                step, value = self.coro.throw, exc
            try:
                signal = step(value)
            except StopIteration as finished:
                return finished.value


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
        try:
            self._socket.sendall(encode_request(cmd, kwargs))
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
        return decode_reply(line)

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


class Reply:
    """A reply line to come: settled once, with the line (``bytes``, no
    newline) or a :class:`ControlError`, and handed to its one callback
    at once — a Future without the loop turn per hand-off.  Awaiting it
    yields the line or raises the error."""

    __slots__ = ("_value", "_callback")

    def __init__(self) -> None:
        self._value: Any = None
        self._callback: Callable[["Reply"], None] = lambda reply: None

    def done(self) -> bool:
        return self._value is not None

    def cancelled(self) -> bool:
        return False

    def result(self) -> bytes:
        if isinstance(self._value, Exception):
            raise self._value
        return self._value

    def add_done_callback(self, callback: Callable[["Reply"], None]) -> None:
        self._callback = callback
        if self._value is not None:
            callback(self)

    def settle(self, value: Any) -> None:
        if self._value is None:
            self._value = value
            self._callback(self)

    def __await__(self) -> Any:
        future = asyncio.get_running_loop().create_future()

        def hand_over(reply: Reply) -> None:
            if not future.done():  # else the awaiting caller gave up
                try:
                    future.set_result(reply.result())
                except ControlError as exc:
                    future.set_exception(exc)
        self.add_done_callback(hand_over)
        return future.__await__()


class AsyncControlClient(asyncio.Protocol):
    """Pipelined asyncio line-JSON control client.

    Any number of calls may be in flight; the daemon answers them in
    order, so one FIFO of pending replies matches each answer to its
    call, and each call has its own deadline timer.  A deadline that
    passes, or a lost link, fails every pending call and closes the
    client — a late reply must never be read as the next call's answer —
    and later calls raise ``connection_closed``; the owner redials.  A
    cancelled caller keeps its place in the FIFO.  Create with
    :meth:`connect`.
    """

    def __init__(self, host: str, port: int, timeout: float = 120.0) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        self._transport: Any = None
        self._buffer = b""
        self._pending: Deque[Tuple[Reply, Any, str]] = collections.deque()
        self._lost: Optional["asyncio.Future[None]"] = None

    @classmethod
    async def connect(cls, host: str, port: int,
                      timeout: float = 120.0) -> "AsyncControlClient":
        client = cls(host, port, timeout=timeout)
        try:
            await asyncio.wait_for(dial(host, port, lambda: client), timeout)
        except asyncio.TimeoutError:
            raise ControlError(
                f"connect to {host}:{port} timed out after {timeout:.1f}s",
                code="timeout") from None
        return client

    @property
    def closed(self) -> bool:
        return self._transport is None or self._transport.is_closing()

    def connection_made(self, transport: Any) -> None:
        self._transport = transport
        self._lost = asyncio.get_running_loop().create_future()

    def connection_lost(self, exc: Optional[Exception]) -> None:
        self._fail_all(lambda cmd: ControlError(
            f"daemon at {self.host}:{self.port} hung up while {cmd!r} was "
            "in flight", code="connection_closed"))
        if self._lost is not None and not self._lost.done():
            self._lost.set_result(None)

    def data_received(self, data: bytes) -> None:
        lines = (self._buffer + data if self._buffer else data).split(b"\n")
        self._buffer = lines.pop()
        for line in lines:
            if not self._pending:
                break  # failed calls already closed the link
            reply, timer, _ = self._pending.popleft()
            timer.cancel()
            reply.settle(line)
        if len(self._buffer) > CONTROL_LINE_LIMIT:
            self._transport.close()

    def send(self, line: bytes, cmd: str) -> Reply:
        """Send one request line as it is; ``cmd`` names it in errors."""
        reply = Reply()
        if self.closed:
            reply.settle(ControlError(
                f"connection to {self.host}:{self.port} is closed; "
                f"{cmd!r} not sent", code="connection_closed"))
        else:
            self._transport.write(line)
            self._pending.append((reply, asyncio.get_running_loop().call_later(
                self.timeout, self._expired, reply, cmd), cmd))
        return reply

    async def call(self, cmd: str, **kwargs: Any) -> Dict[str, Any]:
        """Send one command and wait (bounded) for its response."""
        return decode_reply(await self.send(encode_request(cmd, kwargs), cmd))

    def _expired(self, reply: Reply, cmd: str) -> None:
        # Closed first: a caller woken below cannot send on this link.
        self._transport.close()
        reply.settle(ControlError(
            f"{cmd!r} to {self.host}:{self.port} got no response "
            f"within {self.timeout:.1f}s", code="timeout"))
        self._fail_all(lambda other: ControlError(
            f"{other!r} to {self.host}:{self.port} abandoned: {cmd!r} "
            "timed out on the same connection", code="connection_closed"))

    def _fail_all(self, error: Callable[[str], ControlError]) -> None:
        pending, self._pending = self._pending, collections.deque()
        for reply, timer, cmd in pending:
            timer.cancel()
            reply.settle(error(cmd))

    async def close(self) -> None:
        if self._transport is not None:
            self._transport.close()
        if self._lost is not None:
            await self._lost


def wait_for_control(host: str, port: int,
                     timeout: float = 15.0) -> ControlClient:
    """Poll until a daemon's control port accepts a ``ping``.

    For a launcher that cannot read the daemon's ready line
    (:func:`~repro.runtime.launch.boot` reads it and needs no poll).  A
    poll attempt that fails mid-ping closes its socket before retrying —
    a slow-starting daemon must not leak one file descriptor per tick —
    and the poll interval backs off (with jitter) so many concurrent
    launches don't hammer the loopback in lockstep.
    """
    deadline = time.monotonic() + timeout
    last_error: Optional[Exception] = None
    sleep = 0.05
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
