"""``AsyncTcpNetwork`` — the live counterpart of the DES transports.

Implements the :class:`~repro.network.transport.BaseNetwork` interface
over asyncio TCP so protocol code (``TeechainNode._pump`` in particular)
is transport-agnostic: the same ``register``/``send`` calls that deliver
synchronously under ``InstantNetwork`` put codec frames on real sockets
here.

Wire format: each frame is a 4-byte big-endian length followed by one
codec-encoded object (whose version-2 header optionally carries a trace
context, so causal traces survive the hop between daemons).  Three
kinds of objects cross a peer connection —
the :class:`~repro.runtime.messages.Hello`/``HelloAck`` handshake,
bare ``bytes`` (a sealed protocol frame, attributed to the peer the
connection's Hello named and delivered to this host's own endpoint), and
anything else (control-plane gossip, handed to the host's control
handler).  Every link opens with the handshake; a transport with no
attesting host behind it still names itself in a bare one.

Connections are per-direction: each side dials its own outbound link
(with exponential backoff, so daemons can start in any order) and serves
inbound frames on its listener.  Both ends are asyncio protocols, made
through the :mod:`repro.runtime.net` seam.  Inbound frames are
parsed and handled in the read callback.  An outbound frame is written
straight to the socket while its link is connected, idle and unpaused,
with no task hop; otherwise it waits in the link's queue, which carries
protocol and control frames alike, so cross-plane ordering (e.g. "enclave
ack before OpenChannelOk") is preserved per peer.

Flow control is credit/watermark based.  The fire-and-forget ``send`` /
``send_control`` keep the drop-newest-on-full policy (the live analogue
of the DES adversary's suppression accounting), but drops are now
counted *per plane* — protocol (payment envelopes) vs control (gossip,
echoes) — so a benchmark can assert that no payment frame was ever
lost.  The backpressured surface is:

* :meth:`AsyncTcpNetwork.send_wait` — awaitable ``send`` that waits for
  queue credit instead of dropping: once a peer's queue fills past its
  high watermark, senders park until the link writes it back down to the
  low watermark (hysteresis, so a saturated queue drains in bulk instead
  of thrashing one frame at a time);
* :meth:`AsyncTcpNetwork.flush` — barrier that resolves once every
  queued outbound frame has been written to the socket.
"""

from __future__ import annotations

import asyncio
import logging
import random
import time
from dataclasses import replace
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from repro.errors import NetworkError
from repro.network.transport import BaseNetwork, Message
from repro.obs import get_tracer
from repro.obs.context import TraceContext
from repro.obs.merge import estimate_offset
from repro.runtime import codec
from repro.runtime.messages import Hello, HelloAck
from repro.runtime.net import dial, listen

logger = logging.getLogger(__name__)

MAX_FRAME = 16 * 1024 * 1024  # sanity bound; a length prefix is attacker data
_LEN = 4


def _frame(obj: Any, trace: Optional[TraceContext] = None) -> bytes:
    body = codec.encode(obj, trace=trace)
    if len(body) > MAX_FRAME:
        raise NetworkError(f"frame of {len(body)} bytes exceeds MAX_FRAME")
    return len(body).to_bytes(_LEN, "big") + body


class _PeerConnection(asyncio.Protocol):
    """One peer TCP connection, either end: length-prefixed frames in,
    parsed and handled in the read callback.  On a connection a
    :class:`_PeerLink` dialled (``link``), the first frame is the
    handshake's HelloAck.  A length past :data:`MAX_FRAME`, a frame the
    codec refuses, or a sealed frame before the peer's Hello drops the
    connection."""

    def __init__(self, network: "AsyncTcpNetwork",
                 link: Optional["_PeerLink"] = None) -> None:
        self.network = network
        self.link = link
        self.transport: Any = None
        self.peer_name = link.name if link is not None else None
        self.paused = self.acked = False
        self.hello_sent = 0.0  # our Hello's timestamp, for the skew estimate
        self.lost = asyncio.get_running_loop().create_future()
        self._buffer = b""

    def connection_made(self, transport: Any) -> None:
        self.transport = transport
        self.network._connections.add(self)

    def connection_lost(self, exc: Optional[Exception]) -> None:
        self.network._connections.discard(self)
        if not self.lost.done():
            self.lost.set_result(None)

    def pause_writing(self) -> None:
        self.paused = True

    def resume_writing(self) -> None:
        self.paused = False
        if self.link is not None and self.link._connection is self:
            self.link._pump()

    def data_received(self, data: bytes) -> None:
        buffer = self._buffer + data if self._buffer else data
        start, size = 0, len(buffer)
        try:
            while size - start >= _LEN:
                length = int.from_bytes(buffer[start:start + _LEN], "big")
                if length > MAX_FRAME:
                    raise NetworkError(
                        f"peer announced {length}-byte frame; refusing")
                if start + _LEN + length > size:
                    break
                start += _LEN + length
                self._frame_received(buffer[start - length:start])
        except (NetworkError, codec.CodecError) as exc:
            logger.warning("%s: dropping connection from %s: %s",
                           self.network.name, self.peer_name, exc)
            self._buffer = b""
            self.transport.close()
            return
        self._buffer = buffer[start:]

    def _frame_received(self, body: bytes) -> None:
        network = self.network
        obj, context = codec.decode_with_trace(body)
        if self.link is not None and not self.acked:
            if not isinstance(obj, HelloAck):
                raise NetworkError(
                    f"expected HelloAck, got {type(obj).__name__}")
            self.acked = True
            self.link._acked(self, obj, network.clock())
            return
        network.frames_received += 1
        network.bytes_received += len(body) + _LEN
        if isinstance(obj, bytes):
            if self.peer_name is None:
                raise NetworkError("sealed frame before the peer's Hello")
            network._dispatch(self.peer_name, obj, len(body) + _LEN, context)
        elif isinstance(obj, Hello):
            t_received = network.clock()
            self.peer_name = obj.name
            ack = network.hello_handler(obj)
            if obj.t_sent:  # peer wants a skew estimate
                ack = replace(ack, t_echo=obj.t_sent, t_received=t_received,
                              t_sent=network.clock())
            self.transport.write(_frame(ack))
        elif network.control_handler is not None:
            network.control_handler(obj, self.peer_name)
        else:
            logger.warning("%s: unhandled control frame %s",
                           network.name, type(obj).__name__)
        network.pulse_progress()


class _PeerLink:
    """One outbound connection: dial with backoff, handshake, then send.

    A frame is written straight to the socket while the link is
    connected, idle (nothing queued before it) and unpaused; otherwise it
    waits in the queue, which is written out in order as soon as the
    link is up and unpaused again.  No task runs per frame."""

    def __init__(self, network: "AsyncTcpNetwork", name: str,
                 host: str, port: int) -> None:
        self.network = network
        self.name = name
        self.host = host
        self.port = port
        self.queue: asyncio.Queue = asyncio.Queue(maxsize=network.max_queue)
        self.connected = asyncio.Event()
        self.drops = 0
        self.drops_by_plane: Dict[str, int] = {"protocol": 0, "control": 0}
        self.backpressure_waits = 0
        # Credit gate with hysteresis: cleared when the queue crosses the
        # high watermark, set again once the queue is written back down to
        # the low watermark.  enqueue_wait() parks on this event.
        self.writable = asyncio.Event()
        self.writable.set()
        # Barrier for flush(): set whenever the queue is empty and no
        # frame is awaiting its socket write.
        self.drained = asyncio.Event()
        self.drained.set()
        self.reconnects = 0
        # Fault injection: a black-holed link keeps its TCP connection but
        # silently discards outbound frames — the peer sees silence, not a
        # reset, so nothing triggers a redial.
        self.blackholed = False
        self.blackhole_drops = 0
        self.task: Optional[asyncio.Task] = None
        self.backoff = network.backoff_base  # reset by start() and _up()
        # The handshaken connection, while the link is up.
        self._connection: Optional[_PeerConnection] = None
        # A frame whose write failed: the first write to a socket whose
        # peer died since the last frame fails only *after* the frame left
        # the queue.  Kept across redials and sent first, since dropping
        # it silently loses exactly one frame per peer crash
        # (at-least-once beats at-most-once here — receivers already
        # tolerate duplicates: gossip is idempotent on txid and enclave
        # envelopes carry replay counters).
        self._unsent: Optional[bytes] = None

    def start(self) -> None:
        self.backoff = self.network.backoff_base
        self.task = asyncio.get_event_loop().create_task(
            self._run(), name=f"link:{self.network.name}->{self.name}"
        )

    def _open(self) -> bool:
        connection = self._connection
        return (connection is not None and not connection.paused
                and not connection.transport.is_closing())

    def _after_put(self) -> None:
        self.drained.clear()
        if self.queue.qsize() >= self.network.high_watermark:
            self.writable.clear()

    def enqueue(self, frame: bytes, plane: str = "protocol") -> bool:
        if self._open() and self.queue.empty():
            self._write(frame)
            return True
        try:
            self.queue.put_nowait(frame)
            self._after_put()
            return True
        except asyncio.QueueFull:
            self.drops += 1
            self.drops_by_plane[plane] = self.drops_by_plane.get(plane, 0) + 1
            if self.network._metrics.enabled:
                self.network._metrics.inc("runtime.queue_drops")
                self.network._metrics.inc(f"runtime.queue_drops[{plane}]")
            logger.warning("%s->%s: outbound queue full, dropping %s frame",
                           self.network.name, self.name, plane)
            return False

    async def enqueue_wait(self, frame: bytes, plane: str = "protocol") -> None:
        """Backpressured enqueue: waits for queue space, never drops.

        The watermark gate comes first so a saturated queue drains in
        bulk before new senders proceed; the awaitable ``put`` behind it
        is the hard guarantee that even a burst of concurrently released
        senders cannot overflow the queue."""
        if self._open() and self.queue.empty():
            self._write(frame)
            return
        if not self.writable.is_set():
            self.backpressure_waits += 1
            if self.network._metrics.enabled:
                self.network._metrics.inc("runtime.backpressure_waits")
                self.network._metrics.inc(
                    f"runtime.backpressure_waits[{plane}]")
            await self.writable.wait()
        await self.queue.put(frame)
        self._after_put()
        self._pump()

    def _write(self, frame: bytes) -> None:
        if self.blackholed:
            self.blackhole_drops += 1
            if self.network._metrics.enabled:
                self.network._metrics.inc("runtime.blackhole_drops")
            return
        transport = self._connection.transport
        transport.write(frame)
        if transport.is_closing():  # the write failed: the link is down
            self._unsent = frame
            self.drained.clear()

    def _pump(self) -> None:
        """Write the waiting frames, in order, while the link is open."""
        if self._unsent is not None and self._open():
            frame, self._unsent = self._unsent, None
            self._write(frame)
        while (self._unsent is None and not self.queue.empty()
               and self._open()):
            frame = self.queue.get_nowait()
            self._after_pop()
            self._write(frame)
        if self._unsent is None and self.queue.empty():
            self.drained.set()

    async def _run(self) -> None:
        while True:
            connection: Optional[_PeerConnection] = None
            try:
                _, connection = await dial(
                    self.host, self.port,
                    lambda: _PeerConnection(self.network, self))
                hello = self.network.hello_factory()
                # Stamp at the last possible moment so queueing delay
                # inside the factory does not bias the skew estimate.
                connection.hello_sent = self.network.clock()
                connection.transport.write(_frame(
                    replace(hello, t_sent=connection.hello_sent)))
                await connection.lost
                raise ConnectionResetError("peer closed the link")
            except asyncio.CancelledError:
                break
            except (OSError, NetworkError, codec.CodecError) as exc:
                self._down(connection)
                self.reconnects += 1
                if self.network._metrics.enabled:
                    self.network._metrics.inc("runtime.reconnects")
                logger.debug("%s->%s: link down (%s); retry in %.2fs",
                             self.network.name, self.name, exc, self.backoff)
                # Jitter desynchronises redial stampedes when several
                # links lost the same peer at the same moment.
                await asyncio.sleep(
                    self.backoff * (1.0 + random.random() * 0.5))
                self.backoff = min(self.backoff * 2, self.network.backoff_cap)
            finally:
                if connection is not None:
                    connection.transport.close()
        self._down(connection)

    def _acked(self, connection: _PeerConnection, ack: HelloAck,
               t_ack_received: float) -> None:
        if ack.t_received:  # a pre-timestamp peer leaves these zeroed
            self.network.peer_offsets[ack.name] = estimate_offset(
                connection.hello_sent, ack.t_echo, ack.t_received,
                ack.t_sent, t_ack_received,
            )
        handler = self.network.hello_ack_handler
        if handler is not None:
            handler(ack)
            self.network.pulse_progress()
        self._up(connection)

    def _up(self, connection: _PeerConnection) -> None:
        self.backoff = self.network.backoff_base
        self._connection = connection
        self.connected.set()
        self._pump()

    def _down(self, connection: Optional[_PeerConnection]) -> None:
        if self._connection is connection:
            self._connection = None
            self.connected.clear()

    def _after_pop(self) -> None:
        # Hysteresis: credit returns only once the queue has been written
        # down to the low watermark, not one slot below high.
        if (not self.writable.is_set()
                and self.queue.qsize() <= self.network.low_watermark):
            self.writable.set()

    async def flush(self, timeout: float = 30.0) -> None:
        """Barrier: every frame queued before this call has been written
        to the socket (or discarded by an active blackhole)."""
        try:
            await asyncio.wait_for(self.drained.wait(), timeout)
        except asyncio.TimeoutError:
            raise NetworkError(
                f"{self.network.name}->{self.name}: flush timed out after "
                f"{timeout:.1f}s with {self.queue.qsize()} frames queued "
                f"(connected={self.connected.is_set()})"
            ) from None

    def sever(self) -> None:
        """Cut the TCP connection now.  The dial loop restarts from
        scratch, so the link heals itself after the backoff — a sever
        models a transient network cut, not a removed peer."""
        self._down(self._connection)
        # A sever is a link-down-then-redial event like any other; count
        # it, or transient cuts are invisible to stats and the auditor.
        self.reconnects += 1
        if self.network._metrics.enabled:
            self.network._metrics.inc("runtime.reconnects")
        if self.task is not None:
            self.task.cancel()  # its finally closes the socket
        self.start()

    def stop(self) -> None:
        if self.task is not None:
            self.task.cancel()


class AsyncTcpNetwork(BaseNetwork):
    """Asyncio TCP transport with the ``BaseNetwork`` interface.

    ``name`` identifies this host in handshakes and names its own
    endpoint (the local node), which receives every sealed frame that
    arrives; a send to a locally registered endpoint is delivered without
    a socket, everything else is routed to the outbound link matching the
    destination name.
    """

    def __init__(
        self,
        name: str,
        host: str = "127.0.0.1",
        port: int = 0,
        max_queue: int = 1024,
        backoff_base: float = 0.05,
        backoff_cap: float = 2.0,
        high_watermark: Optional[int] = None,
        low_watermark: Optional[int] = None,
    ) -> None:
        super().__init__()
        self.name = name
        self.host = host
        self.port = port
        self.max_queue = max_queue
        # Credit watermarks: senders lose credit when a link's queue
        # reaches ``high`` and regain it once the link has written it
        # back down to ``low``.  The gap between ``high`` and ``max_queue``
        # is headroom for fire-and-forget frames issued while credit
        # holders are mid-burst, so the waiting path never causes the
        # dropping path to trigger.
        self.high_watermark = (high_watermark if high_watermark is not None
                               else max(1, (3 * max_queue) // 4))
        self.low_watermark = (low_watermark if low_watermark is not None
                              else max(0, max_queue // 4))
        if not 0 <= self.low_watermark < self.high_watermark <= max_queue:
            raise NetworkError(
                f"watermarks must satisfy 0 <= low < high <= max_queue, "
                f"got low={self.low_watermark} high={self.high_watermark} "
                f"max_queue={max_queue}")
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self.frames_received = 0
        self.bytes_received = 0
        # Frames addressed to a name with no link and no local handler —
        # mirrored into the runtime.no_route_drops metric, kept as a
        # plain counter too so `stats` reports it even when the metrics
        # registry is a no-op.
        self.no_route_drops = 0
        # Clock used for handshake skew stamps.  The daemon points this at
        # its WallClockScheduler so handshake offsets live on the same
        # timeline as span timestamps; bare transports use monotonic time.
        self.clock: Callable[[], float] = time.monotonic
        # NTP-style clock offsets measured during handshakes: peer name →
        # (peer clock − our clock).  Consumed by ``repro.obs.merge`` to
        # align per-daemon trace dumps on one causal timeline.
        self.peer_offsets: Dict[str, float] = {}
        # Host hooks: the daemon wires these before start().  Without an
        # attesting host the handshake only names the two ends.
        self.hello_factory: Callable[[], Hello] = lambda: Hello(
            self.name, self.host, self.port, "", None)
        self.hello_handler: Callable[[Hello], HelloAck] = (
            lambda hello: HelloAck(self.name, "", None))
        self.hello_ack_handler: Optional[Callable[[HelloAck], None]] = None
        self.control_handler: Optional[Callable[[Any, Optional[str]], None]] = None
        # Futures resolved once the next inbound frame has been handled
        # (see next_progress).
        self._progress_waiters: List["asyncio.Future[None]"] = []
        self._links: Dict[str, _PeerLink] = {}
        self._server: Optional[asyncio.AbstractServer] = None
        self._connections: Set[_PeerConnection] = set()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    async def start(self) -> Tuple[str, int]:
        """Bind the listener; returns the bound (host, port)."""
        self._server = await listen(self.host, self.port,
                                    lambda: _PeerConnection(self))
        self.host, self.port = self._server.sockets[0].getsockname()[:2]
        return self.host, self.port

    async def stop(self) -> None:
        for link in self._links.values():
            link.stop()
        if self._server is not None:
            self._server.close()
            for connection in list(self._connections):
                connection.transport.close()
            await self._server.wait_closed()
            self._server = None

    def add_peer(self, name: str, host: str, port: int) -> None:
        """Create (and start dialling) the outbound link to ``name``."""
        if name in self._links:
            return
        link = _PeerLink(self, name, host, port)
        self._links[name] = link
        link.start()

    def has_peer(self, name: str) -> bool:
        return name in self._links

    def peer_names(self) -> Tuple[str, ...]:
        return tuple(self._links)

    async def wait_connected(self, name: str, timeout: float = 10.0) -> None:
        link = self._links.get(name)
        if link is None:
            raise NetworkError(f"no link to {name!r}")
        try:
            await asyncio.wait_for(link.connected.wait(), timeout)
        except asyncio.TimeoutError:
            raise NetworkError(
                f"{self.name}->{name}: not connected within {timeout:.1f}s "
                f"(dialing {link.host}:{link.port}, "
                f"{link.reconnects} redials so far)"
            ) from None

    # ------------------------------------------------------------------
    # Fault injection (driven by the daemon's ``fault`` control command)
    # ------------------------------------------------------------------

    def sever(self, name: str) -> None:
        """Drop the TCP connection to ``name``; it redials with backoff."""
        self._link_for_fault(name).sever()

    def blackhole(self, name: str) -> None:
        """Silently discard all further outbound frames to ``name``."""
        self._link_for_fault(name).blackholed = True

    def restore(self, name: str) -> None:
        """Lift a blackhole on the link to ``name``."""
        self._link_for_fault(name).blackholed = False

    def _link_for_fault(self, name: str) -> _PeerLink:
        link = self._links.get(name)
        if link is None:
            raise NetworkError(f"no link to {name!r}")
        return link

    # ------------------------------------------------------------------
    # Sending (BaseNetwork interface)
    # ------------------------------------------------------------------

    def _protocol_frame(self, sender: str, destination: str, payload: Any,
                        size: Optional[int]) -> Tuple[Message, bytes]:
        """The sealed ``payload`` as a bare ``bytes`` frame: the receiver
        attributes it to this host's Hello name, so ``sender`` must be
        the endpoint registered under :attr:`name`."""
        if not isinstance(payload, (bytes, bytearray)):
            raise NetworkError(
                f"payload of type {type(payload).__name__} has no wire "
                "encoding; cannot send over TCP"
            )
        context = get_tracer().context
        frame = _frame(bytes(payload), trace=context)
        message = Message(sender, destination, payload,
                          size if size is not None else len(frame),
                          context)
        return message, frame

    def _route(self, message: Message,
               destination: str) -> Tuple[bool, Optional[_PeerLink]]:
        """Common accounting + local-delivery; returns (done, link)."""
        if not self._account_send(message):
            return True, None
        handler = self._handlers.get(destination)
        if handler is not None:
            # Local endpoint (loopback): deliver without touching a socket.
            handler(message)
            return True, None
        link = self._links.get(destination)
        if link is None:
            logger.warning("%s: no route to %r, dropping frame",
                           self.name, destination)
            self.no_route_drops += 1
            if self._metrics.enabled:
                self._metrics.inc("runtime.no_route_drops")
            return True, None
        return False, link

    def send(self, sender: str, destination: str, payload: Any,
             size: Optional[int] = None) -> None:
        """Fire-and-forget protocol send: drops (counted, per plane) when
        the peer's outbound queue is full."""
        message, frame = self._protocol_frame(sender, destination, payload,
                                              size)
        done, link = self._route(message, destination)
        if not done:
            link.enqueue(frame, plane="protocol")

    async def send_wait(self, sender: str, destination: str, payload: Any,
                        size: Optional[int] = None) -> None:
        """Backpressured protocol send: waits for queue credit instead of
        dropping.  Sustained overload slows the sender down; it never
        loses a payment frame."""
        message, frame = self._protocol_frame(sender, destination, payload,
                                              size)
        done, link = self._route(message, destination)
        if not done:
            await link.enqueue_wait(frame, plane="protocol")

    async def flush(self, destination: Optional[str] = None,
                    timeout: float = 30.0) -> None:
        """Barrier: every outbound frame queued before this call has been
        written to its socket (all links, or just ``destination``)."""
        if destination is not None:
            link = self._links.get(destination)
            if link is None:
                raise NetworkError(f"no link to {destination!r}")
            await link.flush(timeout)
            return
        for link in list(self._links.values()):
            await link.flush(timeout)

    def send_control(self, peer: str, obj: Any) -> None:
        """Send a control-plane object (gossip, channel coordination)."""
        link = self._links.get(peer)
        if link is None:
            raise NetworkError(f"no link to {peer!r}")
        frame = _frame(obj)
        message = Message(self.name, peer, obj, len(frame))
        if not self._account_send(message):
            return
        link.enqueue(frame, plane="control")

    # ------------------------------------------------------------------
    # Receiving
    # ------------------------------------------------------------------

    def next_progress(self) -> "asyncio.Future[None]":
        """A future resolved once the next inbound frame has been handled:
        a host waiting for state that only a peer's message can change
        awaits this instead of polling, and re-tests its own condition on
        waking.  The waiter is registered before this returns, so no frame
        handled after the caller's last test can be missed."""
        waiter = asyncio.get_running_loop().create_future()
        self._progress_waiters.append(waiter)
        return waiter

    def pulse_progress(self) -> None:
        """Resolve every ``next_progress`` future; free when nobody waits."""
        if self._progress_waiters:
            waiters, self._progress_waiters = self._progress_waiters, []
            for waiter in waiters:
                if not waiter.done():  # a timed-out waiter was cancelled
                    waiter.set_result(None)

    def _dispatch(self, sender: str, payload: bytes, wire_size: int,
                  context: Optional[TraceContext] = None) -> None:
        handler = self._handlers.get(self.name)
        if handler is None:
            logger.warning("%s: no local endpoint for a frame from %r",
                           self.name, sender)
            return
        message = Message(sender, self.name, payload, wire_size, context)
        try:
            handler(message)
        except Exception:  # noqa: BLE001 — a handler bug must not kill I/O
            logger.exception("%s: handler for %r failed", self.name, sender)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def stats(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "listen": f"{self.host}:{self.port}",
            "messages_sent": self.messages_sent,
            "bytes_sent": self.bytes_sent,
            "messages_suppressed": self.messages_suppressed,
            "frames_received": self.frames_received,
            "bytes_received": self.bytes_received,
            "no_route_drops": self.no_route_drops,
            "peer_offsets": dict(self.peer_offsets),
            "peers": {
                name: {
                    "connected": link.connected.is_set(),
                    "queued": link.queue.qsize(),
                    "drops": link.drops,
                    "drops_protocol": link.drops_by_plane.get("protocol", 0),
                    "drops_control": link.drops_by_plane.get("control", 0),
                    "backpressure_waits": link.backpressure_waits,
                    "writable": link.writable.is_set(),
                    "reconnects": link.reconnects,
                    "blackholed": link.blackholed,
                    "blackhole_drops": link.blackhole_drops,
                }
                for name, link in self._links.items()
            },
        }
