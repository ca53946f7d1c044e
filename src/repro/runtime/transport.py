"""``AsyncTcpNetwork`` — the live counterpart of the DES transports.

Implements the :class:`~repro.network.transport.BaseNetwork` interface
over asyncio TCP so protocol code (``TeechainNode._pump`` in particular)
is transport-agnostic: the same ``register``/``send`` calls that deliver
synchronously under ``InstantNetwork`` put codec frames on real sockets
here.

Wire format: each frame is a 4-byte big-endian length followed by one
codec-encoded object (whose version-2 header optionally carries a trace
context, so causal traces survive the hop between daemons).  Three kinds of objects cross a peer connection —
the :class:`~repro.runtime.messages.Hello`/``HelloAck`` handshake,
:class:`~repro.runtime.messages.Envelope` (protocol traffic, routed to
the registered endpoint handler), and anything else (control-plane
gossip, handed to the host's control handler).

Connections are per-direction: each side dials its own outbound link
(with exponential backoff, so daemons can start in any order) and serves
inbound frames on its listener.  A single queue carries both protocol
and control frames, so cross-plane ordering (e.g. "enclave ack before
OpenChannelOk") is preserved per peer.

Flow control is credit/watermark based.  The fire-and-forget ``send`` /
``send_control`` keep the drop-newest-on-full policy (the live analogue
of the DES adversary's suppression accounting), but drops are now
counted *per plane* — protocol (payment envelopes) vs control (gossip,
echoes) — so a benchmark can assert that no payment frame was ever
lost.  The backpressured surface is:

* :meth:`AsyncTcpNetwork.send_wait` — awaitable ``send`` that waits for
  queue space instead of dropping;
* :meth:`AsyncTcpNetwork.wait_writable` — credit gate: resolves while
  the peer's queue is below its high watermark; once the queue fills
  past it, senders park until the drain loop pulls it back under the
  low watermark (hysteresis, so a saturated queue drains in bulk
  instead of thrashing one frame at a time);
* :meth:`AsyncTcpNetwork.flush` — barrier that resolves once every
  queued outbound frame has been written to the socket.
"""

from __future__ import annotations

import asyncio
import logging
import random
import time
from dataclasses import replace
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.errors import NetworkError
from repro.network.transport import BaseNetwork, Message
from repro.obs import get_tracer
from repro.obs.context import TraceContext
from repro.obs.merge import estimate_offset
from repro.runtime import codec
from repro.runtime.messages import Envelope, Hello, HelloAck

logger = logging.getLogger(__name__)

MAX_FRAME = 16 * 1024 * 1024  # sanity bound; a length prefix is attacker data
_LEN = 4


def _frame(obj: Any, trace: Optional[TraceContext] = None) -> bytes:
    body = codec.encode(obj, trace=trace)
    if len(body) > MAX_FRAME:
        raise NetworkError(f"frame of {len(body)} bytes exceeds MAX_FRAME")
    return len(body).to_bytes(_LEN, "big") + body


async def _read_frame(reader: asyncio.StreamReader) -> bytes:
    header = await reader.readexactly(_LEN)
    length = int.from_bytes(header, "big")
    if length > MAX_FRAME:
        raise NetworkError(f"peer announced {length}-byte frame; refusing")
    return await reader.readexactly(length)


class _PeerLink:
    """One outbound connection: dial with backoff, handshake, drain queue."""

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
        # high watermark, set again once the drain loop pulls it back to
        # the low watermark.  wait_writable() parks on this event.
        self.writable = asyncio.Event()
        self.writable.set()
        # Barrier for flush(): set whenever the queue is empty and no
        # popped frame is awaiting its socket write.
        self.drained = asyncio.Event()
        self.drained.set()
        self.reconnects = 0
        # Fault injection: a black-holed link keeps its TCP connection but
        # silently discards outbound frames — the peer sees silence, not a
        # reset, so nothing triggers a redial.
        self.blackholed = False
        self.blackhole_drops = 0
        self.task: Optional[asyncio.Task] = None

    def start(self) -> None:
        self.task = asyncio.get_event_loop().create_task(
            self._run(), name=f"link:{self.network.name}->{self.name}"
        )

    def _after_put(self) -> None:
        self.drained.clear()
        if self.queue.qsize() >= self.network.high_watermark:
            self.writable.clear()

    def enqueue(self, frame: bytes, plane: str = "protocol") -> bool:
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
        if not self.writable.is_set():
            self.backpressure_waits += 1
            if self.network._metrics.enabled:
                self.network._metrics.inc("runtime.backpressure_waits")
                self.network._metrics.inc(
                    f"runtime.backpressure_waits[{plane}]")
            await self.writable.wait()
        await self.queue.put(frame)
        self._after_put()

    async def _run(self) -> None:
        backoff = self.network.backoff_base
        # A frame popped from the queue but whose write raised.  Kept
        # across redials and re-sent first: the first write to a socket
        # whose peer died since the last frame fails only *after* the pop,
        # and dropping it there silently loses exactly one frame per peer
        # crash (at-least-once beats at-most-once here — receivers already
        # tolerate duplicates: gossip is idempotent on txid and enclave
        # envelopes carry replay counters).
        pending: Optional[bytes] = None
        while True:
            writer = None
            try:
                reader, writer = await asyncio.open_connection(
                    self.host, self.port
                )
                await self._handshake(reader, writer)
                backoff = self.network.backoff_base
                self.connected.set()
                while True:
                    if pending is None:
                        pending = await self.queue.get()
                        self._after_pop()
                    if self.blackholed:
                        self.blackhole_drops += 1
                        if self.network._metrics.enabled:
                            self.network._metrics.inc(
                                "runtime.blackhole_drops")
                        pending = None
                        self._mark_drained()
                        continue
                    writer.write(pending)
                    await writer.drain()
                    pending = None
                    self._mark_drained()
            except asyncio.CancelledError:
                break
            except (OSError, asyncio.IncompleteReadError,
                    NetworkError, codec.CodecError) as exc:
                self.connected.clear()
                self.reconnects += 1
                if self.network._metrics.enabled:
                    self.network._metrics.inc("runtime.reconnects")
                logger.debug("%s->%s: link down (%s); retry in %.2fs",
                             self.network.name, self.name, exc, backoff)
                # Jitter desynchronises redial stampedes when several
                # links lost the same peer at the same moment.
                await asyncio.sleep(backoff * (1.0 + random.random() * 0.5))
                backoff = min(backoff * 2, self.network.backoff_cap)
            finally:
                if writer is not None:
                    writer.close()
        self.connected.clear()

    async def _handshake(self, reader: asyncio.StreamReader,
                         writer: asyncio.StreamWriter) -> None:
        hello = self.network.hello_factory()
        if hello is None:
            return  # host runs without attestation (bare transport tests)
        # Stamp at the last possible moment so queueing delay inside the
        # factory does not bias the skew estimate.
        hello = replace(hello, t_sent=self.network.clock())
        writer.write(_frame(hello))
        await writer.drain()
        ack = codec.decode(await _read_frame(reader))
        t_ack_received = self.network.clock()
        if not isinstance(ack, HelloAck):
            raise NetworkError(
                f"expected HelloAck, got {type(ack).__name__}"
            )
        if ack.t_received:  # a pre-timestamp peer leaves these zeroed
            self.network.peer_offsets[ack.name] = estimate_offset(
                hello.t_sent, ack.t_echo, ack.t_received,
                ack.t_sent, t_ack_received,
            )
        handler = self.network.hello_ack_handler
        if handler is not None:
            handler(ack)
            self.network.pulse_progress()

    def _after_pop(self) -> None:
        # Hysteresis: credit returns only once the drain loop has pulled
        # the queue down to the low watermark, not one slot below high.
        if (not self.writable.is_set()
                and self.queue.qsize() <= self.network.low_watermark):
            self.writable.set()

    def _mark_drained(self) -> None:
        if self.queue.empty():
            self.drained.set()

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
        self.connected.clear()
        # A sever is a link-down-then-redial event like any other; count
        # it, or transient cuts are invisible to stats and the auditor.
        self.reconnects += 1
        if self.network._metrics.enabled:
            self.network._metrics.inc("runtime.reconnects")
        if self.task is not None:
            self.task.cancel()
        self.start()

    def stop(self) -> None:
        if self.task is not None:
            self.task.cancel()


class AsyncTcpNetwork(BaseNetwork):
    """Asyncio TCP transport with the ``BaseNetwork`` interface.

    ``name`` identifies this host in handshakes; endpoints registered on
    this network (normally just the local node) receive frames addressed
    to them, everything else is routed to the outbound link matching the
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
        # reaches ``high`` and regain it once the drain loop has pulled
        # it back to ``low``.  The gap between ``high`` and ``max_queue``
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
        # Host hooks: the daemon wires these before start().
        self.hello_factory: Callable[[], Optional[Hello]] = lambda: None
        self.hello_handler: Optional[Callable[[Hello], Optional[HelloAck]]] = None
        self.hello_ack_handler: Optional[Callable[[HelloAck], None]] = None
        self.control_handler: Optional[Callable[[Any, Optional[str]], None]] = None
        # Futures resolved once the next inbound frame has been handled
        # (see next_progress).
        self._progress_waiters: List["asyncio.Future[None]"] = []
        self._links: Dict[str, _PeerLink] = {}
        self._server: Optional[asyncio.AbstractServer] = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    async def start(self) -> Tuple[str, int]:
        """Bind the listener; returns the bound (host, port)."""
        self._server = await asyncio.start_server(
            self._serve_connection, self.host, self.port
        )
        self.host, self.port = self._server.sockets[0].getsockname()[:2]
        return self.host, self.port

    async def stop(self) -> None:
        for link in self._links.values():
            link.stop()
        if self._server is not None:
            self._server.close()
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
        if isinstance(payload, (bytes, bytearray)):
            envelope = Envelope(sender, destination, bytes(payload))
        elif codec.encodable(payload):
            # Non-bytes protocol payloads ride as a nested codec frame.
            envelope = Envelope(sender, destination, codec.encode(payload),
                                encoded=True)
        else:
            raise NetworkError(
                f"payload of type {type(payload).__name__} has no wire "
                "encoding; cannot send over TCP"
            )
        context = get_tracer().context
        frame = _frame(envelope, trace=context)
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

    async def wait_writable(self, destination: str,
                            timeout: float = 30.0) -> None:
        """Credit gate: resolves while ``destination``'s outbound queue
        is below its high watermark (always, for local endpoints)."""
        link = self._links.get(destination)
        if link is None or link.writable.is_set():
            return
        link.backpressure_waits += 1
        if self._metrics.enabled:
            self._metrics.inc("runtime.backpressure_waits")
        try:
            await asyncio.wait_for(link.writable.wait(), timeout)
        except asyncio.TimeoutError:
            raise NetworkError(
                f"{self.name}->{destination}: no send credit within "
                f"{timeout:.1f}s ({link.queue.qsize()} frames queued, "
                f"connected={link.connected.is_set()})"
            ) from None

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

    async def _serve_connection(self, reader: asyncio.StreamReader,
                                writer: asyncio.StreamWriter) -> None:
        peer_name: Optional[str] = None
        try:
            while True:
                body = await _read_frame(reader)
                self.frames_received += 1
                self.bytes_received += len(body) + _LEN
                obj, context = codec.decode_with_trace(body)
                if isinstance(obj, Hello):
                    t_received = self.clock()
                    peer_name = obj.name
                    if self.hello_handler is not None:
                        ack = self.hello_handler(obj)
                        if ack is not None:
                            if obj.t_sent:  # peer wants a skew estimate
                                ack = replace(ack, t_echo=obj.t_sent,
                                              t_received=t_received,
                                              t_sent=self.clock())
                            writer.write(_frame(ack))
                            await writer.drain()
                elif isinstance(obj, Envelope):
                    self._dispatch(obj, len(body) + _LEN, context)
                elif self.control_handler is not None:
                    self.control_handler(obj, peer_name)
                else:
                    logger.warning("%s: unhandled control frame %s",
                                   self.name, type(obj).__name__)
                self.pulse_progress()
        except asyncio.CancelledError:
            return  # loop teardown at shutdown; exit without the log noise
        except (asyncio.IncompleteReadError, ConnectionResetError):
            pass  # peer closed; its link will redial if it has more to say
        except (NetworkError, codec.CodecError) as exc:
            logger.warning("%s: dropping connection from %s: %s",
                           self.name, peer_name, exc)
        finally:
            writer.close()

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

    def _dispatch(self, envelope: Envelope, wire_size: int,
                  context: Optional[TraceContext] = None) -> None:
        handler = self._handlers.get(envelope.destination)
        if handler is None:
            logger.warning("%s: frame for unknown endpoint %r",
                           self.name, envelope.destination)
            return
        payload: Any = envelope.payload
        if envelope.encoded:
            try:
                payload = codec.decode(payload)
            except codec.CodecError as exc:
                logger.warning("%s: bad nested frame from %r: %s",
                               self.name, envelope.sender, exc)
                return
        message = Message(envelope.sender, envelope.destination,
                          payload, wire_size, context)
        try:
            handler(message)
        except Exception:  # noqa: BLE001 — a handler bug must not kill I/O
            logger.exception("%s: handler for %r failed",
                             self.name, envelope.destination)

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
