"""Message transport between named endpoints.

Two implementations share one interface:

* :class:`Network` — scheduler-driven; delivery takes one-way latency
  (RTT/2) plus a serialisation delay from link bandwidth.  Benchmarks run
  on this.
* :class:`InstantNetwork` — synchronous FIFO delivery with zero latency.
  Unit tests of protocol logic run on this; the FIFO drain (rather than
  recursive delivery) keeps deep multi-hop cascades iterative.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

from repro.errors import NetworkError
from repro.obs import get_metrics, get_tracer
from repro.obs.context import TraceContext
from repro.simulation.scheduler import Scheduler

Handler = Callable[["Message"], None]
LatencyFn = Callable[[str, str], float]
BandwidthFn = Callable[[str, str], Optional[float]]

DEFAULT_MESSAGE_SIZE = 512  # bytes; fallback when a payload is not encodable

# Lazily-resolved ``repro.runtime.codec.encoded_size``.  The import happens
# on first use, not at module load: the codec registers every protocol
# dataclass, and importing it here would drag the whole protocol stack in
# under ``repro.network``.
_encoded_size: Optional[Callable[[Any], Optional[int]]] = None


def payload_size(payload: Any) -> int:
    """Wire size of ``payload`` per the runtime codec.

    Falls back to :data:`DEFAULT_MESSAGE_SIZE` for payloads with no wire
    encoding (test doubles, in-process-only objects), so DES bandwidth and
    serialisation-delay accounting reflects real message sizes whenever it
    can.
    """
    global _encoded_size
    if _encoded_size is None:
        from repro.runtime.codec import encoded_size
        _encoded_size = encoded_size
    size = _encoded_size(payload)
    return size if size is not None else DEFAULT_MESSAGE_SIZE


@dataclass(frozen=True)
class Message:
    """One delivered message.

    ``trace`` is the causal context riding the message — ``None`` unless
    a tracer with an active context was installed when it was sent, so
    untraced runs construct exactly the same object they always did."""

    sender: str
    destination: str
    payload: Any
    size: int = DEFAULT_MESSAGE_SIZE
    trace: Optional[TraceContext] = None


class BaseNetwork:
    """Endpoint registry shared by both transports."""

    def __init__(self) -> None:
        self._handlers: Dict[str, Handler] = {}
        self.messages_sent = 0
        self.bytes_sent = 0
        # Adversary-suppressed traffic is accounted separately: a message a
        # tap swallowed never went over the wire, so counting it as sent
        # would skew every bandwidth/cost figure derived from these.
        self.messages_suppressed = 0
        self.bytes_suppressed = 0
        self._taps: List[Callable[[Message], Optional[bool]]] = []
        self._metrics = get_metrics()

    def register(self, name: str, handler: Handler) -> None:
        if name in self._handlers:
            raise NetworkError(f"endpoint {name!r} already registered")
        self._handlers[name] = handler

    def unregister(self, name: str) -> None:
        self._handlers.pop(name, None)

    def wrap_handler(self, name: str,
                     wrap: Callable[[Handler], Handler]) -> None:
        """Replace ``name``'s handler with ``wrap(original)``.

        Lets a host interpose on deliveries (echo probes, fault injection)
        without the endpoint re-registering.
        """
        original = self._handler_for(name)
        self._handlers[name] = wrap(original)

    def add_tap(self, tap: Callable[[Message], Optional[bool]]) -> None:
        """Install a wire tap (adversary hook).

        Taps see every message before delivery; returning ``False``
        suppresses normal delivery (the tap has taken over the message).
        """
        self._taps.append(tap)

    def remove_tap(self, tap: Callable[[Message], Optional[bool]]) -> None:
        """Uninstall a wire tap (no-op if it was never installed) — lets
        a fault injector detach without leaving dead policy hooks."""
        try:
            self._taps.remove(tap)
        except ValueError:
            pass

    def _handler_for(self, destination: str) -> Handler:
        handler = self._handlers.get(destination)
        if handler is None:
            raise NetworkError(f"no endpoint {destination!r}")
        return handler

    def _tap_allows(self, message: Message) -> bool:
        for tap in self._taps:
            if tap(message) is False:
                return False
        return True

    def _account_send(self, message: Message) -> bool:
        """Consult taps, then update wire accounting.

        Returns ``True`` if the message should be delivered.  Tap-dropped
        messages count as suppressions, not as sent traffic.
        """
        if not self._tap_allows(message):
            self.messages_suppressed += 1
            self.bytes_suppressed += message.size
            if self._metrics.enabled:
                self._metrics.inc("transport.tap_drops")
                self._metrics.inc("transport.tap_dropped_bytes", message.size)
            return False
        self.messages_sent += 1
        self.bytes_sent += message.size
        if self._metrics.enabled:
            pair = f"{message.sender}->{message.destination}"
            self._metrics.inc(f"transport.messages[{pair}]")
            self._metrics.inc(f"transport.bytes[{pair}]", message.size)
        return True


class Network(BaseNetwork):
    """Latency/bandwidth-modelled transport over the simulated clock."""

    def __init__(
        self,
        scheduler: Scheduler,
        latency: LatencyFn,
        bandwidth: Optional[BandwidthFn] = None,
    ) -> None:
        super().__init__()
        self.scheduler = scheduler
        self._latency = latency
        self._bandwidth = bandwidth

    def one_way_delay(self, sender: str, destination: str, size: int) -> float:
        """Propagation (RTT/2) plus serialisation (size/bandwidth)."""
        delay = self._latency(sender, destination) / 2.0
        if self._bandwidth is not None:
            bits_per_second = self._bandwidth(sender, destination)
            if bits_per_second:
                delay += (size * 8) / bits_per_second
        return delay

    def send(self, sender: str, destination: str, payload: Any,
             size: Optional[int] = None) -> None:
        """Deliver ``payload`` after the modelled delay.

        ``size`` defaults to the payload's wire-codec length (see
        :func:`payload_size`).  The destination handler is resolved at
        delivery time, so a crash (unregister) between send and delivery
        silently drops the message — exactly what a dead host does.
        """
        if size is None:
            size = payload_size(payload)
        message = Message(sender, destination, payload, size,
                          get_tracer().context)
        if not self._account_send(message):
            return
        delay = self.one_way_delay(sender, destination, size)
        self.deliver_after(delay, message)

    def deliver_after(self, delay: float, message: Message) -> None:
        """Schedule raw delivery (used by adversaries re-injecting
        messages)."""

        def deliver() -> None:
            handler = self._handlers.get(message.destination)
            if handler is not None:
                handler(message)

        self.scheduler.call_after(delay, deliver)


class InstantNetwork(BaseNetwork):
    """Zero-latency synchronous transport for protocol unit tests.

    Messages go through a FIFO: a handler that sends during delivery does
    not recurse, it appends — giving deterministic, stack-safe cascades.
    """

    def __init__(self) -> None:
        super().__init__()
        self._queue: Deque[Message] = deque()
        self._draining = False

    def send(self, sender: str, destination: str, payload: Any,
             size: Optional[int] = None) -> None:
        if size is None:
            size = payload_size(payload)
        message = Message(sender, destination, payload, size,
                          get_tracer().context)
        if not self._account_send(message):
            return
        self._queue.append(message)
        self._drain()

    def inject(self, message: Message) -> None:
        """Deliver a crafted/replayed message (adversary use)."""
        self._queue.append(message)
        self._drain()

    def _drain(self) -> None:
        """Deliver queued messages in FIFO order.

        A handler that raises (or an endpoint that unregisters mid-drain)
        must not wedge the network: every remaining queued message is still
        delivered, and the first failure then surfaces as a
        :class:`NetworkError` carrying the offending message — dropping it
        silently would turn a protocol bug into a phantom packet loss.
        """
        if self._draining:
            return
        self._draining = True
        first_failure: Optional[Tuple[Message, BaseException]] = None
        try:
            while self._queue:
                message = self._queue.popleft()
                handler = self._handlers.get(message.destination)
                if handler is None:
                    continue
                try:
                    handler(message)
                except Exception as exc:  # noqa: BLE001 — isolate handlers
                    if first_failure is None:
                        first_failure = (message, exc)
        finally:
            self._draining = False
        if first_failure is not None:
            message, exc = first_failure
            error = NetworkError(
                f"handler for {message.destination!r} failed on message "
                f"from {message.sender!r}: {exc}"
            )
            error.message = message
            raise error from exc
