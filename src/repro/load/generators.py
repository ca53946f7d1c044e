"""The closed-loop payment generator.

A *target* is one payment stream: the control address of the daemon
that originates the payments plus the channel to pay over.  Generators
drive every target concurrently; within a target, concurrency comes
from parallel control connections (the daemon serves each connection
serially, so one :class:`AsyncControlClient` is exactly one in-flight
command).

Closed loop fixes the number of users: each issues its next payment
the moment the previous one completes.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro import obs
from repro.obs import MetricsRegistry, summarize_samples
from repro.runtime.control import AsyncControlClient, ControlError

__all__ = [
    "LoadReport",
    "LoadTarget",
    "run_closed_loop",
    "transport_drops",
]


@dataclass(frozen=True)
class LoadTarget:
    """One payment stream: which daemon pays, over which channel."""

    host: str
    port: int  # the *driving* daemon's control port
    channel_id: str
    amount: int = 1
    label: str = ""
    # Optional request builder: () -> (cmd, kwargs).  When set, each
    # attempt issues that command instead of the default channel "pay" —
    # this is how hub-account streams plug in (each call signs a fresh
    # nonce, so the factory must be called once per attempt, never
    # cached).  Excluded from equality/hash so frozen targets stay
    # comparable.
    request_factory: Optional[Callable[[], Tuple[str, Dict[str, Any]]]] = \
        field(default=None, compare=False)

    @property
    def name(self) -> str:
        # The same channel can be driven from both ends, so the default
        # label includes the driver's address, not just the channel.
        return self.label or f"{self.channel_id}@{self.host}:{self.port}"

    @classmethod
    def parse(cls, spec: str, amount: int = 1) -> "LoadTarget":
        """Parse ``host:port/channel_id`` (the CLI ``--target`` form)."""
        address, _, channel_id = spec.partition("/")
        host, _, port = address.rpartition(":")
        if not (host and port.isdigit() and channel_id):
            raise ValueError(
                f"target spec {spec!r} is not host:port/channel_id")
        return cls(host=host, port=int(port), channel_id=channel_id,
                   amount=amount)


class _TargetState:
    """Mutable per-target accounting shared by that target's workers."""

    def __init__(self, target: LoadTarget, total: int) -> None:
        self.target = target
        self.remaining = total
        self.sent = 0
        self.completed = 0
        self.errors = 0
        self.samples: List[float] = []
        self.aborted: Optional[str] = None
        self.rejected: Dict[str, int] = {}  # error code -> count

    def take(self) -> bool:
        if self.remaining <= 0 or self.aborted is not None:
            return False
        self.remaining -= 1
        return True

    def record(self, latency_s: float,
               registry: MetricsRegistry) -> None:
        self.completed += 1
        self.samples.append(latency_s)
        if registry.enabled:
            registry.observe(f"load.latency[{self.target.name}]", latency_s)
            registry.inc("load.completed")

    def record_error(self, registry: MetricsRegistry,
                     code: Optional[str] = None) -> None:
        self.errors += 1
        if code is not None:
            self.rejected[code] = self.rejected.get(code, 0) + 1
        if registry.enabled:
            registry.inc("load.errors")
            registry.inc(f"load.errors[{self.target.name}]")
            if code is not None:
                registry.inc(f"load.rejected[{code}]")

    def result(self, elapsed_s: float) -> Dict[str, Any]:
        row: Dict[str, Any] = {
            "target": self.target.name,
            "host": self.target.host,
            "port": self.target.port,
            "channel_id": self.target.channel_id,
            "sent": self.sent,
            "completed": self.completed,
            "errors": self.errors,
            "throughput_tx_s": (self.completed / elapsed_s
                                if elapsed_s > 0 else None),
            "latency": (summarize_samples(self.samples)
                        if self.samples else None),
        }
        if self.rejected:
            # Per-code rejection counts (stable control-plane codes), so
            # a report can distinguish "the hub refused these" from "the
            # transport ate these".
            row["rejected"] = dict(sorted(self.rejected.items()))
        if self.aborted is not None:
            row["aborted"] = self.aborted
        return row


@dataclass
class LoadReport:
    """Outcome of one generator run, ready for the sidecar."""

    elapsed_s: float
    targets: List[Dict[str, Any]]

    @property
    def completed(self) -> int:
        return sum(row["completed"] for row in self.targets)

    @property
    def errors(self) -> int:
        return sum(row["errors"] for row in self.targets)

    @property
    def rejected(self) -> Dict[str, int]:
        """Rejection counts by stable error code, across all targets."""
        merged: Dict[str, int] = {}
        for row in self.targets:
            for code, count in (row.get("rejected") or {}).items():
                merged[code] = merged.get(code, 0) + count
        return dict(sorted(merged.items()))

    @property
    def throughput_tx_s(self) -> Optional[float]:
        if self.elapsed_s <= 0:
            return None
        return self.completed / self.elapsed_s

    def to_dict(self) -> Dict[str, Any]:
        return {
            "elapsed_s": self.elapsed_s,
            "completed": self.completed,
            "errors": self.errors,
            "rejected": self.rejected,
            "throughput_tx_s": self.throughput_tx_s,
            "targets": self.targets,
        }


async def _pay_once(client: AsyncControlClient, state: _TargetState,
                    registry: MetricsRegistry) -> None:
    """One payment attempt with the generators' shared error policy:
    command-level rejections (the daemon answered) count as errors and
    the stream continues; transport-level failures abort the target —
    its daemon is gone, retrying would just time out N more times."""
    target = state.target
    state.sent += 1
    if target.request_factory is not None:
        cmd, kwargs = target.request_factory()
    else:
        cmd, kwargs = "pay", {"channel_id": target.channel_id,
                              "amount": target.amount}
    reference = time.perf_counter()
    try:
        await client.call(cmd, **kwargs)
    except ControlError as exc:
        if exc.code in ("timeout", "connection_closed"):
            state.aborted = f"{exc.code}: {exc}"
        state.record_error(registry, code=exc.code)
        return
    except OSError as exc:
        state.aborted = f"transport: {exc}"
        state.record_error(registry)
        return
    state.record(time.perf_counter() - reference, registry)


async def _closed_worker(state: _TargetState,
                         registry: MetricsRegistry,
                         timeout: float) -> None:
    client = await AsyncControlClient.connect(
        state.target.host, state.target.port, timeout=timeout)
    try:
        while state.take():
            await _pay_once(client, state, registry)
    finally:
        await client.close()


async def run_closed_loop(
    targets: Sequence[LoadTarget],
    payments_per_target: int,
    concurrency: int = 4,
    timeout: float = 120.0,
    registry: Optional[MetricsRegistry] = None,
) -> LoadReport:
    """Fixed-concurrency load: ``concurrency`` users per target, each
    issuing its next payment as soon as the previous one completes."""
    if payments_per_target <= 0:
        raise ValueError("payments_per_target must be positive")
    if concurrency <= 0:
        raise ValueError("concurrency must be positive")
    metrics = registry if registry is not None else obs.get_metrics()
    states = [_TargetState(target, payments_per_target)
              for target in targets]
    started = time.perf_counter()
    workers = [
        _closed_worker(state, metrics, timeout)
        for state in states
        for _ in range(min(concurrency, payments_per_target))
    ]
    await asyncio.gather(*workers)
    elapsed = time.perf_counter() - started
    return LoadReport(elapsed_s=elapsed,
                      targets=[state.result(elapsed) for state in states])


async def transport_drops(
    control_addresses: Sequence[Tuple[str, int]],
    timeout: float = 30.0,
) -> Dict[str, Any]:
    """Per-plane transport drop totals across a set of daemons.

    The post-run check every load experiment should make: a nonzero
    ``protocol`` count means payment frames were lost to queue overflow
    and the throughput numbers are fiction.
    """
    per_daemon: Dict[str, Dict[str, int]] = {}
    totals = {"protocol": 0, "control": 0}
    for host, port in control_addresses:
        client = await AsyncControlClient.connect(host, port,
                                                  timeout=timeout)
        try:
            stats = await client.call("stats")
        finally:
            await client.close()
        peers = stats.get("transport", {}).get("peers", {})
        protocol = sum(peer.get("drops_protocol", 0)
                       for peer in peers.values())
        control = sum(peer.get("drops_control", 0)
                      for peer in peers.values())
        name = stats.get("name") or f"{host}:{port}"
        per_daemon[name] = {"protocol": protocol, "control": control}
        totals["protocol"] += protocol
        totals["control"] += control
    return {**totals, "per_daemon": per_daemon}
