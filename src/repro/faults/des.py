"""Deterministic fault injection for the discrete-event modes.

:class:`DesFaultInjector` takes a :class:`~repro.faults.schedule.FaultSchedule`
and wires its DES-applicable faults into a :class:`TeechainNetwork`:

* **enclave crashes** ride the ``fault_probe`` hook on the protocol
  program — the crash fires at a *named protocol point*, before the
  mutation became durable (the pessimistic crash model: recovery replays
  from the previous sealed/replicated snapshot);
* **network faults** (partition / loss / delay / duplicate / reorder) are
  policies on a seeded :class:`~repro.network.adversary.NetworkAdversary`;
* **blockchain-writer stalls** eclipse the target node's
  :class:`~repro.blockchain.access.WriteAdversary`.

Everything random is drawn from the schedule's seed, and the injector
keeps an event trace of every send it observed — two runs of the same
scenario under the same schedule produce byte-identical traces, which is
what makes a chaos failure reproducible from its seed alone.

A crashed node behaves exactly like a dead host: its enclave refuses all
ecalls, its queued outbound messages are lost with enclave memory, and it
is unregistered from the transport so in-flight messages addressed to it
die silently (the documented delivery-time-resolution semantics).
"""

from __future__ import annotations

import logging
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.node import TeechainNetwork, TeechainNode
from repro.core.persistence import PersistentStore
from repro.errors import EnclaveCrashed, NetworkError, ReproError
from repro.faults.schedule import FaultKind, FaultSchedule, FaultSpec
from repro.network.adversary import NetworkAdversary
from repro.network.transport import Message
from repro.obs import get_metrics

logger = logging.getLogger(__name__)


class DesFaultInjector:
    """Applies a fault schedule to a simulated/instant Teechain network."""

    def __init__(self, network: TeechainNetwork,
                 schedule: FaultSchedule) -> None:
        self.network = network
        self.schedule = schedule
        # Event trace: (sim time, sender, destination, payload type).  The
        # trace tap is installed before the adversary's so it records every
        # send attempt, including ones the adversary then suppresses.
        self.trace: List[Tuple[float, str, str, str]] = []
        network.transport.add_tap(self._trace_tap)
        self.adversary = NetworkAdversary(network.transport,
                                          rng_seed=schedule.seed)
        self.injected: List[Tuple[str, str, str]] = []  # (kind, target, why)
        self.crashed: Dict[str, str] = {}               # name → crash reason
        self._fired: set = set()                        # spec ids fired once
        self._armed = False

    # -- lifecycle --------------------------------------------------------

    def arm(self) -> None:
        """Install every DES fault from the schedule.

        Point-triggered crashes install probes immediately; time-triggered
        faults are scheduled on the simulated clock; untimed network
        policies apply now."""
        if self._armed:
            raise ReproError("fault injector is already armed")
        self._armed = True
        probe_targets: Dict[str, List[FaultSpec]] = {}
        for spec in self.schedule.des_faults():
            if spec.kind is FaultKind.CRASH and spec.point is not None:
                probe_targets.setdefault(spec.target, []).append(spec)
            elif spec.at is not None:
                self._at(spec.at, lambda s=spec: self._apply_now(s))
            else:
                self._apply_now(spec)
        for name, specs in probe_targets.items():
            self._install_probe(self._node(name), specs)

    def detach(self) -> None:
        """Remove every hook the injector installed (probes stay on
        crashed nodes — they are dead anyway)."""
        self.adversary.detach()
        self.network.transport.remove_tap(self._trace_tap)
        for node in self.network.nodes.values():
            if node.name not in self.crashed:
                node.program.fault_probe = None

    # -- crash machinery --------------------------------------------------

    def _install_probe(self, node: TeechainNode,
                       specs: List[FaultSpec]) -> None:
        def probe(description: str) -> None:
            for spec in specs:
                if id(spec) in self._fired:
                    continue
                if spec.matches_point(description):
                    self._fired.add(id(spec))
                    self.crash_node(node, reason=description)
                    raise EnclaveCrashed(
                        f"{node.name} crashed at {description}"
                    )

        node.program.fault_probe = probe

    def crash_node(self, node: TeechainNode, reason: str = "injected") -> None:
        """Fail-stop ``node`` right now: enclave memory (including the
        outbox) is lost, and the host drops off the network."""
        from repro.tee.compromise import crash_enclave

        crash_enclave(node.enclave)
        node.program._outbox.clear()
        self.network.transport.unregister(node.name)
        self.crashed[node.name] = reason
        self._count("crash", node.name, reason)
        logger.info("fault: crashed %s at %s", node.name, reason)

    def run(self, thunk: Callable, *args, **kwargs):
        """Run a workload step, absorbing failures *caused by an injected
        crash* (the caller's view of a peer dying mid-protocol).  Any
        other exception propagates — a crash must never mask a real bug.

        Returns the thunk's result, or ``None`` if a crash cut it short.
        """
        try:
            return thunk(*args, **kwargs)
        except EnclaveCrashed:
            return None
        except NetworkError as exc:
            if isinstance(exc.__cause__, EnclaveCrashed):
                return None
            raise

    # -- recovery ---------------------------------------------------------

    def restore_node(self, node: TeechainNode,
                     store: PersistentStore) -> None:
        """Restart a crashed node from its sealed state (§6.2): fresh
        enclave, same identity seed, program state from the latest
        rollback-protected blob.  Secure channels are *not* restored —
        they die with enclave memory and need a fresh handshake — but
        settlement and ejection are local operations, so the restored
        node can always make its funds safe."""
        from repro.core.multihop import TeechainEnclave
        from repro.tee.enclave import Enclave

        if node.name not in self.crashed:
            raise ReproError(f"{node.name} is not crashed")
        fresh = Enclave(TeechainEnclave(), name=node.name,
                        seed=f"enclave:{node.name}".encode())
        store.restore(fresh)
        node.enclave = fresh
        node._install_validator()
        node.program.committee_provider = node._signing_chain
        store.attach()
        self.network.transport.register(node.name, node._on_message)
        del self.crashed[node.name]
        metrics = get_metrics()
        if metrics.enabled:
            metrics.inc("faults.recovered[restore]")
        logger.info("fault: restored %s from sealed state", node.name)

    # -- plumbing ---------------------------------------------------------

    def _node(self, name: str) -> TeechainNode:
        node = self.network.nodes.get(name)
        if node is None:
            raise ReproError(f"fault schedule targets unknown node {name!r}")
        return node

    def _at(self, when: float, apply: Callable[[], None]) -> None:
        scheduler = self.network.scheduler
        delay = max(0.0, when - scheduler.now)
        scheduler.call_after(delay, apply)

    def _apply_now(self, spec: FaultSpec) -> None:
        kind = spec.kind
        if kind is FaultKind.CRASH:
            self.crash_node(self._node(spec.target),
                            reason=spec.note or "scheduled")
        elif kind is FaultKind.PARTITION:
            self.adversary.partition(*spec.link())
            self._count("partition", spec.target)
        elif kind is FaultKind.HEAL:
            self.adversary.heal(*spec.link())
            self._count("heal", spec.target)
        elif kind is FaultKind.LOSS:
            self.adversary.lossy(*spec.link(), spec.probability)
            self._count("loss", spec.target, f"p={spec.probability}")
        elif kind is FaultKind.DELAY:
            self.adversary.delay(*spec.link(), spec.extra_seconds)
            self._count("delay", spec.target, f"+{spec.extra_seconds}s")
        elif kind is FaultKind.DUPLICATE:
            self.adversary.duplicate(*spec.link())
            self._count("duplicate", spec.target)
        elif kind is FaultKind.REORDER:
            self.adversary.reorder(*spec.link(), window=spec.window)
            self._count("reorder", spec.target, f"window={spec.window}")
        elif kind is FaultKind.STALL_CHAIN:
            self._node(spec.target).adversary.eclipse()
            self._count("stall_chain", spec.target)
        elif kind is FaultKind.RESUME_CHAIN:
            self._node(spec.target).adversary.lift_eclipse()
            self._count("resume_chain", spec.target)
        else:  # pragma: no cover — des_faults() filtered live-only kinds
            raise ReproError(f"{kind.value} is not a DES fault")

    def _count(self, kind: str, target: str, why: str = "") -> None:
        self.injected.append((kind, target, why))
        metrics = get_metrics()
        if metrics.enabled:
            metrics.inc("faults.injected")
            metrics.inc(f"faults.injected[{kind}]")

    def _trace_tap(self, message: Message) -> Optional[bool]:
        self.trace.append((
            round(self.network.scheduler.now, 9),
            message.sender, message.destination,
            type(message.payload).__name__,
        ))
        return True
