"""Declarative fault schedules, shared by both execution modes.

A :class:`FaultSchedule` is a seedable, serialisable description of *what
goes wrong and when*: crash an enclave at a named protocol point, partition
a link, delay/duplicate/reorder traffic, stall a blockchain writer, SIGKILL
a daemon.  The same schedule object drives

* :class:`repro.faults.des.DesFaultInjector` — exact, deterministic replay
  on the discrete-event simulator (same seed ⇒ identical event trace), and
* :class:`repro.faults.live.LiveFaultInjector` — approximate replay under
  wall clock against real daemon processes.

Fault kinds that only make sense in one mode are filtered by
:meth:`FaultSchedule.des_faults` / :meth:`FaultSchedule.live_faults`; a
schedule mixing both is legal and each injector applies its half.

Protocol points are the ``description`` strings the enclave passes to
``ChannelProtocol._replicated`` — e.g. ``mh_lock``, ``mh_sign_head``,
``pay``, ``settled`` (see DESIGN.md's fault-model table).  A point may be
just the name (matches any instance: ``"mh_lock"``) or pinned to one
operation with the full prefix (``"mh_lock:mh-7"``).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from typing import Optional, Tuple


class FaultKind(str, enum.Enum):
    """What kind of failure a :class:`FaultSpec` injects."""

    # Both modes (DES exactly; live via the daemon's fault control API).
    CRASH = "crash"                    # fail-stop the target's enclave
    # DES network faults (the adversary tap on the simulated transport).
    PARTITION = "partition"            # drop all traffic on a link
    HEAL = "heal"                      # lift a partition / restore a link
    LOSS = "loss"                      # drop each message with probability
    DELAY = "delay"                    # add latency to a link
    DUPLICATE = "duplicate"            # deliver each message twice
    REORDER = "reorder"                # shuffle windows of messages
    # DES blockchain-writer faults (the WriteAdversary).
    STALL_CHAIN = "stall_chain"        # eclipse the target's chain writes
    RESUME_CHAIN = "resume_chain"      # lift the eclipse
    # Live-only faults (real processes and sockets).
    KILL = "kill"                      # SIGKILL the target daemon
    SEVER = "sever"                    # cut the TCP link (it may redial)
    BLACKHOLE = "blackhole"            # silently drop outbound frames
    CORRUPT_CONTROL = "corrupt_control"  # garbage bytes on the control port


# Kinds each injector understands.  CRASH and the chain-writer faults are
# DES-exact; live mode reaches CRASH through the daemon's ``fault`` control
# command and approximates links with sever/blackhole.
DES_KINDS = frozenset({
    FaultKind.CRASH, FaultKind.PARTITION, FaultKind.HEAL, FaultKind.LOSS,
    FaultKind.DELAY, FaultKind.DUPLICATE, FaultKind.REORDER,
    FaultKind.STALL_CHAIN, FaultKind.RESUME_CHAIN,
})
LIVE_KINDS = frozenset({
    FaultKind.CRASH, FaultKind.KILL, FaultKind.SEVER, FaultKind.BLACKHOLE,
    FaultKind.HEAL, FaultKind.CORRUPT_CONTROL,
})


@dataclass(frozen=True)
class FaultSpec:
    """One scheduled fault.

    ``target`` names a node (``"alice"``) or a directed link
    (``"alice->bob"``).  ``point`` triggers the fault at a named protocol
    point (CRASH only); ``at`` triggers it at a simulated/wall-clock time.
    A CRASH with neither fires immediately when the injector arms.
    """

    kind: FaultKind
    target: str
    point: Optional[str] = None
    at: Optional[float] = None
    probability: float = 1.0      # LOSS: per-message drop probability
    extra_seconds: float = 0.0    # DELAY: added one-way latency
    window: int = 2               # REORDER: shuffle-window size
    note: str = ""

    def link(self) -> Tuple[str, str]:
        """Split a directed-link target; raises for node targets."""
        if "->" not in self.target:
            raise ValueError(
                f"{self.kind.value} fault needs a 'sender->destination' "
                f"target, got {self.target!r}"
            )
        sender, _, destination = self.target.partition("->")
        return sender, destination

    def matches_point(self, description: str) -> bool:
        """Whether a ``_replicated`` description hits this spec's point.

        A bare point name matches any instance of that protocol point; a
        point containing ``:`` must prefix-match the full description (so
        ``mh_lock:mh-7`` pins one payment while ``mh_lock`` matches all —
        and never accidentally matches ``mh_lock_last``).
        """
        if self.point is None:
            return False
        if ":" in self.point:
            return description.startswith(self.point)
        name, _, _ = description.partition(":")
        return name == self.point

@dataclass(frozen=True)
class FaultSchedule:
    """An ordered, seeded collection of :class:`FaultSpec`.

    Immutable: every builder returns a new schedule, so schedules compose
    like values and a test can derive variants from a base.  The seed
    drives every random decision an injector makes (loss draws, reorder
    shuffles), which is what makes DES replays bit-identical.
    """

    seed: int = 0
    faults: Tuple[FaultSpec, ...] = ()

    def _with(self, spec: FaultSpec) -> "FaultSchedule":
        return replace(self, faults=self.faults + (spec,))

    # -- builders ---------------------------------------------------------

    def crash(self, target: str, point: Optional[str] = None,
              at: Optional[float] = None, note: str = "") -> "FaultSchedule":
        """Fail-stop ``target``'s enclave at a protocol point or a time."""
        return self._with(FaultSpec(FaultKind.CRASH, target, point=point,
                                    at=at, note=note))

    def partition(self, sender: str, destination: str,
                  at: Optional[float] = None,
                  bidirectional: bool = False) -> "FaultSchedule":
        schedule = self._with(FaultSpec(
            FaultKind.PARTITION, f"{sender}->{destination}", at=at))
        if bidirectional:
            schedule = schedule._with(FaultSpec(
                FaultKind.PARTITION, f"{destination}->{sender}", at=at))
        return schedule

    def heal(self, sender: str, destination: str,
             at: Optional[float] = None) -> "FaultSchedule":
        return self._with(FaultSpec(
            FaultKind.HEAL, f"{sender}->{destination}", at=at))

    def loss(self, sender: str, destination: str, probability: float,
             at: Optional[float] = None) -> "FaultSchedule":
        if not 0.0 <= probability <= 1.0:
            raise ValueError(f"loss probability must be in [0, 1], "
                             f"got {probability}")
        return self._with(FaultSpec(
            FaultKind.LOSS, f"{sender}->{destination}",
            probability=probability, at=at))

    def delay(self, sender: str, destination: str, extra_seconds: float,
              at: Optional[float] = None) -> "FaultSchedule":
        return self._with(FaultSpec(
            FaultKind.DELAY, f"{sender}->{destination}",
            extra_seconds=extra_seconds, at=at))

    def duplicate(self, sender: str, destination: str,
                  at: Optional[float] = None) -> "FaultSchedule":
        return self._with(FaultSpec(
            FaultKind.DUPLICATE, f"{sender}->{destination}", at=at))

    def reorder(self, sender: str, destination: str, window: int = 2,
                at: Optional[float] = None) -> "FaultSchedule":
        if window < 2:
            raise ValueError(f"reorder window must be ≥ 2, got {window}")
        return self._with(FaultSpec(
            FaultKind.REORDER, f"{sender}->{destination}",
            window=window, at=at))

    def stall_chain(self, target: str,
                    at: Optional[float] = None) -> "FaultSchedule":
        """Eclipse ``target``'s blockchain writer: broadcasts are censored
        until :meth:`resume_chain` — the asynchronous-access adversary."""
        return self._with(FaultSpec(FaultKind.STALL_CHAIN, target, at=at))

    def resume_chain(self, target: str,
                     at: Optional[float] = None) -> "FaultSchedule":
        return self._with(FaultSpec(FaultKind.RESUME_CHAIN, target, at=at))

    def kill(self, target: str, at: Optional[float] = None,
             note: str = "") -> "FaultSchedule":
        """SIGKILL the target daemon process (live mode only)."""
        return self._with(FaultSpec(FaultKind.KILL, target, at=at, note=note))

    def sever(self, sender: str, destination: str,
              at: Optional[float] = None) -> "FaultSchedule":
        return self._with(FaultSpec(
            FaultKind.SEVER, f"{sender}->{destination}", at=at))

    def blackhole(self, sender: str, destination: str,
                  at: Optional[float] = None) -> "FaultSchedule":
        return self._with(FaultSpec(
            FaultKind.BLACKHOLE, f"{sender}->{destination}", at=at))

    def corrupt_control(self, target: str,
                        at: Optional[float] = None) -> "FaultSchedule":
        """Write garbage to the target daemon's control port — the daemon
        must answer a structured error and keep serving."""
        return self._with(FaultSpec(FaultKind.CORRUPT_CONTROL, target, at=at))

    # -- mode filters -------------------------------------------------------

    def des_faults(self) -> Tuple[FaultSpec, ...]:
        return tuple(s for s in self.faults if s.kind in DES_KINDS)

    def live_faults(self) -> Tuple[FaultSpec, ...]:
        return tuple(s for s in self.faults if s.kind in LIVE_KINDS)
