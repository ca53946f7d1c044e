"""Stable-storage crash fault tolerance — paper §6.2.

For users who trust TEE integrity (no Byzantine failures) but want to
survive crashes without a committee chain, Teechain seals protocol state to
local storage after every update, binding each sealed blob to a hardware
monotonic counter value.  On restart, the enclave unseals the latest blob
and refuses anything bound behind the hardware counter — defeating
rollback (feeding the enclave an old blob) and state forking (running two
enclaves from the same blob: only one can advance the counter).

The monotonic counter is the throttle: SGX counters manage ~10 increments
per second (the paper emulates them with a 100 ms delay, and so do we via
:mod:`repro.tee.monotonic`), which caps unbatched payments at 10 tx/s —
Table 1's stable-storage row.
"""

from __future__ import annotations

from functools import reduce
from operator import attrgetter, getitem
from typing import Any, Callable, Dict, Optional

from repro.core.channel_base import (
    _REPLICATED_SECTIONS,
    CANDIDATES,
    ChannelProtocol,
    _scalar_path,
    replication_state,
)
from repro.errors import SealingError, TEEError
from repro.simulation.scheduler import Scheduler
from repro.tee.enclave import Enclave
from repro.tee.monotonic import MonotonicCounterBank
from repro.tee.sealing import SealedBlob, SealingService


class PersistentStore:
    """Durable, rollback-protected state storage for one enclave.

    Install with :meth:`attach`; every protocol state mutation is then
    sealed (:meth:`persist`), and :meth:`restore` rebuilds a fresh
    enclave's program state from the latest blob.  ``write`` makes each
    blob durable (the daemon's state directory), if given.
    """

    def __init__(
        self,
        enclave: Enclave,
        scheduler: Scheduler,
        platform_secret: bytes = b"platform",
        increment_delay: float = 0.100,
        write: Optional[Callable[[SealedBlob], None]] = None,
    ) -> None:
        if not isinstance(enclave.program, ChannelProtocol):
            raise TEEError("persistent store requires the Teechain program")
        self.enclave = enclave
        self.scheduler = scheduler
        self.counters = MonotonicCounterBank(increment_delay=increment_delay)
        self.counter = self.counters.create()
        self.sealing = SealingService(platform_secret, enclave.measurement)
        self.write = write
        self.latest_blob: Optional[SealedBlob] = None
        self.seals_written = 0
        # Simulated time at which the most recent seal completed; the
        # difference against scheduler.now is the stable-storage latency
        # the benchmarks charge per operation.
        self.last_seal_completion = 0.0

    def attach(self) -> None:
        """Install the persistence hook on the enclave's program."""
        program: ChannelProtocol = self.enclave.program

        def hook(description: str) -> None:
            self.persist()

        program.replication_hook = hook

    def persist(self) -> None:
        """Seal the state at the counter's next value, make it durable,
        then increment the (throttled) counter."""
        blob = self.sealing.seal(replication_state(self.enclave.program),
                                 self.counter.value + 1)
        if self.write is not None:
            self.write(blob)
        self.last_seal_completion = self.counter.increment(self.scheduler.now)
        self.latest_blob = blob
        self.seals_written += 1

    def restore(self, enclave: Enclave,
                blob: Optional[SealedBlob] = None) -> None:
        """Load sealed state into ``enclave``'s (fresh) program and commit
        it: seal it again at the next counter value, so a blob an
        interrupted seal left at counter + 1 (the host may hold it back)
        is stale before the enclave releases anything (DESIGN.md §8).

        ``blob`` defaults to the latest; passing an older blob — the
        rollback attack — fails the counter check inside
        :meth:`~repro.tee.sealing.SealingService.unseal`."""
        if not isinstance(enclave.program, ChannelProtocol):
            raise TEEError("can only restore into the Teechain program")
        target = blob if blob is not None else self.latest_blob
        if target is None:
            raise SealingError("no sealed state to restore")
        state = self.sealing.unseal(target, counter=self.counter)
        restore_program_state(enclave.program, state)
        self.enclave = enclave
        self.persist()


def restore_program_state(program: ChannelProtocol,
                          state: Dict[str, Any]) -> None:
    """Write a :func:`~repro.core.channel_base.replication_state` snapshot
    into a program: the same layout read backwards, over the program's
    own journalled sections and scalars."""
    for section in program._ROLLBACK_ATTRS:
        layout = _REPLICATED_SECTIONS.get(section)
        if layout is None:
            continue
        path, _, decode = layout
        rows = attrgetter(section)(program)
        rows.clear()
        for key, value in reduce(getitem, path, state).items():
            rows[key] = value if decode is None else decode(value)
    # Announced candidates travel as each payment's candidate set, which
    # the sessions' own candidates are a part of.
    program.pending_candidate_txids = {
        payment_id: set(txids)
        for payment_id, txids in state[CANDIDATES[0]].items()}
    for name in program._ROLLBACK_SCALARS:
        *parents, leaf = _scalar_path(name)
        owner, _, attr = name.rpartition(".")
        setattr(attrgetter(owner)(program) if owner else program, attr,
                reduce(getitem, parents, state)[leaf])
    # Whatever a replication chain's backups held, it is not this.
    program.journal.resync()
