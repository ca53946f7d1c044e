"""Stable-storage crash fault tolerance — paper §6.2.

For users who trust TEE integrity (no Byzantine failures) but want to
survive crashes without a committee chain, Teechain seals protocol state to
local storage after every update, binding each sealed blob to a hardware
monotonic counter value.  On restart, the enclave unseals the latest blob
and refuses anything whose bound counter disagrees with the hardware
counter — defeating rollback (feeding the enclave an old blob) and state
forking (running two enclaves from the same blob: only one can match the
counter).

The monotonic counter is the throttle: SGX counters manage ~10 increments
per second (the paper emulates them with a 100 ms delay, and so do we via
:mod:`repro.tee.monotonic`), which caps unbatched payments at 10 tx/s —
Table 1's stable-storage row.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.core.channel_base import ChannelProtocol, replication_state
from repro.core.deposits import DepositRecord
from repro.core.state import ChannelState
from repro.crypto.keys import PrivateKey
from repro.errors import SealingError, TEEError
from repro.simulation.scheduler import Scheduler
from repro.tee.enclave import Enclave
from repro.tee.monotonic import MonotonicCounterBank
from repro.tee.sealing import SealedBlob, SealingService


class PersistentStore:
    """Durable, rollback-protected state storage for one enclave.

    Install with :meth:`attach`; every protocol state mutation then

    1. increments the enclave's monotonic counter (throttled — the
       returned completion time is recorded so benchmarks can account for
       the 100 ms delay), and
    2. seals the full protocol state bound to the new counter value.

    :meth:`restore` rebuilds a fresh enclave's program state from the
    latest blob, verifying the counter binding.
    """

    def __init__(
        self,
        enclave: Enclave,
        scheduler: Scheduler,
        platform_secret: bytes = b"platform",
        increment_delay: float = 0.100,
    ) -> None:
        if not isinstance(enclave.program, ChannelProtocol):
            raise TEEError("persistent store requires the Teechain program")
        self.enclave = enclave
        self.scheduler = scheduler
        self.counters = MonotonicCounterBank(increment_delay=increment_delay)
        self.counter = self.counters.create()
        self.sealing = SealingService(platform_secret, enclave.measurement)
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
        """Increment the counter and seal the current state."""
        completion = self.counter.increment(self.scheduler.now)
        self.last_seal_completion = completion
        self.latest_blob = self.sealing.seal(
            replication_state(self.enclave.program), self.counter.value)
        self.seals_written += 1

    def restore(self, enclave: Enclave,
                blob: Optional[SealedBlob] = None) -> None:
        """Load sealed state into ``enclave``'s (fresh) program.

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


def restore_program_state(program: ChannelProtocol,
                          state: Dict[str, Any]) -> None:
    """Write a replicated/sealed state snapshot into a program instance."""
    program.channels = dict(state.get("channels", {}))
    program.deposits = dict(state.get("deposits", {}))
    program.deposit_keys = {
        address: PrivateKey.from_bytes(raw)
        for address, raw in state.get("deposit_keys", {}).items()
    }
    program.approved_deposits = {
        key: set(values)
        for key, values in state.get("approved_deposits", {}).items()
    }
    program._pay_seq_out = dict(state.get("pay_seq_out", {}))
    program._pay_seq_in = dict(state.get("pay_seq_in", {}))
    program.retired_sessions = {
        key: set(values)
        for key, values in state.get("retired_sessions", {}).items()
    }
    program.payments_sent = state.get("payments_sent", 0)
    program.payments_received = state.get("payments_received", 0)
    # Session-MAC fast-path bookkeeping (absent in pre-fast-path blobs:
    # the defaults leave the fast path off with clean counters).
    fastpath = state.get("fastpath", {})
    program.fastpath_enabled = fastpath.get("enabled", False)
    program.checkpoint_every = fastpath.get("checkpoint_every", 64)
    # Settlement fee policy (absent in pre-fee blobs: default is feeless,
    # matching what those enclaves were settling with).
    fee_policy = state.get("fee_policy", {})
    program.settlement_feerate = fee_policy.get("settlement_feerate", 0.0)
    program._fastpath_unsigned = dict(fastpath.get("unsigned", {}))
    program._checkpoint_index_out = dict(fastpath.get("index_out", {}))
    program._checkpoint_index_in = dict(fastpath.get("index_in", {}))
    program._remote_checkpoints = dict(fastpath.get("remote_checkpoints", {}))
    # In-flight multi-hop sessions, when the program supports them (the
    # full TeechainEnclave does; bare ChannelProtocol programs do not).
    # Restoring these is what lets a recovered enclave eject payments
    # that were mid-flight at the crash (Alg. 2 lines 60–72).
    sessions = state.get("multihop_sessions")
    if sessions is not None and hasattr(program, "multihop_sessions"):
        program.multihop_sessions = dict(sessions)
    # Account-hub ledger, when the program carries one (pre-hub blobs
    # simply leave a fresh empty ledger in place).
    hub_state = state.get("hub")
    if hub_state is not None and hasattr(program, "hub"):
        from repro.hub.ledger import AccountLedger

        program.hub = AccountLedger.from_state(hub_state)
    # Whatever a replication chain's backups held, it is not this.
    program.journal.resync()
