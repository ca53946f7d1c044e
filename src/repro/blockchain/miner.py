"""Block production on the simulated clock.

Bitcoin's ~10 minute inter-block time is the default; experiments that
model channel-open latency (Table 2's 60-minute LN open = 6 confirmations)
use it directly, while protocol tests shrink it to keep simulations short.
"""

from __future__ import annotations

from typing import Optional

from repro.blockchain.chain import Blockchain
from repro.simulation.scheduler import Event, Scheduler

BITCOIN_BLOCK_INTERVAL = 600.0  # seconds
DEFAULT_CONFIRMATION_DEPTH = 6


class Miner:
    """Mines a block every ``block_interval`` simulated seconds."""

    def __init__(
        self,
        chain: Blockchain,
        scheduler: Scheduler,
        block_interval: float = BITCOIN_BLOCK_INTERVAL,
        block_tx_limit: Optional[int] = None,
    ) -> None:
        self.chain = chain
        self.scheduler = scheduler
        self.block_interval = block_interval
        self.block_tx_limit = block_tx_limit
        self._running = False
        self._next: Optional[Event] = None

    def start(self) -> None:
        """Begin periodic mining; the first block lands one interval from
        now."""
        if self._running:
            return
        self._running = True
        self._schedule_next()

    def stop(self) -> None:
        self._running = False
        if self._next is not None:
            self._next.cancel()
            self._next = None

    def _schedule_next(self) -> None:
        self._next = self.scheduler.call_after(self.block_interval, self._mine)

    def _mine(self) -> None:
        if not self._running:
            return
        self.chain.mine_block(
            timestamp=self.scheduler.now, limit=self.block_tx_limit
        )
        self._schedule_next()
