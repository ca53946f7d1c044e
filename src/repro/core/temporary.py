"""Temporary channels — paper §5.2 and Figure 7.

Multi-hop payments lock every channel in their path, so a busy channel
serialises payments.  Because Teechain creates channels instantly and
assigns deposits dynamically (§4), a contended *primary* channel can be
relieved by spinning up **temporary channels** between the same two TEEs:
other payments then execute in parallel over the extra channels.

Merging a temporary channel back (§5.2): the paper executes multi-hop
payments in a cycle until the temporary channel is neutral, then
dissociates its deposits off-chain.  Between two directly connected
parties, the cycle degenerates to a pair of opposite direct payments —
one on the temporary channel to neutralise it, one on the primary channel
to compensate — which is what :meth:`TemporaryChannelManager.merge` does.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.core.deposits import DepositRecord
from repro.errors import ChannelStateError, ProtocolError

# Imported lazily for type checking only; avoids a node↔temporary cycle.
from typing import TYPE_CHECKING
if TYPE_CHECKING:  # pragma: no cover
    from repro.core.node import TeechainNode


class TemporaryChannelManager:
    """Creates, tracks, and merges temporary channels for one node."""

    def __init__(self, node: "TeechainNode") -> None:
        self.node = node
        # peer name → list of temporary channel ids.
        self.temporaries: Dict[str, List[str]] = {}

    def create(self, peer: "TeechainNode", deposit_value: int,
               confirm: bool = True) -> str:
        """Open a temporary channel to ``peer`` funded with a fresh (or
        reused free) deposit of ``deposit_value``.

        Channel creation needs no blockchain access; the deposit does need
        to exist on chain — the paper's §5.2 uses *unassociated* deposits
        created in advance, which this reuses when one of the right value
        is free."""
        channel_id = self.node.open_channel(
            peer,
            channel_id=self.node.network.next_channel_id(
                self.node.name, peer.name
            ) + "-tmp",
        )
        record = self._free_deposit(deposit_value)
        if record is None:
            record = self.node.create_deposit(deposit_value, confirm=confirm)
        self.node.approve_and_associate(peer, record, channel_id)
        self.temporaries.setdefault(peer.name, []).append(channel_id)
        return channel_id

    def _free_deposit(self, value: int) -> Optional[DepositRecord]:
        for record in self.node.program.deposits.values():
            if record.is_free and record.value == value and not record.committee:
                # Only reuse deposits we can sign for alone.
                addresses = {k.address() for k in record.spec.public_keys}
                if addresses & set(self.node.program.deposit_keys):
                    return record
        return None

    def merge(self, peer: "TeechainNode", temporary_id: str,
              primary_id: str) -> None:
        """Fold a temporary channel back into the primary, off-chain.

        Neutralises the temporary channel with a compensated payment pair,
        then dissociates every deposit (off-chain termination) so the
        funds become free again."""
        program = self.node.program
        temp = program.channels.get(temporary_id)
        if temp is None or not temp.is_open:
            raise ChannelStateError(
                f"temporary channel {temporary_id!r} is not open"
            )
        deposit_value = lambda outpoint: program.deposits[outpoint].value
        my_deposit_total = sum(
            deposit_value(outpoint) for outpoint in temp.my_deposits
        )
        drift = temp.my_balance - my_deposit_total
        if drift > 0:
            # We gained on the temporary channel: pay it back there, and
            # receive the same amount on the primary channel.
            self.node.pay(temporary_id, drift)
            peer.pay(primary_id, drift)
        elif drift < 0:
            peer.pay(temporary_id, -drift)
            self.node.pay(primary_id, -drift)
        # Both sides now neutral: terminate off-chain (Alg. 1 lines
        # 106–112) — no blockchain transaction, deposits become free.
        result = self.node.settle(temporary_id)
        if result is not None:
            raise ProtocolError(
                "temporary channel settled on-chain despite neutral "
                "balances — merge failed"
            )
        entries = self.temporaries.get(peer.name, [])
        if temporary_id in entries:
            entries.remove(temporary_id)
