"""Channel state — the per-channel variables of Algorithms 1 and 2.

Field names mirror the paper's notation (``cmy_bal``, ``cremote_deps``…)
via more Pythonic spellings; the docstrings cite the algorithm lines they
implement so the code can be audited against the paper.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Set

from repro.blockchain.transaction import OutPoint
from repro.crypto.keys import PublicKey
from repro.errors import ChannelStateError


class MultihopStage(enum.Enum):
    """Stage of a channel within a multi-hop payment (Alg. 2)."""

    IDLE = "idle"
    LOCK = "lock"
    SIGN = "sign"
    PRE_UPDATE = "preUpdate"
    UPDATE = "update"
    POST_UPDATE = "postUpdate"
    RELEASE = "release"
    TERMINATED = "terminated"


@dataclass
class ChannelState:
    """One payment channel as seen from the local TEE.

    Mirrors Alg. 1 lines 3–10: the remote's identity key, both parties'
    settlement addresses, both balances, and both parties' associated
    deposits (by outpoint).
    """

    channel_id: str
    remote_key: PublicKey                      # cremote_K(id)
    my_settlement_address: str                 # cmy_add(id)
    remote_settlement_address: str             # cremote_add(id)
    is_open: bool = False                      # cis_open(id)
    my_balance: int = 0                        # cmy_bal(id)
    remote_balance: int = 0                    # cremote_bal(id)
    my_deposits: Set[OutPoint] = field(default_factory=set)      # cmy_deps
    remote_deposits: Set[OutPoint] = field(default_factory=set)  # cremote_deps

    # --- multi-hop state (Alg. 2) ---------------------------------------
    stage: MultihopStage = MultihopStage.IDLE  # cstage
    locked_amount: int = 0                     # amnt_i for this channel
    # Direction of the in-flight multi-hop payment through this channel:
    # True if the local party is paying (balance decreases on update).
    locked_outgoing: bool = False
    terminated: bool = False
    # An off-chain (neutral-balance) termination is in progress: once both
    # parties' deposits are fully dissociated the channel resets
    # (Alg. 1 lines 106–112).
    settling_offchain: bool = False

    def require_open(self) -> None:
        if not self.is_open or self.terminated:
            raise ChannelStateError(
                f"channel {self.channel_id} is not open"
            )

    def require_stage(self, *stages: MultihopStage) -> None:
        if self.stage not in stages:
            raise ChannelStateError(
                f"channel {self.channel_id} is in stage {self.stage.value}, "
                f"expected one of {[stage.value for stage in stages]}"
            )

    @property
    def capacity(self) -> int:
        """Total value in the channel (both balances)."""
        return self.my_balance + self.remote_balance

    def all_deposits(self) -> Set[OutPoint]:
        return self.my_deposits | self.remote_deposits

    def is_neutral(self, deposit_value_of) -> bool:
        """Whether balances equal the associated deposit values exactly —
        the precondition for off-chain termination (Alg. 1 line 106).

        ``deposit_value_of`` maps an outpoint to its value.
        """
        my_deposit_value = sum(
            deposit_value_of(outpoint) for outpoint in self.my_deposits
        )
        remote_deposit_value = sum(
            deposit_value_of(outpoint) for outpoint in self.remote_deposits
        )
        return (
            self.my_balance == my_deposit_value
            and self.remote_balance == remote_deposit_value
        )

    def reset(self) -> None:
        """Clear all channel state (Alg. 1 lines 112/119: ∀i: ci(id) ← ⊥)."""
        self.is_open = False
        self.my_balance = 0
        self.remote_balance = 0
        self.my_deposits.clear()
        self.remote_deposits.clear()
        self.stage = MultihopStage.IDLE
        self.locked_amount = 0
        self.locked_outgoing = False
        self.settling_offchain = False
        self.terminated = True
