"""Settlement-transaction construction.

Settlement is where Teechain touches the blockchain: a single transaction
spends all of a channel's deposits and pays each party its final balance
(Alg. 1 lines 114–118).  Because *every* settlement of a channel spends the
same deposit outpoints, any two settlements of the same channel conflict —
the UTXO first-spend-wins rule is what makes proofs of premature
termination sound (§5.1).

This module also builds τ, the intermediate path settlement transaction for
multi-hop payments: one transaction spending the deposits of *all* channels
in the path and paying every participant its post-payment balance.  τ
therefore conflicts with each individual channel settlement, pre- or
post-payment.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.blockchain.script import LockingScript, Witness
from repro.blockchain.transaction import OutPoint, Transaction, TxInput, TxOutput
from repro.core.deposits import DepositRecord
from repro.core.state import ChannelState
from repro.crypto.ecdsa import Signature
from repro.crypto.keys import PrivateKey
from repro.errors import SettlementError

# Given a deposit, the sighash digest, and the unsigned transaction being
# signed, return enough signatures to satisfy the deposit's m-of-n spec.
# The 1-of-1 provider signs with a locally held key; the committee provider
# gathers a quorum, and committee members independently verify the unsigned
# transaction against their replicated state before signing
# (repro.core.committee).
SigningProvider = Callable[
    [DepositRecord, bytes, Transaction], Sequence[Signature]
]


def local_key_provider(
    deposit_keys: Mapping[str, PrivateKey]
) -> SigningProvider:
    """Signing provider over locally held deposit keys (Alg. 1 model)."""

    def provide(deposit: DepositRecord, digest: bytes,
                unsigned: Transaction) -> Sequence[Signature]:
        signatures: List[Signature] = []
        for public_key in deposit.spec.public_keys:
            private = deposit_keys.get(public_key.address())
            if private is not None and private.public_key == public_key:
                signatures.append(private.sign(digest))
            if len(signatures) >= deposit.spec.threshold:
                break
        if len(signatures) < deposit.spec.threshold:
            raise SettlementError(
                f"hold {len(signatures)} of {deposit.spec.threshold} keys "
                f"needed to spend deposit {deposit.outpoint}"
            )
        return signatures

    return provide


def _payout_outputs(payouts: Sequence[Tuple[str, int]]) -> Tuple[TxOutput, ...]:
    """Build outputs, dropping zero-value payouts (a party whose balance
    reached zero simply does not appear in the settlement).

    Outputs are sorted by address: both endpoints of a channel must derive
    the *identical* settlement transaction (same txid) from their own view
    of the state, or PoPT candidate txids would never match."""
    outputs = tuple(
        TxOutput(value, LockingScript.pay_to_address(address))
        for address, value in sorted(payouts)
        if value > 0
    )
    if not outputs:
        raise SettlementError("settlement would pay out nothing")
    return outputs


def apply_fee(
    payouts: Sequence[Tuple[str, int]], fee: int
) -> List[Tuple[str, int]]:
    """Deduct an on-chain fee from ``payouts``, deterministically.

    The fee is split proportionally to payout value (integer floor); the
    remainder is charged one unit at a time to the largest payouts first,
    ties broken by address order.  Determinism matters: both endpoints of a
    channel must derive the identical fee-paying settlement (same txid)
    from their own state, or PoPT candidate txids would never match."""
    if fee < 0:
        raise SettlementError(f"negative fee {fee}")
    if fee == 0:
        return list(payouts)
    total = sum(value for _, value in payouts)
    if fee >= total:
        raise SettlementError(
            f"fee ({fee}) would swallow the entire payout ({total})"
        )
    shares = {
        address: fee * value // total
        for address, value in payouts
    }
    remainder = fee - sum(shares.values())
    for address, value in sorted(payouts, key=lambda p: (-p[1], p[0])):
        if remainder == 0:
            break
        if value - shares[address] > 0:
            shares[address] += 1
            remainder -= 1
    if remainder:
        raise SettlementError("fee remainder could not be distributed")
    return [
        (address, value - shares[address]) for address, value in payouts
    ]


def build_unsigned_settlement(
    deposits: Sequence[DepositRecord],
    payouts: Sequence[Tuple[str, int]],
    fee: int = 0,
) -> Transaction:
    """Unsigned transaction spending ``deposits`` into ``payouts``.

    ``fee`` is left unclaimed by the outputs (``inputs − outputs``) for the
    miner to collect — see :func:`apply_fee` for how it is charged against
    the payouts."""
    if not deposits:
        raise SettlementError("settlement needs at least one deposit")
    total_in = sum(deposit.value for deposit in deposits)
    charged = apply_fee(payouts, fee)
    total_out = sum(value for _, value in charged)
    if total_out + fee > total_in:
        raise SettlementError(
            f"payouts ({total_out}) plus fee ({fee}) exceed deposit "
            f"value ({total_in})"
        )
    inputs = tuple(
        TxInput(deposit.outpoint)
        for deposit in sorted(deposits, key=lambda d: d.outpoint)
    )
    return Transaction(inputs=inputs, outputs=_payout_outputs(charged))


def settlement_fee(
    deposits: Sequence[DepositRecord],
    payouts: Sequence[Tuple[str, int]],
    feerate: float,
) -> int:
    """Fee for settling ``deposits`` into ``payouts`` at ``feerate``
    (value per vsize byte), sized off the feeless settlement skeleton.

    Deterministic in its arguments, so endpoints configured with the same
    fee policy derive the same fee — and therefore the same txid."""
    if feerate <= 0:
        return 0
    unsigned = build_unsigned_settlement(deposits, payouts)
    return int(round(feerate * unsigned.vsize))


def sign_settlement(
    unsigned: Transaction,
    deposits: Sequence[DepositRecord],
    provider: SigningProvider,
) -> Transaction:
    """Attach witnesses from ``provider`` to every input."""
    by_outpoint: Dict[OutPoint, DepositRecord] = {
        deposit.outpoint: deposit for deposit in deposits
    }
    digest = unsigned.sighash()
    witnesses = []
    for tx_input in unsigned.inputs:
        deposit = by_outpoint.get(tx_input.outpoint)
        if deposit is None:
            raise SettlementError(
                f"no deposit record for input {tx_input.outpoint}"
            )
        signatures = tuple(provider(deposit, digest, unsigned))
        witnesses.append(Witness(signatures=signatures))
    return unsigned.with_witnesses(witnesses)


def build_channel_settlement(
    channel: ChannelState,
    deposits_of: Mapping[OutPoint, DepositRecord],
    provider: SigningProvider,
    my_balance: Optional[int] = None,
    remote_balance: Optional[int] = None,
    feerate: float = 0.0,
) -> Transaction:
    """Signed settlement of one channel at the given balances.

    Balances default to the channel's current state; the multi-hop code
    passes explicit pre-/post-payment balances when snapshotting PoPT
    candidates.  ``feerate > 0`` charges an on-chain fee against the
    payouts (:func:`settlement_fee`); both endpoints must run the same fee
    policy for their settlement txids to agree.
    """
    deposit_records = [
        deposits_of[outpoint] for outpoint in sorted(channel.all_deposits())
    ]
    if my_balance is None:
        my_balance = channel.my_balance
    if remote_balance is None:
        remote_balance = channel.remote_balance
    payouts = [
        (channel.my_settlement_address, my_balance),
        (channel.remote_settlement_address, remote_balance),
    ]
    fee = settlement_fee(deposit_records, payouts, feerate)
    unsigned = build_unsigned_settlement(deposit_records, payouts, fee=fee)
    return sign_settlement(unsigned, deposit_records, provider)


def build_release(
    deposit: DepositRecord,
    destination_address: str,
    provider: SigningProvider,
) -> Transaction:
    """Alg. 1 line 45: spend a free deposit back to its owner."""
    unsigned = build_unsigned_settlement(
        [deposit], payouts=[(destination_address, deposit.value)]
    )
    return sign_settlement(unsigned, [deposit], provider)


# ---------------------------------------------------------------------------
# τ — the intermediate path settlement transaction (§5.1)
# ---------------------------------------------------------------------------

def build_tau_from_components(
    deposits: Sequence[Tuple[OutPoint, int]],
    payouts: Sequence[Tuple[str, int]],
) -> Transaction:
    """Build unsigned τ from the (outpoint, value) pairs accumulated in the
    lock message — the terminal hop p_n holds no :class:`DepositRecord` for
    other channels' deposits, only the wire components."""
    if not deposits:
        raise SettlementError("τ needs at least one deposit input")
    total_in = sum(value for _, value in deposits)
    merged = _merge_payouts(payouts)
    total_out = sum(value for _, value in merged)
    if total_out > total_in:
        raise SettlementError(
            f"τ payouts ({total_out}) exceed deposit value ({total_in})"
        )
    inputs = tuple(
        TxInput(outpoint)
        for outpoint, _ in sorted(deposits, key=lambda item: item[0])
    )
    return Transaction(inputs=inputs, outputs=_payout_outputs(merged))


def _merge_payouts(payouts: Sequence[Tuple[str, int]]) -> List[Tuple[str, int]]:
    """Sum payouts per address (a middle hop appears in two channels)."""
    merged: Dict[str, int] = {}
    for address, value in payouts:
        merged[address] = merged.get(address, 0) + value
    return sorted(merged.items())


def add_tau_signatures(
    tau: Transaction,
    deposits: Sequence[DepositRecord],
    provider: SigningProvider,
) -> Transaction:
    """Sign the τ inputs this TEE holds deposits for, preserving existing
    witnesses on other inputs (the sign phase accumulates signatures as τ
    travels back up the path, Alg. 2 lines 14/19)."""
    ours: Dict[OutPoint, DepositRecord] = {
        deposit.outpoint: deposit for deposit in deposits
    }
    digest = tau.sighash()
    witnesses = []
    for tx_input in tau.inputs:
        deposit = ours.get(tx_input.outpoint)
        if deposit is not None:
            signatures = tuple(provider(deposit, digest, tau))
            witnesses.append(Witness(signatures=signatures))
        else:
            witnesses.append(tx_input.witness)
    return tau.with_witnesses(witnesses)
