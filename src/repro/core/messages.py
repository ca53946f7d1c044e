"""Protocol messages, and the signature wrapper for what crosses no
attested channel.

Algorithms 1–3 say every inter-TEE message is "signed by k_me".  Between
attested enclaves the secure channel's session MAC and replay counters
already authenticate the sender to the only party that sees the frame
(§4.1), so every message here — a :class:`Paid` included — is sent bare.
:class:`SignedMessage` wraps only what arrives from outside that channel:
hub client requests and routing gossip (DESIGN.md §11 has the table).

Message classes are plain frozen dataclasses; :func:`canonical_bytes`
serialises them deterministically (type tag + sorted field/value pairs)
so signatures are stable across processes.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Optional, Tuple

from repro.blockchain.transaction import OutPoint, Transaction
from repro.crypto.ecdsa import Signature
from repro.crypto.hashing import sha256
from repro.crypto.keys import PrivateKey, PublicKey
from repro.errors import MessageAuthenticationError


def _canon(value: Any) -> bytes:
    """Deterministically serialise a message field value."""
    if value is None:
        return b"none"
    if isinstance(value, bytes):
        return b"b:" + value
    if isinstance(value, str):
        return b"s:" + value.encode()
    if isinstance(value, bool):
        return b"t" if value else b"f"
    if isinstance(value, int):
        return b"i:" + str(value).encode()
    if isinstance(value, float):
        return b"f:" + repr(value).encode()
    if isinstance(value, PublicKey):
        return b"k:" + value.to_bytes()
    if isinstance(value, Signature):
        return b"g:" + value.to_bytes()
    if isinstance(value, OutPoint):
        return b"o:" + value.txid.encode() + str(value.index).encode()
    if isinstance(value, Transaction):
        return b"x:" + value.txid.encode()
    if isinstance(value, (tuple, list)):
        return b"l:" + b"|".join(_canon(item) for item in value)
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return canonical_bytes(value)
    raise TypeError(f"cannot canonicalise {type(value).__name__} in message")


def canonical_bytes(message: Any) -> bytes:
    """Canonical serialisation of a message dataclass."""
    parts = [type(message).__name__.encode()]
    for field_info in sorted(dataclasses.fields(message), key=lambda f: f.name):
        parts.append(field_info.name.encode())
        parts.append(_canon(getattr(message, field_info.name)))
    return b"\x1e".join(parts)


@dataclass(frozen=True)
class SignedMessage:
    """An artefact plus its author's signature (module docstring)."""

    body: Any
    sender_key: PublicKey
    signature: Signature

    @classmethod
    def create(cls, body: Any, signer: PrivateKey) -> "SignedMessage":
        digest = sha256(canonical_bytes(body))
        return cls(body=body, sender_key=signer.public_key,
                   signature=signer.sign(digest))

    def verify(self, expected_sender: Optional[PublicKey] = None) -> None:
        """Check the signature (and, if given, the sender's identity).

        Raises :class:`MessageAuthenticationError` so protocol code can
        treat forged messages as attacks, not bugs.
        """
        if expected_sender is not None and self.sender_key != expected_sender:
            raise MessageAuthenticationError(
                "message signed by unexpected key"
            )
        digest = sha256(canonical_bytes(self.body))
        if not self.sender_key.verify(digest, self.signature):
            raise MessageAuthenticationError(
                f"bad signature on {type(self.body).__name__}"
            )


# ---------------------------------------------------------------------------
# Algorithm 1 — payment channel protocol messages
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NewChannelAck:
    """Alg. 1 line 26: acknowledge channel creation, echoing both
    settlement addresses so the peers agree on them."""

    channel_id: str
    my_address: str       # the *sender's* settlement address
    remote_address: str   # the receiver's settlement address, echoed back


@dataclass(frozen=True)
class ApproveMyDeposit:
    """Alg. 1 line 52: ask the remote to approve a deposit."""

    outpoint: OutPoint
    value: int
    threshold: int       # m of the deposit's m-of-n lock
    committee_size: int  # n
    deposit_address: str


@dataclass(frozen=True)
class ApprovedDeposit:
    """Alg. 1 line 58: notify the owner their deposit was approved."""

    outpoint: OutPoint


@dataclass(frozen=True)
class AssociatedDeposit:
    """Alg. 1 line 73: associate a deposit with a channel, carrying the
    deposit private key encrypted under the secure-channel key (1-of-1
    deposits only; committee deposits carry no key material)."""

    channel_id: str
    outpoint: OutPoint
    value: int
    encrypted_deposit_key: bytes  # empty for committee deposits
    deposit_address: str
    threshold: int
    committee_size: int
    committee: Tuple[str, ...]    # committee member node names (m-of-n)


@dataclass(frozen=True)
class DissociateDeposit:
    """Alg. 1 line 93: request dissociation of one of my deposits."""

    channel_id: str
    outpoint: OutPoint


@dataclass(frozen=True)
class DissociateDepositAck:
    """Alg. 1 line 99: remote acknowledged and destroyed its key copy."""

    channel_id: str
    outpoint: OutPoint


@dataclass(frozen=True)
class Paid:
    """Alg. 1 line 86: a payment of ``amount`` on ``channel_id``.

    ``sequence`` provides per-channel payment ordering on top of the secure
    channel's replay protection.  ``batch_count`` records how many logical
    client payments this message aggregates (client-side batching, §7.2).
    """

    channel_id: str
    amount: int
    sequence: int
    batch_count: int = 1


@dataclass(frozen=True)
class SettleRequest:
    """Alg. 1 line 108: ask the remote to dissociate all deposits for an
    off-chain (neutral-balance) termination."""

    channel_id: str


@dataclass(frozen=True)
class SettleNotify:
    """Alg. 1 line 120: notify the remote that we terminated on-chain."""

    channel_id: str
    settlement_txid: str


# ---------------------------------------------------------------------------
# Algorithm 2 — multi-hop payment messages
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PathDescriptor:
    """The payment path: ordered node names and the amount."""

    payment_id: str
    amount: int
    hops: Tuple[str, ...]  # node names p1 … pn


@dataclass(frozen=True)
class MultihopLock:
    """Alg. 2 line 5: lock channels along the path, accumulating τ.

    As the lock travels p1→pn, each hop p_i appends, for its channel to
    p_{i+1}: the chosen channel id, the channel's deposits (outpoint and
    value — values are needed to build τ), the post-payment payouts, and
    the txids of the channel's candidate pre- and post-payment settlement
    transactions.  Every later hop can thus verify its own channel's
    contribution and, after the payment, recognise any channel's
    settlement on the blockchain as a PoPT.
    """

    path: PathDescriptor
    channel_ids: Tuple[str, ...]
    tau_deposits: Tuple[Tuple[OutPoint, int], ...]   # (outpoint, value)
    tau_payouts: Tuple[Tuple[str, int], ...]          # (address, value)
    pre_settlement_txids: Tuple[str, ...]   # one per contributed channel
    post_settlement_txids: Tuple[str, ...]


@dataclass(frozen=True)
class MultihopAbort:
    """Lock-phase failure: a hop could not lock (contention, insufficient
    balance).  Travels back toward p1 releasing locks.  Only valid before
    any TEE reaches the sign stage, so aborting is always safe."""

    path: PathDescriptor
    reason: str


@dataclass(frozen=True)
class MultihopSign:
    """Alg. 2 line 14/19: τ travels back up the path collecting
    signatures.

    The sign message also carries the *complete* candidate-settlement txid
    lists (one entry per channel, assembled during the lock phase): each
    upstream node verifies its own channels' entries and records the rest,
    so that from the sign stage onward every TEE can recognise any path
    channel's settlement as a PoPT."""

    path: PathDescriptor
    tau: Transaction  # progressively more inputs carry witnesses
    pre_settlement_txids: Tuple[str, ...]
    post_settlement_txids: Tuple[str, ...]


@dataclass(frozen=True)
class MultihopPreUpdate:
    """Alg. 2 line 23/29: distribute the fully signed τ."""

    path: PathDescriptor
    tau: Transaction


@dataclass(frozen=True)
class MultihopUpdate:
    """Alg. 2 line 33/40: commit balances to post-payment state."""

    path: PathDescriptor


@dataclass(frozen=True)
class MultihopPostUpdate:
    """Alg. 2 line 44/51: discard τ, allow post-payment settlement."""

    path: PathDescriptor


@dataclass(frozen=True)
class MultihopRelease:
    """Alg. 2 line 54/59: release channel locks."""

    path: PathDescriptor
