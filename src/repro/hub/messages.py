"""Signed client-request types for the account hub.

Each request is a frozen dataclass naming the client's ``account``
public key and a per-account ``nonce``; clients wrap the body in a
:class:`~repro.core.messages.SignedMessage` signed with their own key
and hand the encoded bytes to the hub's host.  The enclave verifies the
signature against the ``account`` field and requires the nonce to be
strictly greater than the last accepted one, so the untrusted host and
control plane can neither forge nor replay a request (RouTEE's model:
the operator routes bytes, the TEE enforces balances).

These are wire types — registered with the runtime codec at tags 43–46
— so they must stay pure data with no runtime imports (the codec
imports this module while registering its schema).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.crypto.keys import PublicKey

# Withdrawal routes (see DESIGN.md §12 "withdrawal rules"):
#   account — internal ledger move to another account (destination is
#             the recipient's 33-byte public key, hex).
#   channel — out over a real payment channel as one bare Paid from
#             the enclave's pay (destination is a channel id).
#   chain   — on-chain payout authorised by the enclave and executed by
#             the host wallet (destination is an on-chain address).
WITHDRAW_ROUTES = ("account", "channel", "chain")


@dataclass(frozen=True)
class AccountDeposit:
    """Open an account (first use) and/or credit it with ``amount``.

    The credit must be covered by the hub's channel/deposit holdings —
    the enclave refuses to owe clients more than it can pay out."""

    account: PublicKey
    amount: int
    nonce: int


@dataclass(frozen=True)
class AccountPay:
    """Move ``amount`` from ``account`` to ``recipient`` inside the hub
    ledger; the hub fee (if configured) is taken from the amount."""

    account: PublicKey
    recipient: PublicKey
    amount: int
    nonce: int


@dataclass(frozen=True)
class AccountWithdraw:
    """Move ``amount`` out of ``account`` via ``route`` (see
    :data:`WITHDRAW_ROUTES`) to ``destination``."""

    account: PublicKey
    amount: int
    nonce: int
    route: str = "account"
    destination: str = ""


@dataclass(frozen=True)
class AccountQuery:
    """Read an account's balance and last accepted nonce.

    Signed like every request (balances are private to the keyholder)
    but read-only: the nonce is not consumed, so a query can never
    invalidate an in-flight payment."""

    account: PublicKey
    nonce: int = 0
