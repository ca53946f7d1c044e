"""``repro.hub`` — a RouTEE-style account hub inside one enclave.

Teechain's evaluation makes every participant a full daemon with its
own enclave and channels; that architecture cannot reach millions of
users.  This package adds the missing tier (RouTEE, arXiv:2012.04254):
one TEE-backed hub multiplexes many lightweight *client accounts* over
a small set of real payment channels.  Clients hold only a keypair;
every deposit/pay/withdraw is an ECDSA-signed, nonce-protected request
verified *inside* the enclave, so the hub's host and control plane stay
untrusted — they can drop or delay requests but cannot forge, replay,
or silently skim them (DESIGN.md §12).

Layering: ``messages`` is pure dataclasses (imported by the wire codec
at registration time), ``ledger`` is the in-enclave state machine mixed
into :class:`~repro.core.multihop.TeechainEnclave`, and ``client``
signs a request for the daemon's control plane and decodes it there.
"""

from repro.hub.ledger import AccountLedger, HubAccountsMixin
from repro.hub.messages import (
    AccountDeposit,
    AccountPay,
    AccountQuery,
    AccountWithdraw,
)

__all__ = [
    "AccountDeposit",
    "AccountLedger",
    "AccountPay",
    "AccountQuery",
    "AccountWithdraw",
    "HubAccountsMixin",
]
