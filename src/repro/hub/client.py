"""Thin hub clients: a keypair, a control connection, and a nonce.

A hub client is *not* a daemon — it holds no enclave, no channels, no
chain view.  It signs account requests with its own key, hex-encodes
them, and submits them through the hub daemon's control plane; all
verification happens inside the hub's enclave, so the client needs to
trust neither the transport nor the hub's host.

:class:`HubClient` mirrors :class:`~repro.runtime.control.ControlClient`
(blocking sockets, context manager); drivers that own many accounts
on a few connections sign with :class:`_RequestSigner` or
:func:`sign_request` directly.

Nonces are tracked client-side: on first use the client asks the hub
for the last accepted nonce (a signed, read-only query), then counts
upward — so a restarted client resynchronises instead of replaying.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Union

from repro.crypto.keys import KeyPair, PrivateKey, PublicKey
from repro.hub.messages import (
    AccountDeposit,
    AccountPay,
    AccountQuery,
    AccountWithdraw,
)
from repro.core.messages import SignedMessage
from repro.runtime import codec
from repro.runtime.control import ControlClient

RecipientRef = Union[PublicKey, "HubClient", str]


def sign_request(body: Any, private: PrivateKey) -> str:
    """Sign an account request body and hex-encode it for the control
    plane (line-JSON carries no raw bytes)."""
    return codec.encode(SignedMessage.create(body, private)).hex()


def decode_request(request_hex: str) -> SignedMessage:
    """Decode a hex control-plane request back into its signed message.

    Raises :class:`~repro.runtime.codec.CodecError` (or ``ValueError``
    for non-hex input) — daemon callers map both to ``bad_request``."""
    signed = codec.decode(bytes.fromhex(request_hex))
    if not isinstance(signed, SignedMessage):
        raise codec.CodecError(
            f"expected a SignedMessage, got {type(signed).__name__}")
    return signed


def _recipient_key(recipient: RecipientRef) -> PublicKey:
    if isinstance(recipient, PublicKey):
        return recipient
    if isinstance(recipient, HubClient):
        return recipient.account
    return PublicKey.from_bytes(bytes.fromhex(recipient))


class _RequestSigner:
    """Nonce bookkeeping + request construction for one account key."""

    def __init__(self, keypair: Optional[KeyPair] = None,
                 seed: Optional[bytes] = None) -> None:
        if keypair is None:
            keypair = (KeyPair.from_seed(seed) if seed is not None
                       else KeyPair.generate())
        self.keypair = keypair
        self._nonce: Optional[int] = None

    @property
    def account(self) -> PublicKey:
        return self.keypair.public

    @property
    def account_hex(self) -> str:
        return self.keypair.public.to_bytes().hex()

    def sync_nonce(self, last_accepted: int) -> None:
        self._nonce = int(last_accepted)

    def next_nonce(self) -> int:
        if self._nonce is None:
            raise RuntimeError("nonce not synchronised")  # guarded by callers
        self._nonce += 1
        return self._nonce

    def deposit_request(self, amount: int) -> str:
        return sign_request(
            AccountDeposit(self.account, amount, self.next_nonce()),
            self.keypair.private)

    def pay_request(self, recipient: RecipientRef, amount: int) -> str:
        return sign_request(
            AccountPay(self.account, _recipient_key(recipient), amount,
                       self.next_nonce()),
            self.keypair.private)

    def withdraw_request(self, amount: int, route: str,
                         destination: str) -> str:
        return sign_request(
            AccountWithdraw(self.account, amount, self.next_nonce(),
                            route, destination),
            self.keypair.private)

    def query_request(self) -> str:
        return sign_request(AccountQuery(self.account), self.keypair.private)


class HubClient(_RequestSigner):
    """Blocking hub client: one keypair over one control connection."""

    def __init__(self, host: str, port: int,
                 keypair: Optional[KeyPair] = None,
                 seed: Optional[bytes] = None,
                 timeout: float = 120.0) -> None:
        super().__init__(keypair, seed)
        self.control = ControlClient(host, port, timeout=timeout)

    def close(self) -> None:
        self.control.close()

    def __enter__(self) -> "HubClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _ensure_nonce(self) -> None:
        if self._nonce is None:
            self.sync_nonce(self.query()["nonce"])

    def query(self) -> Dict[str, Any]:
        return self.control.call("account-query",
                                 request=self.query_request())

    def open(self, amount: int = 0) -> Dict[str, Any]:
        """Open the account (idempotent at amount=0) / credit it."""
        self._ensure_nonce()
        return self.control.call("account-open",
                                 request=self.deposit_request(amount))

    def pay(self, recipient: RecipientRef, amount: int) -> Dict[str, Any]:
        self._ensure_nonce()
        return self.control.call("account-pay",
                                 request=self.pay_request(recipient, amount))

    def withdraw(self, amount: int, route: str = "account",
                 destination: str = "") -> Dict[str, Any]:
        self._ensure_nonce()
        return self.control.call(
            "account-withdraw",
            request=self.withdraw_request(amount, route, destination))

    def balance(self) -> int:
        return self.query()["balance"]
