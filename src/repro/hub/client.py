"""Hub account requests on the control plane: sign one, decode one.

A hub client is *not* a daemon — it is a keypair.  It holds no enclave,
no channels, no chain view: it signs an account request body
(:data:`ACCOUNT_REQUESTS`) with :func:`sign_request` and submits the hex
through any :class:`~repro.runtime.control.ControlClient` (``account-open``,
``account-pay``, ``account-withdraw``, ``account-query``).  All
verification happens inside the hub's enclave, so the client needs to
trust neither the transport nor the hub's host.

Nonces are the client's to count: a signer that holds none asks the hub
for the last accepted one with a signed, read-only ``account-query``
and counts upward from there, so a restarted client resynchronises
instead of replaying.
"""

from __future__ import annotations

from typing import Any, Tuple, Union

from repro.crypto.keys import PrivateKey
from repro.hub.messages import (
    AccountDeposit,
    AccountPay,
    AccountQuery,
    AccountWithdraw,
)
from repro.core.messages import SignedMessage
from repro.runtime import codec
from repro.runtime.registry import CommandError


def sign_request(body: Any, private: PrivateKey) -> str:
    """Sign an account request body and hex-encode it for the control
    plane (line-JSON carries no raw bytes)."""
    return codec.encode(SignedMessage.create(body, private)).hex()


ACCOUNT_REQUESTS = (AccountDeposit, AccountPay, AccountWithdraw, AccountQuery)


def decode_request(request_hex: str, expected: Union[type, Tuple[type, ...]]
                   = ACCOUNT_REQUESTS) -> SignedMessage:
    """Decode a hex control-plane request back into its signed message.

    The one decoder both daemons use, the router included: anything but
    the hex of a ``SignedMessage`` over an ``expected`` body (by default
    any of :data:`ACCOUNT_REQUESTS`) raises a ``bad_request``
    :class:`CommandError`.  The signature and nonce are left to the
    enclave."""
    try:
        signed = codec.decode(bytes.fromhex(request_hex))
    except (TypeError, ValueError, codec.CodecError) as exc:
        raise CommandError(f"undecodable account request: {exc}",
                           code="bad_request") from None
    if not isinstance(signed, SignedMessage):
        raise CommandError(
            f"expected a SignedMessage, got {type(signed).__name__}",
            code="bad_request")
    if not isinstance(signed.body, expected):
        wanted = getattr(expected, "__name__", "account request")
        raise CommandError(f"expected a signed {wanted}, got "
                           f"{type(signed.body).__name__}", code="bad_request")
    return signed
