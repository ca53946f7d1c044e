"""TEE outsourcing — paper §3: "Users without a local TEE may participate
in Teechain through TEE outsourcing: using a remote TEE in the network as a
local TEE."

The user (i) remotely attests the operator's enclave, and (ii) provisions
it with a shared secret, after which the user's commands are authenticated
end-to-end into the enclave: the untrusted operator relays opaque command
envelopes it can neither forge nor replay.  The user's settlement address
is the user's *own* wallet, so the operator never holds spendable funds;
committee chains (attached like any node's) protect against the operator
simply destroying the enclave.

:class:`OutsourcingGateway` is the in-enclave half (an extension of the
Teechain program); :class:`OutsourcedUser` is the client half.
"""

from __future__ import annotations

import hashlib
import hmac
from typing import Any, Dict, Optional, Tuple

from repro.core.multihop import TeechainEnclave
from repro.crypto.authenticated import ecdh_shared_secret
from repro.crypto.keys import KeyPair, PublicKey
from repro.errors import AttestationError, MessageAuthenticationError
from repro.runtime import codec
from repro.tee.attestation import AttestationService, verify_quote
from repro.tee.enclave import Enclave


class OutsourcingGateway(TeechainEnclave):
    """Teechain program extended with authenticated remote-user commands."""

    PROGRAM_NAME = "teechain-outsourced"
    PROGRAM_VERSION = 1

    # Commands an outsourced user may issue; everything else (in
    # particular the gateway-management ecalls themselves) is refused.
    USER_COMMANDS = frozenset({
        "new_pay_channel", "new_deposit_address", "register_deposit",
        "release_deposit", "approve_my_deposit", "associate_deposit",
        "dissociate_deposit", "pay", "pay_multihop", "settle",
        "unilateral_settlement", "eject",
        "list_channels", "channel_snapshot",
    })

    def __init__(self) -> None:
        super().__init__()
        # user public key bytes → (shared MAC key, last command counter).
        self._outsourced_users: Dict[bytes, Tuple[bytes, int]] = {}

    def provision_user(self, user_key: PublicKey) -> None:
        """Derive and store the shared secret for an attested user.

        Runs *after* the user verified this enclave's quote; the secret is
        the ECDH agreement between the enclave identity and the user's
        key, so only this enclave and this user can compute it."""
        secret = ecdh_shared_secret(self.identity.private, user_key)
        self._outsourced_users[user_key.to_bytes()] = (secret, 0)

    def outsourced_command(self, envelope: bytes) -> Any:
        """Verify and execute one remote-user command.

        The envelope is ``user_key(33 B) ‖ codec((counter, method, args))
        ‖ mac(32 B)``.  The user key prefix has a fixed width so the MAC
        can be verified *before* any deserialisation — untrusted bytes are
        never parsed unauthenticated — and the body is a wire-codec frame:
        an enrolled user can name a permitted command, not run code.
        Counters must strictly increase (replay protection against the
        relaying operator)."""
        if len(envelope) < 33 + 32:
            raise MessageAuthenticationError("malformed command envelope")
        user_key_bytes = envelope[:33]
        body, tag = envelope[33:-32], envelope[-32:]
        entry = self._outsourced_users.get(user_key_bytes)
        if entry is None:
            raise MessageAuthenticationError("unknown outsourced user")
        secret, last_counter = entry
        expected = hmac.new(secret, user_key_bytes + body,
                            hashlib.sha256).digest()
        if not hmac.compare_digest(tag, expected):
            raise MessageAuthenticationError("bad command MAC")
        try:
            counter, method, args = codec.decode(body)
            if (type(counter), type(method), type(args)) != (int, str, tuple):
                raise ValueError("not a (counter, method, args) triple")
        except (codec.CodecError, TypeError, ValueError) as exc:
            raise MessageAuthenticationError(
                f"malformed command body: {exc}") from exc
        if counter <= last_counter:
            raise MessageAuthenticationError(
                f"replayed command: counter {counter} ≤ {last_counter}"
            )
        self._outsourced_users[user_key_bytes] = (secret, counter)
        if method not in self.USER_COMMANDS:
            raise MessageAuthenticationError(
                f"command {method!r} is not permitted for outsourced users"
            )
        return getattr(self, method)(*args)


class OutsourcedUser:
    """A user without a local TEE, driving a remote enclave.

    Usage (host side sets up the enclave/node as usual, with an
    :class:`OutsourcingGateway` program)::

        user = OutsourcedUser("dave")
        user.attest(remote_enclave, attestation_service)
        user.command("pay", channel_id, 100)   # via the operator's host
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self.keys = KeyPair.from_seed(f"outsourced:{name}".encode())
        self._secret: Optional[bytes] = None
        self._counter = 0
        self._enclave: Optional[Enclave] = None

    @property
    def address(self) -> str:
        """The user's own settlement address (not the operator's)."""
        return self.keys.address()

    def attest(self, enclave: Enclave,
               attestation: AttestationService) -> None:
        """Verify the remote enclave runs the genuine gateway program, then
        provision it with the shared secret."""
        quote = attestation.quote(enclave,
                                  report_data=enclave.public_key.to_bytes())
        verify_quote(quote, attestation.root_key,
                     OutsourcingGateway.measurement(),
                     expected_key=enclave.public_key, service=attestation)
        self._secret = ecdh_shared_secret(self.keys.private,
                                          enclave.public_key)
        enclave.ecall("provision_user", self.keys.public)
        self._enclave = enclave

    def make_envelope(self, method: str, *args: Any) -> bytes:
        """Build an authenticated command envelope for the operator to
        relay."""
        if self._secret is None:
            raise AttestationError("user has not attested an enclave")
        self._counter += 1
        prefix = self.keys.public.to_bytes()
        body = codec.encode((self._counter, method, args))
        tag = hmac.new(self._secret, prefix + body, hashlib.sha256).digest()
        return prefix + body + tag

    def command(self, method: str, *args: Any) -> Any:
        """Issue a command through the (untrusted) operator host."""
        if self._enclave is None:
            raise AttestationError("user has not attested an enclave")
        return self._enclave.ecall("outsourced_command",
                                   self.make_envelope(method, *args))
