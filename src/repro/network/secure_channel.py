"""Attested secure channels between enclaves (paper §4.1,
``newNetworkChannel``).

Establishment follows the paper: remote attestation plus authenticated
Diffie–Hellman keyed to the enclaves' identity public keys (exchanged
out-of-band).  Binding the DH exchange to the *identity keys* is the
defence against state-forking: a forked enclave shares the same identity
key, so an attacker cannot make two distinct peers both believe they hold
the unique channel with it — replay counters (below) make the two copies'
message streams mutually inconsistent.

After establishment a :class:`SecureChannel` provides:

* confidentiality + integrity (encrypt-then-MAC) under a key set per
  direction: each is derived from the shared channel keys and the
  *sending* enclave's identity key (BOLT #8's ``sk``/``rk`` split), so
  the two directions never share a keystream and a frame reflected back
  to its sealer fails the MAC;
* freshness: the MAC-covered nonce carries a strictly-increasing send
  counter; any replayed or reordered frame is rejected with
  :class:`~repro.errors.MessageAuthenticationError`.

The sealed plaintext is the body's wire-codec frame and nothing else: the
keys say who sealed it, the nonce says in what order, and its 4-byte
prefix says whether it is a message or a blob.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional, Tuple

from repro.crypto.authenticated import (
    SecureChannelKeys,
    decrypt,
    derive_channel_keys,
    encrypt,
)
from repro.crypto.keys import PublicKey
from repro.errors import (
    AttestationError,
    DecryptionError,
    MessageAuthenticationError,
)
from repro.tee.attestation import AttestationService, Quote, verify_quote
from repro.tee.enclave import Enclave

# Nonce prefixes: the high bit separates blobs from the message stream.
_MESSAGE = b"\x00\x00\x00\x00"
_BLOB = b"\x80\x00\x00\x00"

# Sealed plaintexts are wire-codec frames and nothing else: a payload with
# no wire encoding raises CodecError at the sender, and a MAC-valid
# plaintext that is not a well-formed frame is refused like a forgery.
# (Lazy codec import: keeps this module importable without the runtime.)

def _serialise(obj: Any) -> bytes:
    from repro.runtime import codec
    return codec.encode(obj)


def _deserialise(data: bytes) -> Any:
    from repro.runtime import codec
    try:
        return codec.decode(data)
    except codec.CodecError as exc:
        raise MessageAuthenticationError(
            f"sealed plaintext is not a wire frame: {exc}") from exc


def _direction_keys(keys: SecureChannelKeys,
                    sender: PublicKey) -> SecureChannelKeys:
    """The key set for the frames ``sender`` seals on this channel."""
    return SecureChannelKeys.from_shared_secret(
        keys.encrypt_key + keys.mac_key, sender.to_bytes())


@dataclass
class SecureChannel:
    """One endpoint's view of an established secure channel."""

    local_key: PublicKey
    remote_key: PublicKey
    keys: SecureChannelKeys
    # Per-handshake salt mixed into the key derivation (empty for the
    # in-process establishment path, where channels are never renewed).
    session: bytes = b""
    _send_counter: int = 0
    _recv_counter: int = 0
    _blob_counter: int = 0
    send_keys: SecureChannelKeys = field(init=False, repr=False)
    receive_keys: SecureChannelKeys = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.send_keys = _direction_keys(self.keys, self.local_key)
        self.receive_keys = _direction_keys(self.keys, self.remote_key)

    def seal_message(self, payload: Any) -> bytes:
        """Encrypt + authenticate ``payload`` as this direction's next
        frame; the counter rides in the nonce."""
        self._send_counter += 1
        return encrypt(self.send_keys,
                       _MESSAGE + self._send_counter.to_bytes(8, "big"),
                       _serialise(payload))

    def seal_blob(self, payload: Any) -> bytes:
        """Encrypt a payload *embedded inside* a protocol message (e.g. a
        deposit private key, Alg. 1 line 72).

        Blobs use a separate nonce namespace and carry no ordering: the
        enclosing message already provides freshness, and checking
        the stream counter here would falsely flag the blob as a replay of
        the message that carries it."""
        self._blob_counter += 1
        return encrypt(self.send_keys,
                       _BLOB + self._blob_counter.to_bytes(8, "big"),
                       _serialise(payload))

    def _open(self, sealed: bytes, prefix: bytes) -> bytes:
        """The plaintext of ``sealed``, once its nonce is in ``prefix``'s
        namespace and the peer's MAC verifies."""
        if sealed[:4] != prefix:
            raise MessageAuthenticationError(
                f"nonce prefix {sealed[:4].hex()}, "
                f"expected {prefix.hex()}")
        try:
            return decrypt(self.receive_keys, sealed)
        except DecryptionError as exc:
            raise MessageAuthenticationError(str(exc)) from exc

    def open_blob(self, blob: bytes) -> Any:
        """Decrypt an embedded payload; verifies integrity and sender
        binding but (deliberately) not stream ordering."""
        return _deserialise(self._open(blob, _BLOB))

    def open_message(self, envelope: bytes) -> Any:
        """Decrypt, authenticate, and freshness-check an incoming message.

        Raises :class:`MessageAuthenticationError` on tampering, replay,
        or reordering (counters must strictly increase).
        """
        plaintext = self._open(envelope, _MESSAGE)
        counter = int.from_bytes(envelope[4:12], "big")
        if counter <= self._recv_counter:
            raise MessageAuthenticationError(
                f"replayed or reordered message: counter {counter} "
                f"≤ last seen {self._recv_counter}"
            )
        payload = _deserialise(plaintext)
        self._recv_counter = counter
        return payload


def establish_secure_channel(
    enclave_a: Enclave,
    enclave_b: Enclave,
    attestation: AttestationService,
    expected_measurement_a: Optional[bytes] = None,
    expected_measurement_b: Optional[bytes] = None,
) -> Tuple[SecureChannel, SecureChannel]:
    """Mutually attest two enclaves and derive channel keys.

    Each side verifies the peer's quote against the peer's *known* identity
    key (exchanged out-of-band per §4.1) and the expected measurement
    (defaulting to "same program as mine").  Raises
    :class:`~repro.errors.AttestationError` if either check fails —
    e.g. when one enclave runs tampered code.

    Establishment is modelled as one logical handshake; its latency on the
    wire is accounted for by the callers that time channel creation
    (Table 2), not here.
    """
    # Default expectation: "the peer runs the same program I do" — each
    # side checks the other's quote against its *own* measurement, so a
    # tampered program on either end fails the handshake.
    measurement_a = expected_measurement_a or enclave_a.measurement
    measurement_b = expected_measurement_b or enclave_b.measurement

    # Quotes carry the DH (identity) public keys as report data, binding
    # attestation to this key exchange.
    quote_a = attestation.quote(enclave_a,
                                report_data=enclave_a.public_key.to_bytes())
    quote_b = attestation.quote(enclave_b,
                                report_data=enclave_b.public_key.to_bytes())

    # A verifies B's quote, B verifies A's.
    verify_quote(quote_b, attestation.root_key, measurement_a,
                 expected_key=enclave_b.public_key, service=attestation)
    verify_quote(quote_a, attestation.root_key, measurement_b,
                 expected_key=enclave_a.public_key, service=attestation)

    keys_a = derive_channel_keys(enclave_a.identity.private,
                                 enclave_b.public_key)
    keys_b = derive_channel_keys(enclave_b.identity.private,
                                 enclave_a.public_key)
    channel_a = SecureChannel(local_key=enclave_a.public_key,
                              remote_key=enclave_b.public_key, keys=keys_a)
    channel_b = SecureChannel(local_key=enclave_b.public_key,
                              remote_key=enclave_a.public_key, keys=keys_b)
    return channel_a, channel_b


def channel_from_quote(
    enclave: Enclave,
    peer_quote: Quote,
    root_key: PublicKey,
    expected_measurement: Optional[bytes] = None,
    service: Optional[AttestationService] = None,
    session: bytes = b"",
) -> SecureChannel:
    """One side of the handshake when the peer enclave lives in another
    process: all we hold is its attestation quote, received off the wire.

    The quote must bind the peer's DH identity key (``report_data`` equals
    the quoted key) — without that check an attacker could splice a stale
    quote from a different handshake onto a fresh key exchange.  Key
    derivation is symmetric (:func:`derive_channel_keys` sorts the two
    public keys into the KDF context), so when both sides run this against
    each other's quotes they arrive at the same channel keys with no
    further round trips.

    ``session`` is the combined handshake salt (both daemons' boot nonces,
    hashed symmetrically) — it renews the channel keys when an endpoint
    restarts, so the re-handshake cannot resurrect the dead session's
    keystream (see :meth:`ChannelProtocol.reinstall_secure_channel`).
    """
    measurement = expected_measurement or enclave.measurement
    verify_quote(peer_quote, root_key, measurement, service=service)
    if peer_quote.report_data != peer_quote.enclave_key.to_bytes():
        raise AttestationError(
            "quote does not bind the peer's channel key"
        )
    keys = derive_channel_keys(enclave.identity.private,
                               peer_quote.enclave_key, session=session)
    return SecureChannel(local_key=enclave.public_key,
                         remote_key=peer_quote.enclave_key, keys=keys,
                         session=session)
