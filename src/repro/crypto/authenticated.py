"""Authenticated encryption and key agreement for secure enclave channels.

The paper's implementation uses side-channel-resistant AES-GCM (via AES-NI)
and Elliptic-Curve Diffie–Hellman.  The Python standard library ships no
AES, so we build an equivalent IND-CCA construction from primitives it does
ship:

* **Key agreement** — ECDH over secp256k1 (same curve as the signatures).
* **Cipher** — SHA-256 in counter mode as a stream cipher (a PRF in CTR
  mode is a standard stream-cipher construction).
* **Integrity** — HMAC-SHA256 over (nonce || ciphertext), encrypt-then-MAC.

Encryption and MAC keys are derived separately from the shared secret so a
MAC forgery cannot leak keystream material.
"""

from __future__ import annotations

import hashlib
import hmac
import struct
from dataclasses import dataclass
from typing import Tuple

from repro.crypto import ecdsa
from repro.crypto.hashing import sha256
from repro.crypto.keys import PrivateKey, PublicKey
from repro.errors import DecryptionError

_MAC_LEN = 32
_NONCE_LEN = 12


@dataclass(frozen=True)
class SecureChannelKeys:
    """Directional key material for one secure channel."""

    encrypt_key: bytes
    mac_key: bytes

    @classmethod
    def from_shared_secret(cls, shared_secret: bytes, context: bytes) -> "SecureChannelKeys":
        """Derive independent cipher and MAC keys from an ECDH secret.

        ``context`` binds the keys to a channel identity (the two public
        keys), preventing cross-channel message replay.
        """
        encrypt_key = sha256(b"repro-enc:" + context + shared_secret)
        mac_key = sha256(b"repro-mac:" + context + shared_secret)
        return cls(encrypt_key, mac_key)


def ecdh_shared_secret(private: PrivateKey, peer_public: PublicKey) -> bytes:
    """ECDH: hash of the shared curve point's x coordinate."""
    point = ecdsa.point_multiply(private.secret, peer_public.point)
    if point is None:
        raise DecryptionError("ECDH produced the point at infinity")
    return sha256(point[0].to_bytes(32, "big"))


def derive_channel_keys(
    private: PrivateKey, peer_public: PublicKey, session: bytes = b""
) -> SecureChannelKeys:
    """Derive symmetric channel keys between two parties.

    Both sides derive identical keys because the context sorts the two
    public keys (the DH secret is already symmetric).  ``session`` mixes a
    per-handshake salt into the context: identity keys are static, so
    without it a re-established channel (after an endpoint restart) would
    reuse the previous session's keys with reset counters — and recorded
    ciphertexts from the old session would replay cleanly.
    """
    shared = ecdh_shared_secret(private, peer_public)
    ours = private.public_key.to_bytes()
    theirs = peer_public.to_bytes()
    context = min(ours, theirs) + max(ours, theirs) + session
    return SecureChannelKeys.from_shared_secret(shared, context)


def _xor_keystream(key: bytes, nonce: bytes, data: bytes) -> bytes:
    """``data`` XOR the SHA-256 counter-mode keystream, as one big-integer
    operation (a per-byte generator costs ~50 ns a byte)."""
    length = len(data)
    stream = b"".join(
        sha256(key + nonce + struct.pack(">Q", counter))
        for counter in range((length + 31) // 32))[:length]
    return (int.from_bytes(data, "big")
            ^ int.from_bytes(stream, "big")).to_bytes(length, "big")


def encrypt(keys: SecureChannelKeys, nonce: bytes, plaintext: bytes) -> bytes:
    """Encrypt-then-MAC.  Returns nonce || ciphertext || tag.

    The caller supplies the nonce (a per-channel counter in practice) so
    that freshness is enforced at the protocol layer, where replay windows
    live.
    """
    if len(nonce) != _NONCE_LEN:
        raise DecryptionError(f"nonce must be {_NONCE_LEN} bytes, got {len(nonce)}")
    ciphertext = _xor_keystream(keys.encrypt_key, nonce, plaintext)
    tag = hmac.new(keys.mac_key, nonce + ciphertext, hashlib.sha256).digest()
    return nonce + ciphertext + tag


def decrypt(keys: SecureChannelKeys, envelope: bytes) -> bytes:
    """Verify the MAC then decrypt.  Raises :class:`DecryptionError` on any
    tampering — the ciphertext is never touched before the tag checks out."""
    if len(envelope) < _NONCE_LEN + _MAC_LEN:
        raise DecryptionError("envelope too short")
    nonce = envelope[:_NONCE_LEN]
    ciphertext = envelope[_NONCE_LEN:-_MAC_LEN]
    tag = envelope[-_MAC_LEN:]
    expected = hmac.new(keys.mac_key, nonce + ciphertext, hashlib.sha256).digest()
    if not hmac.compare_digest(tag, expected):
        raise DecryptionError("message authentication failed")
    return _xor_keystream(keys.encrypt_key, nonce, ciphertext)


def nonce_from_counter(counter: int) -> bytes:
    """Build a 12-byte nonce from a message counter."""
    return struct.pack(">IQ", 0, counter)
