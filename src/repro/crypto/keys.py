"""Key pairs and Bitcoin-style addresses.

A :class:`PrivateKey` wraps a secp256k1 scalar; a :class:`PublicKey` wraps
the corresponding curve point with compressed SEC1 serialisation.  Addresses
are HASH160 of the compressed public key, hex-encoded with a ``btc`` prefix —
we deliberately skip Base58Check since nothing in the reproduction parses
real Bitcoin addresses, and the hex form is easier to debug.
"""

from __future__ import annotations

import secrets
from dataclasses import dataclass
from functools import lru_cache
from typing import Tuple

from repro.crypto import ecdsa
from repro.crypto.ecdsa import Signature
from repro.crypto.hashing import hash160, sha256
from repro.errors import InvalidKey

_ADDRESS_PREFIX = "btc"
# Decompressing a key is a 256-bit modular square root (~150 µs), and the
# same keys arrive again and again: a hub's clients on every request, the
# signers of every chain transaction and signed frame.  Sized for a few
# thousand live peers; at ~0.5 kB an entry the cache tops out near 2 MB.
_DECOMPRESSION_CACHE_SIZE = 4096


@dataclass(frozen=True)
class PublicKey:
    """A secp256k1 public key (affine point)."""

    x: int
    y: int

    def __post_init__(self) -> None:
        if not ecdsa.is_on_curve((self.x, self.y)):
            raise InvalidKey("public key is not on secp256k1")

    @property
    def point(self) -> Tuple[int, int]:
        return (self.x, self.y)

    def to_bytes(self) -> bytes:
        """Compressed SEC1 encoding (33 bytes)."""
        prefix = b"\x02" if self.y % 2 == 0 else b"\x03"
        return prefix + self.x.to_bytes(32, "big")

    @classmethod
    def from_bytes(cls, data: bytes) -> "PublicKey":
        """Decode a compressed SEC1 public key.

        Decoded keys are kept in a bounded LRU keyed by the encoding, so
        equal encodings may return the same (frozen) object; encodings
        that raise are never remembered.
        """
        # bytes(): a codec reader may hand over a bytearray or memoryview
        # slice, which cannot key a cache.
        return _decompress(bytes(data))

    def address(self) -> str:
        """Bitcoin-style address string for this key."""
        return _ADDRESS_PREFIX + hash160(self.to_bytes()).hex()

    def verify(self, digest: bytes, signature: Signature) -> bool:
        """Verify an ECDSA signature over a 32-byte digest."""
        return ecdsa.verify(self.point, digest, signature)

    def verify_message(self, message: bytes, signature: Signature) -> bool:
        """Verify a signature over SHA-256(message)."""
        return self.verify(sha256(message), signature)

    def fingerprint(self) -> str:
        """Short hex identifier used in logs and repr output."""
        return self.to_bytes().hex()[:16]

    def __repr__(self) -> str:
        return f"PublicKey({self.fingerprint()}…)"


@lru_cache(maxsize=_DECOMPRESSION_CACHE_SIZE)
def _decompress(data: bytes) -> PublicKey:
    if len(data) != 33 or data[0] not in (2, 3):
        raise InvalidKey(f"bad compressed public key ({len(data)} bytes)")
    x = int.from_bytes(data[1:], "big")
    if x >= ecdsa.P:
        raise InvalidKey("x coordinate out of field range")
    y_squared = (pow(x, 3, ecdsa.P) + ecdsa.B) % ecdsa.P
    y = pow(y_squared, (ecdsa.P + 1) // 4, ecdsa.P)
    if (y * y) % ecdsa.P != y_squared:
        raise InvalidKey("x coordinate has no curve point")
    if (y % 2 == 0) != (data[0] == 2):
        y = ecdsa.P - y
    return PublicKey(x, y)


class PrivateKey:
    """A secp256k1 private key.

    Not a dataclass on purpose: the scalar should never appear in reprs,
    comparisons, or accidental serialisation.  Access it via
    :attr:`secret` where the protocol genuinely needs the raw scalar
    (deposit-key sharing, Alg. 1 line 73).
    """

    __slots__ = ("_secret", "_public")

    def __init__(self, secret: int) -> None:
        if not 1 <= secret < ecdsa.N:
            raise InvalidKey("private key out of range")
        self._secret = secret
        self._public = PublicKey(*ecdsa.derive_public_key(secret))

    @classmethod
    def generate(cls, rng: "secrets.SystemRandom | None" = None) -> "PrivateKey":
        """Generate a fresh random key.

        Uses the OS CSPRNG by default.  Deterministic tests should use
        :meth:`from_seed` instead.
        """
        if rng is None:
            secret = secrets.randbelow(ecdsa.N - 1) + 1
        else:
            secret = rng.randrange(1, ecdsa.N)
        return cls(secret)

    @classmethod
    def from_seed(cls, seed: bytes) -> "PrivateKey":
        """Derive a key deterministically from ``seed`` (for tests and
        reproducible simulations)."""
        scalar = int.from_bytes(sha256(b"repro-key-derivation:" + seed), "big")
        scalar = scalar % (ecdsa.N - 1) + 1
        return cls(scalar)

    @property
    def secret(self) -> int:
        """The raw private scalar."""
        return self._secret

    @property
    def public_key(self) -> PublicKey:
        return self._public

    def to_bytes(self) -> bytes:
        """32-byte big-endian scalar (for in-enclave key sharing)."""
        return self._secret.to_bytes(32, "big")

    @classmethod
    def from_bytes(cls, data: bytes) -> "PrivateKey":
        if len(data) != 32:
            raise InvalidKey(f"private key must be 32 bytes, got {len(data)}")
        return cls(int.from_bytes(data, "big"))

    def sign(self, digest: bytes) -> Signature:
        """Sign a 32-byte digest."""
        return ecdsa.sign(self._secret, digest)

    def sign_message(self, message: bytes) -> Signature:
        """Sign SHA-256(message)."""
        return self.sign(sha256(message))

    def __repr__(self) -> str:
        return f"PrivateKey(public={self._public.fingerprint()}…)"


@dataclass(frozen=True)
class KeyPair:
    """Convenience bundle of a private key and its public key."""

    private: PrivateKey
    public: PublicKey

    @classmethod
    def generate(cls) -> "KeyPair":
        private = PrivateKey.generate()
        return cls(private, private.public_key)

    @classmethod
    def from_seed(cls, seed: bytes) -> "KeyPair":
        private = PrivateKey.from_seed(seed)
        return cls(private, private.public_key)

    def address(self) -> str:
        return self.public.address()
