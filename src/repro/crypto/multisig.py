"""m-of-n multisignature helpers (Bitcoin CHECKMULTISIG semantics).

Teechain deposits pay into m-out-of-n multisignature addresses owned by the
TEEs of a committee chain (paper §3, §6.1).  This module provides the
threshold-verification logic shared by the blockchain's script interpreter
and the settlement builder.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

from repro.crypto.ecdsa import Signature
from repro.crypto.hashing import hash160
from repro.crypto.keys import PublicKey
from repro.errors import ThresholdError


@dataclass(frozen=True)
class MultisigSpec:
    """An m-of-n multisignature lock: ``threshold`` of ``public_keys``."""

    threshold: int
    public_keys: Tuple[PublicKey, ...]

    def __post_init__(self) -> None:
        if not 1 <= self.threshold <= len(self.public_keys):
            raise ThresholdError(
                f"invalid multisig {self.threshold}-of-{len(self.public_keys)}"
            )
        encodings = [key.to_bytes() for key in self.public_keys]
        if len(set(encodings)) != len(encodings):
            raise ThresholdError("duplicate public keys in multisig spec")

    @property
    def total(self) -> int:
        return len(self.public_keys)

    def address(self) -> str:
        """P2SH-style address: hash of the serialised redeem condition."""
        payload = bytes([self.threshold, self.total]) + b"".join(
            key.to_bytes() for key in self.public_keys
        )
        return "msig" + hash160(payload).hex()

    def verify(self, digest: bytes, signatures: Sequence[Signature]) -> bool:
        """CHECKMULTISIG: at least ``threshold`` signatures, each matching a
        distinct listed key.  Order-insensitive (stricter than Bitcoin,
        which requires signature order to follow key order; order
        insensitivity only ever *accepts more* valid witnesses)."""
        if len(signatures) < self.threshold:
            return False
        used = set()
        matched = 0
        for signature in signatures:
            for position, key in enumerate(self.public_keys):
                if position in used:
                    continue
                if key.verify(digest, signature):
                    used.add(position)
                    matched += 1
                    break
            if matched >= self.threshold:
                return True
        return False
