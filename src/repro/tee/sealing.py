"""Sealed storage with rollback protection.

SGX sealing encrypts enclave state under a key derived from the CPU and the
enclave measurement, so only the same program on the same platform can
unseal it.  Sealing alone permits *rollback*: an attacker can feed the
enclave an old sealed blob.  Binding each blob to a monotonic-counter value
(and refusing blobs whose counter is behind the hardware counter) closes
that hole — the construction Teechain's stable-storage mode uses (§6.2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional
import hashlib
import hmac

from repro.crypto.hashing import sha256
from repro.errors import SealingError
from repro.tee.monotonic import MonotonicCounter


@dataclass(frozen=True)
class SealedBlob:
    """Opaque sealed state: payload + counter binding + MAC.  On untrusted
    disk it is a wire-codec frame; the MAC, not the framing, protects it."""

    payload: bytes
    counter_value: int
    mac: bytes


class SealingService:
    """Per-platform, per-measurement sealing keys.

    The sealing key mixes a platform secret with the enclave measurement —
    blobs sealed by one program cannot be unsealed by another, and blobs do
    not migrate between platforms.
    """

    def __init__(self, platform_secret: bytes, measurement: bytes) -> None:
        self._key = sha256(b"seal:" + platform_secret + measurement)

    def _mac(self, payload: bytes, counter_value: int) -> bytes:
        message = payload + counter_value.to_bytes(8, "big")
        return hmac.new(self._key, message, hashlib.sha256).digest()

    def seal(self, state: Any, counter_value: int) -> SealedBlob:
        """Seal ``state`` (any wire-codec value) bound to a counter value."""
        # Imported here: the codec's schema imports this module.
        from repro.runtime import codec

        payload = codec.encode(state)
        return SealedBlob(payload, counter_value, self._mac(payload, counter_value))

    def unseal(self, blob: SealedBlob,
               counter: Optional[MonotonicCounter] = None) -> Any:
        """Verify and open a sealed blob.

        If ``counter`` is given, the blob must be bound to the hardware
        counter's value or the next one (a crash after the blob was stored
        but before the counter moved); any other blob is stale (rolled
        back) even though its MAC is genuine.
        """
        from repro.runtime import codec

        expected = self._mac(blob.payload, blob.counter_value)
        if not hmac.compare_digest(blob.mac, expected):
            raise SealingError("sealed blob failed integrity check")
        if counter is not None and \
                blob.counter_value - counter.value not in (0, 1):
            raise SealingError(
                f"rollback detected: blob bound to counter value "
                f"{blob.counter_value}, hardware counter is {counter.value}"
            )
        return codec.decode(blob.payload)
