"""Remote attestation.

Models Intel's EPID attestation flow at the granularity the protocols use:
a *quote* binds an enclave's measurement and identity public key, signed by
the attestation service.  A verifier checks (i) the service signature,
(ii) the expected measurement, and (iii) that the quoted key matches the
key the peer is using on the wire.  Revocation models compromised
attestation infrastructure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Set

from repro.crypto.ecdsa import Signature
from repro.crypto.keys import KeyPair, PublicKey
from repro.errors import AttestationError
from repro.tee.enclave import Enclave


@dataclass(frozen=True)
class Quote:
    """An attestation quote: (measurement, enclave key, optional report
    data) signed by the attestation service."""

    measurement: bytes
    enclave_key: PublicKey
    report_data: bytes
    signature: Signature

    def signed_payload(self) -> bytes:
        return (
            b"quote:" + self.measurement + self.enclave_key.to_bytes()
            + self.report_data
        )


class AttestationService:
    """The simulated attestation authority.

    One instance per simulation; every verifier is provisioned with
    :attr:`root_key` (the analogue of Intel's attestation root
    certificate).
    """

    def __init__(self, seed: bytes = b"attestation-service") -> None:
        self._keys = KeyPair.from_seed(seed)
        self._revoked: Set[bytes] = set()

    @property
    def root_key(self) -> PublicKey:
        return self._keys.public

    def quote(self, enclave: Enclave, report_data: bytes = b"") -> Quote:
        """Produce a quote for a live enclave.

        ``report_data`` carries protocol bindings — e.g. a Diffie–Hellman
        public value during secure-channel setup — preventing quote reuse
        across handshakes.
        """
        payload = (
            b"quote:" + enclave.measurement
            + enclave.public_key.to_bytes() + report_data
        )
        return Quote(
            measurement=enclave.measurement,
            enclave_key=enclave.public_key,
            report_data=report_data,
            signature=self._keys.private.sign_message(payload),
        )

    def is_revoked(self, enclave_key: PublicKey) -> bool:
        return enclave_key.to_bytes() in self._revoked


def verify_quote(
    quote: Quote,
    root_key: PublicKey,
    expected_measurement: bytes,
    expected_key: Optional[PublicKey] = None,
    service: Optional[AttestationService] = None,
) -> None:
    """Verify a quote; raises :class:`AttestationError` on any failure.

    ``service`` is optional and only consulted for revocation — verifiers
    that cannot reach the revocation list still get signature and
    measurement checks, as with cached attestation collateral.
    """
    if not root_key.verify_message(quote.signed_payload(), quote.signature):
        raise AttestationError("quote signature invalid")
    if quote.measurement != expected_measurement:
        raise AttestationError(
            "measurement mismatch: enclave runs unexpected code"
        )
    if expected_key is not None and quote.enclave_key != expected_key:
        raise AttestationError("quoted key does not match peer's wire key")
    if service is not None and service.is_revoked(quote.enclave_key):
        raise AttestationError("enclave key has been revoked")
