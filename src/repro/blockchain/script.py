"""Locking scripts and witnesses.

Only the two output types Teechain uses exist: pay-to-public-key-hash for
user settlement addresses, and m-of-n multisig for TEE-controlled deposits
(paper §3: "each deposit ... pays into an m-out-of-n multisignature
address").  The "script language" is therefore two dataclasses and a
``verify`` method — deliberately no stack machine.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

from repro.crypto.ecdsa import Signature
from repro.crypto.keys import PublicKey
from repro.crypto.multisig import MultisigSpec
from repro.errors import InvalidTransaction


@dataclass(frozen=True)
class LockingScript:
    """The spending condition attached to a transaction output.

    Exactly one of ``p2pkh_address`` or ``multisig`` is set.  For multisig
    outputs we embed the full spec (rather than its hash) so validators can
    check witnesses without a separate redeem-script reveal step; the cost
    model still charges the paper's n/2 pairs for the embedded keys.
    """

    p2pkh_address: Optional[str] = None
    multisig: Optional[MultisigSpec] = None

    def __post_init__(self) -> None:
        if (self.p2pkh_address is None) == (self.multisig is None):
            raise InvalidTransaction(
                "locking script must be exactly one of P2PKH or multisig"
            )

    @classmethod
    def pay_to_address(cls, address: str) -> "LockingScript":
        return cls(p2pkh_address=address)

    @classmethod
    def pay_to_multisig(cls, spec: MultisigSpec) -> "LockingScript":
        return cls(multisig=spec)

    def destination(self) -> str:
        """The address this output pays to (for balance queries)."""
        if self.p2pkh_address is not None:
            return self.p2pkh_address
        assert self.multisig is not None
        return self.multisig.address()

    def verify_witness(self, digest: bytes, witness: "Witness") -> bool:
        """Check that ``witness`` satisfies this lock for ``digest``."""
        if self.p2pkh_address is not None:
            if witness.public_key is None or not witness.signatures:
                return False
            if witness.public_key.address() != self.p2pkh_address:
                return False
            return witness.public_key.verify(digest, witness.signatures[0])
        assert self.multisig is not None
        return self.multisig.verify(digest, list(witness.signatures))

    def pubkey_count(self) -> int:
        """Public keys this lock places on chain (Table 4 cost metric).

        A P2PKH output stores only a hash; the key appears in the *witness*
        when spent, so the output itself contributes zero keys."""
        if self.multisig is not None:
            return self.multisig.total
        return 0

    def serialize(self) -> bytes:
        """Canonical encoding used inside transaction hashes."""
        if self.p2pkh_address is not None:
            return b"p2pkh:" + self.p2pkh_address.encode()
        assert self.multisig is not None
        return (
            b"p2ms:"
            + bytes([self.multisig.threshold, self.multisig.total])
            + b"".join(key.to_bytes() for key in self.multisig.public_keys)
        )


@dataclass(frozen=True)
class Witness:
    """The unlocking data for one input.

    * P2PKH: ``public_key`` + one signature.
    * Multisig: ``threshold`` signatures (``public_key`` unused).
    """

    signatures: Tuple[Signature, ...] = field(default=())
    public_key: Optional[PublicKey] = None

    def signature_count(self) -> int:
        return len(self.signatures)

    def pubkey_count(self) -> int:
        """Public keys revealed on chain by this witness."""
        return 1 if self.public_key is not None else 0
