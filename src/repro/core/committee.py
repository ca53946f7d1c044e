"""Committee chains: replication + threshold deposits (paper §6.1).

A committee chain is a replication chain whose members also hold keys in
the deposit's m-of-n multisignature.  Spending a committee deposit needs
*m* member signatures, and each member signs only transactions consistent
with its replicated view — so an attacker must compromise ≥ m TEEs to steal
the deposit, and the deposit survives up to n − m member failures.

:class:`CommitteeCoordinator` is the host-side facade: it builds the
multisig spec over member keys, and gathers quorum signatures for
settlements, tolerating crashed members as long as a quorum survives.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.blockchain.transaction import Transaction
from repro.core.deposits import DepositRecord
from repro.core.replication import ReplicationChain
from repro.crypto.ecdsa import Signature
from repro.crypto.keys import PublicKey
from repro.crypto.multisig import MultisigSpec
from repro.errors import EnclaveCrashed, SettlementError, ThresholdError
from repro.tee.enclave import Enclave


class CommitteeCoordinator:
    """Key management and quorum signing for one committee chain.

    The *primary* enclave (running the Teechain program) is always a
    committee member; the chain's backups are the others.  ``threshold``
    is m in the m-of-n deposit lock, n = chain length.
    """

    def __init__(self, chain: ReplicationChain, threshold: int) -> None:
        total = chain.length
        if not 1 <= threshold <= total:
            raise ThresholdError(
                f"invalid committee threshold {threshold}-of-{total}"
            )
        self.chain = chain
        self.threshold = threshold
        # deposit address (of the multisig) → per-member key addresses.
        self._member_keys: Dict[str, List[Tuple[Enclave, str]]] = {}

    def member_names(self) -> Tuple[str, ...]:
        return tuple(
            [self.chain.primary.name]
            + [member.name for member in self.chain.members]
        )

    # ------------------------------------------------------------------
    # Deposit key generation (paper §6.1, "each of the n TEEs ... return a
    # cryptocurrency address from command newAddr")
    # ------------------------------------------------------------------

    def new_deposit_spec(self) -> MultisigSpec:
        """Have every committee member mint a key; return the m-of-n spec
        the funding transaction should pay into."""
        holders: List[Tuple[Enclave, str]] = []
        public_keys: List[PublicKey] = []
        address, public = self.chain.primary.ecall("new_deposit_address")
        holders.append((self.chain.primary, address))
        public_keys.append(public)
        for member in self.chain.members:
            address, public = member.ecall("new_deposit_address")
            holders.append((member, address))
            public_keys.append(public)
        spec = MultisigSpec(self.threshold, tuple(public_keys))
        self._member_keys[spec.address()] = holders
        return spec

    # ------------------------------------------------------------------
    # Quorum signing
    # ------------------------------------------------------------------

    def gather_signatures(self, deposit: DepositRecord,
                          unsigned: Transaction) -> List[Signature]:
        """Collect ≥ m signatures for ``unsigned`` from live members.

        Each member independently validates the transaction against its
        replicated state (``sign_deposit_spend``); a refusal from one
        member is skipped while a quorum remains.  Raises
        :class:`ThresholdError` when fewer than m members will sign —
        either too many crashed, or the transaction is illegitimate."""
        holders = self._member_keys.get(deposit.address)
        if holders is None:
            raise SettlementError(
                f"coordinator does not manage deposit {deposit.address}"
            )
        signatures: List[Signature] = []
        refusals: List[str] = []
        for enclave, key_address in holders:
            if len(signatures) >= self.threshold:
                break
            try:
                if enclave is self.chain.primary:
                    signature = self._primary_signature(
                        enclave, key_address, unsigned
                    )
                else:
                    signature = enclave.ecall(
                        "sign_deposit_spend", key_address, unsigned
                    )
            except (EnclaveCrashed, SettlementError) as exc:
                refusals.append(f"{enclave.name}: {exc}")
                continue
            signatures.append(signature)
        if len(signatures) < self.threshold:
            raise ThresholdError(
                f"quorum failed: {len(signatures)}/{self.threshold} "
                f"signatures ({'; '.join(refusals)})"
            )
        return signatures

    def _primary_signature(self, enclave: Enclave, key_address: str,
                           unsigned: Transaction) -> Signature:
        """The primary signs with its own deposit key; it trusts its own
        state rather than a replicated copy."""
        program = enclave.program
        key = program.deposit_keys.get(key_address)
        if key is None:
            raise SettlementError(
                f"primary holds no key for {key_address}"
            )
        return key.sign(unsigned.sighash())
