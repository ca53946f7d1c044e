"""Exception hierarchy for the Teechain reproduction.

Every package raises subclasses of :class:`ReproError` so callers can catch
library failures without masking programming errors (``TypeError`` etc. are
never wrapped).  Protocol violations — the interesting failures in a payment
network — get their own branch so tests can assert that an attack was
*rejected* rather than merely that "something went wrong".
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all library errors."""


class CryptoError(ReproError):
    """A cryptographic operation failed (bad signature, bad key, bad MAC)."""


class InvalidSignature(CryptoError):
    """Signature verification failed."""


class InvalidKey(CryptoError):
    """A key is malformed or out of range."""


class DecryptionError(CryptoError):
    """Authenticated decryption failed (wrong key or tampered ciphertext)."""


class ThresholdError(CryptoError):
    """Not enough signatures to meet a threshold."""


class BlockchainError(ReproError):
    """Base class for ledger-level failures."""


class InvalidTransaction(BlockchainError):
    """A transaction failed validation (bad script, bad value, malformed)."""


class DoubleSpend(InvalidTransaction):
    """A transaction conflicts with one already accepted."""


class UnknownOutput(BlockchainError):
    """A referenced transaction output does not exist."""


class InsufficientFunds(BlockchainError):
    """An address does not control enough value for the requested spend."""


class TEEError(ReproError):
    """Base class for enclave-runtime failures."""


class EnclaveCrashed(TEEError):
    """The enclave has crashed and no longer accepts ecalls."""


class EnclaveFrozen(TEEError):
    """The enclave froze itself (force-freeze replication) and only permits
    settlement operations."""


class AttestationError(TEEError):
    """Remote attestation failed: bad quote, wrong measurement, or revoked
    attestation service."""


class SealingError(TEEError):
    """Sealed data failed integrity or rollback checks."""


class NetworkError(ReproError):
    """Base class for transport failures."""


class ChannelNotEstablished(NetworkError):
    """No secure channel exists with the requested peer."""


class MessageAuthenticationError(NetworkError):
    """An incoming message failed authentication or freshness checks."""


class ProtocolError(ReproError):
    """Base class for Teechain protocol violations.

    Raised when a message or local command is *rejected* by the protocol
    state machine — e.g. paying more than a balance, associating an
    unapproved deposit, replaying a stale message.  These correspond to the
    ``assert`` guards in the paper's Algorithms 1–3.
    """


class ChannelStateError(ProtocolError):
    """An operation is invalid in the channel's current state."""


class DepositError(ProtocolError):
    """A deposit operation violated the deposit lifecycle."""


class PaymentError(ProtocolError):
    """A payment was rejected (insufficient balance, closed channel...)."""


class MultihopError(ProtocolError):
    """A multi-hop protocol message arrived in the wrong stage or with an
    inconsistent path."""


class ReplicationError(ProtocolError):
    """Chain-replication protocol violation (duplicate backup, update to a
    frozen chain, ack from the wrong node)."""


class SettlementError(ProtocolError):
    """Settlement generation failed or a PoPT was rejected."""


class RoutingError(ProtocolError):
    """No route could be found or a route is malformed."""


class HubError(ProtocolError):
    """An account-hub request was rejected by the hub enclave."""


class NoSuchAccountError(HubError):
    """A request names an account the hub ledger has never opened."""


class AccountNonceError(HubError):
    """A request's nonce is not strictly greater than the last accepted
    nonce for that account — a replay or a reordered duplicate."""


class AccountFundsError(HubError):
    """An account operation exceeds the funds available to it (balance
    for pays/withdrawals, hub backing for deposits)."""


class LedgerTamperError(HubError):
    """The account ledger's conservation invariant no longer holds —
    evidence that hub state was mutated outside the request protocol."""


class SimulationError(ReproError):
    """The discrete-event simulator was misused (e.g. scheduling into the
    past)."""


class WorkloadError(ReproError):
    """A workload generator was configured inconsistently."""
