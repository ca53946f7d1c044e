"""The Teechain payment-channel protocol — paper Algorithm 1.

:class:`ChannelProtocol` is an enclave program implementing the full
channel lifecycle: secure-channel installation, channel opening, deposit
registration / approval / association / dissociation, payments, deposit
rebalancing, and off-chain or on-chain settlement.  Method docstrings cite
the algorithm lines they implement.

Messages arrive through :meth:`handle_envelope`, sealed under the attested
secure channel (confidentiality, peer authentication, freshness), and
carry no identity signature: signatures belong to the settlements a
third party verifies (DESIGN.md §11).  Every guard in the paper's
pseudo-code is an explicit check raising a
:class:`~repro.errors.ProtocolError` subclass.
"""

from __future__ import annotations

import logging
from operator import attrgetter
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Set, Tuple

from repro.blockchain.transaction import OutPoint, Transaction
from repro.core.deposits import DepositRecord, DepositStatus
from repro.core.journal import (
    ABSENT,
    DELETED,
    UndoJournal,
    section_container,
    unchanged,
)
from repro.core.messages import (
    ApproveMyDeposit,
    ApprovedDeposit,
    AssociatedDeposit,
    DissociateDeposit,
    DissociateDepositAck,
    NewChannelAck,
    Paid,
    SettleNotify,
    SettleRequest,
)
from repro.core.settlement import (
    SigningProvider,
    build_channel_settlement,
    build_release,
    local_key_provider,
)
from repro.core.state import ChannelState, MultihopStage
from repro.crypto.keys import PrivateKey, PublicKey
from repro.errors import (
    ChannelStateError,
    DepositError,
    PaymentError,
    ProtocolError,
    ReplicationError,
    SettlementError,
)
from repro.network.secure_channel import SecureChannel
from repro.obs import get_metrics, get_tracer
from repro.tee.enclave import EnclaveProgram

logger = logging.getLogger(__name__)

# Validates that a deposit transaction is confirmed on the blockchain to
# the participant's required depth (Alg. 1 line 56 happens outside the TEE:
# the *participant* checks the chain and instructs the TEE).
DepositValidator = Callable[[OutPoint, int], bool]


class Inbound(NamedTuple):
    """One ``_HANDLERS`` row, the whole declaration of an inbound message
    type — the paper's "on receive m from K_remote" and, in Alg. 2,
    "assert stage = s".  ``handle_envelope`` enforces it before the
    handler runs, and the handler is given what ``rule`` resolved."""

    handler: str     # the method that applies the message
    rule: Callable   # who may send it: one of the three functions below
    error: type      # the ProtocolError subclass a reject raises
    names: Callable = attrgetter("channel_id")  # the channel / payment named
    # path_neighbour rows (repro.core.multihop): the session stage the
    # message is valid in; whether it travels 1→n, sent by the in-channel
    # peer, or (the default) n→1, sent by the out-channel peer; whether
    # an unknown payment is ignored rather than refused.
    stage: Optional[MultihopStage] = None
    downstream: bool = False
    unknown_ok: bool = False


def require_peer(channel: Optional[ChannelState], sender: PublicKey,
                 message: Any, row: Inbound) -> ChannelState:
    """The one sender comparison in ``repro.core``.  A channel that does
    not exist and one that is somebody else's are refused alike."""
    if channel is None or sender != channel.remote_key:
        raise row.error(
            f"{type(message).__name__} from a key that is not the peer of "
            "the channel it concerns")
    return channel


def channel_peer(program: "ChannelProtocol", sender: PublicKey,
                 message: Any, row: Inbound) -> ChannelState:
    """The message names a channel whose remote key is the sender."""
    channel = require_peer(program.channels.get(row.names(message)),
                           sender, message, row)
    program._touch_channel(channel.channel_id)
    return channel


def any_attested(program: "ChannelProtocol", sender: PublicKey,
                 message: Any, row: Inbound) -> PublicKey:
    """Any attested peer: the state touched is keyed by the sender itself."""
    return sender


class ChannelProtocol(EnclaveProgram):
    """Algorithm 1, hosted in an enclave."""

    PROGRAM_NAME = "teechain"
    PROGRAM_VERSION = 1

    # After a force-freeze, only settlement/release operations remain
    # available (paper §6: frozen chains settle channels and release
    # deposits).
    FREEZE_ALLOWED = (
        "settle",
        "unilateral_settlement",
        "release_deposit",
        "list_channels",
        "channel_snapshot",
    )

    def __init__(self) -> None:
        super().__init__()
        # Secure channels and peer bookkeeping, keyed by the remote
        # identity key's compressed encoding.
        self.secure_channels: Dict[bytes, SecureChannel] = {}
        self.peer_names: Dict[bytes, str] = {}
        # The reverse of peer_names, for inbound traffic (addressed by
        # name); written wherever peer_names is.  A name rebound to a new
        # identity key resolves to the newest.
        self._peer_key_by_name: Dict[str, bytes] = {}
        # Channel state: cid → ChannelState.
        self.channels: Dict[str, ChannelState] = {}
        # Deposits: allDeps/freeDeps in the paper collapse into records
        # with a status field.
        self.deposits: Dict[OutPoint, DepositRecord] = {}
        # btcPrivs: deposit private keys, keyed by the key's own address.
        self.deposit_keys: Dict[str, PrivateKey] = {}
        # appDeps(K): deposits approved between us and peer K (both our
        # deposits they approved and their deposits we approved).
        self.approved_deposits: Dict[bytes, Set[OutPoint]] = {}
        # Session salts of secure channels this enclave has retired, per
        # remote identity key.  A re-handshake (peer or self restart) may
        # only move to a salt never used before — replaying a recorded
        # handshake would otherwise resurrect old channel keys with reset
        # counters, re-opening the replay window the counters close.
        self.retired_sessions: Dict[bytes, Set[bytes]] = {}
        # Per-channel payment sequence numbers (freshness on top of the
        # secure channel's counters).
        self._pay_seq_out: Dict[str, int] = {}
        self._pay_seq_in: Dict[str, int] = {}
        # Payment statistics (benchmarks read these).
        self.payments_sent = 0
        self.payments_received = 0
        # Set by the host: validates deposit confirmation depth on chain.
        self.deposit_validator: Optional[DepositValidator] = None
        # Security policy for approving remote deposits.
        self.required_confirmations = 1
        self.max_committee_size = 16
        # Hook called after every state mutation; the replication layer
        # (Alg. 3) overrides it to push updates down the committee chain.
        self.replication_hook: Optional[Callable[[str], None]] = None
        # Fault-injection probe (repro.faults): observes every named
        # protocol point *before* replication/persistence runs.  A probe
        # that raises models a crash exactly at that point — the mutation
        # happened in enclave memory but was never made durable.
        self.fault_probe: Optional[Callable[[str], None]] = None
        # Completed settlements, available for audit / PoPT extraction.
        self.settlements: Dict[str, Transaction] = {}
        # Optional committee signing provider (set by the node layer when
        # this enclave's deposits are secured by committee chains).  Wraps
        # the local-key provider so committee deposits get quorum
        # signatures (repro.core.committee.CommitteeCoordinator).
        self.committee_provider: Optional[Callable] = None
        # Multi-hop candidate settlements (payment id → txids) announced
        # to the committee *before* they are signed: committee members
        # only co-sign transactions in their replicated valid set, so the
        # pre/post/τ candidates must be replicated ahead of signing.
        self.pending_candidate_txids: Dict[str, Set[str]] = {}
        # On-chain fee policy: value per vsize byte charged against the
        # payouts of every settlement this enclave constructs.  Both
        # endpoints of a channel must run the same policy or their
        # settlement txids (and PoPT candidates) diverge; the default 0.0
        # keeps all txids identical to the feeless protocol.
        self.settlement_feerate = 0.0
        # Audit-snapshot ordering counter; not protocol state, so not in
        # _ROLLBACK_ATTRS — a rolled-back ecall still consumed a seq.
        self._audit_seq = 0
        # Undo records of the open guarded ecall; its dirty keys are the
        # next replication delta.
        self.journal = UndoJournal(self)

    # ------------------------------------------------------------------
    # Transactional ecalls (Alg. 3: replication ack gates state updates)
    # ------------------------------------------------------------------

    # Ecalls that never mutate protocol state; everything else runs under
    # the rollback guard when a replication chain is attached.
    READ_ONLY_ECALLS = frozenset({
        "list_channels", "channel_snapshot", "valid_settlement_txids",
        "audit_snapshot",
    })

    def ecall_guard(self, method, handler, args, kwargs):
        """Run an ecall transactionally with respect to replication.

        Algorithm 3 requires the backup's acknowledgement *before* a state
        update takes effect.  Handlers mutate first and replicate last (the
        ecall has not returned, so nothing external observed the
        mutation); if replication fails, the undo journal puts back every
        entry the ecall touched and drops the messages it queued, making
        the failed operation a no-op."""
        if self.replication_hook is None or method in self.READ_ONLY_ECALLS:
            return handler(*args, **kwargs)
        journal = self.journal
        journal.begin()
        try:
            return handler(*args, **kwargs)
        except ReplicationError:
            journal.undo()
            raise
        finally:
            journal.end()

    # What the undo journal (repro.core.journal) rolls back: keyed
    # sections one entry at a time, scalars whole.  Every section keyed by
    # channel id is recorded with its channel (_touch_channel).
    _ROLLBACK_ATTRS = (
        "channels", "deposits", "deposit_keys", "approved_deposits",
        "_pay_seq_out", "_pay_seq_in", "settlements",
        "pending_candidate_txids", "retired_sessions",
    )
    _ROLLBACK_SCALARS = (
        "payments_sent", "payments_received", "settlement_feerate",
    )
    _CHANNEL_SECTIONS = (
        "channels", "_pay_seq_out", "_pay_seq_in", "settlements",
    )

    def _touch_channel(self, channel_id: str) -> None:
        """Journal every row keyed by ``channel_id`` before it changes."""
        journal = self.journal
        if journal.depth:
            journal.record_row(self._CHANNEL_SECTIONS, channel_id)

    def _deposit(self, outpoint: OutPoint) -> Optional[DepositRecord]:
        """The deposit record, journalled: for callers that change it."""
        self.journal.record("deposits", outpoint)
        return self.deposits.get(outpoint)

    # ------------------------------------------------------------------
    # Internal plumbing
    # ------------------------------------------------------------------

    def _signing_provider(self) -> SigningProvider:
        local = local_key_provider(self.deposit_keys)
        if self.committee_provider is not None:
            return self.committee_provider(local)
        return local

    def _replicated(self, description: str) -> None:
        """Notify the replication chain of a state mutation (Alg. 3:
        updates must be acknowledged before the operation's effects are
        released; in direct mode the hook runs synchronously).

        The fault probe fires first: an injected crash at a named point
        happens *before* the state became durable, so recovery replays
        from the previous sealed/replicated snapshot — the pessimistic
        (and realistic) crash model."""
        if self.fault_probe is not None:
            self.fault_probe(description)
        if self.replication_hook is not None:
            tracer = get_tracer()
            if tracer.enabled:
                # The barrier is where a chain round-trip would stall the
                # pipeline; its span makes replication cost attributable
                # per protocol operation in merged traces.
                with tracer.span("replication.barrier", what=description):
                    self.replication_hook(description)
            else:
                self.replication_hook(description)

    def _secure_channel_for(self, remote_key: PublicKey) -> SecureChannel:
        channel = self.secure_channels.get(remote_key.to_bytes())
        if channel is None:
            raise ChannelStateError(
                f"no secure channel with {remote_key.fingerprint()}"
            )
        return channel

    def _channel(self, channel_id: str) -> ChannelState:
        channel = self.channels.get(channel_id)
        if channel is None:
            raise ChannelStateError(f"unknown channel {channel_id!r}")
        self._touch_channel(channel_id)
        return channel

    def _send(self, remote_key: PublicKey, body: Any) -> None:
        """Seal ``body`` under the secure channel and queue it for the
        host to deliver — the one send path for Alg. 1 and 2 messages.

        The channel's encrypt-then-MAC (session keys from the attested
        handshake) and replay counters authenticate the sending *enclave*
        to its peer, the only party that ever sees the frame, so no body
        carries a signature."""
        secure = self._secure_channel_for(remote_key)
        envelope = secure.seal_message(body)
        metrics = get_metrics()
        if metrics.enabled:
            metrics.inc("crypto.mac_fastpath")
        self.send(self.peer_names[remote_key.to_bytes()], envelope)

    # ------------------------------------------------------------------
    # Secure network channels (Alg. 1 line 15)
    # ------------------------------------------------------------------

    def install_secure_channel(
        self, channel: SecureChannel, peer_name: str
    ) -> None:
        """Install the outcome of remote attestation + authenticated DH
        (``newNetworkChannel``).  The handshake itself runs in
        :func:`repro.network.secure_channel.establish_secure_channel`,
        which derives keys from this enclave's identity secret — i.e.
        logically inside the enclave."""
        key_bytes = channel.remote_key.to_bytes()
        if key_bytes in self.secure_channels:
            raise ChannelStateError(
                f"secure channel with {channel.remote_key.fingerprint()} "
                "already exists"
            )
        self.secure_channels[key_bytes] = channel
        self._name_peer(key_bytes, peer_name)
        self.journal.record("approved_deposits", key_bytes)
        self.approved_deposits.setdefault(key_bytes, set())

    def reinstall_secure_channel(
        self, channel: SecureChannel, peer_name: str
    ) -> None:
        """Replace an existing secure channel after a fresh attested
        handshake — the recovery path when either endpoint restarted and
        its replay counters were lost with enclave memory.

        Payment-channel and deposit state survive untouched (they are tied
        to the peer's *identity* key, which a restart preserves); only the
        transport-layer session is renewed.  The old session's salt is
        retired: a handshake that would regress to any previously-used
        salt is a replayed recording, and accepting it would resurrect old
        channel keys with reset counters — the exact replay window the
        counters exist to close."""
        key_bytes = channel.remote_key.to_bytes()
        existing = self.secure_channels.get(key_bytes)
        if existing is None:
            raise ChannelStateError(
                f"no secure channel with {channel.remote_key.fingerprint()}"
                " to replace"
            )
        self.journal.record("retired_sessions", key_bytes)
        retired = self.retired_sessions.setdefault(key_bytes, set())
        if channel.session in retired:
            raise ChannelStateError(
                "handshake replays a retired session; refusing to regress"
            )
        retired.add(existing.session)
        self.secure_channels[key_bytes] = channel
        self._name_peer(key_bytes, peer_name)

    def _name_peer(self, key_bytes: bytes, peer_name: str) -> None:
        self.peer_names[key_bytes] = peer_name
        self._peer_key_by_name[peer_name] = key_bytes

    # ------------------------------------------------------------------
    # Payment channel creation (Alg. 1 lines 18–31)
    # ------------------------------------------------------------------

    def new_pay_channel(
        self,
        channel_id: str,
        remote_key: PublicKey,
        remote_settlement_address: str,
        my_settlement_address: str,
    ) -> None:
        """``newPayChannel`` (line 18): record channel parameters and send
        an acknowledgement.  The channel opens when the remote's
        acknowledgement arrives (line 27)."""
        self._secure_channel_for(remote_key)  # must be attested first
        if channel_id in self.channels and not self.channels[channel_id].terminated:
            raise ChannelStateError(f"channel {channel_id!r} already exists")
        self._touch_channel(channel_id)
        self.channels[channel_id] = ChannelState(
            channel_id=channel_id,
            remote_key=remote_key,
            my_settlement_address=my_settlement_address,
            remote_settlement_address=remote_settlement_address,
        )
        self._pay_seq_out[channel_id] = 0
        self._pay_seq_in[channel_id] = 0
        self._replicated(f"new_pay_channel:{channel_id}")
        self._send(
            remote_key,
            NewChannelAck(
                channel_id=channel_id,
                my_address=my_settlement_address,
                remote_address=remote_settlement_address,
            ),
        )

    def _on_new_channel_ack(self, channel: ChannelState,
                            ack: NewChannelAck) -> None:
        """Line 27: verify the echoed addresses and open the channel."""
        if channel.is_open:
            raise ChannelStateError(f"channel {ack.channel_id!r} already open")
        # The sender's "my" address is our remote address and vice versa.
        if channel.remote_settlement_address != ack.my_address:
            raise ChannelStateError("settlement address mismatch in channel ack")
        if channel.my_settlement_address != ack.remote_address:
            raise ChannelStateError("settlement address mismatch in channel ack")
        channel.is_open = True
        self._replicated(f"channel_open:{ack.channel_id}")

    # ------------------------------------------------------------------
    # Deposits (Alg. 1 lines 32–63)
    # ------------------------------------------------------------------

    def new_deposit_address(self) -> Tuple[str, PublicKey]:
        """``newAddr`` (line 32): generate a deposit key inside the
        enclave; return its address and public key.  The private key never
        leaves except via deposit association (line 73)."""
        key = PrivateKey.generate()
        address = key.public_key.address()
        self.journal.record("deposit_keys", address)
        self.deposit_keys[address] = key
        self._replicated(f"new_addr:{address}")
        return address, key.public_key

    def register_deposit(self, record: DepositRecord) -> None:
        """``newDeposit`` (line 36): adopt a confirmed funding output.

        For 1-of-1 deposits the enclave must hold the deposit key (line 37:
        ``assert btcPrivs(a_btc) exists``); committee deposits only require
        membership (our key among the spec's keys)."""
        if record.outpoint in self.deposits:
            raise DepositError(
                f"deposit {record.outpoint} already registered"  # line 38
            )
        member_addresses = {
            key.address() for key in record.spec.public_keys
        }
        if not member_addresses & set(self.deposit_keys):
            raise DepositError(
                "enclave holds no key for this deposit's multisig"
            )
        if record.status is not DepositStatus.FREE:
            raise DepositError("new deposits must be free")
        self.journal.record("deposits", record.outpoint)
        self.deposits[record.outpoint] = record
        self._replicated(f"new_deposit:{record.outpoint}")

    def release_deposit(self, outpoint: OutPoint,
                        destination_address: str) -> Transaction:
        """``releaseDeposit`` (line 42): spend a free deposit out of the
        network.  Returns the transaction for the host to broadcast."""
        record = self._deposit(outpoint)
        if record is None or not record.is_free:
            raise DepositError(f"deposit {outpoint} is not free")  # line 43
        transaction = build_release(
            record, destination_address, self._signing_provider()
        )
        record.mark_released()
        self._replicated(f"release_deposit:{outpoint}")
        return transaction

    def approve_my_deposit(self, remote_key: PublicKey,
                           outpoint: OutPoint) -> None:
        """``approveMyDeposit`` (line 48): ask a peer to approve one of our
        free deposits ahead of association."""
        key_bytes = remote_key.to_bytes()
        self._secure_channel_for(remote_key)  # line 49
        record = self.deposits.get(outpoint)
        if record is None or not record.is_free:
            raise DepositError(f"deposit {outpoint} is not free")  # line 50
        if outpoint in self.approved_deposits[key_bytes]:
            raise DepositError(f"deposit {outpoint} already approved")  # line 51
        self._send(
            remote_key,
            ApproveMyDeposit(
                outpoint=outpoint,
                value=record.value,
                threshold=record.spec.threshold,
                committee_size=record.spec.total,
                deposit_address=record.address,
            ),
        )

    def _on_approve_my_deposit(self, sender: PublicKey,
                               request: ApproveMyDeposit) -> None:
        """Line 53: validate the peer's deposit and approve it.

        Line 56's "Verify that txo is in the blockchain" runs through the
        host-installed :attr:`deposit_validator` — TEEs cannot hold the
        chain (§4), so the participant checks confirmations and the
        enclave trusts *its own* participant's view, never the remote's.
        """
        key_bytes = sender.to_bytes()
        self.journal.record("approved_deposits", key_bytes)
        approved = self.approved_deposits.setdefault(key_bytes, set())
        if request.outpoint in approved:
            raise DepositError(
                f"deposit {request.outpoint} already approved"  # line 55
            )
        if not 1 <= request.threshold <= request.committee_size <= self.max_committee_size:
            raise DepositError(
                f"deposit multisig {request.threshold}-of-"
                f"{request.committee_size} violates local policy"
            )
        if self.deposit_validator is None:
            raise DepositError(
                "no blockchain validator installed; cannot approve deposits"
            )
        if not self.deposit_validator(request.outpoint,
                                      self.required_confirmations):
            raise DepositError(
                f"deposit {request.outpoint} lacks "
                f"{self.required_confirmations} confirmations"  # line 56
            )
        approved.add(request.outpoint)  # line 57
        self._send(sender,
                   ApprovedDeposit(outpoint=request.outpoint))  # line 58

    def _on_approved_deposit(self, sender: PublicKey,
                             approval: ApprovedDeposit) -> None:
        """Line 59: record that the peer approved our deposit."""
        key_bytes = sender.to_bytes()
        record = self.deposits.get(approval.outpoint)
        if record is None or not record.is_free:
            raise DepositError(
                f"approval for unknown or non-free deposit "
                f"{approval.outpoint}"  # line 61
            )
        self.journal.record("approved_deposits", key_bytes)
        approved = self.approved_deposits.setdefault(key_bytes, set())
        if approval.outpoint in approved:
            raise DepositError(
                f"duplicate approval for {approval.outpoint}"  # line 62
            )
        approved.add(approval.outpoint)  # line 63
        self._replicated(f"deposit_approved:{approval.outpoint}")

    # ------------------------------------------------------------------
    # Deposit association / dissociation (Alg. 1 lines 64–104)
    # ------------------------------------------------------------------

    def associate_deposit(self, channel_id: str, outpoint: OutPoint) -> None:
        """``associateMyDeposit`` (line 64): move a free, approved deposit
        into a channel, increasing our balance, and share the deposit key
        with the remote TEE (1-of-1 deposits; committee deposits share no
        key — the committee signs for either party)."""
        channel = self._channel(channel_id)
        channel.require_open()  # line 65
        channel.require_stage(MultihopStage.IDLE)
        # Resolved before anything moves: a peer not handshaken since a
        # restore refuses the ecall, not the frame after the credit.
        secure = self._secure_channel_for(channel.remote_key)
        key_bytes = channel.remote_key.to_bytes()
        if outpoint not in self.approved_deposits.get(key_bytes, set()):
            raise DepositError(
                f"deposit {outpoint} not approved by channel peer"  # line 66
            )
        record = self._deposit(outpoint)
        if record is None or not record.is_free:
            raise DepositError(f"deposit {outpoint} is not free")  # line 67
        record.mark_associated(channel_id)  # line 68/69
        channel.my_deposits.add(outpoint)
        channel.my_balance += record.value  # line 70
        encrypted_key = b""
        if record.spec.threshold == 1 and record.spec.total == 1:
            deposit_address = record.spec.public_keys[0].address()
            private = self.deposit_keys[deposit_address]
            # Line 72: the key crosses the wire only under the secure
            # channel's encryption.
            encrypted_key = secure.seal_blob(
                ("deposit-key", deposit_address, private.to_bytes())
            )
        self._replicated(f"associate:{channel_id}:{outpoint}")
        self._send(
            channel.remote_key,
            AssociatedDeposit(
                channel_id=channel_id,
                outpoint=outpoint,
                value=record.value,
                encrypted_deposit_key=encrypted_key,
                deposit_address=record.address,
                threshold=record.spec.threshold,
                committee_size=record.spec.total,
                committee=record.committee,
            ),
        )

    def _on_associated_deposit(self, channel: ChannelState,
                               message: AssociatedDeposit) -> None:
        """Line 74: adopt the peer's deposit into the channel and (for
        1-of-1) recover the shared deposit key."""
        channel.require_open()  # line 75
        key_bytes = channel.remote_key.to_bytes()
        if message.outpoint not in self.approved_deposits.get(key_bytes, set()):
            raise DepositError(
                f"peer associated unapproved deposit {message.outpoint}"  # 76
            )
        if message.outpoint in channel.remote_deposits:
            raise DepositError(f"deposit {message.outpoint} already associated")
        channel.remote_deposits.add(message.outpoint)  # line 77
        channel.remote_balance += message.value  # line 78
        # Track the remote's deposit so settlement can reference it.
        record = self._deposit(message.outpoint)
        if record is None:
            from repro.crypto.multisig import MultisigSpec  # local import: cycle

            # Reconstruct the spec from the shared key (1-of-1) or accept
            # the committee form (keys live with the committee).
            if message.encrypted_deposit_key:
                secure = self._secure_channel_for(channel.remote_key)
                tag, address, key_bytes_raw = secure.open_blob(
                    message.encrypted_deposit_key
                )
                if tag != "deposit-key":
                    raise DepositError("malformed deposit key payload")
                private = PrivateKey.from_bytes(key_bytes_raw)  # line 80/81
                if private.public_key.address() != address:
                    raise DepositError("deposit key does not match address")
                self.journal.record("deposit_keys", address)
                self.deposit_keys[address] = private
                spec = MultisigSpec(1, (private.public_key,))
            else:
                spec = None  # committee deposit: spec tracked by committee
            record = DepositRecord(
                outpoint=message.outpoint,
                value=message.value,
                spec=spec if spec is not None else _committee_placeholder_spec(
                    message
                ),
                status=DepositStatus.ASSOCIATED,
                channel_id=message.channel_id,
                committee=message.committee,
                multisig_address=(None if spec is not None
                                  else message.deposit_address),
            )
            self.deposits[message.outpoint] = record
        else:
            record.mark_associated(message.channel_id)
        self._replicated(
            f"remote_associate:{message.channel_id}:{message.outpoint}"
        )

    def dissociate_deposit(self, channel_id: str, outpoint: OutPoint) -> None:
        """``dissociateDeposit`` (line 90): begin removing one of our
        deposits from a channel.  Completion requires the remote's ack
        (double-spend prevention, line 99)."""
        channel = self._channel(channel_id)
        channel.require_open()
        channel.require_stage(MultihopStage.IDLE)
        if outpoint not in channel.my_deposits:
            raise DepositError(
                f"deposit {outpoint} is not ours in channel {channel_id!r}"  # 91
            )
        record = self.deposits[outpoint]
        if channel.my_balance < record.value:
            raise DepositError(
                f"balance {channel.my_balance} below deposit value "
                f"{record.value}: cannot dissociate"  # line 92
            )
        self._send(
            channel.remote_key,
            DissociateDeposit(channel_id=channel_id, outpoint=outpoint),  # 93
        )

    def _on_dissociate_deposit(self, channel: ChannelState,
                               request: DissociateDeposit) -> None:
        """Line 94: peer dissociates one of *their* deposits; we drop it,
        reduce their balance, destroy our copy of the key, and ack."""
        channel.require_open()
        if request.outpoint not in channel.remote_deposits:
            raise DepositError(
                f"{request.outpoint} is not a remote deposit here"  # line 95
            )
        record = self._deposit(request.outpoint)
        if channel.remote_balance < record.value:
            raise DepositError(
                "peer balance below deposit value: dissociation refused"  # 96
            )
        channel.remote_deposits.discard(request.outpoint)  # line 97
        channel.remote_balance -= record.value  # line 98
        # Destroy our copy of the deposit key (line 104 runs on the other
        # side for their copy; we destroy ours on ack-send so the deposit
        # is single-owner again).
        for public_key in record.spec.public_keys:
            self.journal.record("deposit_keys", public_key.address())
            self.deposit_keys.pop(public_key.address(), None)
        del self.deposits[request.outpoint]
        self._replicated(
            f"remote_dissociate:{request.channel_id}:{request.outpoint}"
        )
        self._send(
            channel.remote_key,
            DissociateDepositAck(channel_id=request.channel_id,
                                 outpoint=request.outpoint),  # line 99
        )
        self._maybe_finish_offchain_settle(channel)

    def _on_dissociate_ack(self, channel: ChannelState,
                           ack: DissociateDepositAck) -> None:
        """Line 100: complete dissociation — the deposit becomes free."""
        if ack.outpoint not in channel.my_deposits:
            raise DepositError(f"{ack.outpoint} is not pending dissociation")
        record = self._deposit(ack.outpoint)
        channel.my_deposits.discard(ack.outpoint)  # line 101
        channel.my_balance -= record.value  # line 102
        record.mark_free()  # line 103
        self._replicated(f"dissociated:{ack.channel_id}:{ack.outpoint}")
        self._maybe_finish_offchain_settle(channel)

    # ------------------------------------------------------------------
    # Payments (Alg. 1 lines 82–89)
    # ------------------------------------------------------------------

    def pay(self, channel_id: str, amount: int, batch_count: int = 1) -> None:
        """``pay`` (line 82): single-message payment to the channel peer —
        one bare ``Paid`` under the secure channel, signed by nobody."""
        if amount <= 0:
            raise PaymentError(f"payment amount must be positive, got {amount}")
        channel = self._channel(channel_id)
        channel.require_open()
        channel.require_stage(MultihopStage.IDLE)
        if channel.my_balance < amount:
            raise PaymentError(
                f"balance {channel.my_balance} < payment {amount}"  # line 83
            )
        # A debit the Paid cannot follow would strand the money and put
        # every later Paid out of sequence at the peer.
        self._secure_channel_for(channel.remote_key)
        channel.my_balance -= amount  # line 84
        channel.remote_balance += amount  # line 85
        self._pay_seq_out[channel_id] += 1
        self.payments_sent += batch_count
        self._replicated(f"pay:{channel_id}:{amount}")
        self._send(channel.remote_key,
                   Paid(channel_id=channel_id, amount=amount,
                        sequence=self._pay_seq_out[channel_id],
                        batch_count=batch_count))  # line 86

    def set_fastpath(self, enabled: bool,
                     checkpoint_every: Optional[int] = None) -> Dict[str, Any]:
        """Accepts the retired fast-path switch and does nothing: every
        ``Paid`` travels bare.  Only ``perf/layers.py`` still calls it;
        the yardstick change (ROADMAP item 1) drops that call and the
        change after it deletes this stub."""
        if not enabled:
            raise PaymentError("signed payments were removed; every Paid "
                               "travels bare under the secure channel")
        return {"enabled": True}

    def set_fee_policy(self, feerate: float) -> Dict[str, Any]:
        """Configure the on-chain settlement fee policy.

        ``feerate`` is value per vsize byte; it applies to every settlement
        this enclave constructs from now on (unilateral, eject, and
        multi-hop PoPT candidates).  Operators must configure matching
        policies on both endpoints of a channel — fee-paying settlements
        are part of the txid, so mismatched policies break PoPT candidate
        agreement."""
        if feerate < 0:
            raise SettlementError(f"feerate must be >= 0, got {feerate}")
        self.settlement_feerate = float(feerate)
        self._replicated(f"fee_policy:{feerate}")
        return {"settlement_feerate": self.settlement_feerate}

    def _on_paid(self, channel: ChannelState, payment: Paid) -> None:
        """Line 87: credit an incoming payment."""
        channel.require_open()
        expected = self._pay_seq_in[payment.channel_id] + 1
        if payment.sequence != expected:
            raise PaymentError(
                f"payment sequence {payment.sequence}, expected {expected}"
            )
        if payment.amount <= 0 or channel.remote_balance < payment.amount:
            raise PaymentError(
                f"peer paid {payment.amount} with balance "
                f"{channel.remote_balance}"
            )
        self._pay_seq_in[payment.channel_id] = payment.sequence
        channel.my_balance += payment.amount  # line 88
        channel.remote_balance -= payment.amount  # line 89
        self.payments_received += payment.batch_count
        self._replicated(f"paid:{payment.channel_id}:{payment.amount}")

    # ------------------------------------------------------------------
    # Settlement (Alg. 1 lines 105–121)
    # ------------------------------------------------------------------

    def _deposit_value(self, outpoint: OutPoint) -> int:
        return self.deposits[outpoint].value

    def settle(self, channel_id: str) -> Optional[Transaction]:
        """``settle`` (line 105).

        Neutral balances → off-chain termination by dissociating every
        deposit (lines 106–112; the deposits become free immediately and
        nothing touches the blockchain).  Otherwise → build, record, and
        return the signed settlement transaction (lines 114–121) for the
        host to broadcast, reset the channel, and notify the peer.
        """
        channel = self._channel(channel_id)
        channel.require_open()
        channel.require_stage(MultihopStage.IDLE)
        if channel.is_neutral(self._deposit_value):  # line 106
            channel.settling_offchain = True
            for outpoint in sorted(channel.my_deposits):
                self.dissociate_deposit(channel_id, outpoint)  # line 107
            self._send(channel.remote_key,
                       SettleRequest(channel_id=channel_id))  # line 108
            # Channel resets once all dissociations complete (acks arrive)
            # and the peer has dissociated its side; see _maybe_finish_
            # offchain_settle.
            return None
        transaction = self.unilateral_settlement(channel_id)  # lines 114–118
        self._send(
            channel.remote_key,
            SettleNotify(channel_id=channel_id,
                         settlement_txid=transaction.txid),  # line 120
        )
        return transaction  # line 121

    def unilateral_settlement(self, channel_id: str) -> Transaction:
        """Produce the signed settlement for the channel's current
        balances without peer interaction — the asynchronous-safety path:
        callable at any time, even with the peer gone (balance
        correctness, Appendix A)."""
        channel = self._channel(channel_id)
        channel.require_open()
        if channel.stage not in (MultihopStage.IDLE, MultihopStage.TERMINATED):
            raise SettlementError(
                "channel is locked in a multi-hop payment; use eject"
            )
        transaction = build_channel_settlement(
            channel,
            deposits_of=self.deposits,
            provider=self._signing_provider(),
            feerate=self.settlement_feerate,
        )
        self._finalize_settlement(channel, transaction)
        return transaction

    def _finalize_settlement(self, channel: ChannelState,
                             transaction: Transaction) -> None:
        for outpoint in channel.all_deposits():
            record = self._deposit(outpoint)
            if record is not None:
                record.mark_settled()
        self.settlements[channel.channel_id] = transaction
        channel.reset()  # line 119
        self._replicated(f"settled:{channel.channel_id}")

    def _on_settle_request(self, channel: ChannelState,
                           request: SettleRequest) -> None:
        """Line 108's receiving side: the peer wants an off-chain
        termination; dissociate all our deposits in the channel."""
        channel.require_open()
        if not channel.is_neutral(self._deposit_value):
            raise SettlementError(
                "peer requested off-chain termination on non-neutral channel"
            )
        channel.settling_offchain = True
        for outpoint in sorted(channel.my_deposits):
            self.dissociate_deposit(request.channel_id, outpoint)
        self._maybe_finish_offchain_settle(channel)

    def _on_settle_notify(self, channel: ChannelState,
                          notice: SettleNotify) -> None:
        """Line 120's receiving side: the peer settled on-chain; reset."""
        if channel.terminated:
            return
        for outpoint in channel.all_deposits():
            record = self._deposit(outpoint)
            if record is not None:
                record.mark_settled()
        channel.reset()
        self._replicated(f"peer_settled:{notice.channel_id}")

    def _maybe_finish_offchain_settle(self, channel: ChannelState) -> None:
        """Line 109: once both sides have dissociated everything during a
        pending off-chain settle, the channel terminates."""
        if (channel.settling_offchain
                and not channel.my_deposits and not channel.remote_deposits):
            channel.reset()  # line 112
            self._replicated(f"offchain_settled:{channel.channel_id}")

    # ------------------------------------------------------------------
    # Introspection (read-only ecalls used by hosts, tests, benchmarks)
    # ------------------------------------------------------------------

    def list_channels(self) -> List[str]:
        return [
            cid for cid, channel in self.channels.items()
            if channel.is_open and not channel.terminated
        ]

    def channel_snapshot(self, channel_id: str) -> Dict[str, Any]:
        channel = self._channel(channel_id)
        return {
            "channel_id": channel.channel_id,
            "is_open": channel.is_open,
            "my_balance": channel.my_balance,
            "remote_balance": channel.remote_balance,
            "my_deposits": sorted(channel.my_deposits),
            "remote_deposits": sorted(channel.remote_deposits),
            "stage": channel.stage.value,
        }

    def audit_snapshot(self) -> Dict[str, Any]:
        """One-slice audit digest for the fleet auditor (DESIGN.md §14).

        Everything a cross-node conservation check needs, read in a
        single ecall so the auditor never sees a fund movement half
        applied: per-channel balances (terminated channels included —
        their zeroed totals let the fleet-wide min-endpoint sum settle
        correctly while the peer still reports the pre-settle state),
        free-deposit value, the pending replication outbox, and the hub
        ledger summary when one is mounted.  The ``seq`` counter is
        bookkeeping outside the rollback set: it orders snapshots, it is
        not protocol state."""
        self._audit_seq += 1
        channels: Dict[str, Any] = {}
        for cid, channel in self.channels.items():
            channels[cid] = {
                "is_open": channel.is_open,
                "terminated": channel.terminated,
                "my_balance": channel.my_balance,
                "remote_balance": channel.remote_balance,
                "total": channel.my_balance + channel.remote_balance,
                "locked_amount": channel.locked_amount,
            }
        snapshot: Dict[str, Any] = {
            "seq": self._audit_seq,
            "channels": channels,
            "free_deposit_value": sum(
                record.value for record in self.deposits.values()
                if record.is_free
            ),
            "payments_sent": self.payments_sent,
            "payments_received": self.payments_received,
            "outbox_pending": len(self._outbox),
        }
        # Account hub (repro.hub), when mixed in: its stats carry the
        # local conservation/solvency verdicts computed in this same
        # event-loop slice, so they can never race a ledger mutation.
        if getattr(self, "hub", None) is not None:
            snapshot["hub"] = self.hub_stats()
        return snapshot

    # ------------------------------------------------------------------
    # Message dispatch
    # ------------------------------------------------------------------

    _HANDLERS = {
        NewChannelAck: Inbound(
            "_on_new_channel_ack", channel_peer, ChannelStateError),
        ApproveMyDeposit: Inbound(
            "_on_approve_my_deposit", any_attested, DepositError),
        ApprovedDeposit: Inbound(
            "_on_approved_deposit", any_attested, DepositError),
        AssociatedDeposit: Inbound(
            "_on_associated_deposit", channel_peer, DepositError),
        DissociateDeposit: Inbound(
            "_on_dissociate_deposit", channel_peer, DepositError),
        DissociateDepositAck: Inbound(
            "_on_dissociate_ack", channel_peer, DepositError),
        Paid: Inbound("_on_paid", channel_peer, PaymentError),
        SettleRequest: Inbound(
            "_on_settle_request", channel_peer, SettlementError),
        SettleNotify: Inbound(
            "_on_settle_notify", channel_peer, SettlementError),
    }

    def handle_envelope(self, peer_name: str, envelope: bytes) -> None:
        """Entry point for all incoming protocol traffic: open the sealed
        envelope (authenticity + freshness), enforce the message type's
        ``_HANDLERS`` row, and dispatch.  The sender is the channel's
        pinned, attested identity key — never a field of the message.  No
        row takes a signature-wrapped body: one is refused unread."""
        remote_key = self._peer_key_by_name.get(peer_name)
        if remote_key is None:
            raise ChannelStateError(f"no secure channel with peer {peer_name!r}")
        secure = self.secure_channels[remote_key]
        body = secure.open_message(envelope)
        row = self._HANDLERS.get(type(body))
        if row is None:
            raise ProtocolError(
                f"no handler for message type {type(body).__name__}")
        subject = row.rule(self, secure.remote_key, body, row)
        if subject is not None:
            getattr(self, row.handler)(subject, body)


def _committee_placeholder_spec(message: AssociatedDeposit):
    """Spec stand-in for a peer's committee deposit whose keys we never
    see: a synthetic m-of-n over deterministic keys derived from the
    deposit address.  Only the *value* and outpoint matter locally (we
    cannot spend the peer's committee deposit; its committee signs)."""
    from repro.crypto.keys import PrivateKey as _PrivateKey
    from repro.crypto.multisig import MultisigSpec as _MultisigSpec

    keys = tuple(
        _PrivateKey.from_seed(
            f"placeholder:{message.deposit_address}:{index}".encode()
        ).public_key
        for index in range(message.committee_size)
    )
    return _MultisigSpec(message.threshold, keys)



# ---------------------------------------------------------------------------
# Replication support (consumed by repro.core.replication / persistence)
# ---------------------------------------------------------------------------

class StateDelta(NamedTuple):
    """What changed since the backups' last acknowledged update — the
    undo journal's pending keys, encoded like :func:`replication_state`:
    state path → {key: value or ``DELETED``} for entries shipped whole;
    state path → {key: {field: value}} for entries the backups hold and
    update in place (``patches``, builtins only); scalar path → value."""

    sections: Dict[Tuple[str, ...], Dict[Any, Any]]
    patches: Dict[Tuple[str, ...], Dict[Any, Dict[str, Any]]]
    scalars: Dict[Tuple[str, ...], Any]


def _live_channel(channel: ChannelState) -> Any:
    return DELETED if channel.terminated else channel


# Where replication_state keeps each journalled section, how it encodes
# a value, and how restore_program_state decodes it back (None: as is).
# ``settlements`` are not replicated; announced candidates reach the
# backups, and come back on restore, as txids (CANDIDATES).
_REPLICATED_SECTIONS = {
    "channels": (("channels",), _live_channel, None),
    "deposits": (("deposits",), None, None),
    "deposit_keys": (("deposit_keys",), PrivateKey.to_bytes,
                     PrivateKey.from_bytes),
    "approved_deposits": (("approved_deposits",), set, set),
    "_pay_seq_out": (("pay_seq_out",), None, None),
    "_pay_seq_in": (("pay_seq_in",), None, None),
    "retired_sessions": (("retired_sessions",), set, set),
    "multihop_sessions": (("multihop_sessions",), None, None),
    "hub.balances": (("hub", "balances"), None, None),
    "hub.nonces": (("hub", "nonces"), None, None),
}
_UNREPLICATED = (None, None, None)
# Scalars whose state path is not their dotted attribute name.
_SCALAR_PATHS = {
    "settlement_feerate": ("fee_policy", "settlement_feerate"),
}
# Each multi-hop payment's candidate txids, kept per payment so a delta
# replaces one payment's; ``valid_txids`` is their union.
CANDIDATES = ("candidate_txids",)


# Entries the backups hold and the program changes in place: a delta
# ships the fields that differ (replication_delta).  Each names the
# fields whose change also changes whether the backups hold the entry
# (_live_channel), so the entry ships whole instead.
_PATCHED = {
    ChannelState: frozenset({"terminated"}),
    DepositRecord: frozenset(),
}
# Field values a patch may carry: a patch holds no class reference.
_PATCH_VALUES = (int, str, bool, float, bytes, type(None))


def _field_patch(value: Any, held: Dict[str, Any]) -> Optional[Dict[str, Any]]:
    """``value``'s fields that differ from ``held``; None when one of them
    is not a builtin scalar (ship the entry whole)."""
    patch = {}
    for name, field in vars(value).items():
        was = held.get(name, ABSENT)
        if field is not was and field != was:
            if type(field) not in _PATCH_VALUES:
                return None
            patch[name] = field
    return patch


def _scalar_path(name: str) -> Tuple[str, ...]:
    return _SCALAR_PATHS.get(name) or tuple(name.split("."))


def current_settlement_txid(channel: ChannelState,
                            deposits: Dict[OutPoint, DepositRecord],
                            feerate: float) -> Optional[str]:
    """txid of the channel's settlement at its current balances; None
    when the channel is closed or empty, or a deposit is unknown.

    A committee member derives it from its replicated state when asked to
    co-sign (``repro.core.replication``): the state is all it needs, so
    no push has to ship it."""
    from repro.core.settlement import build_unsigned_settlement, settlement_fee

    if not channel.is_open or channel.terminated or channel.capacity <= 0:
        return None
    records = []
    for outpoint in sorted(channel.all_deposits()):
        record = deposits.get(outpoint)
        if record is None:
            return None
        records.append(record)
    if not records:
        return None
    payouts = [
        (channel.my_settlement_address, channel.my_balance),
        (channel.remote_settlement_address, channel.remote_balance),
    ]
    return build_unsigned_settlement(
        records, payouts=payouts,
        fee=settlement_fee(records, payouts, feerate)).txid


def _candidate_txids(program: "ChannelProtocol", payment_id: str):
    """Every candidate of one multi-hop payment: those announced before
    signing, the pre/post PoPT sets, the local candidates and τ."""
    txids = set(program.pending_candidate_txids.get(payment_id, ()))
    session = getattr(program, "multihop_sessions", {}).get(payment_id)
    if session is not None:
        txids.update(session.pre_txids)
        txids.update(session.post_txids)
        for settlements in (session.local_pre_settlements,
                            session.local_post_settlements):
            txids.update(tx.txid for tx in settlements.values())
        if session.tau is not None:
            txids.add(session.tau.txid)
    return frozenset(txids)


def replication_state(program: "ChannelProtocol") -> Dict[str, Any]:
    """Everything a backup needs to settle on the primary's behalf:
    channel states, deposit records, deposit keys, the multi-hop
    candidates, and every journalled section and scalar.  Holds live
    objects: serialise it before it leaves the enclave."""
    state: Dict[str, Any] = {}
    for section in program._ROLLBACK_ATTRS:
        layout = _REPLICATED_SECTIONS.get(section)
        if layout is None:
            continue
        path, encode, _ = layout
        target = _subdict(state, path)
        for key, value in attrgetter(section)(program).items():
            if encode is not None:
                value = encode(value)
            if value is not DELETED:
                target[key] = value
    for name in program._ROLLBACK_SCALARS:
        *parents, leaf = _scalar_path(name)
        _subdict(state, parents)[leaf] = attrgetter(name)(program)
    candidates = _subdict(state, CANDIDATES)
    for payment_id in {*program.pending_candidate_txids,
                       *getattr(program, "multihop_sessions", ())}:
        txids = _candidate_txids(program, payment_id)
        if txids:
            candidates[payment_id] = txids
    state["valid_txids"] = set().union(*candidates.values())
    return state


def replication_delta(program: "ChannelProtocol") -> Optional[StateDelta]:
    """The journal's pending keys as a :class:`StateDelta`; None when the
    journal does not know what the backups hold (ship the full state).

    An entry the backups hold and the program changed in place
    (``_PATCHED``) ships as the fields that differ from the backups'
    copy, or not at all when none does; anything else that changed —
    a new key, a replaced object, a deep-mutable value — ships whole."""
    pending = program.journal.pending()
    if pending is None:
        return None
    dirty, scalars = pending
    sections: Dict[Tuple[str, ...], Dict[Any, Any]] = {}
    patches: Dict[Tuple[str, ...], Dict[Any, Dict[str, Any]]] = {}
    payments: Set[str] = set()
    for section, held in dirty.items():
        container = section_container(program, section)
        path, encode, _ = _REPLICATED_SECTIONS.get(section, _UNREPLICATED)
        for key, (was, fields) in held.items():
            value = container.get(key, ABSENT)
            if unchanged(value, was):
                continue
            if section in ("multihop_sessions", "pending_candidate_txids"):
                payments.add(key)
            if path is None:
                continue
            if value is ABSENT:
                shipped = DELETED
            else:
                shipped = value if encode is None else encode(value)
            if shipped is was and type(was) in _PATCHED:
                patch = _field_patch(value, fields)
                if (patch is not None
                        and _PATCHED[type(was)].isdisjoint(patch)):
                    if patch:
                        patches.setdefault(path, {})[key] = patch
                    continue
            sections.setdefault(path, {})[key] = shipped
    if payments:
        sections[CANDIDATES] = {
            payment_id: _candidate_txids(program, payment_id) or DELETED
            for payment_id in payments}
    return StateDelta(sections, patches, {
        _scalar_path(name): attrgetter(name)(program) for name in scalars})


def _subdict(state: Dict[str, Any], path) -> Dict[Any, Any]:
    for name in path:
        state = state.setdefault(name, {})
    return state
