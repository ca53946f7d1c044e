"""The Teechain multi-hop payment protocol — paper Algorithm 2 and §5.

A multi-hop payment moves ``amount`` from p1 to pn across a path of
payment channels through six stages::

    lock → sign → preUpdate → update → postUpdate → release
    (1→n)  (n→1)   (1→n)       (n→1)    (1→n)        (n→1)

The lock phase accumulates the components of τ — the *intermediate path
settlement transaction* that spends every deposit of every channel in the
path and pays everyone their post-payment balance.  Because τ conflicts
with every individual channel settlement, the protocol can transition all
channels from pre- to post-payment atomically with respect to the
blockchain: at any instant, the set of transactions the chain could accept
settles every channel consistently (§5.1's case analysis, reproduced in
:meth:`MultihopMixin.eject` and :meth:`MultihopMixin.eject_with_popt`).

Premature termination:

* **eject** — the local participant walks away mid-payment.  Depending on
  the stage, the TEE releases either the channels' individual settlements
  (pre- or post-payment) or τ.
* **eject with PoPT** — some *other* participant terminated first and
  their settlement reached the blockchain.  Presenting that transaction
  (the proof of premature termination) authorises this TEE to settle its
  own channels in the *same* state.
"""

from __future__ import annotations

import dataclasses
import logging
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.blockchain.transaction import OutPoint, Transaction
from repro.core import messages
from repro.core.messages import (
    MultihopAbort,
    MultihopLock,
    MultihopPostUpdate,
    MultihopPreUpdate,
    MultihopRelease,
    MultihopSign,
    MultihopUpdate,
    PathDescriptor,
)
from repro.core.channel_base import (
    ChannelProtocol,
    Inbound,
    channel_peer,
    require_peer,
)
from repro.core.settlement import (
    add_tau_signatures,
    build_tau_from_components,
    build_unsigned_settlement,
    settlement_fee,
    sign_settlement,
)
from repro.core.state import ChannelState, MultihopStage
from repro.crypto.keys import PublicKey
from repro.errors import MultihopError, SettlementError
from repro.hub.ledger import AccountLedger, HubAccountsMixin
from repro.obs import get_metrics, get_tracer

logger = logging.getLogger(__name__)


@dataclass
class MultihopSession:
    """Per-enclave state for one in-flight multi-hop payment."""

    path: PathDescriptor
    position: int                      # 1-based index of this node
    stage: MultihopStage
    in_channel_id: Optional[str]       # channel with the previous hop
    out_channel_id: Optional[str]      # channel with the next hop
    # *Unsigned* candidate settlements of the local channels at both
    # states, built at lock time.  Only their (witness-free) txids ever
    # travel; eject signs the ones it releases, with keys this enclave or
    # its committee holds, so it still needs no remote cooperation.
    local_pre_settlements: Dict[str, Transaction] = field(default_factory=dict)
    local_post_settlements: Dict[str, Transaction] = field(default_factory=dict)
    # txids of every channel's candidate settlements (from the lock
    # accumulation) — the PoPT recognition set.
    pre_txids: Tuple[str, ...] = ()
    post_txids: Tuple[str, ...] = ()
    tau: Optional[Transaction] = None
    completed: bool = False
    # Simulated-clock timestamp of the last stage transition (0.0 in
    # direct mode, where no clock is bound) — feeds per-stage latency.
    stage_entered_at: float = 0.0
    # Causal-trace bookkeeping: how many of the six pipeline stages this
    # hop has marked with a span, and when the last mark was emitted.
    # Distinct from ``stage``: a hop participates in stages it never
    # *occupies* (p_n sends update straight from preUpdate handling).
    stages_marked: int = 0
    last_stage_mark_at: float = 0.0

    @property
    def amount(self) -> int:
        return self.path.amount

    def local_channel_ids(self) -> List[str]:
        return [cid for cid in (self.in_channel_id, self.out_channel_id)
                if cid is not None]


# The six-stage pipeline of Algorithm 2 in causal order.  Every hop
# participates in every stage (initiating, forwarding, or consuming it),
# and the tracer marks each participation with one span — see
# ``MultihopMixin._mark_stages``.
_STAGE_ORDER: Tuple[MultihopStage, ...] = (
    MultihopStage.LOCK,
    MultihopStage.SIGN,
    MultihopStage.PRE_UPDATE,
    MultihopStage.UPDATE,
    MultihopStage.POST_UPDATE,
    MultihopStage.RELEASE,
)
_STAGE_INDEX: Dict[MultihopStage, int] = {
    stage: index for index, stage in enumerate(_STAGE_ORDER)
}


def path_neighbour(program: "MultihopMixin", sender: PublicKey,
                   message, row: Inbound) -> Optional[MultihopSession]:
    """The sender is the named session's in-channel peer for a message
    travelling 1→n, its out-channel peer for one travelling n→1, and the
    session is in the stage the message belongs to.  p1 has no in-channel
    and p_n no out-channel: nobody may send them a message from there."""
    session = program.multihop_sessions.get(message.path.payment_id)
    if session is None:
        if row.unknown_ok:
            return None
        raise row.error(
            f"unknown multi-hop payment {message.path.payment_id!r}")
    require_peer(
        program.channels.get(session.in_channel_id if row.downstream
                             else session.out_channel_id),
        sender, message, row)
    if session.stage is not row.stage:
        raise row.error(
            f"{type(message).__name__} in stage {session.stage.value}, "
            f"expected {row.stage.value}")
    program._touch_payment(session.path.payment_id)
    return session


class MultihopMixin:
    """Algorithm 2, mixed into :class:`ChannelProtocol`."""

    def __init__(self) -> None:
        super().__init__()
        self.multihop_sessions: Dict[str, MultihopSession] = {}
        # Payment ids in completion order; only ever tested for
        # membership (once per wake-up of a waiting pay-multihop), so a
        # dict, not a list that every test would walk.
        self.multihop_completed: Dict[str, None] = {}
        self.multihop_aborted: Dict[str, str] = {}

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------

    def _idle_channel_with(self, peer_name: str) -> ChannelState:
        """Pick an open, idle channel whose peer is ``peer_name``.

        Deterministic (lexicographic by id) so both test runs and the two
        endpoints' expectations line up; temporary channels (§5.2) are
        naturally selected when the primary is locked.
        """
        candidates = []
        for channel in self.channels.values():
            if not channel.is_open or channel.terminated:
                continue
            if channel.stage is not MultihopStage.IDLE:
                continue
            if self.peer_names.get(channel.remote_key.to_bytes()) == peer_name:
                candidates.append(channel)
        if not candidates:
            raise MultihopError(
                f"no idle open channel with {peer_name!r}"
            )
        return min(candidates, key=lambda channel: channel.channel_id)

    def _session(self, payment_id: str) -> MultihopSession:
        session = self.multihop_sessions.get(payment_id)
        if session is None:
            raise MultihopError(f"unknown multi-hop payment {payment_id!r}")
        self._touch_payment(payment_id)
        return session

    def _touch_payment(self, payment_id: str) -> None:
        """Journal a payment's session, its announced candidates, and the
        channels the session holds, before any of them changes."""
        journal = self.journal
        if journal.depth:
            journal.record_row(
                ("multihop_sessions", "pending_candidate_txids"), payment_id)
            session = self.multihop_sessions.get(payment_id)
            if session is not None:
                for channel_id in session.local_channel_ids():
                    self._touch_channel(channel_id)

    def _my_name(self) -> str:
        return self.enclave.name

    def _channel_candidates_unsigned(
        self, channel: ChannelState, amount: int, outgoing: bool
    ) -> Tuple[Transaction, Transaction]:
        """Unsigned pre/post-payment candidate settlements.  ``outgoing``
        is True when the local party pays on this channel."""
        records = [self.deposits[outpoint]
                   for outpoint in sorted(channel.all_deposits())]
        # Candidates carry the same fee policy as unilateral settlement:
        # the transaction eventually observed on chain must be txid-
        # identical to a recorded candidate, fee included.
        feerate = getattr(self, "settlement_feerate", 0.0)
        pre_payouts = [
            (channel.my_settlement_address, channel.my_balance),
            (channel.remote_settlement_address, channel.remote_balance),
        ]
        pre = build_unsigned_settlement(
            records, pre_payouts,
            fee=settlement_fee(records, pre_payouts, feerate))
        delta = -amount if outgoing else amount
        post_payouts = [
            (channel.my_settlement_address, channel.my_balance + delta),
            (channel.remote_settlement_address,
             channel.remote_balance - delta),
        ]
        post = build_unsigned_settlement(
            records, post_payouts,
            fee=settlement_fee(records, post_payouts, feerate))
        return pre, post

    def _channel_snapshot_settlements(
        self, session: MultihopSession, channel: ChannelState,
        pre: Transaction, post: Transaction,
    ) -> None:
        """Record the channel's unsigned pre/post candidates in the
        session and announce (replicate) their txids to the committee.

        Members refuse to co-sign anything outside their replicated valid
        set, so the candidates are valid from here on — whenever an eject
        asks for the signatures (:meth:`_sign_candidates`)."""
        self._announce_candidates(session.path.payment_id,
                                  (pre.txid, post.txid))
        session.local_pre_settlements[channel.channel_id] = pre
        session.local_post_settlements[channel.channel_id] = post

    def _announce_candidates(self, payment_id: str, txids) -> None:
        pending = self.pending_candidate_txids.setdefault(payment_id, set())
        new = set(txids) - pending
        if new:
            pending.update(new)
            self._replicated(f"mh_candidates:{payment_id}")

    def _lock_channel(self, channel: ChannelState, amount: int,
                      outgoing: bool) -> None:
        self._touch_channel(channel.channel_id)
        channel.require_open()
        channel.require_stage(MultihopStage.IDLE)
        if outgoing and channel.my_balance < amount:  # Alg. 2 line 7
            raise MultihopError(
                f"balance {channel.my_balance} < multihop amount {amount} "
                f"on {channel.channel_id}"
            )
        channel.stage = MultihopStage.LOCK
        channel.locked_amount = amount
        channel.locked_outgoing = outgoing

    def _set_stage(self, session: MultihopSession,
                   stage: MultihopStage) -> None:
        metrics = get_metrics()
        if metrics.enabled:
            previous = session.stage
            now = get_tracer().now()
            metrics.inc(f"multihop.stage[{stage.value}]")
            # Time spent in the stage we are leaving; simulated seconds
            # when a benchmark clock is bound, all-zero in direct mode.
            metrics.observe(f"multihop.stage_seconds[{previous.value}]",
                            now - session.stage_entered_at)
            session.stage_entered_at = now
        self._mark_stages(session, stage)
        session.stage = stage
        for channel_id in session.local_channel_ids():
            self.channels[channel_id].stage = stage

    def _mark_stages(self, session: MultihopSession,
                     upto: MultihopStage) -> None:
        """Emit one span per pipeline stage this hop has now participated
        in, up to and including ``upto``.

        Entering a session stage means every earlier pipeline stage has
        been handled here (p_n consuming preUpdate and sending update in
        one ecall marks both).  The first span in a batch carries the gap
        since this hop's previous participation; the rest are
        zero-duration, reflecting same-ecall processing.  Together with
        the causal context riding each message, this gives every hop all
        six ``multihop.stage.*`` spans under one trace id.
        """
        tracer = get_tracer()
        if not tracer.enabled:
            return
        target = _STAGE_INDEX.get(upto)
        if target is None:
            return
        now = tracer.now()
        if session.stages_marked == 0:
            session.last_stage_mark_at = now
        while session.stages_marked <= target:
            stage = _STAGE_ORDER[session.stages_marked]
            tracer.emit(
                f"multihop.stage.{stage.value}",
                duration=now - session.last_stage_mark_at,
                # Exact span begin: emit() re-reads the clock for ``t``, so
                # reconstructing the begin as t − duration would drift by
                # microseconds and shuffle same-instant siblings when the
                # merge tool sorts the timeline.
                start=session.last_stage_mark_at,
                payment=session.path.payment_id,
                position=session.position,
            )
            session.last_stage_mark_at = now
            session.stages_marked += 1

    # ------------------------------------------------------------------
    # Initiation (Alg. 2 line 3)
    # ------------------------------------------------------------------

    def pay_multihop(self, payment_id: str, amount: int,
                     hops: Sequence[str]) -> None:
        """``payMultihop``: start a payment of ``amount`` along ``hops``
        (node names, p1 = this node).  Algorithm 2 models this as p1
        sending itself the initial lock message; we do the same."""
        if amount <= 0:
            raise MultihopError(f"amount must be positive, got {amount}")
        if len(hops) < 2:
            raise MultihopError("a multi-hop payment needs at least 2 nodes")
        if hops[0] != self._my_name():
            raise MultihopError("pay_multihop must start at the local node")
        if len(set(hops)) != len(hops):
            raise MultihopError("payment path visits a node twice")
        if payment_id in self.multihop_sessions:
            raise MultihopError(f"payment {payment_id!r} already exists")
        path = PathDescriptor(payment_id=payment_id, amount=amount,
                              hops=tuple(hops))
        empty_lock = MultihopLock(
            path=path, channel_ids=(), tau_deposits=(), tau_payouts=(),
            pre_settlement_txids=(), post_settlement_txids=(),
        )
        self._handle_lock(None, empty_lock)

    # ------------------------------------------------------------------
    # Stage 1: lock (1→n), Alg. 2 line 5
    # ------------------------------------------------------------------

    def _handle_lock(self, in_channel: Optional[ChannelState],
                     lock: MultihopLock) -> None:
        """``in_channel`` is our channel with the previous hop — chosen by
        it, the last accumulated channel id, and resolved by the sender
        rule — or None for p1's own ``pay_multihop``.  A lock from the
        wire therefore never lands at position 1: every hop before us
        contributed exactly one channel."""
        path = lock.path
        my_name = self._my_name()
        position = path.hops.index(my_name) + 1 if my_name in path.hops else 0
        if position != len(lock.channel_ids) + 1:
            raise MultihopError(
                f"lock carries {len(lock.channel_ids)} channels but the "
                f"path places this node at position {position}")
        if path.payment_id in self.multihop_sessions:
            raise MultihopError(f"duplicate lock for {path.payment_id!r}")
        is_last = position == len(path.hops)
        self._touch_payment(path.payment_id)

        if in_channel is not None:
            in_pre, in_post = self._channel_candidates_unsigned(
                in_channel, path.amount, outgoing=False)
            self._verify_hop_contribution(lock, in_channel, in_pre, in_post)
            try:
                self._lock_channel(in_channel, path.amount, outgoing=False)
            except MultihopError:
                self._send_abort(path, toward=in_channel.remote_key,
                                 reason="in-channel busy")
                raise

        session = MultihopSession(
            path=path, position=position, stage=MultihopStage.LOCK,
            in_channel_id=in_channel.channel_id if in_channel else None,
            out_channel_id=None,
            stage_entered_at=get_tracer().now(),
        )
        self._mark_stages(session, MultihopStage.LOCK)
        if in_channel is not None:
            # Alg. 2 line 64 ejects with settlements of *both* adjacent
            # channels, so the in-channel candidates are snapshotted at
            # lock time too.
            self._channel_snapshot_settlements(
                session, in_channel, in_pre, in_post)

        if not is_last:
            next_name = path.hops[position]  # 0-based: hops[position]
            try:
                out_channel = self._idle_channel_with(next_name)
                self._lock_channel(out_channel, path.amount, outgoing=True)
            except MultihopError:
                if in_channel is not None:
                    self._unlock_channel(in_channel)
                    self._send_abort(path, toward=in_channel.remote_key,
                                     reason="out-channel unavailable")
                raise
            session.out_channel_id = out_channel.channel_id
            pre, post = self._channel_candidates_unsigned(
                out_channel, path.amount, outgoing=True)
            self._channel_snapshot_settlements(
                session, out_channel, pre, post)
            forwarded = self._extend_lock(lock, out_channel, pre, post)
            session.pre_txids = forwarded.pre_settlement_txids
            session.post_txids = forwarded.post_settlement_txids
            self.multihop_sessions[path.payment_id] = session
            self._replicated(f"mh_lock:{path.payment_id}")
            self._send(out_channel.remote_key, forwarded)  # line 11
            return

        # Terminal hop p_n (Alg. 2 line 12): build τ, sign our inputs,
        # and start the sign phase back toward p1.
        assert in_channel is not None
        # The lock has now traversed every channel: its txid lists are the
        # complete PoPT recognition set.
        session.pre_txids = lock.pre_settlement_txids
        session.post_txids = lock.post_settlement_txids
        tau = build_tau_from_components(lock.tau_deposits, lock.tau_payouts)
        self._announce_candidates(path.payment_id, (tau.txid,))
        tau = self._sign_tau_inputs(tau, in_channel)
        self._set_stage(session, MultihopStage.SIGN)  # line 13
        self.multihop_sessions[path.payment_id] = session
        self._replicated(f"mh_lock_last:{path.payment_id}")
        self._send(
            in_channel.remote_key,
            MultihopSign(path=path, tau=tau,
                         pre_settlement_txids=lock.pre_settlement_txids,
                         post_settlement_txids=lock.post_settlement_txids),
        )  # line 14

    def _verify_hop_contribution(self, lock: MultihopLock,
                                 channel: ChannelState,
                                 pre: Transaction, post: Transaction) -> None:
        """The previous hop claimed our shared channel's balances and
        deposits inside τ; compare with ``pre``/``post``, the candidates
        computed from our own view of the channel.  A lying hop (trying
        to settle the path at balances favouring itself) is caught here."""
        if lock.pre_settlement_txids[-1:] != (pre.txid,):
            raise MultihopError(
                "previous hop misstated the channel's pre-payment settlement"
            )
        if lock.post_settlement_txids[-1:] != (post.txid,):
            raise MultihopError(
                "previous hop misstated the channel's post-payment settlement"
            )
        our_outpoints = {
            (outpoint, self.deposits[outpoint].value)
            for outpoint in channel.all_deposits()
        }
        if not our_outpoints <= set(lock.tau_deposits):
            raise MultihopError(
                "previous hop omitted channel deposits from τ"
            )

    def _extend_lock(
        self,
        lock: MultihopLock,
        out_channel: ChannelState,
        pre: Transaction,
        post: Transaction,
    ) -> MultihopLock:
        """Append our out-channel's contribution to the travelling lock."""
        amount = lock.path.amount
        deposits = tuple(
            (outpoint, self.deposits[outpoint].value)
            for outpoint in sorted(out_channel.all_deposits())
        )
        payouts = (
            (out_channel.my_settlement_address,
             out_channel.my_balance - amount),
            (out_channel.remote_settlement_address,
             out_channel.remote_balance + amount),
        )
        return MultihopLock(
            path=lock.path,
            channel_ids=lock.channel_ids + (out_channel.channel_id,),
            tau_deposits=lock.tau_deposits + deposits,
            tau_payouts=lock.tau_payouts + payouts,
            pre_settlement_txids=lock.pre_settlement_txids + (pre.txid,),
            post_settlement_txids=lock.post_settlement_txids + (post.txid,),
        )

    def _sign_tau_inputs(self, tau: Transaction,
                         in_channel: Optional[ChannelState]) -> Transaction:
        """Sign the τ inputs whose witness this hop must supply: those it
        holds a key for, except the 1-of-1 deposits of its in-channel.

        A 1-of-1 deposit key is shared with the channel peer at
        association, and the in-channel peer is the next hop on the n→1
        sign route: it signs that input itself before any enclave stores
        τ, so a witness attached here would only be overwritten.
        Committee deposits share no key; their owner's committee signs
        them wherever they sit.  ``_verify_tau_complete`` at p1 refuses a
        τ that any hop left unsigned."""
        upstream = in_channel.all_deposits() if in_channel else frozenset()
        records = []
        for tx_input in tau.inputs:
            record = self.deposits.get(tx_input.outpoint)
            if record is None:
                continue
            if record.spec.total == 1 and record.outpoint in upstream:
                continue
            addresses = {key.address() for key in record.spec.public_keys}
            if addresses & set(self.deposit_keys):
                records.append(record)
        return add_tau_signatures(tau, records, self._signing_provider())

    # ------------------------------------------------------------------
    # Stage 2: sign (n→1), Alg. 2 line 15
    # ------------------------------------------------------------------

    def _handle_sign(self, session: MultihopSession,
                     message: MultihopSign) -> None:
        out_channel = self.channels[session.out_channel_id]
        self._announce_candidates(message.path.payment_id,
                                  (message.tau.txid,))
        tau = self._sign_tau_inputs(
            message.tau, self.channels.get(session.in_channel_id))
        self._adopt_candidate_txids(session, message)
        if session.position > 1:  # line 17
            self._set_stage(session, MultihopStage.SIGN)  # line 18
            in_channel = self.channels[session.in_channel_id]
            self._replicated(f"mh_sign:{session.path.payment_id}")
            self._send(
                in_channel.remote_key,
                MultihopSign(
                    path=message.path, tau=tau,
                    pre_settlement_txids=message.pre_settlement_txids,
                    post_settlement_txids=message.post_settlement_txids,
                ),
            )  # line 19
            return
        # p1 (Alg. 2 line 20): τ is fully signed; enter preUpdate.
        self._verify_tau_complete(tau)
        session.tau = tau  # line 21
        self._set_stage(session, MultihopStage.PRE_UPDATE)  # line 22
        self._replicated(f"mh_sign_head:{session.path.payment_id}")
        self._send(out_channel.remote_key,
                   MultihopPreUpdate(path=message.path, tau=tau))  # 23

    def _adopt_candidate_txids(self, session: MultihopSession,
                               message: MultihopSign) -> None:
        """Record the complete candidate lists from the sign message after
        checking that our own channels' locally computed candidates appear
        in them — a terminal hop cannot substitute fake candidates for
        channels it does not own."""
        pre = set(message.pre_settlement_txids)
        post = set(message.post_settlement_txids)
        for tx in session.local_pre_settlements.values():
            if tx.txid not in pre:
                raise MultihopError(
                    "sign message omits a local channel's pre-payment "
                    "candidate"
                )
        for tx in session.local_post_settlements.values():
            if tx.txid not in post:
                raise MultihopError(
                    "sign message omits a local channel's post-payment "
                    "candidate"
                )
        session.pre_txids = message.pre_settlement_txids
        session.post_txids = message.post_settlement_txids

    def _verify_tau_complete(self, tau: Transaction) -> None:
        for tx_input in tau.inputs:
            if not tx_input.witness.signatures:
                raise MultihopError(
                    f"τ input {tx_input.outpoint} is unsigned; refusing to "
                    "enter the update phase"
                )

    # ------------------------------------------------------------------
    # Stage 3: preUpdate (1→n), Alg. 2 line 24
    # ------------------------------------------------------------------

    def _handle_pre_update(self, session: MultihopSession,
                           message: MultihopPreUpdate) -> None:
        in_channel = self.channels[session.in_channel_id]
        self._verify_tau_complete(message.tau)
        session.tau = message.tau  # line 26
        if session.position < len(session.path.hops):  # line 27
            self._set_stage(session, MultihopStage.PRE_UPDATE)  # line 28
            out_channel = self.channels[session.out_channel_id]
            self._replicated(f"mh_preupdate:{session.path.payment_id}")
            self._send(out_channel.remote_key, message)  # line 29
            return
        # p_n (line 30): commit to post-payment and start update phase.
        self._set_stage(session, MultihopStage.UPDATE)  # line 31
        self._apply_balance_update(session)  # line 32
        self._replicated(f"mh_update_last:{session.path.payment_id}")
        self._send(in_channel.remote_key,
                   MultihopUpdate(path=message.path))  # line 33

    def _apply_balance_update(self, session: MultihopSession) -> None:
        """Move ``amount`` across this node's adjacent channels.

        In-channel (with the previous hop): we gain.  Out-channel (with
        the next hop): we pay.  Both views of each channel converge once
        both endpoints have run their update stage."""
        amount = session.amount
        if session.in_channel_id is not None:
            channel = self.channels[session.in_channel_id]
            channel.my_balance += amount
            channel.remote_balance -= amount
        if session.out_channel_id is not None:
            channel = self.channels[session.out_channel_id]
            channel.my_balance -= amount
            channel.remote_balance += amount

    # ------------------------------------------------------------------
    # Stage 4: update (n→1), Alg. 2 line 34
    # ------------------------------------------------------------------

    def _handle_update(self, session: MultihopSession,
                       message: MultihopUpdate) -> None:
        out_channel = self.channels[session.out_channel_id]
        if session.position > 1:  # line 36
            self._set_stage(session, MultihopStage.UPDATE)  # line 37
            self._apply_balance_update(session)  # lines 38–39
            in_channel = self.channels[session.in_channel_id]
            self._replicated(f"mh_update:{session.path.payment_id}")
            self._send(in_channel.remote_key, message)  # line 40
            return
        # p1 (line 41): discard τ, commit our balance, enter postUpdate.
        session.tau = None  # line 42
        self._apply_balance_update(session)
        self._set_stage(session, MultihopStage.POST_UPDATE)  # line 43
        self._replicated(f"mh_postupdate_head:{session.path.payment_id}")
        self._send(out_channel.remote_key,
                   MultihopPostUpdate(path=message.path))  # line 44

    # ------------------------------------------------------------------
    # Stage 5: postUpdate (1→n), Alg. 2 line 46
    # ------------------------------------------------------------------

    def _handle_post_update(self, session: MultihopSession,
                            message: MultihopPostUpdate) -> None:
        in_channel = self.channels[session.in_channel_id]
        session.tau = None  # line 49
        if session.position < len(session.path.hops):  # line 48
            self._set_stage(session, MultihopStage.POST_UPDATE)  # line 50
            out_channel = self.channels[session.out_channel_id]
            self._replicated(f"mh_postupdate:{session.path.payment_id}")
            self._send(out_channel.remote_key, message)  # line 51
            return
        # p_n (line 52): done — release locks back toward p1.
        self._finish_session(session)  # line 53 (stage ← idle)
        self._replicated(f"mh_release_last:{session.path.payment_id}")
        self._send(in_channel.remote_key,
                   MultihopRelease(path=message.path))  # line 54

    # ------------------------------------------------------------------
    # Stage 6: release (n→1), Alg. 2 line 55
    # ------------------------------------------------------------------

    def _handle_release(self, session: MultihopSession,
                        message: MultihopRelease) -> None:
        self._finish_session(session)  # line 57
        self._replicated(f"mh_release:{session.path.payment_id}")
        if session.position > 1:  # line 58
            in_channel = self.channels[session.in_channel_id]
            self._send(in_channel.remote_key, message)  # line 59

    def _finish_session(self, session: MultihopSession) -> None:
        metrics = get_metrics()
        if metrics.enabled:
            now = get_tracer().now()
            metrics.inc("multihop.completed")
            # Residency time of the stage the session finishes from (the
            # release message collapses it straight to idle).
            metrics.observe(
                f"multihop.stage_seconds[{session.stage.value}]",
                now - session.stage_entered_at)
            session.stage_entered_at = now
        self._mark_stages(session, MultihopStage.RELEASE)
        if get_tracer().enabled:
            get_tracer().emit("multihop.finished",
                              payment_id=session.path.payment_id,
                              hops=len(session.path.hops) - 1)
        session.stage = MultihopStage.IDLE
        session.completed = True
        session.tau = None
        session.local_pre_settlements.clear()
        session.local_post_settlements.clear()
        for channel_id in session.local_channel_ids():
            channel = self.channels[channel_id]
            channel.stage = MultihopStage.IDLE
            channel.locked_amount = 0
        self.multihop_completed[session.path.payment_id] = None
        self.pending_candidate_txids.pop(session.path.payment_id, None)
        del self.multihop_sessions[session.path.payment_id]

    # ------------------------------------------------------------------
    # Lock-phase abort (contention handling, §7.4)
    # ------------------------------------------------------------------

    def _send_abort(self, path: PathDescriptor, toward: PublicKey,
                    reason: str) -> None:
        self._send(toward, MultihopAbort(path=path, reason=reason))

    def _handle_abort(self, session: MultihopSession,
                      message: MultihopAbort) -> None:
        """Aborts travel n→1 and stop being safe once the sign phase has
        begun (then: eject); for an already aborted or unknown payment
        there is nothing to release and none arrives here."""
        for channel_id in session.local_channel_ids():
            self._unlock_channel(self.channels[channel_id])
        del self.multihop_sessions[message.path.payment_id]
        self.pending_candidate_txids.pop(message.path.payment_id, None)
        self.multihop_aborted[message.path.payment_id] = message.reason
        metrics = get_metrics()
        if metrics.enabled:
            metrics.inc("multihop.aborted")
        self._replicated(f"mh_abort:{message.path.payment_id}")
        if session.position > 1 and session.in_channel_id is not None:
            in_channel = self.channels[session.in_channel_id]
            self._send(in_channel.remote_key, message)

    def _unlock_channel(self, channel: ChannelState) -> None:
        self._touch_channel(channel.channel_id)
        channel.stage = MultihopStage.IDLE
        channel.locked_amount = 0
        channel.locked_outgoing = False

    # ------------------------------------------------------------------
    # Premature termination (Alg. 2 lines 60–72, §5.1 case analysis)
    # ------------------------------------------------------------------

    def eject(self, payment_id: str) -> List[Transaction]:
        """``eject`` (line 60): abandon the payment unilaterally.

        Returns the transactions the participant should broadcast:

        * stage **lock**/**sign** — the local channels' *pre-payment*
          settlements (balances are still pre-payment);
        * stage **preUpdate**/**update** — **τ** (line 65), settling the
          whole path at post-payment;
        * stage **postUpdate**/**release** — the local channels'
          *post-payment* settlements.

        The transactions are decided and signed *before* the session is
        terminated: an eject that cannot produce them (no τ, committee
        quorum down) raises with nothing changed and can be retried.
        """
        session = self._session(payment_id)
        transactions = self._ejection(session)
        self._terminate_session(session)  # line 62
        return transactions

    def _ejection(self, session: MultihopSession) -> List[Transaction]:
        """What ``eject`` releases at the session's stage, signed.
        Changes nothing."""
        stage = session.stage  # line 61
        if stage in (MultihopStage.LOCK, MultihopStage.SIGN):
            return self._sign_candidates(
                session.local_pre_settlements)  # line 64
        if stage in (MultihopStage.PRE_UPDATE, MultihopStage.UPDATE):
            if session.tau is None:
                raise SettlementError("no τ held at this stage")
            return [session.tau]  # line 65
        if stage in (MultihopStage.POST_UPDATE, MultihopStage.RELEASE):
            return self._sign_candidates(
                session.local_post_settlements)  # line 64
        raise MultihopError(f"cannot eject from stage {stage.value}")

    def _sign_candidates(
        self, candidates: Dict[str, Transaction]
    ) -> List[Transaction]:
        """Sign the session's unsigned candidates for release — the one
        place a candidate settlement acquires witnesses."""
        provider = self._signing_provider()
        return [
            sign_settlement(
                unsigned,
                [self.deposits[outpoint]
                 for outpoint in unsigned.spent_outpoints()],
                provider)
            for unsigned in candidates.values()
        ]

    def release_dangling_locks(self) -> List[str]:
        """Unlock channels whose lock phase never committed a session —
        the restore-time consistency sweep (§6.2).

        The candidate-announcement replication point (``mh_candidates``)
        fires *mid* lock handling: after the channel is locked, before
        the session is recorded.  A crash there restores a snapshot with
        a locked channel and no session to eject — and since the lock
        message only leaves the enclave after the session's own
        replication point, no peer ever saw that lock and no settlement
        candidate references it.  Lifting it is therefore safe, and
        without this sweep the channel's deposits would be stuck forever
        (``settle`` refuses locked channels).  Returns the unlocked
        channel ids."""
        referenced = set()
        for session in self.multihop_sessions.values():
            referenced.update(session.local_channel_ids())
        released: List[str] = []
        for channel_id, channel in self.channels.items():
            if (channel.stage is not MultihopStage.IDLE
                    and channel_id not in referenced):
                self._unlock_channel(channel)
                released.append(channel_id)
        if released:
            self._replicated("locks_released:" + ",".join(sorted(released)))
        return released

    def eject_all(self) -> Dict[str, List[Transaction]]:
        """Eject every in-flight multi-hop payment (crash recovery).

        A participant restored from sealed state (§6.2) may hold sessions
        whose peers have long moved on; completing them is impossible, so
        recovery terminates each one unilaterally at its recorded stage.
        Dangling lock-phase channel locks (see
        :meth:`release_dangling_locks`) are lifted first.  Returns
        ``payment_id → settlements to broadcast``; already terminated
        sessions are skipped.  Every session is signed before any is
        terminated, so a failure loses no transaction already produced."""
        self.release_dangling_locks()
        sessions = [
            session for _, session in sorted(self.multihop_sessions.items())
            if session.stage not in (MultihopStage.TERMINATED,
                                     MultihopStage.IDLE)
        ]
        ejected = {session.path.payment_id: self._ejection(session)
                   for session in sessions}
        for session in sessions:
            self._terminate_session(session)
        return ejected

    def eject_with_popt(self, payment_id: str,
                        popt: Transaction) -> List[Transaction]:
        """``eject(popt)`` (line 66): another participant terminated and
        ``popt`` — their settlement, observed on the blockchain — proves
        at which state.  The TEE verifies the transaction against the
        candidate-settlement txids recorded during the lock phase and
        releases this node's settlements in the matching state."""
        session = self._session(payment_id)
        if popt.txid in session.pre_txids:
            candidates = session.local_pre_settlements  # lines 69–70
        elif popt.txid in session.post_txids:
            candidates = session.local_post_settlements  # lines 71–72
        else:
            raise SettlementError(
                "presented transaction is not a settlement of any channel "
                "in this multi-hop payment"
            )
        transactions = self._sign_candidates(candidates)
        self._terminate_session(session)  # line 68
        return transactions

    def _terminate_session(self, session: MultihopSession) -> None:
        self._touch_payment(session.path.payment_id)
        session.stage = MultihopStage.TERMINATED
        for channel_id in session.local_channel_ids():
            channel = self.channels[channel_id]
            for outpoint in channel.all_deposits():
                record = self._deposit(outpoint)
                if record is not None:
                    record.mark_settled()
            self.settlements.setdefault(channel_id, None)
            channel.reset()
        self._replicated(f"mh_terminated:{session.path.payment_id}")

    # ------------------------------------------------------------------
    # Dispatch extension
    # ------------------------------------------------------------------

    _HANDLERS = {
        **ChannelProtocol._HANDLERS,
        # The lock creates the session; its sender must own the channel
        # it chose for us, the last one accumulated.
        MultihopLock: Inbound(
            "_handle_lock", channel_peer, MultihopError,
            names=lambda lock: (lock.channel_ids[-1] if lock.channel_ids
                                else None)),
        MultihopSign: Inbound(
            "_handle_sign", path_neighbour, MultihopError,
            stage=MultihopStage.LOCK),  # line 16
        MultihopPreUpdate: Inbound(
            "_handle_pre_update", path_neighbour, MultihopError,
            stage=MultihopStage.SIGN, downstream=True),  # line 25
        MultihopUpdate: Inbound(
            "_handle_update", path_neighbour, MultihopError,
            stage=MultihopStage.PRE_UPDATE),  # line 35
        MultihopPostUpdate: Inbound(
            "_handle_post_update", path_neighbour, MultihopError,
            stage=MultihopStage.UPDATE, downstream=True),  # line 47
        MultihopRelease: Inbound(
            "_handle_release", path_neighbour, MultihopError,
            stage=MultihopStage.POST_UPDATE),  # line 56
        MultihopAbort: Inbound(
            "_handle_abort", path_neighbour, MultihopError,
            stage=MultihopStage.LOCK, unknown_ok=True),
    }


class TeechainEnclave(HubAccountsMixin, MultihopMixin, ChannelProtocol):
    """The complete Teechain enclave program: payment channels
    (Algorithm 1), multi-hop payments (Algorithm 2), and the account
    hub (``repro.hub``: many lightweight client accounts multiplexed
    over these channels)."""

    PROGRAM_NAME = "teechain"
    PROGRAM_VERSION = 1

    FREEZE_ALLOWED = ChannelProtocol.FREEZE_ALLOWED + (
        "eject", "eject_with_popt", "eject_all", "release_dangling_locks",
    )

    READ_ONLY_ECALLS = ChannelProtocol.READ_ONLY_ECALLS | frozenset({
        "hub_stats",
    })

    # Sessions and the account ledger roll back with the rest of the
    # enclave state when a replication barrier fails mid-ecall.
    _ROLLBACK_ATTRS = ChannelProtocol._ROLLBACK_ATTRS + (
        "multihop_sessions", "hub.balances", "hub.nonces")
    _ROLLBACK_SCALARS = ChannelProtocol._ROLLBACK_SCALARS + tuple(
        f"hub.{name}" for name in AccountLedger.SCALARS)


# A message type without a declared sender rule must not reach a peer:
# every message dataclass of repro.core.messages — what the wire codec
# registers as protocol messages — has a _HANDLERS row.
_undeclared = sorted(
    name for name, cls in vars(messages).items()
    if dataclasses.is_dataclass(cls) and cls.__module__ == messages.__name__
    and cls not in (messages.SignedMessage, PathDescriptor,
                    *TeechainEnclave._HANDLERS))
if _undeclared:
    raise ImportError(f"no _HANDLERS row for {', '.join(_undeclared)}")
