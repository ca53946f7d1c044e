"""Who may send what: the ``_HANDLERS`` table is the only authority
(DESIGN.md §11).

``handle_envelope`` resolves each message type's sender rule before its
handler runs.  The enumeration below is parametrised from the table
itself — a new row without cells fails — and crosses every row with
three senders: the owner the rule admits, bob's neighbour on the wrong
side, and dave, attested to bob but on nobody else's channel or payment.
Bob is always the receiver.  Rejects are asserted on the shared network
of the stage bob rests in (they leave it unchanged); the owner's message
is applied to a copy.
"""

import copy
import os
import subprocess
import sys
from types import SimpleNamespace

import pytest

from repro.blockchain.transaction import OutPoint
from repro.core import multihop
from repro.core.channel_base import any_attested, channel_peer
from repro.core.messages import (
    ApproveMyDeposit,
    ApprovedDeposit,
    AssociatedDeposit,
    DissociateDeposit,
    DissociateDepositAck,
    MultihopAbort,
    MultihopLock,
    MultihopPostUpdate,
    MultihopPreUpdate,
    MultihopRelease,
    MultihopSign,
    MultihopUpdate,
    NewChannelAck,
    Paid,
    PathDescriptor,
    SettleNotify,
    SettleRequest,
)
from repro.core.multihop import TeechainEnclave, path_neighbour
from repro.core.node import TeechainNetwork
from repro.core.state import MultihopStage
from repro.errors import MultihopError, ProtocolError

from tests.test_send_path import assert_rejected, fingerprint, secure_to

TABLE = TeechainEnclave._HANDLERS
NOWHERE = OutPoint(txid="00" * 32, index=0)


# ---------------------------------------------------------------------------
# One network per stage bob rests in
# ---------------------------------------------------------------------------

# Stage → whose n-th frame to bob is withheld so that bob rests there.
# The withheld frame is kept: it is the genuine next message of its row.
HOLD = {
    None: None,                                  # no payment at all
    MultihopStage.IDLE: ("alice", 0),            # alice's lock
    MultihopStage.LOCK: ("carol", 0),            # carol's sign
    MultihopStage.SIGN: ("alice", 1),            # alice's preUpdate
    MultihopStage.PRE_UPDATE: ("carol", 1),      # carol's update
    MultihopStage.UPDATE: ("alice", 2),          # alice's postUpdate
    MultihopStage.POST_UPDATE: ("carol", 2),     # carol's release
}
_CONTEXTS = {}


def context(stage):
    """alice — bob — carol funded as in ``three_hop_path``, dave — bob
    beside it, and a 1 000 payment alice → carol stopped so that bob
    rests in ``stage``."""
    if stage in _CONTEXTS:
        return _CONTEXTS[stage]
    network = TeechainNetwork()
    nodes = {name: network.create_node(name, funds=100_000)
             for name in ("alice", "bob", "carol", "dave")}
    c = SimpleNamespace(network=network, held=[], **nodes)
    c.ab = c.alice.open_channel(c.bob)
    c.bc = c.bob.open_channel(c.carol)
    c.db = c.dave.open_channel(c.bob)
    c.deposit_ab = c.alice.create_deposit(40_000)
    c.alice.approve_and_associate(c.bob, c.deposit_ab, c.ab)
    c.bob.approve_and_associate(c.carol, c.bob.create_deposit(40_000), c.bc)
    c.dave.approve_and_associate(c.bob, c.dave.create_deposit(40_000), c.db)
    c.path = PathDescriptor(payment_id="pay-1", amount=1_000,
                            hops=("alice", "bob", "carol"))
    if HOLD[stage] is not None:
        source, passed = HOLD[stage]
        seen = []

        def tap(message):
            if (message.sender, message.destination) != (source, "bob"):
                return True
            seen.append(message)
            if len(seen) > passed:
                c.held.append(message.payload)
                return False
            return True

        network.transport.add_tap(tap)
        c.alice.pay_multihop([c.alice, c.bob, c.carol], c.path.amount,
                             payment_id=c.path.payment_id)
        session = c.bob.program.multihop_sessions.get(c.path.payment_id)
        assert (session.stage if session else MultihopStage.IDLE) is stage
        assert len(c.held) == 1
    _CONTEXTS[stage] = c
    return c


# ---------------------------------------------------------------------------
# The cells: per row, the stage bob rests in, the owner, the neighbour
# on the wrong side, and a message of the row's type as ``sender`` would
# forge it (``None``: the owner's is the frame the stage withheld)
# ---------------------------------------------------------------------------

def cell(stage, owner, wrong, craft, genuine=False):
    return SimpleNamespace(stage=stage, owner=owner, wrong=wrong,
                           craft=craft, genuine=genuine)


def forged_lock(c, sender):
    """What a lock from ``sender`` over ``ab`` would look like."""
    path = PathDescriptor(payment_id="forged", amount=100,
                          hops=(sender.name, "bob", "carol"))
    return MultihopLock(path=path, channel_ids=(c.ab,), tau_deposits=(),
                        tau_payouts=(), pre_settlement_txids=("x",),
                        post_settlement_txids=("y",))


S = MultihopStage
CELLS = {
    NewChannelAck: cell(None, "alice", "carol", lambda c, s: NewChannelAck(
        channel_id=c.ab, my_address=s.address, remote_address=c.bob.address)),
    ApproveMyDeposit: cell(None, "alice", "carol", lambda c, s: ApproveMyDeposit(
        outpoint=NOWHERE, value=1, threshold=1, committee_size=1,
        deposit_address="nowhere")),
    ApprovedDeposit: cell(None, "alice", "carol",
                          lambda c, s: ApprovedDeposit(outpoint=NOWHERE)),
    AssociatedDeposit: cell(None, "alice", "carol", lambda c, s: AssociatedDeposit(
        channel_id=c.ab, outpoint=NOWHERE, value=1, encrypted_deposit_key=b"",
        deposit_address="nowhere", threshold=1, committee_size=1,
        committee=())),
    DissociateDeposit: cell(None, "alice", "carol", lambda c, s: DissociateDeposit(
        channel_id=c.ab, outpoint=c.deposit_ab.outpoint)),
    DissociateDepositAck: cell(None, "alice", "carol",
                               lambda c, s: DissociateDepositAck(
                                   channel_id=c.ab,
                                   outpoint=c.deposit_ab.outpoint)),
    Paid: cell(None, "alice", "carol",
               lambda c, s: Paid(channel_id=c.ab, amount=1, sequence=1)),
    SettleRequest: cell(None, "alice", "carol",
                        lambda c, s: SettleRequest(channel_id=c.ab)),
    SettleNotify: cell(None, "alice", "carol", lambda c, s: SettleNotify(
        channel_id=c.ab, settlement_txid="ff" * 32)),
    MultihopLock: cell(S.IDLE, "alice", "carol", forged_lock, genuine=True),
    MultihopSign: cell(S.LOCK, "carol", "alice", lambda c, s: MultihopSign(
        path=c.path, tau=None, pre_settlement_txids=(),
        post_settlement_txids=()), genuine=True),
    MultihopPreUpdate: cell(S.SIGN, "alice", "carol",
                            lambda c, s: MultihopPreUpdate(path=c.path,
                                                           tau=None),
                            genuine=True),
    MultihopUpdate: cell(S.PRE_UPDATE, "carol", "alice",
                         lambda c, s: MultihopUpdate(path=c.path),
                         genuine=True),
    MultihopPostUpdate: cell(S.UPDATE, "alice", "carol",
                             lambda c, s: MultihopPostUpdate(path=c.path),
                             genuine=True),
    MultihopRelease: cell(S.POST_UPDATE, "carol", "alice",
                          lambda c, s: MultihopRelease(path=c.path),
                          genuine=True),
    MultihopAbort: cell(S.LOCK, "carol", "alice", lambda c, s: MultihopAbort(
        path=c.path, reason="griefing")),
}


def spy_on(program, row):
    """Record what ``row``'s handler is handed; the message still applies."""
    calls = []
    original = getattr(program, row.handler)

    def handler(subject, message):
        calls.append(subject)
        return original(subject, message)

    setattr(program, row.handler, handler)
    return calls


def expected_subject(c, row, sender):
    if row.rule is any_attested:
        return sender.enclave.public_key
    if row.rule is path_neighbour:
        return c.bob.program.multihop_sessions[c.path.payment_id]
    return c.bob.program.channels[c.ab]


@pytest.mark.parametrize("message_type", list(TABLE), ids=lambda t: t.__name__)
class TestEveryRow:
    def test_owner_reaches_the_handler(self, message_type):
        """Accepted, or refused only by the handler for a state reason
        (an unknown outpoint, a channel already open): the rule admits the
        owner and hands the handler what it resolved."""
        row, spec = TABLE[message_type], CELLS[message_type]
        c = copy.deepcopy(context(spec.stage))
        owner = getattr(c, spec.owner)
        envelope = (c.held[0] if spec.genuine else
                    secure_to(owner, c.bob).seal_message(spec.craft(c, owner)))
        subject = expected_subject(c, row, owner)
        calls = spy_on(c.bob.program, row)
        before = fingerprint(c.bob)
        try:
            c.bob.program.handle_envelope(owner.name, envelope)
        except ProtocolError:
            pass  # raised by the handler: calls shows it ran
        else:
            assert fingerprint(c.bob) != before
        assert calls == [subject]
        if spec.genuine:
            # The withheld frame is the real thing: it advanced bob.
            assert fingerprint(c.bob) != before

    @pytest.mark.parametrize("sender_class", ["wrong_side", "unrelated"])
    def test_anyone_else_is_refused_before_the_handler(self, message_type,
                                                       sender_class):
        row, spec = TABLE[message_type], CELLS[message_type]
        c = context(spec.stage)
        if row.rule is any_attested:
            c = copy.deepcopy(c)  # the message is applied
        sender = getattr(c, spec.wrong) if sender_class == "wrong_side" \
            else c.dave
        envelope = secure_to(sender, c.bob).seal_message(spec.craft(c, sender))
        if row.rule is any_attested:
            # Nobody to refuse: what the message touches is keyed by the
            # sender itself, so the handler is handed that key.
            calls = spy_on(c.bob.program, row)
            others = {key: set(outpoints) for key, outpoints
                      in c.bob.program.approved_deposits.items()
                      if key != sender.enclave.public_key.to_bytes()}
            with pytest.raises(row.error):  # NOWHERE is on no chain
                c.bob.program.handle_envelope(sender.name, envelope)
            assert calls == [sender.enclave.public_key]
            assert all(c.bob.program.approved_deposits[key] == outpoints
                       for key, outpoints in others.items())
            return
        calls = spy_on(c.bob.program, row)
        try:
            assert_rejected(c.bob, sender.name, envelope, row.error)
        finally:
            delattr(c.bob.program, row.handler)
        assert calls == []


def test_the_table_has_sixteen_rows_in_three_rules():
    assert len(TABLE) == 16 and set(TABLE) == set(CELLS)
    rules = {row.rule for row in TABLE.values()}
    assert rules == {channel_peer, path_neighbour, any_attested}
    for message_type, row in TABLE.items():
        assert issubclass(row.error, ProtocolError)
        assert (row.stage is not None) == (row.rule is path_neighbour), \
            message_type.__name__


class TestPathEnds:
    def test_no_neighbour_on_that_side_is_a_protocol_reject(self):
        """p1 has no in-channel and p_n no out-channel: a message that
        could only come from there is refused, not a ``KeyError``."""
        c = context(MultihopStage.SIGN)
        assert_rejected(
            c.alice, "bob", secure_to(c.bob, c.alice).seal_message(
                MultihopPreUpdate(path=c.path, tau=None)), MultihopError)
        assert_rejected(
            c.carol, "bob", secure_to(c.bob, c.carol).seal_message(
                MultihopUpdate(path=c.path)), MultihopError)

    def test_abort_for_an_unknown_payment_is_a_silent_no_op(self):
        c = context(None)
        before = fingerprint(c.bob)
        c.bob.program.handle_envelope(
            "dave", secure_to(c.dave, c.bob).seal_message(
                MultihopAbort(path=c.path, reason="never started")))
        assert fingerprint(c.bob) == before


# ---------------------------------------------------------------------------
# A message type cannot exist without a row
# ---------------------------------------------------------------------------

def test_a_message_dataclass_without_a_row_fails_at_import():
    assert multihop._undeclared == []
    # In a child process: re-importing the module here would fork every
    # class the rest of the suite holds.
    script = (
        "import dataclasses, importlib\n"
        "import repro.core.messages as m, repro.core.multihop as multihop\n"
        "Extra = dataclasses.make_dataclass('Extra', ['channel_id'])\n"
        "Extra.__module__ = m.__name__\n"
        "m.Extra = Extra\n"
        "importlib.reload(multihop)\n")
    result = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    assert result.returncode != 0
    assert "no _HANDLERS row for Extra" in result.stderr
