"""The undo journal (``repro.core.journal``) against the mechanism it
replaced.

Before the journal, a guarded ecall deep-copied every rollback attribute
before running and put the copies back when replication failed, and each
push shipped the whole state.  That snapshot survives here as the test
oracle.  A corpus of guarded ecalls — open, associate, dissociate, pay,
every Alg. 2 stage, eject, settle, release,
and the hub's requests, batches and three withdraw routes — runs on nodes
with real committees, and every guarded ecall is first replayed on a fork
of its program once per push it makes, with that push failing.  Each fork
must come back equal to the oracle with its outbox untouched; every real
push must leave each member holding exactly the primary's full
replication state, and that state must come back unchanged from the
stable-storage round trip (codec frame, restore into a fresh program).
A missed journal site, a wrong delta or a layout row restore cannot read
back fails here.

The flat-cost test counts operations, not time: a replicated ``pay``
journals the same entries and ships the same bytes whether the node has
one channel or a thousand, and never deep-copies anything.  The
field-level tests check what a push carries: the changed fields of a
channel the members hold, and whole objects where a patch cannot say it.
"""

import copy
import pickle
from types import SimpleNamespace

import pytest

from repro import obs
from repro.core.channel_base import (
    _REPLICATED_SECTIONS,
    ChannelProtocol,
    replication_state,
)
from repro.core.messages import PathDescriptor, SignedMessage
from repro.core.journal import DELETED
from repro.core.multihop import MultihopSession, TeechainEnclave
from repro.core.node import TeechainNetwork
from repro.core.persistence import restore_program_state
from repro.core.replication import ReplicationChain
from repro.crypto import KeyPair
from repro.crypto.keys import PrivateKey
from repro.errors import ReplicationError
from repro.hub.messages import AccountDeposit, AccountPay, AccountWithdraw
from repro.runtime import codec

CLIENT = KeyPair.from_seed(b"journal-client")
PARTNER = KeyPair.from_seed(b"journal-partner")


# ---------------------------------------------------------------------------
# The oracle: the ecall guard's deep-copy snapshot the journal replaced
# ---------------------------------------------------------------------------

_SNAPSHOT_ATTRS = (
    "channels", "deposits", "deposit_keys", "approved_deposits",
    "_pay_seq_out", "_pay_seq_in", "settlements", "pending_candidate_txids",
    "retired_sessions", "settlement_feerate", "payments_sent",
    "payments_received", "multihop_sessions",
)


def canon(value):
    """A comparable form: private keys by encoding."""
    if isinstance(value, dict):
        return {key: canon(item) for key, item in value.items()}
    if isinstance(value, list):
        return [canon(item) for item in value]
    if isinstance(value, PrivateKey):
        return ("private-key", value.to_bytes())
    return value


def snapshot(program):
    """The oracle; the ledger is compared through its replicated form."""
    state = {name: copy.deepcopy(getattr(program, name))
             for name in _SNAPSHOT_ATTRS}
    state["hub"] = replication_state(program)["hub"]
    return canon(state)


# ---------------------------------------------------------------------------
# Replaying a guarded ecall on a fork, one failing push at a time
# ---------------------------------------------------------------------------

class Injected(ReplicationError):
    """The replication failure this test injects."""


def replay_failing(audit, program, method, args, kwargs):
    """Fail push 1, 2, … of the ecall on a fresh fork of the whole
    network each time, until the ecall makes no further push; each
    failure must restore the oracle.  Pushes before the failing one reach
    the fork's own committee, so what they enable (members co-signing an
    announced candidate) works in the fork as it does for real."""
    name = program.enclave.name
    for failing in range(1, 50):
        network, twin_args, twin_kwargs = copy.deepcopy(
            (audit.network, args, kwargs))
        node = network.nodes[name]
        twin = node.program
        before, outbox = snapshot(twin), list(twin._outbox)
        pushes = []

        def hook(description, failing=failing, pushes=pushes, node=node):
            pushes.append(description)
            if len(pushes) == failing:
                raise Injected(f"push {failing}: {description}")
            audit.push(node.replication)

        twin.replication_hook = hook
        try:
            audit.guard(twin, method, getattr(twin, method), twin_args,
                        twin_kwargs)
        except Injected:
            assert snapshot(twin) == before, (method, pushes[-1])
            assert twin._outbox == outbox, (method, pushes[-1])
            assert twin.journal.depth == 0
            audit.kinds.add(kind(pushes[-1]))
            continue
        except Exception:  # noqa: BLE001 — the ecall refuses either way
            return
        return
    raise AssertionError(f"{method} pushed 50 times")


def kind(description):
    parts = description.split(":")
    return ":".join(parts[:2]) if parts[0] == "account_withdraw" else parts[0]


@pytest.fixture
def audited(monkeypatch):
    """Once ``network`` is set, every guarded ecall of its nodes is
    replayed with failing pushes first, and every real push is checked
    against the primary's full state."""
    audit = SimpleNamespace(network=None, kinds=set(), methods=set(),
                            pushes=0, deltas=0,
                            guard=ChannelProtocol.ecall_guard,
                            push=ReplicationChain.push)

    def checked_guard(self, method, handler, args, kwargs):
        if (audit.network is not None and self.replication_hook is not None
                and method not in self.READ_ONLY_ECALLS):
            audit.methods.add(method)
            replay_failing(audit, self, method, args, kwargs)
        return audit.guard(self, method, handler, args, kwargs)

    def checked_push(self):
        full = self.primary.program.journal.pending() is None
        audit.push(self)
        audit.pushes += 1
        audit.deltas += not full
        expected = canon(replication_state(self.primary.program))
        for member in self.members:
            assert canon(member.program.state) == expected
        assert sealed_and_restored(self.primary.program) == expected

    monkeypatch.setattr(ChannelProtocol, "ecall_guard", checked_guard)
    monkeypatch.setattr(ReplicationChain, "push", checked_push)
    return audit


def sealed_and_restored(program):
    """``program``'s state after the stable-storage round trip: codec
    encode, decode, restore into a fresh enclave program."""
    fresh = TeechainEnclave()
    restore_program_state(
        fresh, codec.decode(codec.encode(replication_state(program))))
    return canon(replication_state(fresh))


def test_every_journalled_section_has_a_layout_row():
    """What the journal rolls back, replication ships and a seal keeps
    — one layout.  Settlements stay with the enclave that built them;
    announced candidates travel in each payment's candidate set."""
    unreplicated = {"settlements", "pending_candidate_txids"}
    assert (set(TeechainEnclave._ROLLBACK_ATTRS) - unreplicated
            == set(_REPLICATED_SECTIONS))


def signed(body, keypair=CLIENT):
    return SignedMessage.create(body, keypair.private)


def committee_path():
    """alice — bob — carol, every node with a 2-of-3 committee."""
    network = TeechainNetwork()
    c = SimpleNamespace(network=network)
    for name in ("alice", "bob", "carol"):
        node = network.create_node(name, funds=400_000)
        node.attach_committee(backups=2, threshold=2)
        setattr(c, name, node)
    c.ab = c.alice.open_channel(c.bob)
    c.bc = c.bob.open_channel(c.carol)
    c.deposit_ab = c.alice.create_deposit(60_000)
    c.alice.approve_and_associate(c.bob, c.deposit_ab, c.ab)
    c.bob.approve_and_associate(c.carol, c.bob.create_deposit(60_000), c.bc)
    return c


def hold_after(network, source, destination, passed, held):
    """Withhold every ``source`` → ``destination`` frame after the first
    ``passed``."""
    seen = []

    def tap(message):
        if (message.sender, message.destination) != (source, destination):
            return True
        seen.append(message)
        if len(seen) > passed:
            held.append(message)
            return False
        return True

    network.transport.add_tap(tap)


# Every state-changing point the corpus must drive (push descriptions).
REQUIRED_KINDS = {
    "new_pay_channel", "channel_open", "new_addr", "new_deposit",
    "deposit_approved", "associate", "remote_associate",
    "remote_dissociate", "dissociated", "release_deposit",
    "pay", "paid",
    "mh_candidates", "mh_lock", "mh_lock_last", "mh_sign", "mh_sign_head",
    "mh_preupdate", "mh_update", "mh_update_last", "mh_postupdate",
    "mh_postupdate_head", "mh_release", "mh_release_last", "mh_terminated",
    "settled", "account_deposit", "account_pay",
    "account_withdraw:account", "account_withdraw:channel",
    "account_withdraw:chain",
}


def test_rollback_matches_the_oracle_and_members_match_the_primary(audited):
    c = committee_path()
    audited.network = c.network

    # Deposits in and out of a channel.
    extra = c.alice.create_deposit(5_000)
    c.alice.approve_and_associate(c.bob, extra, c.ab)
    c.alice.dissociate_deposit(c.ab, extra)
    c.alice.release_deposit(extra)

    # Bare pays.
    for amount in (700, 50, 50):
        c.alice.pay(c.ab, amount)

    # Alg. 2 end to end, then one payment stopped at bob and ejected.
    c.alice.pay_multihop([c.alice, c.bob, c.carol], 1_000)
    held = []
    hold_after(c.network, "carol", "bob", 0, held)
    path = PathDescriptor(payment_id="stuck", amount=500,
                          hops=("alice", "bob", "carol"))
    c.alice.pay_multihop([c.alice, c.bob, c.carol], path.amount,
                         payment_id=path.payment_id)
    assert held, "carol's sign never reached the tap"
    c.bob.eject(path.payment_id)

    # The account hub, on a fresh channel alice still funds.
    hub = c.alice.open_channel(c.bob)
    c.alice.approve_and_associate(c.bob, c.alice.create_deposit(50_000), hub)
    c.alice._ecall("hub_handle_request",
                          signed(AccountDeposit(CLIENT.public, 10_000, 1)))
    c.alice._ecall(
        "hub_handle_request",
        signed(AccountDeposit(PARTNER.public, 5_000, 1), PARTNER))
    c.alice._ecall("hub_handle_batch", [
        signed(AccountPay(CLIENT.public, PARTNER.public, 300, 2)),
        signed(AccountPay(CLIENT.public, PARTNER.public, 200, 3)),
    ])
    for nonce, route, destination in (
            (4, "account", PARTNER.public.to_bytes().hex()),
            (5, "channel", hub),
            (6, "chain", "payout-address")):
        c.alice._ecall("hub_handle_request", signed(
            AccountWithdraw(CLIENT.public, 100, nonce, route, destination)))

    # Unilateral settlement, co-signed by the committee.
    assert c.bob.settle(hub) is not None

    missing = REQUIRED_KINDS - audited.kinds
    assert not missing, f"corpus never failed a push at {sorted(missing)}"
    assert "hub_handle_batch" in audited.methods
    assert audited.deltas > 0.9 * audited.pushes


# ---------------------------------------------------------------------------
# Cost is flat in the number of channels
# ---------------------------------------------------------------------------

def pay_cost(extra_channels, monkeypatch):
    """Journal entries and delta bytes of one replicated pay, with
    ``extra_channels`` more open channels on both nodes."""
    network = TeechainNetwork()
    alice = network.create_node("alice", funds=100_000)
    bob = network.create_node("bob", funds=100_000)
    for node in (alice, bob):
        node.attach_committee(backups=2, threshold=2)
    channel = alice.open_channel(bob)
    alice.approve_and_associate(bob, alice.create_deposit(50_000), channel)
    for _ in range(extra_channels):
        alice.open_channel(bob)
    alice.pay(channel, 1)  # the first pay after set-up

    blobs = []
    push_members = ReplicationChain._push_members

    def measured(self, blob):
        blobs.append(len(blob))
        return push_members(self, blob)

    def forbidden(*args, **kwargs):
        raise AssertionError("copy.deepcopy during a guarded ecall")

    recorded = [node.program.journal.recorded for node in (alice, bob)]
    with monkeypatch.context() as patch:
        patch.setattr(ReplicationChain, "_push_members", measured)
        patch.setattr(copy, "deepcopy", forbidden)
        with obs.collecting() as (registry, _):
            alice.pay(channel, 1)
    counters = registry.snapshot()["counters"]
    assert counters["replication.chain_updates"] == 2  # payer and payee
    assert "replication.full_pushes" not in counters
    entries = [node.program.journal.recorded - before
               for node, before in zip((alice, bob), recorded)]
    return entries, blobs


def test_a_replicated_pay_costs_the_same_with_a_thousand_channels(
        monkeypatch):
    entries_1, bytes_1 = pay_cost(0, monkeypatch)
    entries_1000, bytes_1000 = pay_cost(999, monkeypatch)
    assert entries_1 == entries_1000
    assert bytes_1 == bytes_1000


def test_a_full_push_is_counted_apart_from_deltas():
    network = TeechainNetwork()
    alice = network.create_node("alice", funds=100_000)
    bob = network.create_node("bob", funds=100_000)
    with obs.collecting() as (registry, _):
        alice.attach_committee(backups=2, threshold=2)
        channel = alice.open_channel(bob)
        alice.approve_and_associate(bob, alice.create_deposit(50_000),
                                    channel)
        alice.pay(channel, 1_000)
    counters = registry.snapshot()["counters"]
    assert counters["replication.full_pushes"] == 1  # the first push
    assert counters["replication.chain_updates"] > 1


# ---------------------------------------------------------------------------
# Member version rules for deltas
# ---------------------------------------------------------------------------

@pytest.fixture
def chain():
    network = TeechainNetwork()
    alice = network.create_node("alice", funds=100_000)
    bob = network.create_node("bob", funds=100_000)
    alice.attach_committee(backups=1, threshold=1)
    channel = alice.open_channel(bob)
    return SimpleNamespace(alice=alice, channel=channel,
                           replication=alice.replication,
                           member=alice.replication.members[0])


def next_delta(c):
    """The blob alice's next push would ship: a delta that patches one
    field of the channel the member holds."""
    from repro.core.channel_base import replication_delta

    program = c.alice.program
    program.journal.begin()
    program._channel(c.channel).remote_balance += 1
    program.payments_sent += 1
    delta = replication_delta(program)
    program.journal.undo()
    program.journal.end()
    assert delta.sections == {}
    assert delta.patches == {("channels",): {c.channel: {
        "remote_balance": program.channels[c.channel].remote_balance + 1}}}
    return pickle.dumps(delta)


def member_fingerprint(member):
    return (member.program.version, member.program.updates_applied,
            pickle.dumps(member.program.state))


class TestMemberDeltaRules:
    def test_a_skipped_delta_is_refused(self, chain):
        before = member_fingerprint(chain.member)
        version = chain.member.program.version
        with pytest.raises(ReplicationError, match="does not follow"):
            chain.member.ecall("state_update", chain.replication.chain_id,
                               version + 2, next_delta(chain))
        assert member_fingerprint(chain.member) == before

    def test_a_replayed_delta_is_refused(self, chain):
        before = member_fingerprint(chain.member)
        version = chain.member.program.version
        with pytest.raises(ReplicationError, match="does not follow"):
            chain.member.ecall("state_update", chain.replication.chain_id,
                               version, next_delta(chain))
        assert member_fingerprint(chain.member) == before

    def test_a_delta_before_any_full_state_is_refused(self, chain):
        from repro.core.replication import CommitteeMemberProgram
        from repro.tee.enclave import Enclave

        fresh = Enclave(CommitteeMemberProgram(), name="fresh")
        fresh.ecall("assign_to_chain", chain.replication.chain_id)
        with pytest.raises(ReplicationError, match="before any full state"):
            fresh.ecall("state_update", chain.replication.chain_id, 1,
                        next_delta(chain))
        assert fresh.program.state is None
        assert fresh.program.version == 0

    def test_the_next_delta_applies(self, chain):
        version = chain.member.program.version
        chain.member.ecall("state_update", chain.replication.chain_id,
                           version + 1, next_delta(chain))
        assert chain.member.program.version == version + 1



def test_after_a_failed_push_the_next_one_is_full_and_realigns_members():
    """One member applied version v, the other did not: only a full state
    (strictly-greater rule) can bring both back to the primary's."""
    network = TeechainNetwork()
    alice = network.create_node("alice", funds=100_000)
    bob = network.create_node("bob", funds=100_000)
    alice.attach_committee(backups=2, threshold=2)
    channel = alice.open_channel(bob)
    alice.approve_and_associate(bob, alice.create_deposit(50_000), channel)
    first, second = (member.program for member in alice.replication.members)
    apply = second.state_update

    def lost(*args):
        second.state_update = apply
        raise ReplicationError("update lost on the way to the tail")

    second.state_update = lost
    with pytest.raises(ReplicationError):
        alice.pay(channel, 1_000)
    assert first.version == second.version + 1
    assert alice.program.journal.pending() is None
    assert alice.channel_balance(channel) == (50_000, 0)
    with obs.collecting() as (registry, _):
        alice.pay(channel, 1_000)
    assert registry.snapshot()["counters"]["replication.full_pushes"] == 1
    expected = canon(replication_state(alice.program))
    assert canon(first.state) == canon(second.state) == expected


# ---------------------------------------------------------------------------
# Field-level deltas: what the members hold is patched, not replaced
# ---------------------------------------------------------------------------

def pushed_deltas(monkeypatch, action):
    """The updates ``action`` pushes, unpickled."""
    blobs = []
    push_members = ReplicationChain._push_members

    def measured(self, blob):
        blobs.append(blob)
        return push_members(self, blob)

    with monkeypatch.context() as patch:
        patch.setattr(ReplicationChain, "_push_members", measured)
        action()
    return blobs, [pickle.loads(blob) for blob in blobs]


def objects_in(value):
    """Every non-builtin object ``value`` holds, however deep."""
    if isinstance(value, dict):
        return [found for pair in value.items() for item in pair
                for found in objects_in(item)]
    if isinstance(value, (list, tuple, set, frozenset)):
        return [found for item in value for found in objects_in(item)]
    if isinstance(value, (int, float, str, bytes, type(None))):
        return []
    return [value]


@pytest.fixture
def committee_pair():
    network = TeechainNetwork()
    alice = network.create_node("alice", funds=100_000)
    bob = network.create_node("bob", funds=100_000)
    for node in (alice, bob):
        node.attach_committee(backups=2, threshold=2)
    channel = alice.open_channel(bob)
    alice.approve_and_associate(bob, alice.create_deposit(50_000), channel)
    alice.pay(channel, 1)
    return SimpleNamespace(alice=alice, bob=bob, channel=channel)


def assert_members_match(node):
    expected = canon(replication_state(node.program))
    for member in node.replication.members:
        assert canon(member.program.state) == expected


def test_a_committee_pay_pushes_patches_of_builtins(committee_pair, monkeypatch):
    c = committee_pair
    blobs, deltas = pushed_deltas(monkeypatch, lambda: c.alice.pay(c.channel, 7))
    assert len(blobs) == 2  # payer and payee
    for blob, delta in zip(blobs, deltas):
        assert len(blob) <= 256
        assert not objects_in(delta.sections)
        assert not objects_in(delta.patches)
        assert set(delta.patches[("channels",)][c.channel]) == {
            "my_balance", "remote_balance"}
    assert_members_match(c.alice)
    assert_members_match(c.bob)


def test_an_entry_replaced_under_its_key_ships_whole_and_converges(
        committee_pair, monkeypatch):
    from dataclasses import replace

    c = committee_pair
    program = c.alice.program
    channel = program.channels[c.channel]

    def swap():
        program.journal.begin()
        program._touch_channel(c.channel)
        program.channels[c.channel] = replace(
            channel, my_balance=channel.my_balance - 5,
            remote_balance=channel.remote_balance + 5)
        c.alice.replication.push()
        program.journal.end()

    _, (delta,) = pushed_deltas(monkeypatch, swap)
    assert delta.sections[("channels",)][c.channel] is not None
    assert ("channels",) not in delta.patches
    assert_members_match(c.alice)
    # The new object is what the members hold now: patched from here on.
    _, deltas = pushed_deltas(monkeypatch, lambda: c.alice.pay(c.channel, 3))
    assert c.channel in deltas[0].patches[("channels",)]
    assert_members_match(c.alice)


def test_a_multihop_session_ships_whole(monkeypatch):
    c = committee_path()
    _, deltas = pushed_deltas(monkeypatch, lambda: c.alice.pay_multihop(
        [c.alice, c.bob, c.carol], 1_000))
    sessions = [session for delta in deltas
                for session in delta.sections.get(
                    ("multihop_sessions",), {}).values()
                if session is not DELETED]
    assert sessions and all(isinstance(session, MultihopSession)
                            for session in sessions)
    assert not any(("multihop_sessions",) in delta.patches
                   for delta in deltas)
    for node in (c.alice, c.bob, c.carol):
        assert_members_match(node)


def test_after_a_failed_push_a_full_push_then_patches_again(
        committee_pair, monkeypatch):
    c = committee_pair
    second = c.alice.replication.members[1].program
    apply = second.state_update

    def lost(*args):
        second.state_update = apply
        raise ReplicationError("update lost on the way to the tail")

    second.state_update = lost
    with pytest.raises(ReplicationError):
        c.alice.pay(c.channel, 5)
    _, (full, _) = pushed_deltas(monkeypatch, lambda: c.alice.pay(c.channel, 5))
    assert isinstance(full, dict)  # the full state, to realign members
    _, (delta, _) = pushed_deltas(monkeypatch, lambda: c.alice.pay(c.channel, 5))
    assert c.channel in delta.patches[("channels",)]
    assert_members_match(c.alice)


def test_a_patch_for_an_entry_the_member_lacks_is_refused(committee_pair):
    from repro.core.channel_base import StateDelta

    c = committee_pair
    member = c.alice.replication.members[0]
    version = member.program.version
    stray = StateDelta({}, {("channels",): {"no-such": {"my_balance": 1}}},
                       {})
    with pytest.raises(ReplicationError, match="does not hold"):
        member.ecall("state_update", c.alice.replication.chain_id,
                     version + 1, pickle.dumps(stray))
