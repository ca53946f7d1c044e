"""Property-based balance correctness (paper Appendix A).

Hypothesis drives random interleavings of channel operations — deposits,
associations, payments in both directions, dissociations, settlements —
and asserts the paper's two central invariants after every run:

* **Balance correctness** (Definition A.1): every party can unilaterally
  reclaim at least its perceived balance on the blockchain.
* **Proposition 2**: a channel's capacity never exceeds the value of its
  associated deposits.
* **Conservation**: no operation sequence mints or destroys on-chain
  value.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.blockchain.chain import Blockchain
from repro.core.correctness import BalanceTracker
from repro.core.node import TeechainNetwork
from repro.core.state import MultihopStage
from repro.errors import ProtocolError, ReproError


def test_a_violation_is_an_assertion_naming_received_and_paid():
    """A violation must surface as ``AssertionError``: the fault matrix
    records exactly that exception, and any other one escapes it."""
    tracker = BalanceTracker(Blockchain())
    tracker.register("alice", 100)
    tracker.assert_balance_correctness("alice", 100)
    with pytest.raises(AssertionError, match=r"received 0, paid 0"):
        tracker.assert_balance_correctness("alice", 50)


class Operations:
    """Vocabulary of random operations over a two-party network."""

    def __init__(self):
        self.network = TeechainNetwork()
        self.alice = self.network.create_node("alice", funds=100_000)
        self.bob = self.network.create_node("bob", funds=100_000)
        self.channel = self.alice.open_channel(self.bob)

    def nodes(self):
        return self.alice, self.bob

    def apply(self, op):
        kind = op[0]
        try:
            if kind == "deposit":
                _, who, value = op
                node, peer = self._pair(who)
                record = node.create_deposit(value)
                node.approve_and_associate(peer, record, self.channel)
            elif kind == "pay":
                _, who, amount = op
                node, _ = self._pair(who)
                node.pay(self.channel, amount)
            elif kind == "dissociate":
                _, who = op
                node, _ = self._pair(who)
                for record in list(node.program.deposits.values()):
                    if (record.channel_id == self.channel
                            and not record.is_free):
                        node.dissociate_deposit(self.channel, record)
                        break
            elif kind == "release":
                _, who = op
                node, _ = self._pair(who)
                for record in list(node.program.deposits.values()):
                    if record.is_free:
                        node.release_deposit(record)
                        break
        except (ProtocolError, ReproError):
            # Guards firing on invalid random operations is the protocol
            # working as intended; invariants must still hold afterwards.
            pass

    def _pair(self, who):
        if who == "alice":
            return self.alice, self.bob
        return self.bob, self.alice

    def check_proposition_2(self):
        for node in self.nodes():
            for channel in node.program.channels.values():
                if channel.terminated or not channel.is_open:
                    continue
                deposit_value = sum(
                    node.program.deposits[outpoint].value
                    for outpoint in channel.all_deposits()
                    if outpoint in node.program.deposits
                )
                assert channel.capacity <= deposit_value

    def check_conservation(self):
        chain = self.network.chain
        mempool_value = 0  # settled after mining below
        assert chain.utxos.total_value() == chain.total_minted()

    def check_balance_correctness(self):
        for node in self.nodes():
            node.assert_balance_correct()


operation = st.one_of(
    st.tuples(st.just("deposit"),
              st.sampled_from(["alice", "bob"]),
              st.integers(min_value=1_000, max_value=30_000)),
    st.tuples(st.just("pay"),
              st.sampled_from(["alice", "bob"]),
              st.integers(min_value=1, max_value=20_000)),
    st.tuples(st.just("dissociate"), st.sampled_from(["alice", "bob"])),
    st.tuples(st.just("release"), st.sampled_from(["alice", "bob"])),
)


@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(operation, min_size=1, max_size=12))
def test_property_balance_correctness_random_operations(ops):
    world = Operations()
    for op in ops:
        world.apply(op)
        world.check_proposition_2()
    world.network.mine()
    world.check_conservation()
    world.check_balance_correctness()


@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(st.integers(min_value=1, max_value=5_000), min_size=1,
                max_size=20),
       st.integers(min_value=0, max_value=19))
def test_property_multihop_eject_any_time(amounts, eject_after):
    """Run a stream of multi-hop payments and eject at a random point;
    everyone still reclaims their perceived balance."""
    network = TeechainNetwork()
    alice = network.create_node("alice", funds=100_000)
    bob = network.create_node("bob", funds=100_000)
    carol = network.create_node("carol", funds=100_000)
    ab = alice.open_channel(bob)
    bc = bob.open_channel(carol)
    deposit_ab = alice.create_deposit(50_000)
    alice.approve_and_associate(bob, deposit_ab, ab)
    deposit_bc = bob.create_deposit(50_000)
    bob.approve_and_associate(carol, deposit_bc, bc)

    for index, amount in enumerate(amounts):
        try:
            payment = alice.pay_multihop([alice, bob, carol], amount)
        except ProtocolError:
            continue
        if index == eject_after and payment in alice.program.multihop_sessions:
            alice.eject(payment)
            break
    network.mine()
    for node in (alice, bob, carol):
        node.assert_balance_correct()


@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(st.tuples(st.sampled_from(["alice", "bob"]),
                          st.integers(min_value=1, max_value=10_000)),
                min_size=0, max_size=15))
def test_property_unilateral_settle_after_any_payment_history(payments):
    """After any payment history, a *unilateral* settlement (peer offline)
    pays each side exactly its channel balance."""
    network = TeechainNetwork()
    alice = network.create_node("alice", funds=100_000)
    bob = network.create_node("bob", funds=100_000)
    channel = alice.open_channel(bob)
    record = alice.create_deposit(40_000)
    alice.approve_and_associate(bob, record, channel)
    record_b = bob.create_deposit(40_000)
    bob.approve_and_associate(alice, record_b, channel)

    for who, amount in payments:
        node = alice if who == "alice" else bob
        try:
            node.pay(channel, amount)
        except ProtocolError:
            pass

    expected_alice, expected_bob = alice.channel_balance(channel)
    network.transport.unregister("bob")
    transaction = alice._ecall("unilateral_settlement", channel)
    alice.client.broadcast(transaction)
    network.mine()
    assert network.chain.balance(alice.address) == 60_000 + expected_alice
    assert network.chain.balance(bob.address) == 60_000 + expected_bob
