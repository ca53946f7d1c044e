"""§6.2 stable storage."""

import tracemalloc

import pytest

from repro.core.multihop import TeechainEnclave
from repro.core.persistence import PersistentStore
from repro.errors import SealingError
from repro.tee import Enclave


@pytest.fixture
def persistent_pair(funded_pair):
    network, alice, bob = funded_pair
    store = PersistentStore(alice.enclave, network.scheduler)
    store.attach()
    channel = alice.open_channel(bob)
    deposit = alice.create_deposit(40_000)
    alice.approve_and_associate(bob, deposit, channel)
    return network, alice, bob, channel, store


class TestPersistence:
    def test_every_mutation_seals(self, persistent_pair):
        network, alice, bob, channel, store = persistent_pair
        seals = store.seals_written
        alice.pay(channel, 100)
        assert store.seals_written == seals + 1

    def test_restore_recovers_state(self, persistent_pair):
        network, alice, bob, channel, store = persistent_pair
        alice.pay(channel, 7_000)
        fresh = Enclave(TeechainEnclave(), name="alice-restored",
                        seed=b"enclave:alice")
        store.restore(fresh)
        assert fresh.program.channels[channel].my_balance == 33_000
        assert fresh.program.payments_sent == alice.program.payments_sent

    def test_restored_state_can_settle(self, persistent_pair):
        network, alice, bob, channel, store = persistent_pair
        alice.pay(channel, 7_000)
        fresh = Enclave(TeechainEnclave(), name="alice-restored2",
                        seed=b"enclave:alice")
        store.restore(fresh)
        transaction = fresh.ecall("unilateral_settlement", channel)
        network.chain.submit(transaction)
        network.mine()
        assert network.chain.balance(alice.address) >= 93_000 - 60_000

    def test_rollback_blob_refused(self, persistent_pair):
        network, alice, bob, channel, store = persistent_pair
        alice.pay(channel, 1_000)
        old = store.latest_blob
        alice.pay(channel, 1_000)
        fresh = Enclave(TeechainEnclave(), seed=b"enclave:alice")
        with pytest.raises(SealingError):
            store.restore(fresh, blob=old)

    def test_sealing_keeps_no_old_blobs(self, persistent_pair):
        """A --state-dir daemon seals on every payment for as long as it
        runs, so a payment must leave nothing behind: the store keeps the
        latest blob only (each superseded one used to stay, ~1.8 KB a
        payment) and the in-memory transport keeps no delivered frames."""
        network, alice, bob, channel, store = persistent_pair
        for _ in range(20):  # warm the signing/verification caches
            alice.pay(channel, 1)
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            for _ in range(1_000):
                alice.pay(channel, 1)
            after, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert store.seals_written >= 1_020
        assert after - before < 200_000

    def test_counter_throttle_serialises(self, persistent_pair):
        network, alice, bob, channel, store = persistent_pair
        start_completion = store.last_seal_completion
        for _ in range(5):
            alice.pay(channel, 10)
        # Five seals queued behind each other at 100 ms each.
        assert store.last_seal_completion == pytest.approx(
            start_completion + 0.5)

    def test_restore_without_state_rejected(self, network):
        node = network.create_node("lonely", funds=0)
        store = PersistentStore(node.enclave, network.scheduler)
        fresh = Enclave(TeechainEnclave(), seed=b"f")
        with pytest.raises(SealingError):
            store.restore(fresh)
