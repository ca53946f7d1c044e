"""Routing (§7.4 policies), temporary channels (§5.2), and client-side
batching (§7.2)."""

import pytest

from repro.core.batching import PaymentBatcher
from repro.core.temporary import TemporaryChannelManager
from repro.errors import MultihopError, PaymentError, RoutingError
from repro.network.topology import Overlay, hub_and_spoke_overlay
from repro.routing import RoutePlanner, path_length


class TestRouting:
    def test_shortest_path_direct(self):
        planner = RoutePlanner.from_overlay(hub_and_spoke_overlay())
        assert planner.find_route("Nhub1", "Nhub2") == ["Nhub1", "Nhub2"]

    def test_leaf_to_leaf_goes_through_tiers(self):
        planner = RoutePlanner.from_overlay(hub_and_spoke_overlay())
        path = planner.find_route("Nleaf1", "Nleaf18")
        assert path[0] == "Nleaf1" and path[-1] == "Nleaf18"
        assert path_length(path) >= 4

    def test_paths_by_length_ordered(self):
        planner = RoutePlanner.from_overlay(hub_and_spoke_overlay())
        paths = list(planner.iter_routes("Nhub1", "Nhub2", limit=3))
        lengths = [path_length(path) for path in paths]
        assert lengths == sorted(lengths)
        assert lengths[0] == 1

    def test_limit_respected(self):
        planner = RoutePlanner.from_overlay(hub_and_spoke_overlay())
        assert len(list(planner.iter_routes("Nhub1", "Nhub2", limit=2))) == 2

    def test_no_path_raises(self):
        overlay = Overlay(nodes=("a", "b", "island"),
                          channels=(("a", "b"),), tier_of={})
        with pytest.raises(RoutingError):
            RoutePlanner.from_overlay(overlay).find_route("a", "island")

    def test_unknown_node_raises(self):
        planner = RoutePlanner.from_overlay(hub_and_spoke_overlay())
        with pytest.raises(RoutingError):
            planner.find_route("Nhub1", "mars")

    def test_disconnected_pair_raises_routing_error_during_iteration(self):
        # iter_routes is a generator: networkx only discovers there is
        # no path once iteration starts, so the guard must wrap the
        # loop, not just the shortest_simple_paths() call.
        overlay = Overlay(nodes=("a", "b", "island"),
                          channels=(("a", "b"),), tier_of={})
        paths = RoutePlanner.from_overlay(overlay).iter_routes("a", "island")
        with pytest.raises(RoutingError):
            next(paths)

    def test_unknown_node_raises_routing_error_during_iteration(self):
        planner = RoutePlanner.from_overlay(hub_and_spoke_overlay())
        with pytest.raises(RoutingError):
            list(planner.iter_routes("Nhub1", "mars"))


class TestTemporaryChannels:
    @pytest.fixture
    def contended(self, funded_pair):
        network, alice, bob = funded_pair
        primary = alice.open_channel(bob)
        record = alice.create_deposit(50_000)
        alice.approve_and_associate(bob, record, primary)
        return network, alice, bob, primary, TemporaryChannelManager(alice)

    def test_create_temporary(self, contended):
        network, alice, bob, primary, manager = contended
        temporary = manager.create(bob, 10_000)
        assert temporary != primary
        assert len(manager.temporaries["bob"]) == 1
        assert alice.program.channels[temporary].is_open

    def test_parallel_payment_while_primary_locked(self, network):
        """The §5.2 scenario: the primary channel is locked by a multi-hop
        payment, yet a payment still flows over a temporary channel."""
        alice = network.create_node("alice", funds=200_000)
        bob = network.create_node("bob", funds=200_000)
        carol = network.create_node("carol", funds=200_000)
        primary = alice.open_channel(bob)
        bc = bob.open_channel(carol)
        record = alice.create_deposit(40_000)
        alice.approve_and_associate(bob, record, primary)
        record_bc = bob.create_deposit(40_000)
        bob.approve_and_associate(carol, record_bc, bc)
        manager = TemporaryChannelManager(alice)
        temporary = manager.create(bob, 10_000)

        from repro.network import NetworkAdversary
        adversary = NetworkAdversary(network.transport)
        adversary.drop_after("bob", "carol", 0)
        # The multi-hop locks the *primary* channel (lexicographically
        # first among idle channels)... it locks one of the two; the other
        # stays usable.
        payment = alice.pay_multihop([alice, bob, carol], 5_000)
        locked = [cid for cid in (primary, temporary)
                  if alice.program.channels[cid].stage.value != "idle"]
        free = [cid for cid in (primary, temporary) if cid not in locked]
        assert len(locked) == 1 and len(free) == 1
        alice.pay(free[0], 1_000)  # parallel payment succeeds

    def test_merge_restores_primary_and_frees_deposit(self, contended):
        network, alice, bob, primary, manager = contended
        record = bob.create_deposit(20_000)
        bob.approve_and_associate(alice, record, primary)
        temporary = manager.create(bob, 10_000)
        alice.pay(temporary, 3_000)
        manager.merge(bob, temporary, primary)
        assert not alice.program.channels[temporary].is_open
        assert alice.channel_balance(primary) == (47_000, 23_000)
        free = [r for r in alice.program.deposits.values() if r.is_free]
        assert any(r.value == 10_000 for r in free)
        alice.assert_balance_correct()
        bob.assert_balance_correct()

    def test_merge_reuses_deposit_without_blockchain(self, contended):
        network, alice, bob, primary, manager = contended
        record = bob.create_deposit(20_000)
        bob.approve_and_associate(alice, record, primary)
        temporary = manager.create(bob, 10_000)
        manager.merge(bob, temporary, primary)
        height = network.chain.height
        manager.create(bob, 10_000)
        assert network.chain.height == height

    def test_merge_with_reverse_drift(self, contended):
        network, alice, bob, primary, manager = contended
        record = bob.create_deposit(20_000)
        bob.approve_and_associate(alice, record, primary)
        temporary = manager.create(bob, 10_000)
        bob_record = bob.create_deposit(5_000)
        bob.approve_and_associate(alice, bob_record, temporary)
        bob.pay(temporary, 2_000)  # alice *gains* on the temporary channel
        manager.merge(bob, temporary, primary)
        assert not alice.program.channels[temporary].is_open
        alice.assert_balance_correct()
        bob.assert_balance_correct()


class TestBatching:
    def test_flush_aggregates_per_channel(self, open_channel):
        network, alice, bob, channel = open_channel
        batcher = PaymentBatcher(alice)
        for _ in range(20):
            batcher.submit(channel, 50)
        assert batcher.pending_count(channel) == 20
        flushed = batcher.flush()
        assert flushed == 20
        assert bob.program.payments_received == 20
        assert bob.channel_balance(channel) == (31_000, 49_000)

    def test_single_protocol_message_per_batch(self, open_channel):
        network, alice, bob, channel = open_channel
        sent_before = network.transport.messages_sent
        batcher = PaymentBatcher(alice)
        for _ in range(50):
            batcher.submit(channel, 10)
        batcher.flush()
        assert network.transport.messages_sent == sent_before + 1

    def test_scheduler_driven_flush(self, open_channel):
        network, alice, bob, channel = open_channel
        batcher = PaymentBatcher(alice, window=0.1,
                                 scheduler=network.scheduler)
        batcher.submit(channel, 100)
        batcher.submit(channel, 200)
        assert batcher.pending_count(channel) == 2
        network.scheduler.run()
        assert batcher.pending_count(channel) == 0
        assert alice.channel_balance(channel)[1] == 30_300

    def test_explicit_flush_cancels_window_timer(self, open_channel):
        """An explicit flush() must cancel the armed window timer; a
        stale timer would flush the *next* batch before its own 100 ms
        window elapses (§7.2)."""
        network, alice, bob, channel = open_channel
        scheduler = network.scheduler
        batcher = PaymentBatcher(alice, window=0.1, scheduler=scheduler)
        batcher.submit(channel, 100)  # timer armed for t = 0.1

        def flush_then_resubmit():
            batcher.flush()           # explicit flush at t = 0.04
            batcher.submit(channel, 200)  # new window ends at t = 0.14

        scheduler.call_at(0.04, flush_then_resubmit)
        scheduler.run(until=0.12)
        # With the stale timer the second batch flushes at t = 0.1.
        assert batcher.pending_count(channel) == 1
        scheduler.run()
        assert batcher.pending_count(channel) == 0
        assert batcher.batches_flushed == 2

    def test_empty_flush_noop(self, open_channel):
        network, alice, bob, channel = open_channel
        assert PaymentBatcher(alice).flush() == 0

    def test_invalid_amount_rejected(self, open_channel):
        network, alice, bob, channel = open_channel
        with pytest.raises(PaymentError):
            PaymentBatcher(alice).submit(channel, 0)

    def test_batch_counts_tracked(self, open_channel):
        network, alice, bob, channel = open_channel
        batcher = PaymentBatcher(alice)
        for _ in range(7):
            batcher.submit(channel, 10)
        batcher.flush()
        assert batcher.payments_batched == 7
        assert batcher.batches_flushed == 1
        assert alice.program.payments_sent == 7

    def test_flush_failure_restores_unflushed_batches(self, open_channel):
        """A failing channel must not destroy the other channels' queued
        batches (flush used to swap _pending out and drop everything on
        the floor when one pay raised).  The failed batch itself stays
        queued too — top up the channel and the re-armed window timer
        delivers every payment."""
        network, alice, bob, channel = open_channel
        other = alice.open_channel(bob)
        record = alice.create_deposit(10_000)
        alice.approve_and_associate(bob, record, other)
        # Minted up front: create_deposit mines, and mining drains the
        # scheduler — which would fire the re-armed window timer early.
        top_up = alice.create_deposit(20_000)
        batcher = PaymentBatcher(alice, window=0.1,
                                 scheduler=network.scheduler)
        batcher.submit(channel, 60_000)  # exceeds the 50k deposit
        batcher.submit(channel, 1_000)
        batcher.submit(other, 500)
        with pytest.raises(PaymentError):
            batcher.flush()
        # Everything restored: the failed channel's batch and the one
        # flush never reached.
        assert batcher.pending_count(channel) == 2
        assert batcher.pending_count(other) == 1
        assert batcher.batches_flushed == 0
        assert alice.program.payments_sent == 0
        # The window timer was re-armed; after funding the shortfall the
        # scheduled flush delivers all three payments.
        alice.approve_and_associate(bob, top_up, channel)
        network.scheduler.run()
        assert batcher.pending_payments() == 0
        assert batcher.batches_flushed == 2
        assert alice.program.payments_sent == 3
        assert bob.program.payments_received == 3
        alice.assert_balance_correct()
        bob.assert_balance_correct()
