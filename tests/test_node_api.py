"""The public node API and the simulated (discrete-event) transport mode."""

import pytest

from repro.core.node import TeechainNetwork
from repro.errors import MultihopError, ReproError, RoutingError
from repro.network.topology import fig3_topology


class TestNetworkFactory:
    def test_duplicate_node_name_rejected(self, network):
        network.create_node("n1")
        with pytest.raises(ReproError):
            network.create_node("n1")

    def test_unknown_transport_rejected(self):
        with pytest.raises(ReproError):
            TeechainNetwork(transport="carrier-pigeon")

    def test_simulated_transport_needs_topology(self):
        with pytest.raises(ReproError):
            TeechainNetwork(transport="simulated")

    def test_channel_ids_unique(self, funded_pair):
        network, alice, bob = funded_pair
        first = alice.open_channel(bob)
        second = alice.open_channel(bob)
        assert first != second

    def test_funding_registers_initial_balance(self, network):
        node = network.create_node("n", funds=42_000)
        assert node.onchain_balance() == 42_000
        assert network.tracker.perceived_balance("n") == 42_000

    def test_incremental_funding_accumulates(self, network):
        node = network.create_node("n", funds=10_000)
        node.fund(5_000)
        assert node.onchain_balance() == 15_000
        assert network.tracker.perceived_balance("n") == 15_000


class TestPayTo:
    """``pay_to`` — the in-memory twin of ``pay-multihop dest=``: the
    route comes from a planner over the network's current balances."""

    def test_neighbour_is_paid_over_the_channel(self, three_hop_path):
        network, alice, bob, carol, ab, bc = three_hop_path
        result = alice.pay_to(bob, 5_000)
        assert result == {"route": ["alice", "bob"], "payment_id": None,
                          "hops": 1}
        assert alice.channel_balance(ab) == (35_000, 5_000)
        assert bob.channel_balance(bc) == (40_000, 0)

    def test_two_hops_go_through_pay_multihop(self, three_hop_path):
        network, alice, bob, carol, ab, bc = three_hop_path
        result = alice.pay_to("carol", 7_000)
        assert result["route"] == ["alice", "bob", "carol"]
        assert result["hops"] == 2
        assert alice.multihop_completed(result["payment_id"])
        assert alice.channel_balance(ab) == (33_000, 7_000)
        assert bob.channel_balance(ab) == (7_000, 33_000)
        assert bob.channel_balance(bc) == (33_000, 7_000)
        assert carol.channel_balance(bc) == (7_000, 33_000)

    def test_unfunded_route_raises(self, three_hop_path):
        network, alice, bob, carol, ab, bc = three_hop_path
        with pytest.raises(RoutingError):
            carol.pay_to(alice, 1)  # carol holds nothing on bob–carol
        with pytest.raises(RoutingError):
            alice.pay_to(carol, 40_001)
        assert alice.channel_balance(ab) == (40_000, 0)
        assert carol.channel_balance(bc) == (0, 40_000)


class TestTracker:
    def test_payment_moves_perceived_balance(self, open_channel):
        network, alice, bob, channel = open_channel
        alice.pay(channel, 3_000)
        assert network.tracker.perceived_balance("alice") == 97_000
        assert network.tracker.perceived_balance("bob") == 103_000

    def test_multihop_resolution(self, three_hop_path):
        network, alice, bob, carol, ab, bc = three_hop_path
        alice.pay_multihop([alice, bob, carol], 4_000)
        assert network.tracker.perceived_balance("alice") == 96_000
        assert network.tracker.perceived_balance("carol") == 104_000
        assert network.tracker.perceived_balance("bob") == 100_000
        assert network.tracker.inflight("alice") == 0

    def test_unresolved_multihop_counts_as_inflight(self, three_hop_path):
        network, alice, bob, carol, ab, bc = three_hop_path
        from repro.network import NetworkAdversary
        adversary = NetworkAdversary(network.transport)
        adversary.partition("bob", "carol")
        alice.pay_multihop([alice, bob, carol], 4_000)
        assert network.tracker.inflight("alice") == 4_000
        assert network.tracker.perceived_balance("alice") == 100_000

    def test_failed_multihop_resolves_inflight(self, three_hop_path):
        network, alice, bob, carol, ab, bc = three_hop_path
        with pytest.raises(MultihopError):
            alice.pay_multihop([alice, bob, carol], 99_000_000)
        assert network.tracker.inflight("alice") == 0


class TestSimulatedTransport:
    """The same protocol over the discrete-event network: operations
    complete only as the clock advances past real link latencies."""

    @pytest.fixture
    def des_network(self):
        network = TeechainNetwork(transport="simulated",
                                  topology=fig3_topology())
        alice = network.create_node("US", funds=100_000)
        bob = network.create_node("UK1", funds=100_000)
        return network, alice, bob

    def test_channel_opens_after_one_way_latency(self, des_network):
        network, alice, bob = des_network
        channel = alice.open_channel(bob)
        assert not alice.program.channels[channel].is_open
        network.run()
        assert alice.program.channels[channel].is_open
        assert bob.program.channels[channel].is_open
        # The acknowledgement crossed the 90 ms-RTT atlantic link once.
        assert network.scheduler.now >= 0.045

    def test_payment_round_trip_on_simulated_clock(self, des_network):
        network, alice, bob = des_network
        channel = alice.open_channel(bob)
        network.run()
        record = alice.create_deposit(50_000)
        # Over the DES transport each exchange needs the clock to advance.
        alice.approve_deposit(bob, record)
        network.run()
        alice.associate_deposit(channel, record)
        network.run()
        start = network.scheduler.now
        alice.pay(channel, 1_000)
        network.run()
        assert bob.channel_balance(channel)[0] == 1_000
        assert network.scheduler.now - start >= 0.045

    def test_full_lifecycle_over_des(self, des_network):
        network, alice, bob = des_network
        channel = alice.open_channel(bob)
        network.run()
        record = alice.create_deposit(50_000)
        alice.approve_deposit(bob, record)
        network.run()
        alice.associate_deposit(channel, record)
        network.run()
        alice.pay(channel, 10_000)
        network.run()
        transaction = alice.settle(channel)
        network.run()
        network.mine()
        assert network.chain.contains(transaction.txid)
        alice.assert_balance_correct()
        bob.assert_balance_correct()


class TestReprs:
    def test_node_repr(self, network):
        node = network.create_node("n")
        assert "n" in repr(node)
