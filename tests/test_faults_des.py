"""Fault-schedule semantics and DES-injector determinism.

The contract under test: a :class:`FaultSchedule` is an immutable value,
and replaying one on the discrete-event simulator is
bit-deterministic — same seed, same schedule, same workload ⇒ an
identical event trace.  That property is what makes a chaos-test failure
reproducible from its seed alone.
"""

import pytest

from repro.core.node import TeechainNetwork
from repro.faults import (
    DES_KINDS,
    LIVE_KINDS,
    DesFaultInjector,
    FaultKind,
    FaultSchedule,
    FaultSpec,
    run_crash_cell,
)
from repro.network.topology import fig3_topology


# ---------------------------------------------------------------------------
# Schedule-as-value semantics
# ---------------------------------------------------------------------------

class TestFaultSchedule:
    def test_builders_compose_immutably(self):
        base = FaultSchedule(seed=3)
        derived = base.crash("alice", point="mh_lock").partition("a", "b")
        assert len(base.faults) == 0
        assert len(derived.faults) == 2
        assert derived.seed == 3

    def test_mode_filters_split_kinds(self):
        schedule = (FaultSchedule()
                    .crash("a")
                    .loss("a", "b", 0.5)
                    .kill("a")
                    .sever("a", "b"))
        des = {spec.kind for spec in schedule.des_faults()}
        live = {spec.kind for spec in schedule.live_faults()}
        assert des == {FaultKind.CRASH, FaultKind.LOSS}
        assert live == {FaultKind.CRASH, FaultKind.KILL, FaultKind.SEVER}
        # CRASH is the one kind both modes deliver.
        assert FaultKind.CRASH in DES_KINDS & LIVE_KINDS

    def test_loss_probability_validated(self):
        with pytest.raises(ValueError):
            FaultSchedule().loss("a", "b", 1.5)

    def test_reorder_window_validated(self):
        with pytest.raises(ValueError):
            FaultSchedule().reorder("a", "b", window=1)

    def test_link_target_parsing(self):
        spec = FaultSpec(FaultKind.PARTITION, "alice->bob")
        assert spec.link() == ("alice", "bob")
        with pytest.raises(ValueError):
            FaultSpec(FaultKind.PARTITION, "alice").link()

    def test_point_matching_is_prefix_safe(self):
        bare = FaultSpec(FaultKind.CRASH, "a", point="mh_lock")
        assert bare.matches_point("mh_lock:mh-1")
        assert bare.matches_point("mh_lock")
        # The bare name must never bleed into a longer point name.
        assert not bare.matches_point("mh_lock_last:mh-1")
        pinned = FaultSpec(FaultKind.CRASH, "a", point="mh_lock:mh-7")
        assert pinned.matches_point("mh_lock:mh-7")
        assert not pinned.matches_point("mh_lock:mh-8")


# ---------------------------------------------------------------------------
# DES replay determinism
# ---------------------------------------------------------------------------

def _payment_trace(schedule_seed: int, payments: int = 12):
    """A two-node DES workload under delay+duplicate+reorder+loss chaos;
    returns the injector's event trace."""
    network = TeechainNetwork(transport="simulated",
                              topology=fig3_topology())
    alice = network.create_node("US", funds=100_000)
    bob = network.create_node("UK1", funds=100_000)
    # Clean setup, then chaos: the schedule arms after the channel is
    # funded, so every run enters the chaotic phase from the same state.
    channel = alice.open_channel(bob)
    network.run()
    record = alice.create_deposit(50_000)
    alice.approve_deposit(bob, record)
    network.run()
    alice.associate_deposit(channel, record)
    network.run()

    schedule = (FaultSchedule(seed=schedule_seed)
                .loss("US", "UK1", 0.3)
                .delay("UK1", "US", 0.020)
                .duplicate("UK1", "US")
                .reorder("US", "UK1", window=3))
    injector = DesFaultInjector(network, schedule)
    injector.arm()
    for _ in range(payments):
        alice.pay(channel, 100)
        network.run()
    trace = list(injector.trace)
    injector.detach()
    return trace


def test_same_seed_same_trace():
    first = _payment_trace(schedule_seed=7)
    second = _payment_trace(schedule_seed=7)
    assert first, "chaos workload produced no traffic"
    assert first == second


def test_different_seed_different_trace():
    # 12 payments × 30% loss × window-3 shuffles: two seeds agreeing on
    # every draw would be astronomically unlikely.
    assert _payment_trace(schedule_seed=1) != _payment_trace(schedule_seed=2)


def test_trace_records_suppressed_sends_too():
    """The trace tap sits before the adversary, so even a fully
    partitioned link still shows the send attempts."""
    network = TeechainNetwork(transport="simulated",
                              topology=fig3_topology())
    alice = network.create_node("US", funds=100_000)
    network.create_node("UK1", funds=100_000)
    injector = DesFaultInjector(
        network,
        FaultSchedule().partition("US", "UK1", bidirectional=True))
    injector.arm()
    channel = alice.open_channel(network.nodes["UK1"])
    network.run()
    assert any(sender == "US" and destination == "UK1"
               for _, sender, destination, _ in injector.trace)
    # ...but the handshake never completed across the dead link.
    assert not alice.program.channels[channel].is_open
    injector.detach()


def test_stall_chain_eclipses_writer():
    network = TeechainNetwork()
    alice = network.create_node("alice", funds=10_000)
    network.create_node("bob", funds=10_000)
    injector = DesFaultInjector(
        network, FaultSchedule().stall_chain("alice"))
    injector.arm()
    assert "*" in alice.adversary.censored
    DesFaultInjector(network, FaultSchedule().resume_chain("alice")).arm()
    assert "*" not in alice.adversary.censored


def test_timed_fault_fires_on_simulated_clock():
    network = TeechainNetwork(transport="simulated",
                              topology=fig3_topology())
    network.create_node("US", funds=10_000)
    network.create_node("UK1", funds=10_000)
    injector = DesFaultInjector(
        network, FaultSchedule().partition("US", "UK1", at=5.0))
    injector.arm()
    assert injector.injected == []
    network.run(until=10.0)
    assert ("partition", "US->UK1", "") in injector.injected


def test_crash_cell_smoke():
    """One representative matrix cell runs in the default suite; the full
    18-cell sweep lives behind the chaos marker."""
    result = run_crash_cell("hop", "update")
    assert result.crash_fired
    assert result.ok, result.violations
