"""Live stress: a hub serving concurrent bidirectional load from 3 spokes.

The acceptance test for the backpressured payment pipeline: four real
daemon processes, one channel per spoke, closed-loop payment streams
(``perf.harness.drive``, the repo benchmark's generator) driven
concurrently in *both* directions on every channel — with §7.2
client-side batching enabled on the hub, so hub→spoke payments cross as
batches carrying ``batch_count``.

Three properties must survive the concurrency:

* **no loss** — zero protocol-plane frames dropped by the flow-controlled
  transport (the old send path silently dropped on queue overflow);
* **exact accounting** — every logical payment lands in the program
  counters (batched payments via their ``batch_count``), on both ends;
* **conservation** — after settling every channel, on-chain balances are
  exactly genesis ± net flow, and their sum is unchanged.
"""

import time
from collections import Counter
from functools import partial

import pytest

from perf.harness import drive
from repro.runtime.control import ControlClient
from repro.runtime.launch import HOST, launch_network

SPOKES = 3
GENESIS = 1_000_000
DEPOSIT = 200_000
SECONDS = 1.5        # closed-loop window
CONCURRENCY = 2      # connections per direction per channel
AMOUNT = {"hub": 4, "spoke": 2}    # hub→spoke, spoke→hub
OPENING = 1          # one odd hub→spoke payment: every net flow is odd
BATCH_WINDOW_MS = 20


def _poll(predicate, timeout=30.0, interval=0.05, what="condition"):
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:
            pytest.fail(f"timed out waiting for {what}")
        time.sleep(interval)


def transport_drops(handles):
    """Frames the transport dropped, per plane, summed over every
    daemon's peer links (the sum the repo benchmark checks)."""
    drops = Counter(protocol=0, control=0)
    for handle in handles.values():
        peers = handle.control.call("stats")["transport"]["peers"]
        for link in peers.values():
            drops["protocol"] += link["drops_protocol"]
            drops["control"] += link["drops_control"]
    return drops


def fund_spokes(handles):
    """One channel per spoke, ``DEPOSIT`` from each end, then one
    ``OPENING`` hub→spoke payment: driven amounts are even, so no channel
    nets to zero and every settlement goes on-chain."""
    hub = handles["hub"].control
    channels = {}
    for name in sorted(set(handles) - {"hub"}):
        cid = hub.call("open-channel", peer=name)["channel_id"]
        channels[name] = cid
        for owner, peer in ((hub, name), (handles[name].control, "hub")):
            deposit = owner.call("deposit", value=DEPOSIT)
            owner.call("approve-associate", peer=peer, channel_id=cid,
                       txid=deposit["txid"])
        hub.call("pay", channel_id=cid, amount=OPENING)
    return channels


def drive_channels(handles, channels, seconds):
    """Pay over every channel in both directions for ``seconds``, one
    closed loop per connection.  Returns payments per ``(spoke, side)``
    lane, side ``"hub"`` (hub→spoke) or ``"spoke"`` (spoke→hub), each
    channel's net hub→spoke flow, and every payment's latency."""
    lanes = [(name, side) for name in channels for side in AMOUNT] \
        * CONCURRENCY
    clients = [ControlClient(HOST, handles[name if side == "spoke" else
                                           "hub"].control_port)
               for name, side in lanes]
    try:
        tallies = drive([partial(client.call, "pay", amount=AMOUNT[side],
                                 channel_id=channels[name])
                         for (name, side), client in zip(lanes, clients)],
                        seconds)
    finally:
        for client in clients:
            client.close()
    assert [(t.failed, t.aborted) for t in tallies] == \
        [(0, None)] * len(lanes)
    paid, latencies = Counter(), []
    for lane, tally in zip(lanes, tallies):
        assert tally.latencies, lane  # every lane made progress
        paid[lane] += len(tally.latencies)
        latencies += tally.latencies
    net = {name: OPENING + AMOUNT["hub"] * paid[name, "hub"]
           - AMOUNT["spoke"] * paid[name, "spoke"] for name in channels}
    return paid, net, latencies


def await_convergence(handles, channels, net):
    """Both ends of every channel hold their deposit ∓ its net flow."""
    def holds(owner, cid, mine, theirs):
        snapshot = handles[owner].control.call("channel", channel_id=cid)
        return (snapshot["my_balance"], snapshot["remote_balance"]) == \
            (mine, theirs)

    for name, cid in channels.items():
        low, high = DEPOSIT - net[name], DEPOSIT + net[name]
        _poll(lambda: holds("hub", cid, low, high)
              and holds(name, cid, high, low),
              what=f"channel {cid} to converge")


@pytest.mark.live
def test_hub_under_concurrent_bidirectional_load():
    names = ["hub"] + [f"spoke{i}" for i in range(SPOKES)]
    handles, _ = launch_network({name: GENESIS for name in names})
    hub = handles["hub"].control
    try:
        channels = fund_spokes(handles)

        # Batch on the hub: its outgoing payments get merged per window
        # and cross as single protocol payments with batch_count.
        assert hub.call("batch-window",
                        window_ms=BATCH_WINDOW_MS)["enabled"]

        paid, net, _ = drive_channels(handles, channels, SECONDS)
        hub_paid = sum(paid[name, "hub"] for name in channels)

        # Disabling the window flushes whatever the last timer had not
        # fired for, so the ledgers can fully converge.
        hub.call("batch-window", window_ms=0)
        await_convergence(handles, channels, net)

        # Batching accounted for every logical payment: each hub-driven
        # payment passed through the batcher, and batch_count expanded
        # back to per-payment program counters on both ends.
        stats = hub.call("stats")
        assert stats["batching"]["payments_batched"] == hub_paid
        assert stats["batching"]["pending"] == 0
        assert 1 <= stats["batching"]["batches_flushed"] <= hub_paid
        assert stats["payments"]["sent"] == hub_paid + SPOKES
        assert stats["payments"]["received"] == \
            sum(paid[name, "spoke"] for name in channels)
        for name in channels:
            payments = handles[name].control.call("stats")["payments"]
            assert payments["sent"] == paid[name, "spoke"], name
            assert payments["received"] == paid[name, "hub"] + 1, name

        # The flow-controlled transport lost nothing on either plane.
        drops = transport_drops(handles)
        assert drops == {"protocol": 0, "control": 0}, drops

        for cid in channels.values():
            settlement = hub.call("settle", channel_id=cid)
            assert settlement["txid"] is not None  # net ≠ 0 → on-chain

        balances = {name: handles[name].control.call("balance")["onchain"]
                    for name in names}
    finally:
        for handle in handles.values():
            handle.shutdown()

    assert balances["hub"] == GENESIS - sum(net.values())
    for name in names[1:]:
        assert balances[name] == GENESIS + net[name]
    assert sum(balances.values()) == len(names) * GENESIS
