"""Live stress: a hub serving concurrent bidirectional load from 3 spokes.

The acceptance test for the backpressured payment pipeline and the
``repro.load`` generators: four real daemon processes, one channel per
spoke, closed-loop payment streams driven concurrently in *both*
directions on every channel — with §7.2 client-side batching enabled on
the hub, so hub→spoke payments cross as batches carrying
``batch_count``.

Three properties must survive the concurrency:

* **no loss** — zero protocol-plane frames dropped by the flow-controlled
  transport (the old send path silently dropped on queue overflow);
* **exact accounting** — every logical payment lands in the program
  counters (batched payments via their ``batch_count``), on both ends;
* **conservation** — after settling every channel, on-chain balances are
  exactly genesis ± net flow, and their sum is unchanged.
"""

import asyncio
import time

import pytest

from repro import obs
from repro.load import LoadTarget, run_closed_loop, transport_drops
from repro.obs import MetricsRegistry
from repro.runtime.daemon import NodeDaemon
from repro.runtime.launch import HOST, launch_network

SPOKES = 3
GENESIS = 200_000
DEPOSIT = 30_000
PAYMENTS = 40        # per direction per channel
CONCURRENCY = 2      # closed-loop users per stream
HUB_TO_SPOKE, SPOKE_TO_HUB = 2, 1
BATCH_WINDOW_MS = 20

NET = PAYMENTS * (HUB_TO_SPOKE - SPOKE_TO_HUB)  # hub→spoke per channel


def _poll(predicate, timeout=30.0, interval=0.05, what="condition"):
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:
            pytest.fail(f"timed out waiting for {what}")
        time.sleep(interval)


@pytest.mark.live
def test_hub_under_concurrent_bidirectional_load():
    names = ["hub"] + [f"spoke{i}" for i in range(SPOKES)]
    handles, _ = launch_network({name: GENESIS for name in names})
    hub = handles["hub"].control
    spokes = {name: handles[name].control for name in names[1:]}
    try:
        channels = {}
        for name, spoke in spokes.items():
            cid = hub.call("open-channel", peer=name)["channel_id"]
            channels[name] = cid
            deposit = hub.call("deposit", value=DEPOSIT)
            hub.call("approve-associate", peer=name, channel_id=cid,
                     txid=deposit["txid"])
            deposit = spoke.call("deposit", value=DEPOSIT)
            spoke.call("approve-associate", peer="hub", channel_id=cid,
                       txid=deposit["txid"])

        # Batch on the hub: its outgoing payments get merged per window
        # and cross as single protocol payments with batch_count.
        assert hub.call("batch-window",
                        window_ms=BATCH_WINDOW_MS)["enabled"]

        targets = []
        for name, cid in channels.items():
            targets.append(LoadTarget(
                HOST, handles["hub"].control_port, cid,
                amount=HUB_TO_SPOKE, label=f"hub->{name}"))
            targets.append(LoadTarget(
                HOST, handles[name].control_port, cid,
                amount=SPOKE_TO_HUB, label=f"{name}->hub"))
        load = asyncio.run(run_closed_loop(targets, PAYMENTS,
                                           concurrency=CONCURRENCY))
        assert load.errors == 0
        assert load.completed == 2 * SPOKES * PAYMENTS
        for row in load.targets:
            assert row["completed"] == PAYMENTS, row["target"]
            assert row["latency"]["count"] == PAYMENTS

        # Disabling the window flushes whatever the last timer had not
        # fired for, so the ledgers can fully converge.
        hub.call("batch-window", window_ms=0)

        def converged(client, cid, mine, theirs):
            snapshot = client.call("channel", channel_id=cid)
            return (snapshot["my_balance"] == mine
                    and snapshot["remote_balance"] == theirs)

        for name, cid in channels.items():
            _poll(lambda: converged(hub, cid, DEPOSIT - NET, DEPOSIT + NET)
                  and converged(spokes[name], cid,
                                DEPOSIT + NET, DEPOSIT - NET),
                  what=f"channel {cid} to converge")

        # Batching accounted for every logical payment: each hub-driven
        # payment passed through the batcher, and batch_count expanded
        # back to per-payment program counters on both ends.
        stats = hub.call("stats")
        assert stats["batching"]["payments_batched"] == SPOKES * PAYMENTS
        assert stats["batching"]["pending"] == 0
        assert 1 <= stats["batching"]["batches_flushed"] <= SPOKES * PAYMENTS
        assert stats["payments"]["sent"] == SPOKES * PAYMENTS
        assert stats["payments"]["received"] == SPOKES * PAYMENTS
        for name, spoke in spokes.items():
            payments = spoke.call("stats")["payments"]
            assert payments["sent"] == PAYMENTS, name
            assert payments["received"] == PAYMENTS, name

        # The flow-controlled transport lost nothing on either plane.
        drops = asyncio.run(transport_drops(
            [(HOST, handle.control_port) for handle in handles.values()]))
        assert drops["protocol"] == 0, drops
        assert drops["control"] == 0, drops

        for cid in channels.values():
            settlement = hub.call("settle", channel_id=cid)
            assert settlement["txid"] is not None  # asymmetric → on-chain

        balances = {name: handles[name].control.call("balance")["onchain"]
                    for name in names}
    finally:
        for handle in handles.values():
            handle.shutdown()

    assert balances["hub"] == GENESIS - SPOKES * NET
    for name in names[1:]:
        assert balances[name] == GENESIS + NET
    assert sum(balances.values()) == len(names) * GENESIS


@pytest.mark.live
def test_rejected_payments_are_counted_by_code():
    """A payment the daemon refuses is an error under its stable code and
    the stream goes on; only a transport failure aborts a target."""
    async def scenario():
        daemon = NodeDaemon("alice")
        _, control_port = await daemon.start()
        try:
            return await run_closed_loop(
                [LoadTarget(HOST, control_port, "no-such-channel")], 3,
                concurrency=1, registry=MetricsRegistry())
        finally:
            await daemon.stop()

    with obs.collecting():  # NodeDaemon installs its own registry globally
        report = asyncio.run(scenario())
    assert (report.completed, report.errors) == (0, 3)
    assert report.rejected == {"channel_state": 3}
    assert "aborted" not in report.targets[0]
