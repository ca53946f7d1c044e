"""Live end-to-end: two daemon processes doing the full Teechain flow.

This is the acceptance test for the runtime subsystem: two ``python -m
repro.runtime serve`` subprocesses on localhost attest over TCP, open a
payment channel, fund it from both sides, exchange 100 payments
bidirectionally, and settle to their (replicated simulated) blockchain —
with balance correctness asserted at every stage.  Only the wire codec
crosses the sockets; nothing pickled, nothing shared in memory.
"""

import os
import subprocess
import sys
import time

import pytest

from repro.runtime.launch import launch_network

GENESIS = 200_000
DEPOSIT = 60_000
ROUNDS = 50          # 50 × (one 7-unit pay + one 3-unit pay) = 100 payments
A_TO_B, B_TO_A = 7, 3

# Net flow: 50×7 alice→bob minus 50×3 bob→alice = 200 units to bob.
ALICE_FINAL_CHANNEL = DEPOSIT - ROUNDS * A_TO_B + ROUNDS * B_TO_A
BOB_FINAL_CHANNEL = DEPOSIT + ROUNDS * A_TO_B - ROUNDS * B_TO_A


def _poll(predicate, timeout=15.0, interval=0.05, what="condition"):
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:
            pytest.fail(f"timed out waiting for {what}")
        time.sleep(interval)


@pytest.mark.live
def test_two_daemons_full_payment_lifecycle():
    handles, _ = launch_network({"alice": GENESIS, "bob": GENESIS})
    alice = handles["alice"].control
    bob = handles["bob"].control
    try:
        # launch_network already ran the attestation handshake (connect).
        channel_id = alice.call("open-channel", peer="bob")["channel_id"]

        # Fund from both sides; each deposit is broadcast, mined, gossiped.
        deposit_a = alice.call("deposit", value=DEPOSIT)
        result = alice.call("approve-associate", peer="bob",
                            channel_id=channel_id, txid=deposit_a["txid"])
        assert result["my_balance"] == DEPOSIT
        deposit_b = bob.call("deposit", value=DEPOSIT)
        result = bob.call("approve-associate", peer="alice",
                          channel_id=channel_id, txid=deposit_b["txid"])
        assert result["my_balance"] == DEPOSIT

        # Both sides must see both deposits before paying.
        def funded(client):
            snapshot = client.call("channel", channel_id=channel_id)
            return (snapshot["my_balance"] == DEPOSIT
                    and snapshot["remote_balance"] == DEPOSIT)

        _poll(lambda: funded(alice) and funded(bob),
              what="both deposits visible on both daemons")

        # 100 payments, interleaved in both directions.
        for _ in range(ROUNDS):
            alice.call("pay", channel_id=channel_id, amount=A_TO_B)
            bob.call("pay", channel_id=channel_id, amount=B_TO_A)

        # In-flight payments race the snapshot; poll until both replicas of
        # the channel state agree on the final ledger.
        def settled_at(client, mine, theirs):
            snapshot = client.call("channel", channel_id=channel_id)
            return (snapshot["my_balance"] == mine
                    and snapshot["remote_balance"] == theirs)

        _poll(lambda: settled_at(alice, ALICE_FINAL_CHANNEL, BOB_FINAL_CHANNEL)
              and settled_at(bob, BOB_FINAL_CHANNEL, ALICE_FINAL_CHANNEL),
              what="channel balances to converge after 100 payments")

        # Cooperative settlement: alice broadcasts, mines, gossips.
        settlement = alice.call("settle", channel_id=channel_id)
        assert settlement["txid"] is not None
        assert not settlement["offchain"]

        # Both chain replicas confirmed the same settlement transaction.
        height_a = alice.call("stats")["chain"]["height"]

        def caught_up():
            stats = bob.call("stats")["chain"]
            return stats["height"] == height_a and stats["mempool"] == 0

        _poll(caught_up, what="bob's chain replica to include the settlement")

        # On-chain balance correctness, asserted on each daemon's own
        # replica: genesis − deposit + settlement payout.
        balance_a = alice.call("balance")["onchain"]
        balance_b = bob.call("balance")["onchain"]
        assert balance_a == GENESIS - DEPOSIT + ALICE_FINAL_CHANNEL
        assert balance_b == GENESIS - DEPOSIT + BOB_FINAL_CHANNEL
        assert balance_a + balance_b == 2 * GENESIS  # conservation

        # No frames were dropped or links bounced along the way.
        for client in (alice, bob):
            transport = client.call("stats")["transport"]
            for peer_stats in transport["peers"].values():
                assert peer_stats["drops"] == 0
                assert peer_stats["reconnects"] == 0
    finally:
        for handle in handles.values():
            handle.shutdown()


_ECHO_FAULTS = """
import asyncio, socket, sys
if sys.argv[1] == "pinned":
    from repro.runtime.cli import _pin_malloc_thresholds
    _pin_malloc_thresholds()

def minor_faults():
    with open("/proc/self/stat") as handle:
        return int(handle.read().rsplit(")", 1)[1].split()[7])

async def echo(reader, writer):
    while line := await reader.readline():
        writer.write(line)
        await writer.drain()

def client(port):
    stream = socket.create_connection(("127.0.0.1", port)).makefile("rwb")
    def round_trips(count):
        for _ in range(count):
            stream.write(b'{"cmd": "ping"}\\n')
            stream.flush()
            stream.readline()
    round_trips(100)
    before = minor_faults()
    round_trips(1000)
    return minor_faults() - before

async def main():
    server = await asyncio.start_server(echo, "127.0.0.1", 0)
    port = server.sockets[0].getsockname()[1]
    print(await asyncio.get_running_loop().run_in_executor(
        None, client, port))

asyncio.run(main())
"""


@pytest.mark.live
@pytest.mark.skipif(not os.path.exists("/proc/self/stat"),
                    reason="needs Linux /proc fault counters")
def test_serve_pins_malloc_thresholds_so_reads_take_no_page_faults():
    """asyncio reads every socket through a fresh 256 KiB buffer.  Left
    to its dynamic thresholds glibc serves that block by mmap/munmap (or
    from a heap top it trims again on free): two minor faults per read,
    a control round trip ~2x and a fast-path payment ~1.3x slower — or
    not, depending on what the process happened to free earlier, which
    is how a change that made channel set-up *lighter* slowed every
    daemon down.  ``serve`` pins the thresholds; a bare asyncio line
    server shows the effect without a daemon's history in the way."""
    def faults(mode):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        done = subprocess.run([sys.executable, "-c", _ECHO_FAULTS, mode],
                              env=env, capture_output=True, text=True,
                              timeout=60, check=True)
        return int(done.stdout)

    assert faults("pinned") < 50
    if faults("dynamic") < 1000:
        pytest.skip("this C library does not mmap asyncio's read buffer")
