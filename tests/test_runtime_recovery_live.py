"""Live crash recovery: SIGKILL a daemon mid-burst, restart it from
sealed state, and settle exact balances.

The tentpole e2e for the fault engine's live half.  Two daemons run with
``--state-dir`` so every protocol state change is sealed to disk bound
to a persisted monotonic counter (paper §6.2).  Bob is SIGKILLed while a
burst of ``pay`` calls is in flight, respawned on the same ports and state
directory, restores his sealed snapshot, replays his chain, and
re-handshakes (fresh boot nonce ⇒ alice's enclave reinstalls the secure
channel).  Settlement then comes from alice's enclave — the survivor's
ledger is authoritative for what she signed away — and both replicas
must confirm the same exact on-chain split.
"""

import threading
import time

import pytest

from repro.faults import FaultSchedule, LiveFaultInjector
from repro.runtime.control import ControlError
from repro.runtime.launch import HOST, launch_network

pytestmark = [pytest.mark.live, pytest.mark.chaos]

GENESIS = 200_000
DEPOSIT = 60_000


def _poll(predicate, timeout=20.0, interval=0.05, what="condition"):
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:
            pytest.fail(f"timed out waiting for {what}")
        time.sleep(interval)


def test_sigkill_mid_bench_restart_settles_exact_balances(tmp_path):
    handles, ports = launch_network({"alice": GENESIS, "bob": GENESIS},
                                    state_dir=str(tmp_path))
    try:
        alice = handles["alice"].control
        bob = handles["bob"].control

        channel_id = alice.call("open-channel", peer="bob")["channel_id"]
        deposit = alice.call("deposit", value=DEPOSIT)
        alice.call("approve-associate", peer="bob", channel_id=channel_id,
                   txid=deposit["txid"])

        # Tranche 1 completes cleanly (echo barrier): sealed on both ends.
        for _ in range(50):
            alice.call("pay", channel_id=channel_id, amount=7)
        alice.call("echo", peer="bob")

        # Tranche 2 runs while we pull bob's power cord.  Alice's pay
        # ecalls are local and all succeed; whatever bob had not yet
        # processed dies with his enclave memory.  (A pay that failed
        # would end the burst early and fail the ledger check below.)
        # Bob is receiving, so the kill usually lands while he seals:
        # whatever instruction it hits, his directory must boot.
        def burst():
            for _ in range(600):
                alice.call("pay", channel_id=channel_id, amount=3)

        burst_thread = threading.Thread(target=burst, daemon=True)
        burst_thread.start()
        time.sleep(0.05)

        injector = LiveFaultInjector(handles, FaultSchedule().kill("bob"))
        injector.apply()
        assert handles["bob"].process.poll() is not None
        assert injector.killed == ["bob"]

        # Respawn on the same ports and state directory.
        handles["bob"] = handles["bob"].respawn()
        bob = handles["bob"].control
        stats = bob.call("stats")
        assert stats["restored"] is True
        # The restored replica replayed its chain past genesis (the
        # deposit was mined before the kill).
        assert stats["chain"]["height"] >= 2

        # Bob restored the channel from sealed state, with at least
        # tranche 1 in it (everything echo-barriered pre-kill is sealed).
        snapshot = bob.call("channel", channel_id=channel_id)
        assert snapshot["is_open"]
        assert snapshot["my_balance"] >= 50 * 7

        # Re-handshake: bob's boot nonce changed, so alice's enclave
        # must renew the secure channel rather than resume old counters.
        bob.call("connect", peer="alice", host=HOST,
                 port=ports["alice"][0])

        # Wait for the interrupted burst to finish so alice's ledger is
        # final before we read it.
        burst_thread.join(timeout=30.0)
        assert not burst_thread.is_alive(), "pay burst never finished"

        # Alice was never down: her enclave's ledger is the ground truth
        # for what she signed away (all 50×7 + 600×3 pays ran locally).
        ledger = alice.call("channel", channel_id=channel_id)
        paid = DEPOSIT - ledger["my_balance"]
        assert paid == 50 * 7 + 600 * 3

        settlement = alice.call("settle", channel_id=channel_id)
        assert settlement["txid"] is not None

        expected_alice = GENESIS - paid
        expected_bob = GENESIS + paid
        assert alice.call("balance")["onchain"] == expected_alice

        # Bob's replayed replica converges on the same settlement.
        height = alice.call("stats")["chain"]["height"]

        def converged():
            stats = bob.call("stats")["chain"]
            return stats["height"] >= height and stats["mempool"] == 0

        _poll(converged, what="restored replica to confirm the settlement")
        assert bob.call("balance")["onchain"] == expected_bob
        assert (alice.call("balance")["onchain"]
                + bob.call("balance")["onchain"]) == 2 * GENESIS

        # The recovery metrics made it to the survivor's registry.
        counters = alice.call("metrics")["metrics"]["counters"]
        assert counters.get("runtime.channel_reinstalls", 0) >= 1
    finally:
        for handle in handles.values():
            handle.shutdown()


def test_corrupt_control_yields_structured_error_and_daemon_survives():
    handles, _ = launch_network({"alice": GENESIS, "bob": GENESIS})
    try:
        injector = LiveFaultInjector(
            handles, FaultSchedule().corrupt_control("alice"))
        response = injector.apply_spec(injector.schedule.faults[0])
        # Garbage bytes get a structured refusal, not a dropped socket.
        assert response["ok"] is False
        assert response["code"] == "bad_request"
        # ...and the daemon keeps serving afterwards.
        assert handles["alice"].control.call("ping")["name"] == "alice"
        counters = handles["alice"].control.call(
            "metrics")["metrics"]["counters"]
        assert counters.get("control.errors[bad_request]", 0) >= 1
    finally:
        for handle in handles.values():
            handle.shutdown()


def test_blackhole_and_heal_via_fault_command():
    """The daemon's ``fault`` control command drives the transport-level
    link faults; a black-holed link silently eats frames and a heal
    restores delivery."""
    handles, _ = launch_network({"alice": GENESIS, "bob": GENESIS})
    try:
        alice = handles["alice"].control
        alice.call("fault", action="blackhole", peer="bob")
        stats = alice.call("stats")["transport"]
        assert stats["peers"]["bob"]["blackholed"] is True
        # Echo frames vanish into the black hole: the round trip must
        # time out instead of completing.  The daemon's own echo timeout
        # (10s) fires server-side, so the error arrives as a structured
        # response — a shorter client-side timeout would strand the late
        # reply in the socket buffer and desync the connection.
        with pytest.raises(ControlError) as excinfo:
            alice.call("echo", peer="bob")
        assert excinfo.value.code == "timeout"
        alice.call("fault", action="heal", peer="bob")
        stats = alice.call("stats")["transport"]
        assert stats["peers"]["bob"]["blackholed"] is False
        assert stats["peers"]["bob"]["blackhole_drops"] >= 1
        assert alice.call("echo", peer="bob")["rtt_s"] > 0
        counters = alice.call("metrics")["metrics"]["counters"]
        assert counters.get("faults.injected[blackhole]", 0) == 1
        assert counters.get("faults.injected[heal]", 0) == 1
    finally:
        for handle in handles.values():
            handle.shutdown()
