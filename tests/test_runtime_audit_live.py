"""``audit-snapshot`` atomicity against live daemons.

The audit plane's conservation argument (DESIGN.md §14) leans on one
property: a snapshot is taken inside the ecall boundary in a single
event-loop slice, so it can never observe a payment half-applied.  These
tests attack exactly that — a thread hammers ``pay`` while the main
thread snapshots as fast as it can, and *every* snapshot must show the
channel total and the fleet sum intact.  The same is then demanded of a
:class:`~repro.runtime.workers.ShardedDaemon` aggregate, where the
merged snapshot spans worker processes.

The operator's view of the same plane, ``python -m repro.obs fleet``,
is driven once end to end against two daemons as a subprocess.
"""

import asyncio
import json
import threading

import pytest

from repro.obs.fleet import HEALTH_FIELDS
from repro.runtime.control import ControlClient
from repro.runtime.launch import HOST, boot, launch_network
from repro.runtime.workers import ShardedDaemon
from tests.conftest import run_module

GENESIS = 200_000
DEPOSIT = 60_000
PAYS = 400


def _hammer(client, channel_id, errors, amount=3, pays=PAYS):
    try:
        for _ in range(pays):
            client.call("pay", channel_id=channel_id, amount=amount)
    except Exception as exc:  # noqa: BLE001 — surfaced by the test body
        errors.append(exc)


@pytest.mark.live
def test_audit_snapshot_atomic_under_concurrent_pays():
    handles, _ = launch_network({"alice": GENESIS, "bob": GENESIS})
    payer = None
    try:
        alice = handles["alice"].control
        bob = handles["bob"].control
        cid = alice.call("open-channel", peer="bob")["channel_id"]
        deposit = alice.call("deposit", value=DEPOSIT)
        alice.call("approve-associate", peer="bob", channel_id=cid,
                   txid=deposit["txid"])
        deposit = bob.call("deposit", value=DEPOSIT)
        bob.call("approve-associate", peer="alice", channel_id=cid,
                 txid=deposit["txid"])

        payer = ControlClient(HOST, handles["alice"].control_port,
                              timeout=60)
        errors = []
        thread = threading.Thread(target=_hammer,
                                  args=(payer, cid, errors))
        thread.start()
        seqs = []
        while thread.is_alive():
            snaps = {"alice": alice.call("audit-snapshot"),
                     "bob": bob.call("audit-snapshot")}
            seqs.append(snaps["alice"]["seq"])
            totals = []
            for name, snapshot in snaps.items():
                channel = snapshot["channels"][cid]
                # The pay ecall debits one leg and credits the other in
                # the same slice: a snapshot must never catch the gap.
                assert channel["total"] == 2 * DEPOSIT, (name, channel)
                assert channel["my_balance"] >= 0
                assert channel["remote_balance"] >= 0
                totals.append(channel["total"])
            observed = sum(
                s["onchain"] + s["free_deposit_value"]
                for s in snaps.values()) + min(totals)
            assert observed == 2 * GENESIS
        thread.join()
        assert errors == []
        # The snapshot stream genuinely overlapped the payment stream,
        # and each snapshot consumed a fresh enclave sequence number.
        assert len(seqs) >= 3
        assert all(b > a for a, b in zip(seqs, seqs[1:]))
    finally:
        if payer is not None:
            payer.close()
        for handle in handles.values():
            handle.shutdown()


def _run_fleet(handles, *options):
    """One ``python -m repro.obs fleet --once`` sweep over ``handles``."""
    targets = [f"{name}={HOST}:{handle.control_port}"
               for name, handle in sorted(handles.items())]
    return run_module("repro.obs", "fleet", *targets, "--once", *options)


def _fleet(handles, *options):
    """A ``--json`` sweep: the exit status and the printed sweep."""
    done = _run_fleet(handles, "--json", *options)
    assert done.stdout, done.stderr
    return done.returncode, json.loads(done.stdout)["sweep"]


@pytest.mark.live
def test_obs_fleet_audits_a_live_pair_from_the_command_line():
    handles, _ = launch_network({"alice": GENESIS, "bob": GENESIS})
    try:
        alice = handles["alice"].control
        cid = alice.call("open-channel", peer="bob")["channel_id"]
        deposit = alice.call("deposit", value=DEPOSIT)
        alice.call("approve-associate", peer="bob", channel_id=cid,
                   txid=deposit["txid"])
        alice.call("pay", channel_id=cid, amount=100)

        status, sweep = _fleet(handles)
        assert status == 0, sweep["alerts"]
        assert sweep["observed_total"] == sweep["expected_total"] \
            == 2 * GENESIS
        for name, point in sweep["daemons"].items():
            assert point["ok"] and point["status"] == "ok", name
            # Every health field the operator view keeps, per daemon.
            assert set(HEALTH_FIELDS) <= set(point), name
            assert point["peers"] == 1, name
            assert point["chain_height"] >= 1, name
        assert sweep["daemons"]["alice"]["channels"] == 1

        # The operator's table view of the same fleet.
        done = _run_fleet(handles)
        assert done.returncode == 0, done.stderr
        rows = done.stdout.splitlines()
        assert rows[0].split()[:2] == ["NODE", "STATUS"]
        assert [row.split()[:2] for row in rows[1:3]] == [
            ["alice", "ok"], ["bob", "ok"]]
        assert (f"conservation: observed={2 * GENESIS} "
                f"expected={2 * GENESIS} [OK]") in rows
        assert "active alerts: none" in rows

        # A supply the fleet does not hold is a CRITICAL: exit 1.
        status, sweep = _fleet(handles, "--expected-total",
                               str(2 * GENESIS - 1))
        assert status == 1
        assert "CONSERVATION_SURPLUS" in {
            alert["code"] for alert in sweep["alerts"]}
    finally:
        for handle in handles.values():
            handle.shutdown()


WORKERS = 2
SPOKES = ("spoke1", "spoke2")
ALLOCATIONS = {f"hub-w{i}": GENESIS for i in range(WORKERS)}
ALLOCATIONS.update({name: GENESIS for name in SPOKES})


class RouterThread:
    """ShardedDaemon on its own loop so blocking clients can drive it."""

    def __init__(self) -> None:
        self.router = ShardedDaemon("hub", allocations=ALLOCATIONS,
                                    workers=WORKERS)
        self.loop = asyncio.new_event_loop()
        self._started = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()
        if not self._started.wait(timeout=90):
            raise TimeoutError("sharded router failed to start")

    def _run(self) -> None:
        asyncio.set_event_loop(self.loop)

        async def main():
            await self.router.start()
            self._started.set()
            await self.router.run_until_shutdown()

        self.loop.run_until_complete(main())
        self.loop.run_until_complete(asyncio.sleep(0.25))
        self.loop.close()

    def close(self) -> None:
        try:
            ControlClient(HOST, self.router.control_port,
                          timeout=30).call("shutdown")
        except Exception:  # noqa: BLE001 — teardown best effort
            pass
        self._thread.join(timeout=30)


@pytest.mark.live(timeout=300)
def test_audit_snapshot_aggregate_across_sharded_workers():
    processes, clients = [], []
    router = None
    payer = None
    try:
        spokes = {}
        for name, spoke in boot(dict.fromkeys(SPOKES, (0, 0)),
                                ALLOCATIONS).items():
            processes.append(spoke.process)
            clients.append(spoke.control)
            spokes[name] = (spoke.port, spoke.control_port)
        router = RouterThread()
        control = ControlClient(HOST, router.router.control_port,
                                timeout=120)
        clients.append(control)

        channels = {}
        for name in SPOKES:
            control.call("connect", peer=name, host=HOST,
                         port=spokes[name][0])
            channels[name] = control.call("open-channel",
                                          peer=name)["channel_id"]
        for name in SPOKES:
            deposit = control.call("deposit", value=DEPOSIT, peer=name)
            control.call("approve-associate", peer=name,
                         channel_id=channels[name], txid=deposit["txid"])

        payer = ControlClient(HOST, router.router.control_port,
                              timeout=120)
        errors = []
        thread = threading.Thread(
            target=_hammer, args=(payer, channels[SPOKES[0]], errors),
            kwargs={"pays": 200})
        thread.start()
        polls = 0
        while thread.is_alive():
            snapshot = control.call("audit-snapshot")
            polls += 1
            assert len(snapshot["workers"]) == WORKERS
            # The merged channel map is a disjoint union over owners: a
            # payment lives entirely inside one worker's slice, so every
            # channel shows its full funded total on every poll.
            for name, cid in channels.items():
                assert snapshot["channels"][cid]["total"] == DEPOSIT, name
            observed = (snapshot["onchain"]
                        + snapshot["free_deposit_value"]
                        + sum(channel["total"] for channel in
                              snapshot["channels"].values()))
            assert observed == WORKERS * GENESIS
        thread.join()
        assert errors == []
        assert polls >= 3
    finally:
        if payer is not None:
            payer.close()
        if router is not None:
            router.close()
        for client in clients:
            try:
                client.call("shutdown")
            except Exception:  # noqa: BLE001
                pass
            client.close()
        for process in processes:
            try:
                process.wait(timeout=10)
            except Exception:  # noqa: BLE001
                process.kill()
