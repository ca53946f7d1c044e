"""Live multi-core sharding: a worker pool behind one control port.

A :class:`~repro.runtime.workers.ShardedDaemon` hub with two worker
processes serves two spoke daemons.  The test drives everything through
the router's single control port and asserts the ownership rules: each
peer's channel lands on its consistent-hash owner, channel-scoped verbs
reach the owning worker, pool-wide verbs fan out, no payment is signed,
and settlement conserves money exactly.
"""

import asyncio
import threading

import pytest

from repro.runtime.control import ControlClient, ControlError
from repro.runtime.launch import HOST, boot
from repro.runtime.workers import ShardedDaemon
from repro.workloads.assignment import HashRing

GENESIS = 200_000
DEPOSIT = 50_000
WORKERS = 2
SPOKES = ("spoke1", "spoke2")
ALLOCATIONS = {f"hub-w{i}": GENESIS for i in range(WORKERS)}
ALLOCATIONS.update({name: GENESIS for name in SPOKES})


class RouterThread:
    """Run a ShardedDaemon on its own event loop in a daemon thread so
    the test can drive it with the blocking ControlClient."""

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
        # Let closing transports run their callbacks before the loop
        # dies, else their finalizers warn about a closed loop.
        self.loop.run_until_complete(asyncio.sleep(0.25))
        self.loop.close()

    def close(self) -> None:
        try:
            ControlClient(HOST, self.router.control_port,
                          timeout=30).call("shutdown")
        except Exception:  # noqa: BLE001 — teardown best effort
            pass
        self._thread.join(timeout=30)


@pytest.fixture(scope="module")
def sharded_hub():
    spokes = {}
    processes = []
    clients = []
    router = None
    try:
        for name, spoke in boot(dict.fromkeys(SPOKES, (0, 0)),
                                ALLOCATIONS).items():
            processes.append(spoke.process)
            clients.append(spoke.control)
            spokes[name] = (spoke.port, spoke.control_port)
        router = RouterThread()
        control = ControlClient(HOST, router.router.control_port,
                                timeout=120)
        clients.append(control)
        yield control, spokes
    finally:
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


@pytest.mark.live(timeout=300)
class TestShardedDaemon:
    def test_full_lifecycle_across_workers(self, sharded_hub):
        control, spokes = sharded_hub
        assert control.call("ping")["workers"] == WORKERS

        ring = HashRing([f"hub-w{i}" for i in range(WORKERS)])
        channels = {}
        for name in SPOKES:
            port = spokes[name][0]
            connected = control.call("connect", peer=name, host=HOST,
                                     port=port)
            # The router must agree with an independently computed ring —
            # ownership is a pure function of the names.
            assert connected["worker"] == ring.owner(name)
            opened = control.call("open-channel", peer=name)
            assert opened["worker"] == ring.owner(name)
            channels[name] = opened["channel_id"]

        shard_map = control.call("shard-map")
        assert shard_map["peers"] == {name: ring.owner(name)
                                      for name in SPOKES}
        assert set(shard_map["channels"]) == set(channels.values())

        for name in SPOKES:
            deposit = control.call("deposit", value=DEPOSIT, peer=name)
            associated = control.call(
                "approve-associate", peer=name,
                channel_id=channels[name], txid=deposit["txid"])
            assert associated["my_balance"] == DEPOSIT

        # A pool-wide verb: the broadcast hits every worker.
        batching = control.call("batch-window", window_ms=0)
        assert set(batching["workers"]) == set(f"hub-w{i}"
                                               for i in range(WORKERS))

        signs = control.call("metrics")["metrics"]["counters"].get(
            "crypto.sign", 0)
        for name in SPOKES:
            for _ in range(10):
                control.call("pay", channel_id=channels[name], amount=100)
            snapshot = control.call("channel", channel_id=channels[name])
            assert snapshot["my_balance"] == DEPOSIT - 1_000
            assert snapshot["worker"] == ring.owner(name)

        stats = control.call("stats")
        assert stats["payments"]["sent"] == 20
        assert stats["channels"] == len(SPOKES)

        metrics = control.call("metrics")["metrics"]["counters"]
        assert metrics.get("crypto.sign", 0) == signs  # no Paid is signed
        # Every bare frame counts: the 20 Paid plus, per spoke, the hub's
        # NewChannelAck, ApproveMyDeposit and AssociatedDeposit.
        assert metrics.get("crypto.mac_fastpath", 0) == 20 + 3 * len(SPOKES)

        # Settle both channels; each routes to its owner and conserves
        # money exactly.
        for name in SPOKES:
            settled = control.call("settle", channel_id=channels[name])
            assert settled["worker"] == ring.owner(name)
            assert not settled["offchain"]

    def test_unrouted_channel_is_rejected(self, sharded_hub):
        control, _spokes = sharded_hub
        with pytest.raises(Exception) as excinfo:
            control.call("pay", channel_id="chan-nowhere-1", amount=1)
        assert "no worker owns" in str(excinfo.value)

    def test_unknown_command_names_itself(self, sharded_hub):
        control, _spokes = sharded_hub
        with pytest.raises(Exception) as excinfo:
            control.call("frobnicate")
        assert "unknown command" in str(excinfo.value)

    def test_deposit_requires_routing_hint(self, sharded_hub):
        control, _spokes = sharded_hub
        with pytest.raises(Exception) as excinfo:
            control.call("deposit", value=1_000)
        assert "owning worker" in str(excinfo.value)

    def test_a_timeout_field_reaches_the_verb_not_the_worker_link(
            self, sharded_hub):
        # Forwarded as the link's deadline, it timed the call out and
        # left the reply in the stream: every later routed command got
        # the previous command's answer.
        control, _spokes = sharded_hub
        with pytest.raises(ControlError) as excinfo:
            control.call("health", timeout=1e-9)
        assert excinfo.value.code == "bad_request"  # health takes none
        assert "onchain" in control.call("balance")
        assert "payments" in control.call("stats")

    def test_pool_verbs_reach_every_worker(self, sharded_hub):
        # Declared pool=True, so the router sends them to every worker:
        # both ends of a channel must share one settlement feerate.
        control, _spokes = sharded_hub
        workers = {f"hub-w{i}" for i in range(WORKERS)}
        policy = control.call("fee-policy", feerate=2.0)["workers"]
        assert set(policy) == workers
        assert {answer["feerate"] for answer in policy.values()} == {2.0}
        assert set(control.call("chain-sync")["workers"]) == workers
        # Without peer= a fault is pool-wide; a crash takes down every
        # worker's enclave, so this runs last on the module's pool.
        assert set(control.call("fault", action="crash")["workers"]) \
            == workers
