"""The five payment workloads.

Each class launches one real system from ``seed``, exposes one
closed-loop ``step`` per connection, knows how to wait until the
receiver has applied every acknowledged payment, and can check the
money afterwards.  Only user-facing control verbs are used (never
``bench-pay`` / ``bench-latency`` / ``echo``), so the daemon internals
can be rearranged without touching this file.
"""

from __future__ import annotations

import contextlib
import os
import random
import time
from collections import deque
from typing import Callable, Deque, Dict, List, Sequence

from harness import (
    HOST,
    ControlClient,
    ControlError,
    Fleet,
    control_rtt_us,
    process_tree,
    wait_until,
)

from repro import obs
from repro.core.node import TeechainNetwork
from repro.crypto.keys import KeyPair
from repro.hub.client import sign_request
from repro.hub.messages import AccountDeposit, AccountPay
from repro.obs import Tracer
from repro.workloads.assignment import HashRing

GENESIS = 50_000_000
DEPOSIT = 20_000_000
FASTPATH_K = 64
BARRIER_TIMEOUT_S = 5.0


def _amounts(rng: random.Random, count: int = 4096) -> List[int]:
    """The seed's payment amounts (1–3), cycled by each connection."""
    return [rng.randint(1, 3) for _ in range(count)]


class Workload:
    """Shape shared by all five; see the module docstring."""

    name = ""
    #: Seconds from the first process spawn to the first accepted payment.
    setup_s = 0.0

    def __init__(self, seed: int, trace: bool = False) -> None:
        self.rng = random.Random(seed)
        self.fleet = Fleet(trace=trace)
        #: Control connections to every NodeDaemon, for telemetry reads.
        self.telemetry: Dict[str, ControlClient] = {}
        #: System process ids by role (the generator is in none).
        self.roles: Dict[str, List[int]] = {}
        self.steps: List[Callable[[], None]] = []
        started = time.perf_counter()
        try:
            self._launch()
        except BaseException:
            self.close()
            raise
        origin = self.fleet.first_spawn
        self.setup_s = time.perf_counter() - (
            started if origin is None else origin)

    # -- what subclasses provide -----------------------------------------

    def _launch(self) -> None:
        raise NotImplementedError

    def prepare(self, seconds: float) -> None:
        """Untimed work before a window of ``seconds`` (pre-signing)."""

    def completed(self) -> int:
        """Payments acknowledged to the client so far."""
        raise NotImplementedError

    def unapplied(self) -> int:
        """Wait until the receiver has applied every acknowledged
        payment; returns how many it still has not after the timeout."""
        raise NotImplementedError

    def control_rtts_us(self) -> Dict[str, float]:
        """Round trips on an idle control connection to the daemon the
        clients talk to: ``ping`` (line-JSON parse + registry + reply)
        and ``channel`` (the same plus a read-only ecall)."""
        return {}

    def verify(self) -> List[str]:
        """Every violated money invariant, as text (empty = correct)."""
        raise NotImplementedError

    def inline_signed(self) -> int:
        """Requests signed inside a window because the pre-signed queue
        ran dry (only hub_accounts signs requests at all)."""
        return 0

    # -- shared -----------------------------------------------------------

    def counters(self) -> Dict[str, float]:
        """Metric counters summed over every daemon (``metrics`` verb)."""
        merged: Dict[str, float] = {}
        for client in self.telemetry.values():
            snapshot = client.call("metrics")["metrics"]["counters"]
            for key, value in snapshot.items():
                merged[key] = merged.get(key, 0) + value
        return merged

    def spans_emitted(self) -> int:
        return sum(client.call("health")["trace_emitted"]
                   for client in self.telemetry.values())

    def _transport_problems(self) -> List[str]:
        problems = []
        for name, client in self.telemetry.items():
            peers = client.call("stats")["transport"]["peers"]
            for peer, link in peers.items():
                if link["drops_protocol"]:
                    problems.append(
                        f"{name}->{peer}: {link['drops_protocol']} protocol "
                        "frames dropped")
        return problems

    def close(self) -> None:
        self.fleet.close()

    def __enter__(self) -> "Workload":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def _control_rtts_us(client: ControlClient,
                     channel_id: str) -> Dict[str, float]:
    return {
        "control.ping_rtt_us": control_rtt_us(client, "ping"),
        "control.query_rtt_us": control_rtt_us(client, "channel",
                                               channel_id=channel_id)}


class _ChannelPayer:
    """One control connection paying over one channel."""

    def __init__(self, client: ControlClient, channel_id: str,
                 amounts: Sequence[int]) -> None:
        self.client = client
        self.channel_id = channel_id
        self.amounts = amounts
        self.count = 0
        self.total = 0

    def __call__(self) -> None:
        amount = self.amounts[self.count % len(self.amounts)]
        self.client.call("pay", channel_id=self.channel_id, amount=amount)
        self.count += 1
        self.total += amount


def _fund_channel(owner: ControlClient, peer: str,
                  via_router: bool = False) -> str:
    """open-channel + deposit + approve-associate; returns the id."""
    channel_id = owner.call("open-channel", peer=peer)["channel_id"]
    hint = {"peer": peer} if via_router else {}
    deposit = owner.call("deposit", value=DEPOSIT, **hint)
    owner.call("approve-associate", peer=peer, channel_id=channel_id,
               txid=deposit["txid"])
    return channel_id


def _mirror_problems(label: str, ours: Dict, theirs: Dict,
                     paid: int) -> List[str]:
    """Both ends of a channel agree and equal deposit ∓ paid."""
    problems = []
    if (ours["my_balance"], ours["remote_balance"]) != (DEPOSIT - paid, paid):
        problems.append(
            f"{label}: sender holds {ours['my_balance']}/"
            f"{ours['remote_balance']}, expected {DEPOSIT - paid}/{paid}")
    if (theirs["my_balance"], theirs["remote_balance"]) != (
            ours["remote_balance"], ours["my_balance"]):
        problems.append(
            f"{label}: receiver holds {theirs['my_balance']}/"
            f"{theirs['remote_balance']}, not the mirror of the sender's "
            f"{ours['my_balance']}/{ours['remote_balance']}")
    return problems


class ChannelFastpath(Workload):
    """Two daemons, one channel, session-MAC fast path, 2 connections."""

    name = "channel_fastpath"

    def _launch(self) -> None:
        allocations = {"alice": GENESIS, "bob": GENESIS}
        alice_d = self.fleet.spawn("alice", allocations)
        bob_d = self.fleet.spawn("bob", allocations)
        self.alice = self.fleet.connect(alice_d.control_port)
        self.bob = self.fleet.connect(bob_d.control_port)
        self.telemetry = {"alice": self.alice, "bob": self.bob}
        self.alice.call("connect", peer="bob", host=HOST, port=bob_d.port)
        self.channel_id = _fund_channel(self.alice, "bob")
        self.alice.call("fastpath", enabled=1, checkpoint_every=FASTPATH_K)
        self.payers = [
            _ChannelPayer(self.fleet.connect(alice_d.control_port),
                          self.channel_id, _amounts(self.rng))
            for _ in range(2)]
        self.steps = list(self.payers)
        self.payers[0]()
        self.roles = {"sender": process_tree(alice_d.process.pid),
                       "receiver": process_tree(bob_d.process.pid)}

    def completed(self) -> int:
        return sum(payer.count for payer in self.payers)

    def _paid(self) -> int:
        return sum(payer.total for payer in self.payers)

    def unapplied(self) -> int:
        paid = self._paid()
        applied = wait_until(
            lambda: self.bob.call(
                "channel", channel_id=self.channel_id)["my_balance"] == paid,
            BARRIER_TIMEOUT_S)
        if applied:
            return 0
        received = self.bob.call("stats")["payments"]["received"]
        return max(1, self.completed() - received)

    def control_rtts_us(self) -> Dict[str, float]:
        return _control_rtts_us(self.alice, self.channel_id)

    def verify(self) -> List[str]:
        ours = self.alice.call("channel", channel_id=self.channel_id)
        theirs = self.bob.call("channel", channel_id=self.channel_id)
        return (_mirror_problems("alice-bob", ours, theirs, self._paid())
                + self._transport_problems())


class Multihop3(Workload):
    """a–b–c; ``pay-multihop dest=c`` on 1 connection (a multi-hop
    payment locks its channels, so a second in flight is refused)."""

    name = "multihop_3"

    def _launch(self) -> None:
        allocations = {name: GENESIS for name in "abc"}
        daemons = {name: self.fleet.spawn(name, allocations)
                   for name in "abc"}
        self.telemetry = {name: self.fleet.connect(daemon.control_port)
                          for name, daemon in daemons.items()}
        a, b = self.telemetry["a"], self.telemetry["b"]
        a.call("connect", peer="b", host=HOST, port=daemons["b"].port)
        b.call("connect", peer="c", host=HOST, port=daemons["c"].port)
        a.call("connect", peer="c", host=HOST, port=daemons["c"].port)
        self.ab = _fund_channel(a, "b")
        self.bc = _fund_channel(b, "c")
        self.payer = self.fleet.connect(daemons["a"].control_port)
        self.amounts = _amounts(self.rng)
        self.count = 0
        self.total = 0
        # The b-c edge reaches a by gossip; until then there is no route.
        if not wait_until(self._routable, 10.0, interval=0.01):
            raise RuntimeError("gossip never gave a a route to c")
        self._step()
        self.steps = [self._step]
        self.roles = {
            "sender": process_tree(daemons["a"].process.pid),
            "hop": process_tree(daemons["b"].process.pid),
            "receiver": process_tree(daemons["c"].process.pid)}

    def _routable(self) -> bool:
        try:
            self.telemetry["a"].call("route", dest="c", amount=3)
        except ControlError as exc:
            if exc.code != "no_route":
                raise
            return False
        return True

    def _step(self) -> None:
        amount = self.amounts[self.count % len(self.amounts)]
        self.payer.call("pay-multihop", dest="c", amount=amount)
        self.count += 1
        self.total += amount

    def completed(self) -> int:
        return self.count

    def unapplied(self) -> int:
        c = self.telemetry["c"]
        applied = wait_until(
            lambda: c.call("channel",
                           channel_id=self.bc)["my_balance"] == self.total,
            BARRIER_TIMEOUT_S)
        return 0 if applied else 1

    def control_rtts_us(self) -> Dict[str, float]:
        return _control_rtts_us(self.telemetry["a"], self.ab)

    def verify(self) -> List[str]:
        a, b, c = (self.telemetry[name] for name in "abc")
        problems = _mirror_problems(
            "a-b", a.call("channel", channel_id=self.ab),
            b.call("channel", channel_id=self.ab), self.total)
        problems += _mirror_problems(
            "b-c", b.call("channel", channel_id=self.bc),
            c.call("channel", channel_id=self.bc), self.total)
        return problems + self._transport_problems()


class _AccountPayer:
    """One control connection issuing signed account-pays for the
    accounts it owns (an account's nonces must arrive in order, so each
    account is driven from exactly one connection)."""

    def __init__(self, client: ControlClient, rng: random.Random,
                 keys: Sequence[KeyPair], owned: Sequence[int],
                 nonces: List[int]) -> None:
        self.client = client
        self.rng = rng
        self.keys = keys
        self.owned = owned
        self.nonces = nonces
        self.presigned: Deque[str] = deque()
        self.count = 0
        self.inline_signed = 0

    def sign_next(self) -> str:
        payer = self.rng.choice(self.owned)
        payee = self.rng.randrange(len(self.keys) - 1)
        if payee >= payer:
            payee += 1
        self.nonces[payer] += 1
        # The hub fee is 1, so the payee receives 1–3.
        body = AccountPay(self.keys[payer].public, self.keys[payee].public,
                          HubAccounts.FEE + self.rng.randint(1, 3),
                          self.nonces[payer])
        return sign_request(body, self.keys[payer].private)

    def __call__(self) -> None:
        if self.presigned:
            request = self.presigned.popleft()
        else:
            request = self.sign_next()
            self.inline_signed += 1
        self.client.call("account-pay", request=request)
        self.count += 1


class HubAccounts(Workload):
    """A hub enclave with one funded backing channel and ``ACCOUNTS``
    signed accounts; ``account-pay``, one request per round trip."""

    name = "hub_accounts"

    ACCOUNTS = 512
    OPENING = 10_000
    BATCH = 256
    FEE = 1
    #: Requests signed ahead per window, as a multiple of the last
    #: window's count, so the generator never caps a faster hub.
    PRESIGN_FACTOR = 1.25
    FIRST_WINDOW_RATE = 400.0

    def _launch(self) -> None:
        allocations = {"hub": GENESIS, "backer": GENESIS}
        hub_d = self.fleet.spawn("hub", allocations)
        backer_d = self.fleet.spawn("backer", allocations)
        # Key generation overlaps the daemons' start-up.
        prefix = f"perf:{self.rng.getrandbits(64):016x}"
        self.keys = [KeyPair.from_seed(f"{prefix}:{index}".encode())
                     for index in range(self.ACCOUNTS)]
        self.nonces = [1] * self.ACCOUNTS
        openings = [sign_request(AccountDeposit(key.public, self.OPENING, 1),
                                 key.private) for key in self.keys]
        self.hub = self.fleet.connect(hub_d.control_port)
        backer = self.fleet.connect(backer_d.control_port)
        self.telemetry = {"hub": self.hub, "backer": backer}
        self.hub.call("connect", peer="backer", host=HOST,
                      port=backer_d.port)
        self.backing_channel = _fund_channel(self.hub, "backer")
        self.hub.call("hub-fee", fee_per_pay=self.FEE)
        for start in range(0, self.ACCOUNTS, self.BATCH):
            reply = self.hub.call(
                "account-pay-many",
                requests=openings[start:start + self.BATCH])
            if reply["rejected"]:
                raise RuntimeError(f"hub rejected openings: {reply}")
        self.payers = [
            _AccountPayer(self.fleet.connect(hub_d.control_port),
                          random.Random(self.rng.getrandbits(64)), self.keys,
                          range(lane, self.ACCOUNTS, 2), self.nonces)
            for lane in range(2)]
        self.steps = list(self.payers)
        self.payers[0]()
        self._last_count = [0, 0]
        self._last_seconds = 0.0
        self.roles = {"sender": process_tree(hub_d.process.pid),
                       "receiver": process_tree(backer_d.process.pid)}

    def prepare(self, seconds: float) -> None:
        for lane, payer in enumerate(self.payers):
            if self._last_seconds:
                rate = (payer.count - self._last_count[lane]) \
                    / self._last_seconds
            else:
                rate = self.FIRST_WINDOW_RATE / len(self.payers)
            wanted = int(rate * seconds * self.PRESIGN_FACTOR) + 1
            while len(payer.presigned) < wanted:
                payer.presigned.append(payer.sign_next())
            self._last_count[lane] = payer.count
        self._last_seconds = seconds

    def completed(self) -> int:
        return sum(payer.count for payer in self.payers)

    def inline_signed(self) -> int:
        return sum(payer.inline_signed for payer in self.payers)

    def unapplied(self) -> int:
        # account-pay is applied inside the enclave before it is
        # acknowledged; the ledger's own count is the receiver's view.
        pays = self.hub.call("account-stats")["hub"]["pays"]
        return max(0, self.completed() - pays)

    def control_rtts_us(self) -> Dict[str, float]:
        return _control_rtts_us(self.hub, self.backing_channel)

    def verify(self) -> List[str]:
        stats = self.hub.call("account-stats")["hub"]
        opened = self.ACCOUNTS * self.OPENING
        checks = {
            "conserved": stats["conserved"],
            "solvent": stats["solvent"],
            "pays == completed": stats["pays"] == self.completed(),
            "balances + fees == deposited":
                stats["total_balance"] + stats["fee_bucket"]
                == stats["deposited_total"],
            "deposited == opened": stats["deposited_total"] == opened,
            "fee bucket == pays x fee":
                stats["fee_bucket"] == stats["pays"] * self.FEE,
        }
        problems = [f"hub: {label} does not hold ({stats})"
                    for label, holds in checks.items() if not holds]
        rejected = {key: value for key, value in self.counters().items()
                    if key.startswith("hub.rejected") and value}
        if rejected:
            problems.append(f"hub rejected requests: {rejected}")
        return problems + self._transport_problems()


class ShardedHub(Workload):
    """``serve --workers 2`` as its own process, one spoke per worker;
    ``pay`` through the router's control port, one connection a channel."""

    name = "sharded_hub"

    WORKERS = 2

    def _launch(self) -> None:
        worker_names = [f"hub-w{index}" for index in range(self.WORKERS)]
        spokes = self._spokes(worker_names)
        allocations = {name: GENESIS for name in worker_names + spokes}
        router_d = self.fleet.spawn("hub", allocations,
                                    extra=("--workers", str(self.WORKERS)))
        spoke_d = {name: self.fleet.spawn(name, allocations)
                   for name in spokes}
        self.spokes = {name: self.fleet.connect(daemon.control_port)
                       for name, daemon in spoke_d.items()}
        self.router = self.fleet.connect(router_d.control_port)
        self.workers = self.router.call("workers")["workers"]
        self.telemetry = dict(self.spokes)
        for worker in self.workers:
            self.telemetry[worker["name"]] = self.fleet.connect(
                worker["control_port"])
        # Every spoke connects before the first deposit: chain gossip only
        # reaches peers connected at broadcast time.
        for name, daemon in spoke_d.items():
            self.router.call("connect", peer=name, host=HOST,
                             port=daemon.port)
        self.channels = {name: _fund_channel(self.router, name,
                                             via_router=True)
                         for name in spokes}
        self.router.call("fastpath", enabled=1, checkpoint_every=FASTPATH_K)
        self.payers = {
            name: _ChannelPayer(self.fleet.connect(router_d.control_port),
                                channel_id, _amounts(self.rng))
            for name, channel_id in self.channels.items()}
        self.steps = list(self.payers.values())
        self.steps[0]()
        worker_pids = [worker["pid"] for worker in self.workers]
        self.roles = {
            "router": [router_d.process.pid],
            "worker": [pid for root in worker_pids
                       for pid in process_tree(root)],
            "receiver": [pid for daemon in spoke_d.values()
                         for pid in process_tree(daemon.process.pid)]}

    @staticmethod
    def _spokes(worker_names: Sequence[str]) -> List[str]:
        """Spoke names the router's ring assigns to distinct workers."""
        ring = HashRing(list(worker_names))
        spokes: List[str] = []
        owners = set()
        candidate = 0
        while len(spokes) < len(worker_names):
            name = f"spoke{candidate}"
            candidate += 1
            if ring.owner(name) not in owners:
                owners.add(ring.owner(name))
                spokes.append(name)
        return spokes

    def completed(self) -> int:
        return sum(payer.count for payer in self.payers.values())

    def unapplied(self) -> int:
        missing = 0
        for name, payer in self.payers.items():
            spoke = self.spokes[name]
            applied = wait_until(
                lambda: spoke.call(
                    "channel",
                    channel_id=payer.channel_id)["my_balance"] == payer.total,
                BARRIER_TIMEOUT_S)
            if not applied:
                received = spoke.call("stats")["payments"]["received"]
                missing += max(1, payer.count - received)
        return missing

    def control_rtts_us(self) -> Dict[str, float]:
        """Through the router, plus what the proxy hop adds over asking
        the owning worker directly."""
        channel_id = next(iter(self.channels.values()))
        owner = self.router.call("channel", channel_id=channel_id)["worker"]
        rtts = _control_rtts_us(self.router, channel_id)
        direct = control_rtt_us(self.telemetry[owner], "channel",
                                channel_id=channel_id)
        rtts["workers.proxy_rtt_us"] = rtts["control.query_rtt_us"] - direct
        return rtts

    def verify(self) -> List[str]:
        problems = []
        for name, payer in self.payers.items():
            ours = self.router.call("channel", channel_id=payer.channel_id)
            theirs = self.spokes[name].call("channel",
                                            channel_id=payer.channel_id)
            problems += _mirror_problems(f"hub-{name}", ours, theirs,
                                         payer.total)
        return problems + self._transport_problems()


class CommitteeInproc(Workload):
    """In-process ``TeechainNetwork`` (instant transport), both ends with
    a committee chain of 3 and 2-of-3 deposits; alternating pays."""

    name = "committee_inproc"

    def __init__(self, seed: int, trace: bool = False) -> None:
        # The system runs with its metrics registry on, as every daemon
        # does; the tracer only when asked.
        self._collecting = contextlib.ExitStack()
        tracer = Tracer(now=time.perf_counter) if trace else obs.NO_TRACE
        self.registry, self.tracer = self._collecting.enter_context(
            obs.collecting(tracer=tracer))
        super().__init__(seed, trace)

    def _launch(self) -> None:
        self.network = TeechainNetwork()
        self.alice = self.network.create_node("alice", funds=GENESIS)
        self.bob = self.network.create_node("bob", funds=GENESIS)
        for node, peer in ((self.alice, self.bob), (self.bob, self.alice)):
            node.attach_committee(backups=2, threshold=2)
        self.channel_id = self.alice.open_channel(self.bob)
        for node, peer in ((self.alice, self.bob), (self.bob, self.alice)):
            record = node.create_deposit(DEPOSIT)
            node.approve_and_associate(peer, record, self.channel_id)
        self.amounts = _amounts(self.rng)
        self.count = 0
        self.sent = {"alice": 0, "bob": 0}
        self._step()
        self.steps = [self._step]
        self.roles = {"self": [os.getpid()]}

    def _step(self) -> None:
        amount = self.amounts[self.count % len(self.amounts)]
        payer = self.alice if self.count % 2 == 0 else self.bob
        payer.pay(self.channel_id, amount)
        self.count += 1
        self.sent[payer.name] += amount

    def completed(self) -> int:
        return self.count

    def _expected(self) -> Dict[str, int]:
        net = self.sent["alice"] - self.sent["bob"]
        return {"alice": DEPOSIT - net, "bob": DEPOSIT + net}

    def unapplied(self) -> int:
        # The instant transport applies at the peer before pay returns.
        mine, _ = self.bob.channel_balance(self.channel_id)
        return 0 if mine == self._expected()["bob"] else 1

    def counters(self) -> Dict[str, float]:
        return dict(self.registry.snapshot()["counters"])

    def spans_emitted(self) -> int:
        return self.tracer.emitted

    def verify(self) -> List[str]:
        """Destructive: settles the channel and reclaims every deposit."""
        problems = []
        expected = self._expected()
        for node, peer in ((self.alice, self.bob), (self.bob, self.alice)):
            balances = node.channel_balance(self.channel_id)
            wanted = (expected[node.name], expected[peer.name])
            if balances != wanted:
                problems.append(
                    f"{node.name} holds {balances}, expected {wanted}")
        self.alice.settle(self.channel_id)
        self.network.mine()
        for node in (self.alice, self.bob):
            try:
                node.assert_balance_correct()
            except Exception as exc:  # noqa: BLE001 — any failure is a finding
                problems.append(f"{node.name}: balance correctness: {exc}")
        chain = self.network.chain
        if chain.utxos.total_value() != chain.total_minted():
            problems.append(
                f"chain holds {chain.utxos.total_value()} but minted "
                f"{chain.total_minted()}")
        return problems

    def close(self) -> None:
        self._collecting.close()
        super().close()


WORKLOADS = {cls.name: cls for cls in (
    ChannelFastpath, HubAccounts, Multihop3, ShardedHub, CommitteeInproc)}
