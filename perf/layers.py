"""The layer walk: each layer's public call, timed from outside.

The benchmark builds one payment's real objects in-process — keys, a
secure channel, a ``Paid``, an enclave with a funded channel, a hub
ledger, a chain, a transport pair — and times each layer's public entry
point on them.  Nothing under ``src/`` is instrumented: every span is
recorded here, around the call.

A measurement is the median over ``batches`` batches, each running the
call back to back for ``batch_s`` seconds.  Calls that consume their
input (a sealed envelope can be opened once, a deposit associated once)
get a freshly prepared input list per batch, built outside the clock.
"""

from __future__ import annotations

import asyncio
import statistics
import time
from typing import Any, Callable, Dict, List, Sequence

import harness  # noqa: F401 — puts src/ on the import path

from repro.blockchain import Blockchain, LockingScript, build_p2pkh_transfer
from repro.core.messages import Paid, SignedMessage
from repro.core.node import TeechainNetwork
from repro.crypto.authenticated import (
    decrypt,
    derive_channel_keys,
    encrypt,
    nonce_from_counter,
)
from repro.crypto.hashing import sha256
from repro.crypto.keys import KeyPair
from repro.hub.client import decode_request
from repro.hub.messages import AccountDeposit, AccountPay
from repro.network.secure_channel import SecureChannel
from repro.obs import Tracer, chrome_trace
from repro.routing import RoutePlanner
from repro.runtime import codec
from repro.runtime.daemon import COMMANDS
from repro.runtime.transport import AsyncTcpNetwork
from repro.workloads.scalefree import scale_free_overlay

FUNDS = 50_000_000
DEPOSIT = 20_000_000
BLOCK_TXS = 100
HUB_BATCH = 256
ROUTING_NODES = 200
#: The layers one fast-path payment passes through, client to applied:
#: control round trip, ecall gate, the pay itself (seal, codec, the
#: peer's open and apply) — plus one transport frame, added by the
#: caller.  Their sum over the observed p50 is ``layers.pay_covered_frac``.
PAY_PATH = ("control.ping_rtt_us", "tee.ecall_us", "core.pay_fast_us")


class LayerWalk:
    """Runs the walk; ``results`` maps metric name → value."""

    def __init__(self, batch_s: float = 0.3, batches: int = 5) -> None:
        self.batch_s = batch_s
        self.batches = batches
        self.results: Dict[str, float] = {}
        self.tracer = Tracer(capacity=1 << 16, now=time.perf_counter)

    # -- timing primitives -------------------------------------------------

    def _record(self, name: str, samples: Sequence[float]) -> None:
        self.results[name] = statistics.median(samples) * 1e6

    def repeat(self, name: str, call: Callable[[], Any]) -> None:
        """µs per call of a repeatable ``call``."""
        clock = time.perf_counter
        started = clock()
        call()
        # Read the clock about once a millisecond, not once a call.
        chunk = max(1, int(0.001 / max(clock() - started, 1e-7)))
        samples = []
        with self.tracer.span(name):
            for _batch in range(self.batches):
                done, elapsed = 0, 0.0
                started = clock()
                while elapsed < self.batch_s:
                    for _call in range(chunk):
                        call()
                    done += chunk
                    elapsed = clock() - started
                samples.append(elapsed / done)
        self._record(name, samples)

    def consume(self, name: str, prepare: Callable[[int], List[Any]],
                call: Callable[[Any], Any], limit: int = 20_000) -> None:
        """µs per call of a ``call`` that uses up its input; ``prepare(n)``
        builds ``n`` fresh inputs outside the clock."""
        clock = time.perf_counter
        pilot = prepare(1)
        started = clock()
        call(pilot[0])
        per_call = max(clock() - started, 1e-7)
        count = max(1, min(limit, int(self.batch_s / per_call)))
        samples = []
        for _ in range(self.batches):
            items = prepare(count)
            with self.tracer.span(name):
                started = clock()
                for item in items:
                    call(item)
                samples.append((clock() - started) / len(items))
        self._record(name, samples)

    # -- the layers --------------------------------------------------------

    def crypto(self) -> None:
        key = KeyPair.from_seed(b"perf-walk-signer")
        digest = sha256(b"perf-walk-digest")
        signature = key.private.sign(digest)
        self.repeat("crypto.sign_us", lambda: key.private.sign(digest))
        self.repeat("crypto.verify_us",
                    lambda: key.public.verify(digest, signature))
        peer = KeyPair.from_seed(b"perf-walk-peer")
        keys = derive_channel_keys(key.private, peer.public)
        plaintext = bytes(range(200))
        nonce = nonce_from_counter(7)
        envelope = encrypt(keys, nonce, plaintext)
        self.repeat("crypto.aead_seal_us",
                    lambda: encrypt(keys, nonce, plaintext))
        self.repeat("crypto.aead_open_us", lambda: decrypt(keys, envelope))

    def network_and_codec(self) -> None:
        ours = KeyPair.from_seed(b"perf-walk-signer")
        theirs = KeyPair.from_seed(b"perf-walk-peer")
        sender = SecureChannel(ours.public, theirs.public,
                               derive_channel_keys(ours.private,
                                                   theirs.public))
        receiver = SecureChannel(theirs.public, ours.public,
                                 derive_channel_keys(theirs.private,
                                                     ours.public))
        paid = Paid(channel_id="chan-alice-bob-1", amount=2, sequence=4711)
        self.repeat("network.seal_us", lambda: sender.seal_message(paid))
        self.consume("network.open_us",
                     lambda n: [sender.seal_message(paid) for _ in range(n)],
                     receiver.open_message)

        frame = codec.encode(paid)
        self.results["codec.paid_bytes"] = float(len(frame))
        self.repeat("codec.encode_paid_us", lambda: codec.encode(paid))
        self.repeat("codec.decode_paid_us", lambda: codec.decode(frame))
        request = SignedMessage.create(
            AccountPay(ours.public, theirs.public, 3, 2), ours.private)
        request_hex = codec.encode(request).hex()
        self.repeat("codec.encode_request_us",
                    lambda: codec.encode(request).hex())
        self.repeat("codec.decode_request_us",
                    lambda: decode_request(request_hex))

    def registry(self) -> None:
        payload = {"cmd": "pay", "channel_id": "chan-alice-bob-1",
                   "amount": 2}
        self.repeat("registry.validate_us",
                    lambda: COMMANDS.validate("pay", payload))

    @staticmethod
    def _funded_pair(committee: bool = False):
        network = TeechainNetwork()
        alice = network.create_node("alice", funds=FUNDS)
        bob = network.create_node("bob", funds=FUNDS)
        if committee:
            alice.attach_committee(backups=2, threshold=2)
            bob.attach_committee(backups=2, threshold=2)
        channel = alice.open_channel(bob)
        record = alice.create_deposit(DEPOSIT)
        alice.approve_and_associate(bob, record, channel)
        return network, alice, bob, channel

    def tee_and_core(self) -> None:
        _, alice, _, channel = self._funded_pair()
        self.repeat("tee.ecall_us",
                    lambda: alice.enclave.ecall("channel_snapshot", channel))
        self.repeat("core.pay_signed_us", lambda: alice.pay(channel, 1))
        alice.enclave.ecall("set_fastpath", True, 64)
        self.repeat("core.pay_fast_us", lambda: alice.pay(channel, 1))

        _, alice, _, channel = self._funded_pair(committee=True)
        self.repeat("core.replicated_pay_us", lambda: alice.pay(channel, 1))

        network = TeechainNetwork()
        path = [network.create_node(name, funds=FUNDS)
                for name in ("alice", "bob", "carol")]
        for payer, payee in zip(path, path[1:]):
            channel = payer.open_channel(payee)
            payer.approve_and_associate(
                payee, payer.create_deposit(DEPOSIT), channel)
        self.repeat("core.multihop3_us",
                    lambda: path[0].pay_multihop(path, 1))

        network, alice, bob, channel = self._funded_pair()
        self.consume(
            "core.associate_us",
            lambda n: [alice.create_deposit(1_000) for _ in range(n)],
            lambda record: alice.approve_and_associate(bob, record, channel),
            limit=8)

        def open_channels(count: int) -> List[str]:
            channels = []
            for _ in range(count):
                opened = alice.open_channel(bob)
                alice.approve_and_associate(
                    bob, alice.create_deposit(1_000), opened)
                alice.pay(opened, 1)  # unbalanced: settles on chain
                channels.append(opened)
            return channels

        self.consume("core.settle_us", open_channels, alice.settle, limit=8)

    def hub(self) -> None:
        _, hub, _, _ = self._funded_pair()
        clients = [KeyPair.from_seed(f"perf-walk-client:{index}".encode())
                   for index in range(16)]
        nonces = [1] * len(clients)
        for client in clients:
            hub.enclave.ecall("hub_handle_request", SignedMessage.create(
                AccountDeposit(client.public, 1_000_000, 1), client.private))
        hub.enclave.ecall("hub_set_fee", 1)
        cursor = [0]

        def signed_pays(count: int) -> List[SignedMessage]:
            pays = []
            for _ in range(count):
                payer = cursor[0] % len(clients)
                cursor[0] += 1
                nonces[payer] += 1
                body = AccountPay(
                    clients[payer].public,
                    clients[(payer + 1) % len(clients)].public,
                    2, nonces[payer])
                pays.append(SignedMessage.create(
                    body, clients[payer].private))
            return pays

        self.consume(
            "hub.request_us", signed_pays,
            lambda signed: hub.enclave.ecall("hub_handle_request", signed))
        self.consume(
            "hub.batch_request_us",
            lambda n: [signed_pays(HUB_BATCH) for _ in range(n)],
            lambda batch: hub.enclave.ecall("hub_handle_batch", batch),
            limit=1)
        self.results["hub.batch_request_us"] /= HUB_BATCH

    def blockchain(self) -> None:
        owner = KeyPair.from_seed(b"perf-walk-miner")
        script = LockingScript.pay_to_address(owner.address())

        def funded_chain() -> Blockchain:
            chain = Blockchain()
            for _ in range(BLOCK_TXS):
                chain.mint(script, 1_000)
            chain.mine_block()
            return chain

        template = funded_chain()
        transfers = [
            build_p2pkh_transfer([(entry.outpoint, entry.value)],
                                 owner.private, [(owner.address(), 900)])
            for entry in template.outputs_for(owner.address())]
        clock = time.perf_counter
        submit, mine, receive = [], [], []
        block = None
        for _ in range(self.batches):
            chain, replica = funded_chain(), funded_chain()
            with self.tracer.span("blockchain.submit_us"):
                started = clock()
                for transfer in transfers:
                    chain.submit(transfer)
                submit.append((clock() - started) / len(transfers))
            with self.tracer.span("blockchain.mine_block_us"):
                started = clock()
                block = chain.mine_block()
                mine.append(clock() - started)
            with self.tracer.span("blockchain.receive_block_us"):
                started = clock()
                outcome = replica.receive_block(block)
                receive.append(clock() - started)
            if outcome != "connected":
                raise RuntimeError(f"replica did not connect: {outcome}")
        self._record("blockchain.submit_us", submit)
        self._record("blockchain.mine_block_us", mine)
        self._record("blockchain.receive_block_us", receive)
        frame = codec.encode(block)
        self.repeat("codec.encode_block_us", lambda: codec.encode(block))
        self.repeat("codec.decode_block_us", lambda: codec.decode(frame))

    def routing(self) -> None:
        overlay = scale_free_overlay(ROUTING_NODES, seed=1)
        names = sorted(overlay.nodes)
        target = names[-1]

        def cold_planners(count: int) -> List[RoutePlanner]:
            return [RoutePlanner.from_overlay(overlay) for _ in range(count)]

        self.consume("routing.find_route_cold_us", cold_planners,
                     lambda planner: planner.find_route(names[0], target, 1),
                     limit=64)
        planner = RoutePlanner.from_overlay(overlay)
        planner.find_route(names[0], target, 1)
        self.repeat("routing.find_route_warm_us",
                    lambda: planner.find_route(names[0], target, 1))

    def transport(self) -> None:
        asyncio.run(self._transport())

    async def _transport(self) -> None:
        left, right = AsyncTcpNetwork("left"), AsyncTcpNetwork("right")
        await left.start()
        await right.start()
        try:
            inbox: "asyncio.Queue[Any]" = asyncio.Queue()
            received = [0]
            expected = [0]
            all_in = asyncio.Event()

            def on_right(message) -> None:
                if message.payload[:1] == b"E":  # echo probe
                    right.send("right", "left", message.payload)
                else:  # bulk frame: count only
                    received[0] += 1
                    if received[0] == expected[0]:
                        all_in.set()

            left.register("left", inbox.put_nowait)
            right.register("right", on_right)
            left.add_peer("right", right.host, right.port)
            right.add_peer("left", left.host, left.port)
            await left.wait_connected("right", 5.0)
            await right.wait_connected("left", 5.0)
            clock = time.perf_counter
            echo = b"E" + bytes(99)
            small, large = bytes(100), bytes(64 * 1024)

            rtts = []
            with self.tracer.span("transport.frame_rtt_us"):
                for _ in range(self.batches):
                    done, started = 0, clock()
                    while clock() - started < self.batch_s:
                        left.send("left", "right", echo)
                        await inbox.get()
                        done += 1
                    rtts.append((clock() - started) / done)
            self._record("transport.frame_rtt_us", rtts)

            async def burst(payload: bytes, count: int) -> float:
                received[0], expected[0] = 0, count
                all_in.clear()
                started = clock()
                for _ in range(count):
                    await left.send_wait("left", "right", payload)
                await asyncio.wait_for(all_in.wait(), 30.0)
                return clock() - started

            async def rate(name: str, payload: bytes) -> float:
                pilot = 64
                count = max(pilot, int(pilot * self.batch_s
                                       / await burst(payload, pilot)))
                with self.tracer.span(name):
                    return statistics.median(
                        [count / await burst(payload, count)
                         for _ in range(self.batches)])

            self.results["transport.frames_s"] = \
                await rate("transport.frames_s", small)
            self.results["transport.large_mb_s"] = (
                await rate("transport.large_mb_s", large)
                * len(large) / 1e6)
        finally:
            await left.stop()
            await right.stop()

    # -- driver ------------------------------------------------------------

    def run(self) -> Dict[str, float]:
        with self.tracer.root_span("layers.walk"):
            for layer in (self.crypto, self.network_and_codec, self.registry,
                          self.tee_and_core, self.hub, self.blockchain,
                          self.routing, self.transport):
                with self.tracer.span(f"layer.{layer.__name__}"):
                    layer()
        return self.results

    def chrome_trace(self) -> Dict[str, Any]:
        """The walk's spans as Perfetto-loadable trace-event JSON."""
        return chrome_trace(self.tracer.events(), default_node="perf-walk")
