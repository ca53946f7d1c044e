"""The node daemon: one Teechain participant as a networked process.

A :class:`NodeDaemon` hosts a :class:`~repro.core.node.TeechainNode`
unchanged — same enclave, same protocol code — and supplies the live
versions of everything the simulator provided for free:

* **time** — a :class:`~repro.runtime.wallclock.WallClockScheduler`;
* **transport** — an :class:`~repro.runtime.transport.AsyncTcpNetwork`,
  with peer handshakes that exchange attestation quotes so secure
  channels are derived without both enclaves in one process;
* **the blockchain** — every daemon holds a replica of the simulated
  chain, made identical by construction (deterministic genesis from the
  shared ``--fund`` allocation) and *converged* by gossip: transactions
  flood as :class:`ChainTx`, mined blocks flood as full
  :class:`ChainBlock` bodies, and a daemon that receives a block it
  cannot attach walks the sender's hash chain backwards with
  :class:`ChainRequest` until the histories connect — two daemons that
  mine concurrently genuinely fork, then heaviest-chain fork choice
  reorganises the loser, returning its evicted settlements to the
  mempool where the submit-gossip path re-broadcasts them;
* **a control plane** — a line-JSON TCP API (one request object per
  line, one response per line) driven by the CLI, tests, and benchmarks.
  Commands are declared once in a typed registry
  (:mod:`repro.runtime.registry`); dispatch, validation, ``help`` output
  and stable error ``code`` fields all derive from the declarations.
* **stable storage** — with ``state_dir`` set, every protocol state
  change is sealed to disk bound to a persisted monotonic counter
  (paper §6.2, via :class:`~repro.core.persistence.PersistentStore` and
  :class:`~repro.runtime.recovery.DaemonStateStore`).  A daemon
  SIGKILLed mid-payment restarts from its sealed snapshot, replays its
  chain, re-handshakes with peers, and settles the exact balances.

Ordering is the delicate part of channel opening over real sockets:
secure-channel replay counters forbid redelivering an envelope, so the
initiator's ``new_pay_channel`` ecall runs *without* pumping its outbox —
the acknowledgement is held until the responder's own ack arrives (the
per-peer FIFO guarantees the responder created its channel record first),
at which point the delivery path's pump flushes it.  A real host would
buffer the early ack; deferring the pump models that without a retry
queue.

Handshakes carry a per-boot session nonce: both sides hash the two
nonces order-independently into the secure-channel key derivation, so a
restarted endpoint (fresh nonce, replay counters lost with enclave
memory) triggers a key renewal via the ``reinstall_secure_channel``
ecall, while a benign TCP reconnect within the same boot pair computes
the same salt and keeps the existing channel and counters.
"""

from __future__ import annotations

import asyncio
import logging
import os
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.blockchain.chain import Blockchain
from repro.blockchain.script import LockingScript
from repro.blockchain.transaction import Transaction, build_p2pkh_transfer
from repro.core.batching import PaymentBatcher
from repro.core.deposits import DepositRecord
from repro.core.messages import SignedMessage
from repro.core.node import TeechainNetwork, TeechainNode
from repro.core.persistence import PersistentStore
from repro.crypto.hashing import sha256
from repro.crypto.keys import KeyPair, PublicKey
from repro.errors import AttestationError, BlockchainError, NetworkError, \
    ReproError, RoutingError
from repro.hub import messages as hub_messages
from repro.hub.client import decode_request
from repro.network.secure_channel import channel_from_quote
from repro.obs import (
    NO_TRACE,
    MetricsRegistry,
    Tracer,
    op_span,
    set_metrics,
    set_tracer,
)
from repro.obs.collector import TelemetryCollector
from repro.runtime.messages import (
    ChainBlock,
    ChainRequest,
    ChainTx,
    Echo,
    Hello,
    HelloAck,
    OpenChannel,
    OpenChannelOk,
)
from repro.runtime.control import ControlServer
from repro.runtime.recovery import DaemonStateStore, chain_snapshot, replay_chain
from repro.runtime.registry import CommandError, CommandRegistry, Param
from repro.routing import (
    ChannelAnnounce,
    ChannelUpdate,
    GossipEngine,
    RoutePlanner,
    TopologyView,
)
from repro.runtime.transport import AsyncTcpNetwork
from repro.runtime.wallclock import WallClockScheduler
from repro.tee.attestation import Quote
from repro.tee.compromise import crash_enclave

logger = logging.getLogger(__name__)

#: The daemon's control-command table.  Every command is declared here by
#: decorating its handler; there is no dispatch if/elif anywhere.
COMMANDS = CommandRegistry()


def make_genesis(chain: Blockchain, allocations: Dict[str, int]) -> None:
    """Mint the shared genesis block.

    Every daemon is started with the same ``--fund`` allocation and
    wallets are seed-derived from node names, so minting in sorted-name
    order produces byte-identical coinbases (same nonces, same txids) in
    every process — the replicas agree from block 1 without any exchange.
    """
    for name in sorted(allocations):
        wallet = KeyPair.from_seed(f"wallet:{name}".encode())
        chain.mint(LockingScript.pay_to_address(wallet.address()),
                   allocations[name])
    chain.mine_block(timestamp=0.0)


class NodeDaemon:
    """One live Teechain participant plus its control server."""

    def __init__(
        self,
        name: str,
        host: str = "127.0.0.1",
        port: int = 0,
        control_port: int = 0,
        allocations: Optional[Dict[str, int]] = None,
        state_dir: Optional[str] = None,
        trace: Optional[bool] = None,
    ) -> None:
        self.name = name
        self.allocations = dict(allocations or {})
        # Installed before any component caches get_metrics().
        self.metrics = MetricsRegistry()
        set_metrics(self.metrics)

        self.scheduler = WallClockScheduler()
        # Causal tracing is opt-in (--trace / REPRO_TRACE=1): the tracer
        # is stamped with the scheduler clock — the same clock handshake
        # skew offsets are measured against, so repro.obs.merge can place
        # this daemon's spans on a shared timeline.
        if trace is None:
            trace = os.environ.get("REPRO_TRACE", "") not in ("", "0")
        self.trace_enabled = bool(trace)
        self.tracer: Tracer = NO_TRACE
        if self.trace_enabled:
            self.tracer = Tracer(now=lambda: self.scheduler.now)
            set_tracer(self.tracer)
        self.collector = TelemetryCollector(
            name, self.tracer, self.metrics,
            now=lambda: self.scheduler.now,
        )
        chain = Blockchain()
        make_genesis(chain, self.allocations)
        self.net = AsyncTcpNetwork(name, host=host, port=port)
        self.net.clock = lambda: self.scheduler.now
        self.network = TeechainNetwork(
            transport=self.net, scheduler=self.scheduler, chain=chain
        )
        self.node: TeechainNode = self.network.create_node(name)
        # After genesis (which every daemon must mine byte-identically):
        # blocks mined *here* pay their fees to this daemon's wallet.
        chain.fee_address = self.node.address
        for participant, amount in self.allocations.items():
            self.network.tracker.register(participant, amount)

        self.control_host = host
        self.control_port = control_port
        self.control = ControlServer(
            lambda request, _line: COMMANDS.dispatch(self, request),
            self.metrics)

        # Fresh per boot: mixed into secure-channel key derivation so
        # peers can tell a restart (new keys needed) from a reconnect.
        self._session_nonce = os.urandom(16)

        self._peer_keys: Dict[str, PublicKey] = {}
        self._peer_addresses: Dict[str, str] = {}

        # Routing gossip (repro.routing): a fresh per-boot gossip key —
        # deliberately NOT the seed-derived wallet key, which anyone can
        # recompute from the node name.  Peers pin it from the
        # handshake's topo_key field; everyone further away is
        # trust-on-first-use.  The planner reads the gossip-fed view and
        # is the only route-selection code (``pay-multihop dest=``).
        self.topology = TopologyView()
        self.gossip = GossipEngine(name, KeyPair.generate(), self.topology,
                                   metrics=self.metrics)
        self.planner = RoutePlanner(self.topology, metrics=self.metrics)
        self._announced_channels: set = set()
        # channel id → (peer asked, set once it confirms); probe seq →
        # (peer probed, resolved by its reply).
        self._pending_opens: Dict[str, Tuple[str, asyncio.Event]] = {}
        self._echo_futures: Dict[int, Tuple[str, asyncio.Future]] = {}
        self._echo_seq = 0
        self._applying_remote = False
        self._deposits: Dict[str, DepositRecord] = {}
        self._shutdown = asyncio.Event()

        # §7.2 client-side batching, configured by the ``batch-window``
        # control verb.  The batcher is created on first enable and kept
        # thereafter (its counters are cumulative); ``batch_window_s``
        # gates whether ``pay`` routes through it.  Its flush timer runs
        # on the wall-clock scheduler, i.e. the asyncio loop.
        self.batcher: Optional[PaymentBatcher] = None
        self.batch_window_s = 0.0

        # Stable storage (paper §6.2), gated on state_dir.  Restore runs
        # before the gossip subscriptions below: chain replay is local
        # history, not news to rebroadcast.
        self.state: Optional[DaemonStateStore] = None
        self.pstore: Optional[PersistentStore] = None
        self.restored = False
        if state_dir:
            self.state = DaemonStateStore(state_dir, name)
            self._setup_persistence()

        self.net.hello_factory = self._make_hello
        self.net.hello_handler = self._on_hello
        self.net.hello_ack_handler = self._on_hello_ack
        self.net.control_handler = self._on_control
        chain.subscribe_submit(self._gossip_submit)
        chain.subscribe(self._gossip_block)
        chain.subscribe_reorg(self._on_reorg)

    # ------------------------------------------------------------------
    # Stable storage
    # ------------------------------------------------------------------

    def _setup_persistence(self) -> None:
        """Wire sealed-state persistence; restore a prior boot's state.

        The monotonic counter delay is zero here: counter throttling is
        a *benchmark* concern (Table 1's 10 tx/s stable-storage row,
        measured in the DES); a live daemon should not sleep 100 ms per
        payment just to remind us SGX counters are slow.
        """
        store = self.state
        assert store is not None
        self.pstore = PersistentStore(
            self.node.enclave, self.scheduler,
            platform_secret=store.platform_secret, increment_delay=0.0,
            write=store.save_sealed,
        )
        if store.has_state:
            # Counter first (hardware survives power cycles), then the
            # blob — unseal verifies the binding and rejects rollback, and
            # restore commits the state at the next counter value.
            self.pstore.counter = self.pstore.counters.create(
                initial=store.load_counter())
            self.pstore.restore(self.node.enclave, store.load_sealed())
            meta = store.load_host() or {}
            self.node.channels.update(meta.get("channels", {}))
            self._peer_addresses.update(meta.get("peer_addresses", {}))
            self._deposits.update(meta.get("deposits", {}))
            self._applying_remote = True
            try:
                replay_chain(self.network.chain,
                             meta.get("chain", {"blocks": [], "mempool": []}))
            finally:
                self._applying_remote = False
            self.restored = True
            logger.info("%s: restored sealed state (counter=%d, chain "
                        "height=%d)", self.name, self.pstore.counter.value,
                        self.network.chain.height)

        # Host metadata is saved where it changes, not per seal: it holds
        # every block, so a save per payment grew with chain height.
        def hook(description: str) -> None:
            self.pstore.persist()
            if self.metrics.enabled:
                self.metrics.inc("runtime.seals_written")

        self.node.program.replication_hook = hook
        self._save_host_meta()

    def _save_host_meta(self) -> None:
        if self.state is None:
            return
        self.state.save_host({
            "channels": dict(self.node.channels),
            "peer_addresses": dict(self._peer_addresses),
            "deposits": dict(self._deposits),
            "chain": chain_snapshot(self.network.chain),
        })

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    async def start(self) -> Tuple[int, int]:
        """Bind both listeners; returns (peer port, control port)."""
        _, port = await self.net.start()
        self.control_port = await self.control.start(self.control_host,
                                                     self.control_port)
        logger.info("%s: peers on %s:%d, control on %s:%d",
                    self.name, self.net.host, port,
                    self.control_host, self.control_port)
        return port, self.control_port

    async def run_until_shutdown(self) -> None:
        await self._shutdown.wait()
        await self.stop()

    async def stop(self) -> None:
        await self.net.stop()
        await self.control.stop()

    async def _wait_for(self, predicate: Callable[[], bool],
                        timeout: float = 10.0, what: str = "condition") -> None:
        # Everything awaited here (a peer's attested key, a deposit
        # approval, a multihop completion) changes only while an inbound
        # frame is handled, so sleep until the transport reports one.
        deadline = time.monotonic() + timeout
        while not predicate():
            try:
                await asyncio.wait_for(self.net.next_progress(),
                                       deadline - time.monotonic())
            except asyncio.TimeoutError:
                raise ReproError(
                    f"{self.name}: timed out waiting for {what}") from None

    # ------------------------------------------------------------------
    # Peer handshake: quotes over the wire → secure channels
    # ------------------------------------------------------------------

    def _make_hello(self) -> Hello:
        return Hello(
            name=self.name,
            host=self.net.host,
            port=self.net.port,
            settlement_address=self.node.address,
            quote=self._my_quote(),
            session=self._session_nonce,
            topo_key=self.gossip.keypair.public.to_bytes(),
        )

    def _my_quote(self):
        enclave = self.node.enclave
        return self.network.attestation.quote(
            enclave, report_data=enclave.public_key.to_bytes()
        )

    def _combined_session(self, peer_nonce: bytes) -> bytes:
        """Both boot nonces hashed order-independently, so the two sides
        of a dual-dial handshake derive the same salt."""
        first, second = sorted((self._session_nonce, peer_nonce))
        return sha256(b"session:" + first + b"|" + second)

    def _install_peer(self, name: str, settlement_address: str, quote,
                      session: bytes = b"", topo_key: bytes = b"") -> None:
        # A NetworkError: the transport warns and drops the connection.
        # Field types come first: the session salt is derived before the
        # quote is attested, so a mistyped field from an unauthenticated
        # peer must cost only its connection.
        if not (isinstance(name, str) and isinstance(session, bytes)
                and isinstance(topo_key, bytes)):
            raise NetworkError(f"malformed handshake from {name!r}")
        if not isinstance(quote, Quote):
            raise NetworkError(f"{name}'s handshake carries no quote")
        salt = self._combined_session(session)
        key_bytes = quote.enclave_key.to_bytes()
        existing = self.node.program.secure_channels.get(key_bytes)
        if existing is None or existing.session != salt:
            try:
                channel = channel_from_quote(
                    self.node.enclave, quote,
                    self.network.attestation.root_key,
                    service=self.network.attestation,
                    session=salt,
                )
            except AttestationError as exc:
                raise NetworkError(f"{name}'s quote: {exc}") from exc
            # First contact installs; a *different* salt means one of us
            # rebooted (its replay counters died with enclave memory), so
            # renew the keys — the enclave retires the old salt to block
            # replayed-handshake regressions.  Same salt: benign TCP
            # reconnect within the same boot pair; keep channel+counters.
            verb = ("install_secure_channel" if existing is None
                    else "reinstall_secure_channel")
            self.node.enclave.ecall(verb, channel, name)
            if existing is not None and self.metrics.enabled:
                self.metrics.inc("runtime.channel_reinstalls")
        self._peer_keys[name] = quote.enclave_key
        self._peer_addresses[name] = settlement_address
        if topo_key:
            # The handshake rode an attested quote, so this binding
            # outranks anything learned from flooded gossip (TOFU).
            self.topology.bind_key(name, topo_key, pinned=True)
        self._save_host_meta()

    def _on_hello(self, hello: Hello) -> HelloAck:
        self._install_peer(hello.name, hello.settlement_address, hello.quote,
                           hello.session, hello.topo_key)
        # Dial back so we can send; a no-op if the link already exists.
        self.net.add_peer(hello.name, hello.host, hello.port)
        self._sync_gossip(hello.name)
        return HelloAck(name=self.name, settlement_address=self.node.address,
                        quote=self._my_quote(), session=self._session_nonce,
                        topo_key=self.gossip.keypair.public.to_bytes())

    def _on_hello_ack(self, ack: HelloAck) -> None:
        self._install_peer(ack.name, ack.settlement_address, ack.quote,
                           ack.session, ack.topo_key)
        self._sync_gossip(ack.name)

    # ------------------------------------------------------------------
    # Blockchain replication
    # ------------------------------------------------------------------

    def _gossip_submit(self, transaction: Transaction) -> None:
        self._save_host_meta()
        if self._applying_remote:
            return
        for peer in self.net.peer_names():
            self.net.send_control(peer, ChainTx(transaction))

    def _gossip_block(self, block) -> None:
        self._save_host_meta()
        if self._applying_remote:
            return
        announcement = ChainBlock(block=block)
        for peer in self.net.peer_names():
            self.net.send_control(peer, announcement)

    def _apply_remote_tx(self, transaction: Transaction) -> None:
        self._applying_remote = True
        try:
            self.network.chain.submit(transaction)
        except BlockchainError as exc:
            # A conflicting local transaction won the race; real mempools
            # disagree transiently too.  Block gossip reconciles.
            logger.warning("%s: rejected gossiped tx %s: %s",
                           self.name, transaction.txid[:12], exc)
        finally:
            self._applying_remote = False

    def _apply_remote_block(self, block, peer_name: Optional[str]) -> None:
        """Attach a gossiped block body; fork choice reconciles.

        Deliberately *not* run under ``_applying_remote``: connecting a
        peer's branch can reorganise our active chain, and the evicted
        transactions the chain returns to the mempool must re-gossip (the
        orphan re-broadcast path) — the block itself never echoes because
        only locally mined blocks fire the block listeners."""
        chain = self.network.chain
        try:
            status = chain.receive_block(block)
        except BlockchainError as exc:
            logger.warning("%s: rejected gossiped block %s: %s",
                           self.name, block.block_hash[:12], exc)
            return
        if status == "orphan" and peer_name is not None:
            # Hash-chain reconciliation: walk the sender's history
            # backwards until our chains connect.
            self.net.send_control(
                peer_name, ChainRequest(block_hash=block.previous_hash))
        if status == "connected":
            self._save_host_meta()

    def _on_chain_request(self, request: ChainRequest,
                          peer_name: Optional[str]) -> None:
        if peer_name is None:
            return
        block = self.network.chain.block_by_hash(request.block_hash)
        if block is not None:
            self.net.send_control(peer_name, ChainBlock(block=block))
        else:
            logger.warning("%s: peer %s requested unknown block %s",
                           self.name, peer_name, request.block_hash[:12])

    def _send_chain_tip(self, peer: str) -> None:
        """Offer our tip to a peer (handshake / heal anti-entropy): if the
        peer's chain is behind or forked it orphan-requests backwards
        until the histories connect and fork choice converges them."""
        chain = self.network.chain
        if chain.height > 1 and self.net.has_peer(peer):
            self.net.send_control(peer, ChainBlock(block=chain.blocks[-1]))

    def _on_reorg(self, event) -> None:
        if self.metrics.enabled:
            self.metrics.inc("chain.reorgs")
            self.metrics.inc("chain.orphaned_txs",
                             len(event.evicted) + len(event.dropped))
        logger.info(
            "%s: reorg depth=%d (%s → %s): %d txs returned to mempool, "
            "%d dropped", self.name, event.depth, event.old_tip[:12],
            event.new_tip[:12], len(event.evicted), len(event.dropped),
        )

    # ------------------------------------------------------------------
    # Control-plane frames from peers
    # ------------------------------------------------------------------

    def _on_control(self, obj: Any, peer_name: Optional[str]) -> None:
        if isinstance(obj, ChainTx):
            self._apply_remote_tx(obj.transaction)
        elif isinstance(obj, ChainBlock):
            self._apply_remote_block(obj.block, peer_name)
        elif isinstance(obj, ChainRequest):
            self._on_chain_request(obj, peer_name)
        elif isinstance(obj, OpenChannel):
            self._on_open_channel(obj, peer_name)
        elif isinstance(obj, OpenChannelOk):
            self._on_open_channel_ok(obj, peer_name)
        elif isinstance(obj, Echo):
            self._on_echo(obj, peer_name)
        elif (isinstance(obj, SignedMessage)
              and isinstance(obj.body, (ChannelAnnounce, ChannelUpdate))):
            self._on_gossip(obj, peer_name)
        else:
            logger.warning("%s: unknown control frame %s",
                           self.name, type(obj).__name__)

    def _on_open_channel(self, request: OpenChannel,
                         peer_name: Optional[str]) -> None:
        # Who is asking is the link the frame arrived on, never a field
        # of the frame: a connected peer may only open channels with us
        # for itself.
        peer_key = self._peer_keys.get(peer_name)
        if peer_key is None or request.initiator != peer_name:
            logger.warning("%s: dropped OpenChannel naming %r from peer %r",
                           self.name, request.initiator, peer_name)
            return
        # Ecall + pump: our NewChannelAck goes on the wire now, and the
        # initiator's held ack follows once ours is processed there.
        self.node._ecall(
            "new_pay_channel", request.channel_id, peer_key,
            request.settlement_address, self.node.address,
        )
        self.node.channels[request.channel_id] = peer_name
        self._save_host_meta()
        self.net.send_control(
            peer_name,
            OpenChannelOk(channel_id=request.channel_id, responder=self.name,
                          settlement_address=self.node.address),
        )
        self._advertise_channel(request.channel_id)

    def _on_open_channel_ok(self, ok: OpenChannelOk,
                            peer_name: Optional[str]) -> None:
        """Only the peer an ``open-channel`` of ours is waiting on may
        confirm it; the waiting verb records the channel."""
        pending = self._pending_opens.get(ok.channel_id)
        if pending is None or pending[0] != peer_name:
            logger.warning("%s: dropped OpenChannelOk for %r from peer %r",
                           self.name, ok.channel_id, peer_name)
            return
        pending[1].set()

    # ------------------------------------------------------------------
    # Routing gossip: flooded ChannelAnnounce/ChannelUpdate frames feed
    # the topology view the planner routes over (DESIGN.md §13)
    # ------------------------------------------------------------------

    def _on_gossip(self, signed: SignedMessage,
                   from_peer: Optional[str]) -> None:
        fresh = self.gossip.handle(signed)
        if fresh:
            # Re-flood fresh news to everyone but its carrier.  Stale,
            # replayed, or forged frames stop here — re-flooding them
            # would launder a replay into continued propagation.
            self._flood_gossip(signed, exclude=from_peer)

    def _flood_gossip(self, signed: SignedMessage,
                      exclude: Optional[str] = None) -> None:
        for peer in self.net.peer_names():
            if peer != exclude:
                self.net.send_control(peer, signed)

    def _sync_gossip(self, peer: str) -> None:
        """Anti-entropy on (re)handshake: replay our stored frames to the
        peer so late joiners and healed partitions converge without
        waiting for organic re-floods."""
        if not self.net.has_peer(peer):
            return
        for frame in self.gossip.backlog():
            self.net.send_control(peer, frame)
        # Chain anti-entropy rides the same (re)handshake: blocks mined
        # during a partition never re-flood organically, so offer our tip
        # and let hash-chain reconciliation pull whatever is missing.
        self._send_chain_tip(peer)

    def _channel_capacity(self, channel_id: str) -> int:
        """Our directional (spendable) balance on a channel."""
        try:
            snapshot = self.node.program.channel_snapshot(channel_id)
        except ReproError:
            return 0
        return int(snapshot["my_balance"])

    def _advertise_channel(self, channel_id: str, *,
                           disabled: bool = False) -> None:
        """Announce (first time) or update (afterwards) our half of a
        channel at its current capacity, and flood the frame."""
        peer = self.node.channels.get(channel_id)
        if peer is None or peer == self.name:
            return
        capacity = 0 if disabled else self._channel_capacity(channel_id)
        if channel_id in self._announced_channels:
            frame = self.gossip.update(channel_id, peer, capacity,
                                       disabled=disabled)
        else:
            self._announced_channels.add(channel_id)
            frame = self.gossip.announce(channel_id, peer, capacity)
            if disabled:  # settle before any announce: disable explicitly
                frame = self.gossip.update(channel_id, peer, 0,
                                           disabled=True)
        self._flood_gossip(frame)

    def _resolve_route(self, dest: str, amount: int) -> List[str]:
        try:
            return self.planner.find_route(self.name, dest, amount=amount)
        except RoutingError as exc:
            raise CommandError(str(exc), code="no_route") from exc

    def _on_echo(self, echo: Echo, peer_name: Optional[str]) -> None:
        """Answer a probe on the link it came in on, and count a reply
        only from the peer that was probed: ``origin`` is a label, not an
        address."""
        if not echo.reply:
            if peer_name is None or echo.origin != peer_name:
                logger.warning("%s: dropped Echo naming %r from peer %r",
                               self.name, echo.origin, peer_name)
                return
            self.net.send_control(
                peer_name, Echo(seq=echo.seq, origin=peer_name, reply=True))
            return
        probed, future = self._echo_futures.get(echo.seq, (None, None))
        if probed is None or probed != peer_name:
            return
        del self._echo_futures[echo.seq]
        if not future.done():
            future.set_result(time.perf_counter())

    async def _echo_round_trip(self, peer: str,
                               timeout: float = 10.0) -> float:
        """Seconds until the peer has processed everything we sent before
        this call (FIFO barrier + latency probe in one)."""
        self._echo_seq += 1
        seq = self._echo_seq
        future: asyncio.Future = asyncio.get_event_loop().create_future()
        self._echo_futures[seq] = (peer, future)
        started = time.perf_counter()
        self.net.send_control(peer, Echo(seq=seq, origin=self.name))
        finished = await asyncio.wait_for(future, timeout)
        return finished - started

    # ------------------------------------------------------------------
    # Backpressured payment pipeline
    # ------------------------------------------------------------------

    async def _pay_pipelined(self, channel_id: str, amount: int,
                             batch_count: int = 1) -> None:
        """One channel payment through the backpressured send path.

        The pay ecall runs synchronously (sequence numbers are minted
        inside the enclave, and asyncio runs everything up to the first
        ``await`` without interleaving, so concurrent pay tasks cannot
        reorder a channel's envelopes), then the outbox drains through
        :meth:`AsyncTcpNetwork.send_wait`: under sustained load the
        sender is throttled by its own outbound queue instead of
        silently losing payment frames.
        """
        try:
            with op_span("channel.pay", channel=channel_id, node=self.name):
                self.node.enclave.ecall("pay", channel_id, amount,
                                        batch_count)
            peer = self.node.channels.get(channel_id)
            if peer is not None:
                self.network.tracker.record_payment(self.name, peer, amount)
        finally:
            # Drain even when the ecall raised: the outbox may hold
            # frames an earlier ecall queued, which must not be stranded.
            await self._drain_outbox()

    def _flush_batches(self) -> int:
        """Flush pending payment batches (if batching is active)."""
        if self.batcher is None or not self.batcher.pending_payments():
            return 0
        return self.batcher.flush()

    async def _drain_outbox(self) -> None:
        """Ship whatever the enclave queued, with backpressure."""
        for outbound in self.node.enclave.take_outbox():
            await self.net.send_wait(self.node.name, outbound.destination,
                                     outbound.payload)

    # ------------------------------------------------------------------
    # Control commands.  Each handler is declared in the registry; the
    # verbs mirror TeechainNode's API (see README's command table).
    # ------------------------------------------------------------------

    @COMMANDS.command("ping", doc="Liveness check; returns name and clock.")
    async def _cmd_ping(self) -> Dict[str, Any]:
        return {"name": self.name, "now": self.scheduler.now}

    @COMMANDS.command("help", doc="List every command with its signature.")
    async def _cmd_help(self) -> Dict[str, Any]:
        return {"commands": COMMANDS.help_table()}

    @COMMANDS.command(
        "connect",
        Param("peer", doc="peer daemon name"),
        Param("host", doc="peer host"),
        Param("port", int, doc="peer port"),
        doc="Dial a peer and complete the attested handshake.")
    async def connect(self, peer: str, host: str, port: int,
                      timeout: float = 10.0) -> Dict[str, Any]:
        self.net.add_peer(peer, host, port)
        await self.net.wait_connected(peer, timeout)
        await self._wait_for(lambda: peer in self._peer_keys, timeout,
                             f"attestation handshake with {peer}")
        return {"peer": peer, "attested": True}

    @COMMANDS.command(
        "open-channel",
        Param("peer", doc="attested peer name"),
        Param("channel_id", required=False, doc="explicit id (optional)"),
        doc="Open a payment channel with an attested peer.")
    async def open_channel(self, peer: str,
                           channel_id: Optional[str] = None,
                           timeout: float = 10.0) -> Dict[str, Any]:
        if peer not in self._peer_keys:
            raise CommandError(f"not connected to {peer!r}",
                               code="not_connected")
        cid = channel_id or self.network.next_channel_id(self.name, peer)
        event = asyncio.Event()
        self._pending_opens[cid] = (peer, event)
        try:
            # Direct ecall, NOT node._ecall: the ack must stay in the
            # outbox until the responder's ack arrives (module docstring).
            self.node.enclave.ecall(
                "new_pay_channel", cid, self._peer_keys[peer],
                self._peer_addresses[peer], self.node.address,
            )
            self.net.send_control(
                peer, OpenChannel(channel_id=cid, initiator=self.name,
                                  settlement_address=self.node.address),
            )
            await asyncio.wait_for(event.wait(), timeout)
        finally:
            self._pending_opens.pop(cid, None)
        self.node.channels[cid] = peer
        self._save_host_meta()
        self._advertise_channel(cid)
        # Barrier: the peer has processed our (now flushed) ack.
        await self._echo_round_trip(peer, timeout)
        return {"channel_id": cid, "peer": peer}

    @COMMANDS.command(
        "deposit",
        Param("value", int, doc="satoshi value to deposit"),
        Param("peer", required=False,
              doc="the peer it will back; places it on a sharded daemon"),
        Param("channel_id", required=False,
              doc="the channel it will back; places it on a sharded "
                  "daemon"),
        doc="Create and confirm an on-chain deposit.")
    async def deposit(self, value: int, peer: Optional[str] = None,
                      channel_id: Optional[str] = None) -> Dict[str, Any]:
        record = self.node.create_deposit(value, confirm=True)
        self._deposits[record.outpoint.txid] = record
        self._save_host_meta()
        return {"txid": record.outpoint.txid,
                "index": record.outpoint.index, "value": value}

    @COMMANDS.command(
        "approve-associate",
        Param("peer", doc="channel counterparty"),
        Param("channel_id"),
        Param("txid", doc="deposit txid from 'deposit'"),
        doc="Approve a deposit for a peer and associate it to a channel.")
    async def approve_associate(self, peer: str, channel_id: str,
                                txid: str, timeout: float = 10.0) -> Dict[str, Any]:
        record = self._deposits.get(txid)
        if record is None:
            raise CommandError(f"no deposit with txid {txid[:12]}…",
                               code="no_such_deposit")
        peer_key = self._peer_keys[peer]
        key_bytes = peer_key.to_bytes()
        program = self.node.program
        approved = program.approved_deposits.get(key_bytes, set())
        if record.outpoint not in approved:
            self.node._ecall("approve_my_deposit", peer_key, record.outpoint)
            await self._wait_for(
                lambda: record.outpoint in program.approved_deposits.get(
                    key_bytes, set()),
                timeout, "deposit approval",
            )
        self.node._ecall("associate_deposit", channel_id, record.outpoint)
        await self._echo_round_trip(peer, timeout)
        # The channel's spendable capacity changed: gossip the new number
        # so remote planners stop excluding (or start preferring) it.
        self._advertise_channel(channel_id)
        snapshot = self.node.program.channel_snapshot(channel_id)
        return {"channel_id": channel_id, "txid": txid,
                "my_balance": snapshot["my_balance"],
                "remote_balance": snapshot["remote_balance"]}

    @COMMANDS.command(
        "pay",
        Param("channel_id"),
        Param("amount", int),
        doc="Send one off-chain payment over a channel.")
    async def pay(self, channel_id: str, amount: int) -> Dict[str, Any]:
        if self.batch_window_s > 0:
            # §7.2 batching: queue the logical payment; the window timer
            # (or settle/batch-window) flushes it as one protocol
            # payment carrying batch_count.
            if channel_id not in self.node.channels:
                raise CommandError(f"no open channel {channel_id!r}",
                                   code="no_such_channel")
            assert self.batcher is not None
            self.batcher.submit(channel_id, amount)
            if self.metrics.enabled:
                self.metrics.inc("runtime.payments_batched")
            return {"channel_id": channel_id, "amount": amount,
                    "batched": True,
                    "pending": self.batcher.pending_count(channel_id)}
        await self._pay_pipelined(channel_id, amount)
        snapshot = self.node.program.channel_snapshot(channel_id)
        return {"channel_id": channel_id, "amount": amount,
                "my_balance": snapshot["my_balance"],
                "remote_balance": snapshot["remote_balance"]}

    @COMMANDS.command(
        "batch-window",
        Param("window_ms", int, doc="batching window in ms; 0 disables"),
        doc="Configure §7.2 client-side payment batching.", pool=True)
    async def _cmd_batch_window(self, window_ms: int) -> Dict[str, Any]:
        if window_ms < 0:
            raise CommandError(f"window_ms must be >= 0, got {window_ms}",
                               code="bad_request")
        # Reconfiguring mid-stream flushes what is queued under the old
        # window first, and pushes it to the sockets so a 'batch-window 0'
        # followed by 'settle' observes every payment.
        flushed = self._flush_batches()
        if flushed:
            await self.net.flush()
        self.batch_window_s = window_ms / 1000.0
        if window_ms > 0:
            if self.batcher is None:
                self.batcher = PaymentBatcher(self.node,
                                              window=self.batch_window_s,
                                              scheduler=self.scheduler)
            else:
                self.batcher.window = self.batch_window_s
        return {"window_ms": window_ms, "enabled": window_ms > 0,
                "flushed": flushed}

    @COMMANDS.command(
        "fastpath",
        Param("enabled", int, doc="must be 1: every Paid travels bare"),
        Param("checkpoint_every", int, required=False, doc="ignored"),
        doc="Retired: accepted and ignored (payments carry no signature).",
        pool=True)
    async def _cmd_fastpath(self, enabled: int,
                            checkpoint_every: Optional[int] = None
                            ) -> Dict[str, Any]:
        """Kept only for ``perf/workloads.py``; the yardstick change
        (ROADMAP item 1) drops its two calls and the change after it
        deletes this verb."""
        if not enabled:
            raise CommandError("signed payments were removed; every Paid "
                               "travels bare", code="bad_request")
        return {"enabled": True}

    # ------------------------------------------------------------------
    # Account hub (repro.hub): the host only shuttles signed request
    # bytes into the enclave — forgery/replay/balance checks all happen
    # inside hub_handle_request, so none of these verbs are trusted.
    # ------------------------------------------------------------------

    def _chain_payout(self, address: str, amount: int) -> str:
        """Execute an enclave-authorised on-chain withdrawal from the hub
        wallet and mine it, so the payout is immediately auditable on
        every replica's chain."""
        sources, total = self.node._wallet_outpoints(amount)
        destinations = [(address, amount)]
        if total > amount:
            destinations.append((self.node.address, total - amount))
        transaction = build_p2pkh_transfer(
            sources, self.node.wallet.private, destinations)
        self.node.client.broadcast(transaction)
        self.network.mine()
        return transaction.txid

    def _chain_payout_refunding(self, account_hex: str, address: str,
                                amount: int) -> str:
        """``_chain_payout``, but a failure re-credits the enclave
        ledger instead of burning the client's balance.

        The chain route is authorise-then-execute: the enclave has
        already debited by the time the host builds the wallet
        transaction, and the wallet can come up short even though the
        withdrawal was admitted (solvency counts channel balances and
        free deposits, not wallet UTXOs).  Without the compensating
        ecall the debit would stand with no payout, no txid, and no
        reconciliation path."""
        try:
            txid = self._chain_payout(address, amount)
        except Exception as exc:
            self.node.enclave.ecall("hub_refund_payout", account_hex,
                                    amount)
            raise CommandError(
                f"chain payout of {amount} to {address!r} failed ({exc}); "
                "the account balance was re-credited — the nonce stays "
                "consumed, retry with a fresh one",
                code="payout_failed") from exc
        # Retire the authorise-then-execute window (outside the
        # try/except: a failure *here* must not trigger a refund of a
        # payout that did execute — that would mint the amount twice).
        self.node.enclave.ecall("hub_payout_done", amount)
        return txid

    @COMMANDS.command(
        "account-open",
        Param("request", doc="hex-encoded signed AccountDeposit"),
        doc="Open (or credit) a client account from a signed deposit "
            "request; the credit must fit the hub's channel/deposit "
            "backing.")
    async def _cmd_account_open(self, request: str) -> Dict[str, Any]:
        return self.node.enclave.ecall("hub_handle_request", decode_request(
            request, hub_messages.AccountDeposit))

    @COMMANDS.command(
        "account-pay",
        Param("request", doc="hex-encoded signed AccountPay"),
        doc="Move value between two client accounts inside the hub "
            "ledger (minus the hub fee).")
    async def _cmd_account_pay(self, request: str) -> Dict[str, Any]:
        return self.node.enclave.ecall("hub_handle_request", decode_request(
            request, hub_messages.AccountPay))

    @COMMANDS.command(
        "account-withdraw",
        Param("request", doc="hex-encoded signed AccountWithdraw"),
        doc="Withdraw from an account: internal move, out over a channel "
            "(one bare Paid), or on-chain via the hub "
            "wallet.")
    async def _cmd_account_withdraw(self, request: str) -> Dict[str, Any]:
        signed = decode_request(request, hub_messages.AccountWithdraw)
        body = signed.body
        if body.route == "chain" and body.amount > 0:
            # Fail the cheap case before the enclave debits: solvency
            # admission counts channel balances and free deposits, not
            # wallet UTXOs, so check the wallet actually covers the
            # payout first (InsufficientFunds → stable code, and the
            # request's nonce is never consumed).  Non-positive amounts
            # fall through for the enclave's own validation.
            self.node._wallet_outpoints(body.amount)
        result = self.node.enclave.ecall("hub_handle_request", signed)
        # Channel-route withdrawals leave a Paid frame in the enclave
        # outbox; chain-route ones return a payout authorisation
        # the host wallet executes (observable on the replicated chain).
        await self._drain_outbox()
        if result.get("route") == "chain":
            result["txid"] = self._chain_payout_refunding(
                result["account"], result["address"], result["amount"])
        return result

    @COMMANDS.command(
        "account-query",
        Param("request", doc="hex-encoded signed AccountQuery"),
        doc="Read an account's balance and last accepted nonce "
            "(signed: balances are private to the keyholder).")
    async def _cmd_account_query(self, request: str) -> Dict[str, Any]:
        return self.node.enclave.ecall("hub_handle_request", decode_request(
            request, hub_messages.AccountQuery))

    @COMMANDS.command(
        "account-pay-many",
        Param("requests", list, doc="list of hex-encoded signed requests"),
        doc="Apply a batch of signed account requests in order; each "
            "item succeeds or is rejected independently with its stable "
            "error code.")
    async def _cmd_account_pay_many(self, requests) -> Dict[str, Any]:
        if not isinstance(requests, list) or not requests:
            raise CommandError("requests must be a non-empty list",
                               code="bad_request")
        # An undecodable item is rejected in place, like one the enclave
        # refuses; the rest of the batch stands.
        results: List[Any] = []
        for item in requests:
            try:
                results.append(decode_request(item))
            except CommandError as exc:
                results.append({"ok": False, "code": exc.code,
                                "error": str(exc)})
        applied = iter(self.node.enclave.ecall("hub_handle_batch", [
            item for item in results if isinstance(item, SignedMessage)]))
        results = [next(applied) if isinstance(item, SignedMessage)
                   else item for item in results]
        await self._drain_outbox()
        for item in results:
            if item.get("ok") and item.get("route") == "chain":
                try:
                    item["txid"] = self._chain_payout_refunding(
                        item["account"], item["address"], item["amount"])
                except CommandError as exc:
                    # The ledger debit was reversed; report the item as
                    # rejected in place so the rest of the batch stands.
                    item.update(ok=False, code=exc.code, error=str(exc),
                                refunded=True)
        accepted = sum(1 for item in results if item.get("ok"))
        return {"results": results, "accepted": accepted,
                "rejected": len(results) - accepted}

    @COMMANDS.command(
        "account-stats",
        doc="Hub ledger summary: accounts, balances, fee bucket, backing, "
            "conservation and solvency checks.", pool=True)
    async def _cmd_account_stats(self) -> Dict[str, Any]:
        return {"name": self.name,
                "hub": self.node.enclave.ecall("hub_stats")}

    @COMMANDS.command(
        "hub-fee",
        Param("fee_per_pay", int, doc="fee collected per account pay"),
        doc="Set the hub's per-payment fee (accumulates in the fee "
            "bucket).", pool=True)
    async def _cmd_hub_fee(self, fee_per_pay: int) -> Dict[str, Any]:
        return self.node.enclave.ecall("hub_set_fee", fee_per_pay)

    @COMMANDS.command(
        "route",
        Param("dest", doc="destination node name"),
        Param("amount", int, required=False, default=0,
              doc="filter out edges below this capacity (0 = ignore)"),
        doc="Resolve a route to dest over the gossip-discovered topology "
            "(no payment); 'no_route' when none exists yet.")
    async def _cmd_route(self, dest: str, amount: int = 0) -> Dict[str, Any]:
        route = self._resolve_route(str(dest), amount)
        return {"dest": dest, "route": route, "hops": len(route) - 1,
                "topology": self.topology.stats()}

    @COMMANDS.command(
        "pay-multihop",
        Param("amount", int),
        Param("dest", required=False,
              doc="destination node; the route is resolved through the "
                  "gossip-discovered topology"),
        Param("path", required=False,
              doc="explicit comma-separated hop override, this daemon "
                  "first (skips route discovery)"),
        Param("payment_id", required=False, doc="explicit id (optional)"),
        doc="Send a multi-hop payment: give dest= to route via discovery, "
            "or path= to force an explicit route.")
    async def pay_multihop(self, amount: int,
                           dest: Optional[str] = None,
                           path: Optional[str] = None,
                           payment_id: Optional[str] = None,
                           timeout: float = 30.0) -> Dict[str, Any]:
        routed = False
        if path:
            hop_names = [hop.strip() for hop in str(path).split(",")
                         if hop.strip()]
            if len(hop_names) < 2:
                raise CommandError("path needs at least two hop names",
                                   code="bad_request")
            if hop_names[0] != self.name:
                raise CommandError(f"path must start at {self.name!r}",
                                   code="bad_request")
        elif dest:
            hop_names = self._resolve_route(str(dest), amount)
            if len(hop_names) < 2:
                raise CommandError(
                    f"{dest!r} is this daemon; nothing to pay",
                    code="bad_request")
            routed = True
        else:
            raise CommandError("need dest= (routed) or path= (explicit)",
                               code="bad_request")
        # Payment ids are minted per daemon; prefixing with our name keeps
        # them unique across the network without coordination.
        pid = payment_id or f"{self.name}-{self.network.next_payment_id()}"
        with op_span("multihop.pay", payment=pid, node=self.name,
                     hops=len(hop_names) - 1):
            self.node._ecall("pay_multihop", pid, amount, hop_names)
        await self._wait_for(
            lambda: pid in self.node.program.multihop_completed,
            timeout, f"multihop payment {pid}",
        )
        return {"payment_id": pid, "amount": amount,
                "hops": len(hop_names) - 1, "route": hop_names,
                "routed": routed, "completed": True}

    @COMMANDS.command(
        "echo",
        Param("peer"),
        doc="Round-trip a control frame to a peer; returns the RTT.")
    async def _cmd_echo(self, peer: str) -> Dict[str, Any]:
        rtt = await self._echo_round_trip(peer)
        return {"peer": peer, "rtt_s": rtt}

    @COMMANDS.command(
        "settle",
        Param("channel_id"),
        doc="Settle a channel (off-chain if balanced, on-chain otherwise).")
    async def settle(self, channel_id: str) -> Dict[str, Any]:
        peer = self.node.channels.get(channel_id)
        # Payments still queued in the batcher are part of the channel's
        # logical balance; settling without flushing would destroy them.
        if self._flush_batches():
            await self.net.flush()
        transaction = self.node.settle(channel_id)
        if transaction is not None:
            self.network.mine()
        # Tell the network the edge is gone before anyone routes over it.
        self._advertise_channel(channel_id, disabled=True)
        if peer is not None:
            # Best-effort FIFO barrier: confirm the peer processed the
            # SettleNotify.  A partitioned peer cannot answer, and must
            # not block the settlement — it is unilateral by design; the
            # peer reconciles from the chain when the partition heals.
            try:
                await self._echo_round_trip(peer, timeout=5.0)
            except asyncio.TimeoutError:
                logger.warning("%s: peer %s unreachable during settle of "
                               "%s; proceeding unilaterally",
                               self.name, peer, channel_id)
        return {"channel_id": channel_id,
                "txid": transaction.txid if transaction else None,
                "offchain": transaction is None}

    @COMMANDS.command(
        "eject-all",
        doc="Eject every in-flight multi-hop payment (crash recovery).",
        pool=True)
    async def _cmd_eject_all(self) -> Dict[str, Any]:
        ejected = self.node.eject_all()
        if any(ejected.values()):
            self.network.mine()
        return {"ejected": {payment_id: [tx.txid for tx in transactions]
                            for payment_id, transactions in ejected.items()}}

    @COMMANDS.command(
        "reclaim",
        doc="Settle all channels and reclaim every deposit on-chain.",
        pool=True)
    async def _cmd_reclaim(self) -> Dict[str, Any]:
        reclaimed = self.node.reclaim_all()
        return {"reclaimed": reclaimed,
                "onchain": self.node.onchain_balance()}

    @COMMANDS.command("mine", pool=True,
                      doc="Mine the mempool into a block.")
    async def _cmd_mine(self) -> Dict[str, Any]:
        chain = self.network.chain
        self.network.mine()
        return {"height": chain.height,
                "tip": chain.tip_hash,
                "fees_collected": chain.fees_collected()}

    @COMMANDS.command(
        "chain-sync",
        doc="Offer our chain tip to every connected peer (anti-entropy "
            "after a partition heals: forked peers request our history "
            "backwards until fork choice converges).", pool=True)
    async def _cmd_chain_sync(self) -> Dict[str, Any]:
        peers = list(self.net.peer_names())
        for peer in peers:
            self._send_chain_tip(peer)
        chain = self.network.chain
        return {"offered_to": peers,
                "height": chain.height,
                "tip": chain.tip_hash}

    @COMMANDS.command(
        "fee-policy",
        Param("feerate", float),
        Param("limit", int, required=False),
        doc="Set the settlement feerate (value per vsize byte; sealed "
            "enclave state — both channel endpoints must agree or their "
            "settlement txids diverge) and optionally the local block "
            "size limit that makes the fee market bind.", pool=True)
    async def _cmd_fee_policy(self, feerate: float,
                              limit: Optional[int] = None) -> Dict[str, Any]:
        result = self.node.enclave.ecall("set_fee_policy", feerate)
        if limit is not None:
            if limit <= 0:
                raise CommandError("limit must be positive")
            self.network.chain.block_limit = limit
        return {"feerate": result["settlement_feerate"],
                "block_limit": self.network.chain.block_limit,
                "feerate_estimate": self.network.chain.feerate_estimate(
                    self.network.chain.block_limit or 10)}

    @COMMANDS.command("balance", pool=True,
                      doc="On-chain balance of this node.")
    async def _cmd_balance(self) -> Dict[str, Any]:
        return {"name": self.name,
                "onchain": self.node.onchain_balance()}

    @COMMANDS.command(
        "channel",
        Param("channel_id"),
        doc="Snapshot one channel's balances and deposits.")
    async def _cmd_channel(self, channel_id: str) -> Dict[str, Any]:
        snapshot = self.node.program.channel_snapshot(channel_id)
        return {
            "channel_id": snapshot["channel_id"],
            "is_open": snapshot["is_open"],
            "my_balance": snapshot["my_balance"],
            "remote_balance": snapshot["remote_balance"],
            "my_deposits": [f"{o.txid}:{o.index}"
                            for o in snapshot["my_deposits"]],
            "remote_deposits": [f"{o.txid}:{o.index}"
                                for o in snapshot["remote_deposits"]],
        }

    @COMMANDS.command("stats", pool=True,
                      doc="Transport, chain, and uptime stats.")
    async def _cmd_stats(self) -> Dict[str, Any]:
        batcher = self.batcher
        return {
            "name": self.name,
            "transport": self.net.stats(),
            "chain": {"height": self.network.chain.height,
                      "tip": self.network.chain.tip_hash,
                      "mempool": self.network.chain.mempool_size(),
                      "reorgs": self.network.chain.reorg_count,
                      "orphaned_txs": self.network.chain.orphaned_tx_count,
                      "fees_collected": self.network.chain.fees_collected(),
                      "block_limit": self.network.chain.block_limit},
            "payments": {"sent": self.node.program.payments_sent,
                         "received": self.node.program.payments_received},
            "batching": {
                "window_ms": round(self.batch_window_s * 1000),
                "enabled": self.batch_window_s > 0,
                "payments_batched": batcher.payments_batched if batcher else 0,
                "batches_flushed": batcher.batches_flushed if batcher else 0,
                "pending": batcher.pending_payments() if batcher else 0,
            },
            "routing": {
                "cache": self.planner.cache_info(),
                "topology": self.topology.stats(),
            },
            "gossip": self.gossip.stats(),
            "uptime_s": self.scheduler.now,
            "restored": self.restored,
        }

    @COMMANDS.command("metrics", pool=True,
                      doc="Snapshot of the obs metrics registry.")
    async def _cmd_metrics(self) -> Dict[str, Any]:
        return {"metrics": self.metrics.snapshot()}

    @COMMANDS.command(
        "trace_dump",
        doc="This daemon's span ring plus the clock metadata trace "
            "merging needs (local/wall clocks, handshake skew offsets).",
        pool=True)
    async def _cmd_trace_dump(self) -> Dict[str, Any]:
        return self.collector.trace_dump(peer_offsets=self.net.peer_offsets)

    @COMMANDS.command(
        "metrics_stream",
        doc="Metrics delta since the previous call (rates without "
            "per-client server state; one cursor per daemon, read by "
            "'python -m repro.obs fleet').", pool=True)
    async def _cmd_metrics_stream(self) -> Dict[str, Any]:
        return self.collector.metrics_delta()

    @COMMANDS.command(
        "audit-snapshot",
        doc="Atomic audit digest for the fleet auditor: channel "
            "balances, free deposits, hub ledger verdicts, on-chain "
            "balance, and transport pressure, read in one event-loop "
            "slice so it never races a fund movement.", pool=True)
    async def _cmd_audit_snapshot(self) -> Dict[str, Any]:
        # No await between the ecall and the host-side reads: command
        # handlers run to completion inside one event-loop slice, so a
        # concurrent pay on another connection is either fully applied
        # before this line or not started until after the return.
        snapshot = self.node.enclave.ecall("audit_snapshot")
        peers = self.net.stats()["peers"]
        snapshot.update({
            "name": self.name,
            "onchain": self.node.onchain_balance(),
            "chain_height": self.network.chain.height,
            "mempool": self.network.chain.mempool_size(),
            "transport": {
                "peers": len(peers),
                "disconnected": sum(
                    1 for link in peers.values() if not link["connected"]),
                "queued": sum(link["queued"] for link in peers.values()),
                "reconnects": sum(
                    link["reconnects"] for link in peers.values()),
                "backpressure_waits": sum(
                    link["backpressure_waits"] for link in peers.values()),
                "drops_protocol": sum(
                    link["drops_protocol"] for link in peers.values()),
                "drops_control": sum(
                    link["drops_control"] for link in peers.values()),
            },
        })
        return snapshot

    @COMMANDS.command(
        "health",
        doc="Cheap liveness summary: uptime, trace ring pressure, "
            "peer/channel counts.", pool=True)
    async def _cmd_health(self) -> Dict[str, Any]:
        return self.collector.health(
            peers=len(self._peer_keys),
            channels=len(self.node.channels),
            chain_height=self.network.chain.height,
            tracing=self.trace_enabled,
        )

    @COMMANDS.command(
        "fault",
        Param("action", doc="crash | sever | blackhole | heal"),
        Param("peer", required=False, doc="peer link for sever/blackhole/heal"),
        doc="Inject a fault into this daemon (testing only).", pool=True)
    async def _cmd_fault(self, action: str,
                         peer: Optional[str] = None) -> Dict[str, Any]:
        if action == "crash":
            crash_enclave(self.node.enclave)
        elif action in ("sever", "blackhole", "heal"):
            if not peer:
                raise CommandError(
                    f"fault action {action!r} requires 'peer'",
                    code="bad_request")
            if action == "sever":
                self.net.sever(peer)
            elif action == "blackhole":
                self.net.blackhole(peer)
            else:
                self.net.restore(peer)
        else:
            raise CommandError(
                f"unknown fault action {action!r} "
                "(crash | sever | blackhole | heal)", code="bad_request")
        if self.metrics.enabled:
            self.metrics.inc("faults.injected")
            self.metrics.inc(f"faults.injected[{action}]")
        return {"action": action, "peer": peer}

    @COMMANDS.command("shutdown", doc="Stop the daemon gracefully.")
    async def _cmd_shutdown(self) -> Dict[str, Any]:
        self._shutdown.set()
        return {"stopping": True}

