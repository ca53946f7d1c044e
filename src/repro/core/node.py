"""The high-level Teechain API: :class:`TeechainNetwork` and
:class:`TeechainNode`.

A :class:`TeechainNode` is one participant: an SGX machine running the
Teechain enclave, an untrusted host that pumps messages between the enclave
and the network, a wallet (on-chain key), and an asynchronous blockchain
client.  :class:`TeechainNetwork` owns the shared substrate — simulated
clock, blockchain + miner, attestation service, transport — and is the
factory for nodes.

Quickstart::

    network = TeechainNetwork()
    alice = network.create_node("alice", funds=100_000)
    bob = network.create_node("bob", funds=100_000)
    alice.connect(bob)
    cid = alice.open_channel(bob)
    deposit = alice.create_deposit(50_000)
    alice.approve_and_associate(bob, deposit, cid)
    alice.pay(cid, 1_000)
    alice.settle(cid)
"""

from __future__ import annotations

import itertools
import logging
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.blockchain.access import AsyncBlockchainClient, WriteAdversary
from repro.blockchain.chain import Blockchain
from repro.blockchain.miner import Miner
from repro.blockchain.script import LockingScript
from repro.blockchain.transaction import (
    OutPoint,
    Transaction,
    TxInput,
    TxOutput,
    build_p2pkh_transfer,
)
from repro.blockchain.script import Witness
from repro.core.channel_base import ChannelProtocol
from repro.core.committee import CommitteeCoordinator
from repro.core.correctness import BalanceTracker
from repro.core.deposits import DepositRecord, DepositStatus
from repro.core.multihop import TeechainEnclave
from repro.core.replication import CommitteeMemberProgram, ReplicationChain
from repro.crypto.keys import KeyPair
from repro.crypto.multisig import MultisigSpec
from repro.errors import (
    DepositError,
    EnclaveCrashed,
    InsufficientFunds,
    MultihopError,
    ProtocolError,
    ReproError,
)
from repro.network.secure_channel import establish_secure_channel
from repro.network.topology import Topology
from repro.network.transport import (
    BaseNetwork,
    InstantNetwork,
    Message,
    Network,
)
from repro.obs import get_tracer, op_span
from repro.routing import RoutePlanner, TopologyView
from repro.simulation.scheduler import Scheduler
from repro.tee.attestation import AttestationService
from repro.tee.enclave import Enclave

logger = logging.getLogger(__name__)

# Peer argument accepted by the unified node API: a TeechainNode or its
# name (the daemon control surface only ever sees names).
PeerRef = Union["TeechainNode", str]


class TeechainNetwork:
    """Shared simulation context and node factory.

    ``transport="instant"`` (default) delivers messages synchronously —
    protocol operations complete before the call returns, ideal for tests
    and examples.  ``transport="simulated"`` uses the discrete-event
    network with a :class:`~repro.network.topology.Topology`; callers must
    :meth:`run` the scheduler to make progress.  Passing a
    :class:`~repro.network.transport.BaseNetwork` *instance* (e.g. the
    live ``AsyncTcpNetwork``) uses it as-is; pair it with a ``scheduler``
    override such as the runtime's ``WallClockScheduler``.
    """

    def __init__(
        self,
        transport: object = "instant",
        topology: Optional[Topology] = None,
        block_interval: float = 600.0,
        scheduler: Optional[Scheduler] = None,
        chain: Optional[Blockchain] = None,
    ) -> None:
        self.scheduler = scheduler if scheduler is not None else Scheduler()
        self.chain = chain if chain is not None else Blockchain()
        self.miner = Miner(self.chain, self.scheduler,
                           block_interval=block_interval)
        self.attestation = AttestationService()
        self.topology = topology
        if isinstance(transport, BaseNetwork):
            self.transport = transport
        elif transport == "instant":
            self.transport = InstantNetwork()
        elif transport == "simulated":
            if topology is None:
                raise ReproError("simulated transport needs a topology")
            self.transport = Network(
                self.scheduler, topology.latency_fn(), topology.bandwidth_fn()
            )
        else:
            raise ReproError(f"unknown transport {transport!r}")
        self.tracker = BalanceTracker(self.chain)
        self.nodes: Dict[str, "TeechainNode"] = {}
        # Deposit multisig address → CommitteeCoordinator, so any channel
        # counterparty can route settlement-signature requests to the
        # deposit's committee (paper §6.1).
        self.committees: Dict[str, CommitteeCoordinator] = {}
        self._channel_counter = itertools.count(1)
        self._payment_counter = itertools.count(1)

    def register_committee(self, deposit_address: str,
                           coordinator: CommitteeCoordinator) -> None:
        self.committees[deposit_address] = coordinator

    def committee_for(self, deposit_address: str) -> Optional[CommitteeCoordinator]:
        return self.committees.get(deposit_address)

    def create_node(self, name: str, funds: int = 0) -> "TeechainNode":
        if name in self.nodes:
            raise ReproError(f"node {name!r} already exists")
        node = TeechainNode(name, self)
        self.nodes[name] = node
        if funds:
            node.fund(funds)
        return node

    def mine(self) -> None:
        """Mine one block immediately (bootstrap/test convenience).

        With the instant transport, pending blockchain broadcasts (which
        ride the scheduler even at zero delay) are flushed first so a
        just-broadcast transaction lands in this block."""
        if isinstance(self.transport, InstantNetwork):
            self.scheduler.run()
        self.chain.mine_block(timestamp=self.scheduler.now)

    def run(self, until: Optional[float] = None) -> None:
        """Advance the discrete-event simulation."""
        self.scheduler.run(until=until)

    def next_channel_id(self, a: str, b: str) -> str:
        low, high = sorted((a, b))
        return f"chan-{low}-{high}-{next(self._channel_counter)}"

    def next_payment_id(self) -> str:
        return f"mh-{next(self._payment_counter)}"

    # ------------------------------------------------------------------
    # Routing (repro.routing): the DES is omniscient, so the topology
    # view is assembled directly from node state — live daemons build
    # the same view from gossip instead, and both feed the same planner.
    # ------------------------------------------------------------------

    def topology_view(self) -> TopologyView:
        """Full-knowledge view of every open channel, with directional
        capacities taken from the channels' current balances."""
        view = TopologyView()
        for node in self.nodes.values():
            for channel_id, peer in node.channels.items():
                try:
                    capacity, _ = node.channel_balance(channel_id)
                except ReproError:
                    continue  # closed or half-open channel: not routable
                view.upsert(origin=node.name, peer=peer,
                            channel_id=channel_id, capacity=capacity, seq=0)
        return view

    def route_planner(self, *, cost: str = "hops",
                      seed: int = 0) -> RoutePlanner:
        """A planner over the current topology.  The view is a snapshot:
        callers that mutate channels should request a fresh planner."""
        return RoutePlanner(self.topology_view(), cost=cost, seed=seed)


class TeechainNode:
    """One Teechain participant: enclave + host + wallet + chain client."""

    def __init__(self, name: str, network: TeechainNetwork) -> None:
        self.name = name
        self.network = network
        self.wallet = KeyPair.from_seed(f"wallet:{name}".encode())
        self.enclave = Enclave(TeechainEnclave(), name=name,
                               seed=f"enclave:{name}".encode())
        self.adversary = WriteAdversary(base_delay=0.0)
        self.client = AsyncBlockchainClient(network.chain, network.scheduler,
                                            self.adversary)
        self.committee: Optional[CommitteeCoordinator] = None
        self.replication: Optional[ReplicationChain] = None
        # channel id → peer node name (host-side bookkeeping).
        self.channels: Dict[str, str] = {}
        self.deposits: List[DepositRecord] = []
        network.transport.register(name, self._on_message)
        self._install_validator()
        self.program.committee_provider = self._signing_chain

    # ------------------------------------------------------------------
    # Host plumbing
    # ------------------------------------------------------------------

    @property
    def program(self) -> TeechainEnclave:
        return self.enclave.program  # type: ignore[return-value]

    def _install_validator(self) -> None:
        def validator(outpoint: OutPoint, depth: int) -> bool:
            return self.client.is_confirmed(outpoint.txid, depth)

        self.program.deposit_validator = validator

    def _signing_chain(self, local):
        """Signing-provider chain: own committee → local keys → the
        deposit owner's committee (for counterparty settlement of m-of-n
        deposits, paper §6.1: "a participant must acquire a sufficient
        number of signatures for each deposit")."""
        from repro.errors import SettlementError

        def provide(deposit, digest, unsigned):
            if (self.committee is not None
                    and deposit.address in self.committee._member_keys):
                return self.committee.gather_signatures(deposit, unsigned)
            try:
                return local(deposit, digest, unsigned)
            except SettlementError:
                coordinator = self.network.committee_for(deposit.address)
                if coordinator is None:
                    raise
                return coordinator.gather_signatures(deposit, unsigned)

        return provide

    def _on_message(self, message: Message) -> None:
        # Activating the message's causal context before the ecall (and,
        # crucially, around the pump) makes every span emitted while
        # handling it — and every message sent in response — a child of
        # the sender's context: one trace follows the payment across
        # nodes.  Untraced messages take the bare path.
        tracer = get_tracer()
        if message.trace is not None and tracer.enabled:
            with tracer.activate(message.trace):
                self._handle_delivery(message)
        else:
            self._handle_delivery(message)

    def _handle_delivery(self, message: Message) -> None:
        from repro.errors import MessageAuthenticationError

        try:
            self.enclave.ecall("handle_envelope", message.sender,
                               message.payload)
        except (ProtocolError, MessageAuthenticationError) as exc:
            # Protocol rejections (a stale lock, an unapproved deposit)
            # and authentication failures (replayed/forged envelopes) are
            # logged, not fatal: on a real network a refused message just
            # dies at the receiver.
            logger.info("%s rejected message from %s: %s",
                        self.name, message.sender, exc)
        finally:
            self._pump()

    def _ecall(self, method: str, *args, **kwargs):
        try:
            return self.enclave.ecall(method, *args, **kwargs)
        finally:
            self._pump()

    def _pump(self) -> None:
        """Drain the enclave outbox onto the wire."""
        for outbound in self.enclave.take_outbox():
            self.network.transport.send(self.name, outbound.destination,
                                        outbound.payload)

    # ------------------------------------------------------------------
    # Funding
    # ------------------------------------------------------------------

    @property
    def address(self) -> str:
        """On-chain wallet / settlement address."""
        return self.wallet.address()

    def fund(self, amount: int) -> None:
        """Mint ``amount`` to the wallet (simulation bootstrap) and record
        it as initial balance for correctness accounting."""
        self.network.chain.mint(
            LockingScript.pay_to_address(self.address), amount
        )
        self.network.mine()
        self.network.tracker.register(self.name, amount)

    def onchain_balance(self) -> int:
        return self.client.balance(self.address)

    # ------------------------------------------------------------------
    # Connectivity and channels
    # ------------------------------------------------------------------

    def _resolve_peer(self, peer: "PeerRef") -> "TeechainNode":
        """Accept a peer as a node object or by name.

        The daemon control API addresses peers by name; accepting names
        here keeps the two surfaces verb-and-signature compatible (see
        the README's API table), so the same driving script works against
        either backend."""
        if isinstance(peer, TeechainNode):
            return peer
        node = self.network.nodes.get(peer)
        if node is None:
            raise ReproError(f"no node named {peer!r} in this network")
        return node

    def connect(self, peer: "PeerRef") -> None:
        """Mutually attest with ``peer`` and install secure channels in
        both enclaves (Alg. 1 ``newNetworkChannel``)."""
        peer = self._resolve_peer(peer)
        ours, theirs = establish_secure_channel(
            self.enclave, peer.enclave, self.network.attestation
        )
        self._ecall("install_secure_channel", ours, peer.name)
        peer._ecall("install_secure_channel", theirs, self.name)

    def is_connected(self, peer: "PeerRef") -> bool:
        peer = self._resolve_peer(peer)
        return peer.enclave.public_key.to_bytes() in self.program.secure_channels

    def open_channel(self, peer: "PeerRef",
                     channel_id: Optional[str] = None) -> str:
        """Open a payment channel with ``peer`` (node object or name).

        Both participants instruct their TEEs (the paper's model); the
        channel is open once the two acknowledgements cross.  With the
        instant transport that has happened by the time this returns."""
        peer = self._resolve_peer(peer)
        if not self.is_connected(peer):
            self.connect(peer)
        cid = channel_id or self.network.next_channel_id(self.name, peer.name)
        # Both ecalls run before either outbox is pumped: each side's
        # acknowledgement must find the peer's channel record already
        # created (a real host would buffer the early ack; deferring the
        # pump models that without a retry queue).
        self.enclave.ecall("new_pay_channel", cid, peer.enclave.public_key,
                           peer.address, self.address)
        peer.enclave.ecall("new_pay_channel", cid, self.enclave.public_key,
                           self.address, peer.address)
        self._pump()
        peer._pump()
        self.channels[cid] = peer.name
        peer.channels[cid] = self.name
        return cid

    def channel_balance(self, channel_id: str) -> Tuple[int, int]:
        snapshot = self._ecall("channel_snapshot", channel_id)
        return snapshot["my_balance"], snapshot["remote_balance"]

    # ------------------------------------------------------------------
    # Committee chains (fault tolerance)
    # ------------------------------------------------------------------

    def attach_committee(self, backups: int, threshold: int) -> CommitteeCoordinator:
        """Create a committee chain of ``1 + backups`` members with an
        m-of-n deposit threshold of ``threshold``.

        Backup enclaves run :class:`CommitteeMemberProgram`; the primary's
        replication hook pushes every state change down the chain, and
        deposits created afterwards use m-of-n committee keys."""
        members = [
            Enclave(CommitteeMemberProgram(),
                    name=f"{self.name}-backup{i}",
                    seed=f"backup:{self.name}:{i}".encode())
            for i in range(1, backups + 1)
        ]
        self.replication = ReplicationChain(self.enclave, members,
                                            self.network.attestation)
        self.committee = CommitteeCoordinator(self.replication, threshold)
        # The signing chain installed at construction already consults
        # self.committee; nothing further to wire.
        return self.committee

    # ------------------------------------------------------------------
    # Deposits
    # ------------------------------------------------------------------

    def _wallet_outpoints(self, amount: int):
        """Select wallet UTXOs covering ``amount`` (oldest first)."""
        entries = self.network.chain.outputs_for(self.address)
        selected, total = [], 0
        for entry in entries:
            selected.append((entry.outpoint, entry.value))
            total += entry.value
            if total >= amount:
                return selected, total
        raise InsufficientFunds(
            f"{self.name} holds {total} on chain, needs {amount}"
        )

    def create_deposit(self, value: int, confirm: bool = True,
                       fee: int = 0) -> DepositRecord:
        """Create a fund deposit: spend ``value`` from the wallet into a
        TEE-controlled multisig output and register it with the enclave.

        Uses the node's committee (m-of-n) when one is attached, otherwise
        a 1-of-1 enclave key (Alg. 1).  With ``confirm`` a block is mined
        so the deposit is immediately approvable.  ``fee`` is the on-chain
        fee the funding transaction offers the miner: the wallet covers
        ``value + fee`` and the fee is recorded on the deposit for cost
        accounting."""
        if fee < 0:
            raise DepositError(f"negative deposit fee {fee}")
        if self.committee is not None:
            spec = self.committee.new_deposit_spec()
            committee_names = self.committee.member_names()
            self.network.register_committee(spec.address(), self.committee)
        else:
            _address, public = self._ecall("new_deposit_address")
            spec = MultisigSpec(1, (public,))
            committee_names = ()
        sources, total = self._wallet_outpoints(value + fee)
        outputs = [TxOutput(value, LockingScript.pay_to_multisig(spec))]
        change = total - value - fee
        if change > 0:
            outputs.append(
                TxOutput(change, LockingScript.pay_to_address(self.address))
            )
        unsigned = Transaction(
            inputs=tuple(TxInput(outpoint) for outpoint, _ in sources),
            outputs=tuple(outputs),
        )
        digest = unsigned.sighash()
        witness = Witness(signatures=(self.wallet.private.sign(digest),),
                          public_key=self.wallet.public)
        funding = unsigned.with_witnesses([witness] * len(unsigned.inputs))
        self.client.broadcast(funding)
        if confirm:
            if isinstance(self.network.transport, Network):
                self.network.run()  # let the broadcast reach the mempool
            self.network.mine()
        record = DepositRecord(
            outpoint=funding.outpoint(0), value=value, spec=spec,
            committee=committee_names, fee=fee,
        )
        self._ecall("register_deposit", record)
        self.deposits.append(record)
        return record

    def approve_deposit(self, peer: "PeerRef",
                        record: DepositRecord) -> None:
        """Run the approval exchange for one of our deposits with
        ``peer`` (Alg. 1 lines 48–63)."""
        peer = self._resolve_peer(peer)
        self._ecall("approve_my_deposit", peer.enclave.public_key,
                    record.outpoint)

    def associate_deposit(self, channel_id: str,
                          record: DepositRecord) -> None:
        self._ecall("associate_deposit", channel_id, record.outpoint)

    def approve_and_associate(self, peer: "PeerRef",
                              record: DepositRecord,
                              channel_id: str) -> None:
        """Convenience: approval (once per peer — §4.1: "deposits only
        need to be approved once for each participant pair") followed by
        association."""
        peer = self._resolve_peer(peer)
        peer_key = peer.enclave.public_key.to_bytes()
        already = self.program.approved_deposits.get(peer_key, set())
        if record.outpoint not in already:
            self.approve_deposit(peer, record)
        self.associate_deposit(channel_id, record)

    def dissociate_deposit(self, channel_id: str,
                           record: DepositRecord) -> None:
        self._ecall("dissociate_deposit", channel_id, record.outpoint)

    def release_deposit(self, record: DepositRecord,
                        destination: Optional[str] = None) -> Transaction:
        """Release a free deposit back to the wallet (or ``destination``)
        and broadcast the release transaction."""
        transaction = self._ecall("release_deposit", record.outpoint,
                                  destination or self.address)
        self.client.broadcast(transaction)
        return transaction

    # ------------------------------------------------------------------
    # Payments
    # ------------------------------------------------------------------

    def pay(self, channel_id: str, amount: int, batch_count: int = 1) -> None:
        """Single-channel payment (Alg. 1 ``pay``)."""
        with op_span("channel.pay", channel=channel_id, node=self.name):
            self._ecall("pay", channel_id, amount, batch_count)
        peer = self.channels[channel_id]
        self.network.tracker.record_payment(self.name, peer, amount)

    def pay_multihop(self, path: Sequence["TeechainNode"], amount: int,
                     payment_id: Optional[str] = None) -> str:
        """Multi-hop payment along ``path`` (this node first)."""
        if not path or path[0] is not self:
            raise MultihopError("path must start at this node")
        pid = payment_id or self.network.next_payment_id()
        hop_names = [node.name for node in path]
        self.network.tracker.record_inflight(self.name, amount)
        try:
            with op_span("multihop.pay", payment=pid, node=self.name,
                         hops=len(hop_names) - 1):
                self._ecall("pay_multihop", pid, amount, hop_names)
        except MultihopError:
            self.network.tracker.resolve_inflight(
                self.name, hop_names[-1], amount, completed=False
            )
            raise
        if pid in self.program.multihop_completed:
            self.network.tracker.resolve_inflight(
                self.name, hop_names[-1], amount, completed=True
            )
        return pid

    def pay_to(self, dest: PeerRef, amount: int,
               planner: Optional[RoutePlanner] = None,
               payment_id: Optional[str] = None) -> Dict[str, object]:
        """Pay ``dest`` wherever it is: the route is resolved through the
        shared :class:`~repro.routing.RoutePlanner` (direct neighbours
        pay over the channel, everyone else via ``pay_multihop``).

        Raises :class:`~repro.errors.RoutingError` when no sufficiently
        funded path exists.  Pass ``planner`` to reuse one (and its
        caches) across many payments; by default a fresh snapshot of the
        network is taken per call."""
        dest_name = dest if isinstance(dest, str) else dest.name
        if dest_name == self.name:
            raise MultihopError("pay_to needs a destination other than self")
        if planner is None:
            planner = self.network.route_planner()
        route = planner.find_route(self.name, dest_name, amount=amount)
        if len(route) == 2:
            candidates = [cid for cid, peer in self.channels.items()
                          if peer == dest_name]

            def spendable(cid: str) -> int:
                try:
                    return self.channel_balance(cid)[0]
                except ReproError:
                    return -1

            channel_id = max(candidates, key=spendable)
            self.pay(channel_id, amount)
            return {"route": route, "payment_id": None, "hops": 1}
        path = [self.network.nodes[name] for name in route]
        pid = self.pay_multihop(path, amount, payment_id)
        return {"route": route, "payment_id": pid, "hops": len(route) - 1}

    def multihop_completed(self, payment_id: str) -> bool:
        return payment_id in self.program.multihop_completed

    def record_multihop_result(self, payment_id: str,
                               payee: str, amount: int) -> bool:
        """For simulated transport: after running the scheduler, record the
        payment in the tracker if it completed.  Returns completion."""
        if payment_id in self.program.multihop_completed:
            self.network.tracker.resolve_inflight(self.name, payee, amount,
                                                  completed=True)
            return True
        return False

    # ------------------------------------------------------------------
    # Settlement and reclamation
    # ------------------------------------------------------------------

    def settle(self, channel_id: str) -> Optional[Transaction]:
        """Settle a channel (Alg. 1 ``settle``): off-chain when balances
        are neutral, otherwise broadcast the settlement transaction."""
        transaction = self._ecall("settle", channel_id)
        if transaction is not None:
            self.client.broadcast(transaction)
        return transaction

    def eject(self, payment_id: str,
              popt: Optional[Transaction] = None) -> List[Transaction]:
        """Prematurely terminate a multi-hop payment — consistently with
        ``popt``, another participant's settlement observed on chain, when
        given — and broadcast the resulting transactions (Alg. 2
        ``eject``)."""
        transactions = self._ecall("eject", payment_id, popt)
        for transaction in transactions:
            self.client.broadcast(transaction)
        return transactions

    def eject_all(self) -> Dict[str, List[Transaction]]:
        """Eject every in-flight multi-hop payment and broadcast the
        resulting settlements — the one recovery sweep a participant runs
        after restoring from sealed state (§6.2).  A payment whose
        candidate settlement is already confirmed (looked up in the
        chain's txid index) ejects consistently with it (``eject(popt)``)."""
        chain = self.network.chain
        confirmed = [txid for txid in self._ecall("valid_settlement_txids")
                     if chain.contains(txid)]
        ejected = self._ecall("eject_all", confirmed)
        for transactions in ejected.values():
            for transaction in transactions:
                self.client.broadcast(transaction)
        return ejected

    def reclaim_all(self, mine: bool = True) -> int:
        """Appendix A.4's balance-correctness procedure, unilaterally:
        settle every open channel at current balances, release every free
        deposit, broadcast everything, and return the resulting on-chain
        balance.

        If the local enclave has crashed but a committee chain exists, the
        procedure falls back to reading a live backup (freezing the chain)
        and settling from the replicated state — the paper's recovery
        path."""
        try:
            channel_ids = list(self._ecall("list_channels"))
        except EnclaveCrashed:
            return self._reclaim_from_backups(mine=mine)
        from repro.errors import SettlementError, ThresholdError

        for channel_id in channel_ids:
            snapshot = self._ecall("channel_snapshot", channel_id)
            deposits = snapshot["my_deposits"] + snapshot["remote_deposits"]
            if not deposits:
                continue  # empty channel: nothing at stake on chain
            try:
                transaction = self._ecall("unilateral_settlement", channel_id)
            except (SettlementError, ThresholdError):
                # Signing can legitimately fail when the counterparty has
                # already settled the identical canonical transaction:
                # committees refuse to re-sign a terminated channel.  If
                # every channel deposit is already spent on chain, the
                # settlement payout exists and nothing is owed; otherwise
                # the failure is real.
                if all(self.network.chain.utxos.spender_of(outpoint)
                       is not None for outpoint in deposits):
                    continue
                raise
            self.client.broadcast(transaction)
        for record in list(self.program.deposits.values()):
            if record.is_free:
                transaction = self._ecall("release_deposit", record.outpoint,
                                          self.address)
                self.client.broadcast(transaction)
        if isinstance(self.network.transport, Network):
            self.network.run()
        if mine:
            self.network.mine()
        return self.onchain_balance()

    def _reclaim_from_backups(self, mine: bool = True) -> int:
        """Settle from a live backup's replicated state (primary crashed)."""
        from repro.core.replication import recover_settlements

        if self.replication is None:
            raise EnclaveCrashed(
                f"{self.name}'s enclave crashed and no committee chain "
                "exists; funds secured only by the (lost) enclave"
            )
        live = self.replication.live_members()
        if not live:
            raise EnclaveCrashed(
                f"{self.name}: enclave and all backups are gone"
            )
        state = self.replication.read_backup(live[0])
        transactions = recover_settlements(
            state, self.address, provider_factory=self._signing_chain
        )
        for transaction in transactions:
            self.client.broadcast(transaction)
        if isinstance(self.network.transport, Network):
            self.network.run()
        if mine:
            self.network.mine()
        return self.onchain_balance()

    def assert_balance_correct(self) -> None:
        """Reclaim everything and assert Definition A.1's inequality."""
        ledger = self.reclaim_all()
        self.network.tracker.assert_balance_correctness(self.name, ledger)

    def __repr__(self) -> str:
        return f"TeechainNode({self.name!r})"
