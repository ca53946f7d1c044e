"""Control-plane messages for the live runtime (wire tags 50–69).

These ride the same codec as the protocol messages but never enter an
enclave: they are host-to-host traffic — peer handshakes, channel-open
coordination, and simulated-blockchain gossip between daemon processes.
Protocol payloads need no class here: a sealed frame crosses the peer
link as a bare codec ``bytes`` value, attributed to the connection's
:class:`Hello`-named peer.  The runtime cannot read it even though it
carries it, mirroring the paper's untrusted-host model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.blockchain.chain import Block
from repro.blockchain.transaction import Transaction
from repro.runtime import codec
from repro.tee.attestation import Quote


@dataclass(frozen=True)
class Hello:
    """First frame on a peer connection: who I am and my enclave's quote.

    ``report_data`` inside the quote binds the enclave's channel (identity)
    public key, so the receiver can run
    :func:`~repro.network.secure_channel.channel_from_quote` without any
    further round trip."""

    name: str
    host: str
    port: int
    settlement_address: str
    quote: Quote
    # The sender's per-boot session nonce.  Both sides hash the two nonces
    # (order-independently) into the secure channel's key derivation, so a
    # daemon restart yields fresh channel keys — see
    # ``NodeDaemon._install_peer``.
    session: bytes = b""
    # Sender's local clock (its WallClockScheduler) at send time.  Feeds
    # the NTP-style skew estimate that lets repro.obs.merge place spans
    # from daemons with different clock epochs on one timeline.  The name
    # sorts after every older field, so version-1 frames still decode.
    t_sent: float = 0.0
    # The sender's per-boot routing-gossip public key (compressed SEC1),
    # pinned by the receiver so gossip claiming this origin must verify
    # under it.  "topo_key" sorts after "t_sent" ('_' < 'o'), keeping
    # older frames decodable.
    topo_key: bytes = b""


@dataclass(frozen=True)
class HelloAck:
    """Handshake response: the responder's identity, quote, and session
    nonce (same role as :class:`Hello.session`)."""

    name: str
    settlement_address: str
    quote: Quote
    session: bytes = b""
    # Skew-estimation timestamps (responder's local clock), all defaulted
    # so older peers' four-field frames still decode: ``t_echo`` echoes
    # the Hello's ``t_sent`` back (stateless NTP), ``t_received`` is when
    # the Hello arrived, ``t_sent`` when this ack left.
    t_echo: float = 0.0
    t_received: float = 0.0
    t_sent: float = 0.0
    # Responder's routing-gossip public key (see Hello.topo_key).
    topo_key: bytes = b""


@dataclass(frozen=True)
class OpenChannel:
    """Host A asks host B to instruct B's enclave to open ``channel_id``.

    Carries the initiator's settlement address — each side's
    ``new_pay_channel`` ecall needs both addresses (Alg. 1)."""

    channel_id: str
    initiator: str
    settlement_address: str


@dataclass(frozen=True)
class OpenChannelOk:
    """Responder's confirmation that its enclave created the channel
    record (its NewChannelAck is already on the wire ahead of this)."""

    channel_id: str
    responder: str
    settlement_address: str


@dataclass(frozen=True)
class ChainTx:
    """Mempool gossip: a transaction accepted by the sender's local copy
    of the simulated blockchain."""

    transaction: Transaction


@dataclass(frozen=True)
class ChainBlock:
    """Block-body gossip: the sender's chain accepted ``block``.

    The receiver attaches it with ``Blockchain.receive_block`` — fork
    choice decides whether it extends, forks, or reorganises the local
    active chain.  When the parent is unknown the receiver answers with a
    :class:`ChainRequest` for it, walking the sender's chain backwards
    until the histories connect."""

    block: Block


@dataclass(frozen=True)
class ChainRequest:
    """Ask a peer for the block body with ``block_hash`` (orphan
    resolution during hash-chain reconciliation)."""

    block_hash: str


@dataclass(frozen=True)
class Echo:
    """Latency probe.  Because control frames share the per-peer FIFO with
    protocol envelopes, an ``Echo`` sent right after a payment is only
    answered once the peer has processed that payment — its round trip is
    an honest payment-latency sample."""

    seq: int
    origin: str
    reply: bool = False


codec.register_dataclass(50, Hello)
codec.register_dataclass(51, HelloAck)
codec.register_dataclass(53, OpenChannel)
codec.register_dataclass(54, OpenChannelOk)
codec.register_dataclass(55, ChainTx)
codec.register_dataclass(57, Echo)
codec.register_dataclass(60, ChainBlock)
codec.register_dataclass(61, ChainRequest)
