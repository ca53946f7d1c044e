"""Daemon control frames: who is asking is the link, not a field.

``NodeDaemon._on_control`` is handed the name of the attested link a
frame arrived on.  ``OpenChannel.initiator``, ``Echo.origin`` and
``OpenChannelOk.responder`` are labels the sender wrote; acting on them
let connected peer carol make bob open a channel record for alice under
an id of carol's choosing, bounce echo replies off bob to any of his
peers, and confirm (or pre-empt) an open she was never asked for.

No sockets: three daemons in one process, frames handed to
``_on_control`` directly, bob's outbound side recorded.
"""

import asyncio

import pytest

from repro import obs
from repro.runtime.daemon import NodeDaemon
from repro.runtime.messages import Echo, OpenChannel, OpenChannelOk


@pytest.fixture
def bob_with_peers():
    with obs.collecting():  # NodeDaemon installs its own registry globally
        alice, bob, carol = (NodeDaemon(name)
                             for name in ("alice", "bob", "carol"))
        for peer in (alice, carol):
            bob._install_peer(peer.name, peer.node.address, peer._my_quote(),
                              peer._session_nonce)
        sent = []
        bob.net.send_control = lambda peer, obj: sent.append((peer, obj))
        bob.net.send = lambda *frame: sent.append(frame)
        yield bob, alice, carol, sent


def test_open_channel_is_for_the_link_it_arrived_on(bob_with_peers):
    bob, alice, carol, sent = bob_with_peers
    forged = OpenChannel(channel_id="carols-choice", initiator="alice",
                         settlement_address=alice.node.address)
    for link in ("carol", None):
        bob._on_control(forged, link)
    assert sent == []
    assert bob.node.channels == {} and bob.node.program.channels == {}
    # Carol may open one for herself; the confirmation goes back to her.
    bob._on_control(OpenChannel(channel_id="carols-own", initiator="carol",
                                settlement_address=carol.node.address),
                    "carol")
    assert bob.node.channels == {"carols-own": "carol"}
    assert bob.node.program.channels["carols-own"].remote_key \
        == carol.node.enclave.public_key
    assert sent[-1] == ("carol", OpenChannelOk(
        channel_id="carols-own", responder="bob",
        settlement_address=bob.node.address))


def test_echo_is_answered_on_the_link_it_arrived_on(bob_with_peers):
    bob, alice, carol, sent = bob_with_peers
    for link in ("carol", None):
        bob._on_control(Echo(seq=7, origin="alice"), link)
    assert sent == []
    bob._on_control(Echo(seq=7, origin="carol"), "carol")
    assert sent == [("carol", Echo(seq=7, origin="carol", reply=True))]


def test_only_the_probed_peer_completes_an_echo_barrier(bob_with_peers):
    bob, alice, carol, sent = bob_with_peers
    loop = asyncio.new_event_loop()
    try:
        barrier = loop.create_future()
        bob._echo_futures[3] = ("alice", barrier)
        bob._on_control(Echo(seq=3, origin="bob", reply=True), "carol")
        assert not barrier.done()
        bob._on_control(Echo(seq=3, origin="bob", reply=True), "alice")
        assert barrier.done() and 3 not in bob._echo_futures
    finally:
        loop.close()


def test_open_channel_ok_only_from_the_peer_that_was_asked(bob_with_peers):
    bob, alice, carol, sent = bob_with_peers
    asked = asyncio.Event()
    bob._pending_opens["bob-alice-1"] = ("alice", asked)
    confirmation = OpenChannelOk(channel_id="bob-alice-1", responder="alice",
                                 settlement_address=alice.node.address)
    bob._on_control(confirmation, "carol")
    assert not asked.is_set()
    # An open nobody is waiting on leaves no channel record behind.
    bob._on_control(OpenChannelOk(channel_id="never-asked", responder="carol",
                                  settlement_address=carol.node.address),
                    "carol")
    assert bob.node.channels == {}
    bob._on_control(confirmation, "alice")
    assert asked.is_set()
