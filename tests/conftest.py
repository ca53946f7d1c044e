"""Shared fixtures (funded nodes, channels, multi-hop paths) and helpers
(re-keying a secure session, running a module's command line).

Also enforces per-test timeouts on ``live``-marked tests (real sockets
and subprocesses): a wedged daemon must fail the test, not hang CI.
SIGALRM keeps this dependency-free; on platforms without it (Windows)
live tests simply run un-timed.
"""

import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core.node import TeechainNetwork

LIVE_TEST_TIMEOUT_S = 120
SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_call(item):
    marker = item.get_closest_marker("live")
    use_alarm = marker is not None and hasattr(signal, "SIGALRM")
    if use_alarm:
        timeout = int(marker.kwargs.get("timeout", LIVE_TEST_TIMEOUT_S))

        def on_timeout(signum, frame):
            raise TimeoutError(
                f"live test exceeded {timeout}s (wedged daemon/socket?)"
            )

        previous = signal.signal(signal.SIGALRM, on_timeout)
        signal.alarm(timeout)
    yield
    if use_alarm:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def network():
    return TeechainNetwork()


@pytest.fixture
def funded_pair(network):
    """Alice and Bob, each with 100k on-chain."""
    alice = network.create_node("alice", funds=100_000)
    bob = network.create_node("bob", funds=100_000)
    return network, alice, bob


@pytest.fixture
def open_channel(funded_pair):
    """An open channel with a 50k deposit from alice and 30k from bob."""
    network, alice, bob = funded_pair
    channel = alice.open_channel(bob)
    deposit_a = alice.create_deposit(50_000)
    alice.approve_and_associate(bob, deposit_a, channel)
    deposit_b = bob.create_deposit(30_000)
    bob.approve_and_associate(alice, deposit_b, channel)
    return network, alice, bob, channel


@pytest.fixture
def three_hop_path(network):
    """alice → bob → carol with 40k deposits on both channels."""
    alice = network.create_node("alice", funds=100_000)
    bob = network.create_node("bob", funds=100_000)
    carol = network.create_node("carol", funds=100_000)
    ab = alice.open_channel(bob)
    bc = bob.open_channel(carol)
    deposit_ab = alice.create_deposit(40_000)
    alice.approve_and_associate(bob, deposit_ab, ab)
    deposit_bc = bob.create_deposit(40_000)
    bob.approve_and_associate(carol, deposit_bc, bc)
    return network, alice, bob, carol, ab, bc


def run_module(module, *args):
    """``python -m <module> <args>`` on this checkout, as an operator
    runs it: the finished process, its output captured as text."""
    return subprocess.run(
        [sys.executable, "-m", module, *map(str, args)],
        env=dict(os.environ, PYTHONPATH=str(SRC)), capture_output=True,
        text=True, timeout=60)


def renew_secure_session(left, right, session: bytes) -> None:
    """Re-key the secure channel between two nodes the way a restart
    does: a fresh handshake salt renews the session keys on both sides;
    the identity keys, and so the payment channels, survive.  A side
    holding no session (a restored enclave) installs one, as the
    daemon's handshake does."""
    from repro.crypto.authenticated import derive_channel_keys
    from repro.network.secure_channel import SecureChannel

    for node, peer in ((left, right), (right, left)):
        remote_key = peer.enclave.public_key
        keys = derive_channel_keys(node.enclave.identity.private,
                                   remote_key, session=session)
        verb = ("reinstall_secure_channel" if node.is_connected(peer)
                else "install_secure_channel")
        node._ecall(verb, SecureChannel(node.enclave.public_key, remote_key,
                                        keys, session=session),
                    peer.name)
