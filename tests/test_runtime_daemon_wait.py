"""``NodeDaemon._wait_for`` is event-driven: a waiter resumes when the
inbound frame that satisfies its predicate has been handled, not at the
next tick of a polling loop.

Two daemons in one process and one event loop, over real loopback
sockets (``live``-marked).
"""

import asyncio
import statistics
import time

import pytest

from repro import obs
from repro.errors import ReproError
from repro.runtime.daemon import NodeDaemon
from repro.runtime.messages import Echo

pytestmark = pytest.mark.live


async def _connected_pair():
    alice, bob = NodeDaemon("alice"), NodeDaemon("bob")
    await alice.start()
    await bob.start()
    # connect() itself sits in _wait_for until the attested handshake —
    # a HelloAck on the dialling side, a Hello on the other — is handled.
    await alice.connect("bob", bob.net.host, bob.net.port, timeout=5.0)
    await bob.connect("alice", alice.net.host, alice.net.port, timeout=5.0)
    return alice, bob


def test_waiter_resumes_with_the_frame_that_satisfies_it():
    async def scenario():
        alice, bob = await _connected_pair()
        try:
            handled = {}
            inner = alice.net.control_handler

            def recording(obj, peer_name):
                inner(obj, peer_name)
                if isinstance(obj, Echo):
                    handled[obj.seq] = time.perf_counter()

            alice.net.control_handler = recording
            delays = []
            for seq in range(1000, 1009):
                waiter = asyncio.ensure_future(alice._wait_for(
                    lambda: seq in handled, timeout=5.0, what="probe"))
                await asyncio.sleep(0.013)  # out of phase with any 10 ms tick
                assert not waiter.done()
                # An unsolicited reply: alice handles it and answers nothing.
                bob.net.send_control("alice",
                                     Echo(seq=seq, origin="bob", reply=True))
                await waiter
                delays.append(time.perf_counter() - handled[seq])
            # A polling waiter resumes 0–10 ms after the frame (median
            # 5 ms); an event-driven one on the same loop iteration or
            # the next.
            assert statistics.median(delays) < 0.002, delays
        finally:
            await alice.stop()
            await bob.stop()

    with obs.collecting():  # NodeDaemon installs its own registry globally
        asyncio.run(scenario())


def test_timeout_keeps_its_error_and_its_deadline():
    async def scenario():
        alice, bob = await _connected_pair()
        try:
            started = time.monotonic()
            with pytest.raises(ReproError) as caught:
                # Frames keep arriving and waking the waiter; none
                # satisfies it, and the deadline does not move.
                for seq in range(3):
                    bob.net.send_control(
                        "alice", Echo(seq=seq, origin="bob", reply=True))
                await alice._wait_for(lambda: False, timeout=0.15,
                                      what="the impossible")
            elapsed = time.monotonic() - started
            assert str(caught.value) == \
                "alice: timed out waiting for the impossible"
            assert 0.15 <= elapsed < 1.0
            # A predicate that already holds never touches the clock.
            await alice._wait_for(lambda: True, timeout=0.0)
        finally:
            await alice.stop()
            await bob.stop()

    with obs.collecting():
        asyncio.run(scenario())


def test_a_frame_handled_before_the_waiter_runs_is_not_missed():
    # The waiter is registered synchronously with the predicate test, so
    # a pulse between "predicate was false" and "waiter sleeps" cannot be
    # lost — the hazard of waiting on an Event through a fresh task.
    async def scenario():
        alice = NodeDaemon("alice")
        flag = []
        waiter = asyncio.ensure_future(
            alice._wait_for(lambda: bool(flag), timeout=1.0))
        await asyncio.sleep(0)          # predicate tested, waiter parked
        flag.append(True)
        alice.net.pulse_progress()      # what the receive loop does
        await asyncio.wait_for(waiter, 0.5)
        # With nobody waiting a pulse is a no-op.
        alice.net.pulse_progress()

    with obs.collecting():
        asyncio.run(scenario())
