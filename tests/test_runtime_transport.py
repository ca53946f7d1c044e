"""Runtime transport: the wall-clock scheduler shim, AsyncTcpNetwork and
the async control client's link discipline.

Socket tests are ``live``-marked (deselect with ``-m "not live"`` where
loopback networking is unavailable); the wall-clock scheduler tests and
the control client's toy line server are plain unit tests.
"""

import asyncio
import json
import logging

import pytest

from repro.errors import NetworkError, SimulationError
from repro.runtime import codec
from repro.runtime.control import AsyncControlClient, ControlError
from repro.runtime.messages import Echo
from repro.runtime.transport import AsyncTcpNetwork, _frame
from repro.runtime.wallclock import WallClockScheduler
from repro.runtime.workers import WorkerHandle

# Frames no peer's codec emits: 5,000 nested one-element tuples (deeper
# than the codec's bound) and a string that is not UTF-8.
_PLAIN = codec.MAGIC + bytes([codec.VERSION, 0x00])
DEEP = _PLAIN + b"\x07\x01" * 5_000 + b"\x00"
BAD_UTF8 = _PLAIN + b"\x05\x02\xff\xfe"


class TestWallClockScheduler:
    def test_now_advances_with_real_time(self):
        scheduler = WallClockScheduler()
        first = scheduler.now
        assert first >= 0.0
        assert scheduler.now >= first

    def test_zero_delay_runs_inline(self):
        scheduler = WallClockScheduler()
        ran = []
        scheduler.call_after(0, lambda: ran.append(True))
        # No event loop involved: the DES contract is that zero-delay
        # events complete before control returns.
        assert ran == [True]

    def test_negative_delay_rejected(self):
        scheduler = WallClockScheduler()
        with pytest.raises(SimulationError):
            scheduler.call_after(-1, lambda: None)

    def test_positive_delay_fires_on_loop(self):
        async def scenario():
            scheduler = WallClockScheduler()
            ran = asyncio.Event()
            scheduler.call_after(0.01, ran.set)
            await asyncio.wait_for(ran.wait(), 2.0)

        asyncio.run(scenario())

    def test_cancelled_timer_never_fires(self):
        async def scenario():
            scheduler = WallClockScheduler()
            ran = []
            handle = scheduler.call_after(0.01, lambda: ran.append(True))
            handle.cancel()
            await asyncio.sleep(0.05)
            assert ran == []

        asyncio.run(scenario())


def test_a_late_reply_is_never_read_as_the_next_answer():
    """A call that ends without its reply closes the client; the
    router's worker link redials on its next call."""
    async def serve(reader, writer):
        while True:
            line = await reader.readline()
            if not line:
                break
            served.append(json.loads(line)["cmd"])
            if len(served) == 1:
                await asyncio.sleep(0.3)  # past the client's deadline
            writer.write(json.dumps({"ok": True, "cmd": served[-1]})
                         .encode() + b"\n")
            await writer.drain()
        writer.close()

    async def scenario():
        server = await asyncio.start_server(serve, "127.0.0.1", 0)
        port = server.sockets[0].getsockname()[1]
        client = await AsyncControlClient.connect("127.0.0.1", port,
                                                  timeout=0.1)
        with pytest.raises(ControlError) as late:
            await client.call("health")
        await asyncio.sleep(0.4)  # the late reply is in the stream now
        with pytest.raises(ControlError) as after:
            await client.call("balance")
        worker = WorkerHandle("w0", None, "127.0.0.1", 0, port)
        worker.client = client
        redialled = await worker.call("balance")
        await worker.client.close()
        server.close()
        await server.wait_closed()
        return late.value.code, after.value.code, redialled

    served = []
    assert asyncio.run(scenario()) == (
        "timeout", "connection_closed", {"cmd": "balance"})
    assert served == ["health", "balance"]


@pytest.mark.live
class TestAsyncTcpNetwork:
    def _pair(self):
        """Two transports with a's outbound link dialled to b."""
        a = AsyncTcpNetwork("a")
        b = AsyncTcpNetwork("b")
        return a, b

    def test_envelope_crosses_a_real_socket(self):
        async def scenario():
            a, b = self._pair()
            await a.start()
            await b.start()
            received = asyncio.Queue()
            b.register("b", received.put_nowait)
            a.add_peer("b", b.host, b.port)
            await a.wait_connected("b", 5.0)
            a.send("a", "b", b"sealed-bytes")
            message = await asyncio.wait_for(received.get(), 5.0)
            assert message.sender == "a"
            assert message.destination == "b"
            assert message.payload == b"sealed-bytes"
            assert message.size > len(b"sealed-bytes")  # framing overhead
            assert a.messages_sent == 1
            assert b.frames_received == 2  # a's Hello, then the frame
            await a.stop()
            await b.stop()

        asyncio.run(scenario())

    def test_unencodable_payload_rejected(self):
        async def scenario():
            a, _ = self._pair()
            await a.start()
            with pytest.raises(NetworkError, match="no wire encoding"):
                a.send("a", "b", object())
            await a.stop()

        asyncio.run(scenario())

    def test_reconnect_with_backoff_when_peer_starts_late(self):
        async def scenario():
            a, b = self._pair()
            await a.start()
            # Dial before b exists: the link must retry, not die.
            from repro.runtime.launch import free_port
            port = free_port()
            a.add_peer("b", "127.0.0.1", port)
            a.send("a", "b", b"early")  # queued while dialling
            await asyncio.sleep(0.2)
            assert not a._links["b"].connected.is_set()
            b.port = port
            await b.start()
            received = asyncio.Queue()
            b.register("b", received.put_nowait)
            await a.wait_connected("b", 5.0)
            message = await asyncio.wait_for(received.get(), 5.0)
            assert message.payload == b"early"
            assert a._links["b"].reconnects >= 1
            await a.stop()
            await b.stop()

        asyncio.run(scenario())

    def test_bounded_queue_drops_when_full(self):
        async def scenario():
            a = AsyncTcpNetwork("a", max_queue=4)
            await a.start()
            from repro.runtime.launch import free_port
            a.add_peer("b", "127.0.0.1", free_port())  # never connects
            for _ in range(10):
                a.send("a", "b", b"x")
            link = a._links["b"]
            assert link.queue.qsize() == 4
            assert link.drops == 6
            await a.stop()

        asyncio.run(scenario())

    def test_taps_suppress_before_the_wire(self):
        async def scenario():
            a, b = self._pair()
            await a.start()
            await b.start()
            a.add_peer("b", b.host, b.port)
            await a.wait_connected("b", 5.0)
            a.add_tap(lambda message: False)  # adversary drops everything
            a.send("a", "b", b"never-arrives")
            assert a.messages_sent == 0
            assert a.messages_suppressed == 1
            assert a._links["b"].queue.qsize() == 0
            await a.stop()
            await b.stop()

        asyncio.run(scenario())

    def test_control_frames_share_fifo_with_envelopes(self):
        async def scenario():
            a, b = self._pair()
            await a.start()
            await b.start()
            order = []
            b.register("b", lambda message: order.append(("env",
                                                          message.payload)))
            b.control_handler = lambda obj, peer: order.append(("ctl", obj))
            a.add_peer("b", b.host, b.port)
            await a.wait_connected("b", 5.0)
            a.send("a", "b", b"first")
            a.send_control("b", Echo(seq=1, origin="a"))
            a.send("a", "b", b"second")
            deadline = asyncio.get_running_loop().time() + 5.0
            while len(order) < 3:
                assert asyncio.get_running_loop().time() < deadline
                await asyncio.sleep(0.01)
            assert order == [("env", b"first"),
                             ("ctl", Echo(seq=1, origin="a")),
                             ("env", b"second")]
            await a.stop()
            await b.stop()

        asyncio.run(scenario())

    def test_handler_exception_does_not_kill_the_reader(self):
        async def scenario():
            a, b = self._pair()
            await a.start()
            await b.start()
            received = []

            def flaky(message):
                received.append(message.payload)
                if message.payload == b"boom":
                    raise RuntimeError("handler bug")

            b.register("b", flaky)
            a.add_peer("b", b.host, b.port)
            a.send("a", "b", b"boom")
            a.send("a", "b", b"after")
            deadline = asyncio.get_running_loop().time() + 5.0
            while len(received) < 2:
                assert asyncio.get_running_loop().time() < deadline
                await asyncio.sleep(0.01)
            assert received == [b"boom", b"after"]
            await a.stop()
            await b.stop()

        asyncio.run(scenario())

    def test_a_hostile_frame_drops_only_its_own_connection(self, caplog):
        async def scenario():
            a, b = self._pair()
            await b.start()
            for frame in (DEEP, BAD_UTF8):
                reader, writer = await asyncio.open_connection(b.host,
                                                               b.port)
                writer.write(len(frame).to_bytes(4, "big") + frame)
                await writer.drain()
                assert await asyncio.wait_for(reader.read(), 5.0) == b""
                writer.close()
            # A well-behaved peer is still served.
            await a.start()
            received = asyncio.Queue()
            b.register("b", received.put_nowait)
            a.add_peer("b", b.host, b.port)
            a.send("a", "b", b"fine")
            message = await asyncio.wait_for(received.get(), 5.0)
            assert message.payload == b"fine"
            await a.stop()
            await b.stop()

        with caplog.at_level(logging.WARNING):
            asyncio.run(scenario())
        assert caplog.text.count("dropping connection") == 2
        assert not [record for record in caplog.records
                    if record.levelno >= logging.ERROR]

    def test_a_sealed_frame_before_the_hello_drops_the_connection(
            self, caplog):
        async def scenario():
            a, b = self._pair()
            await b.start()
            received = asyncio.Queue()
            b.register("b", received.put_nowait)
            reader, writer = await asyncio.open_connection(b.host, b.port)
            writer.write(_frame(b"sealed"))
            await writer.drain()
            assert await asyncio.wait_for(reader.read(), 5.0) == b""
            writer.close()
            # The same bytes after a Hello are delivered, from its name.
            await a.start()
            a.add_peer("b", b.host, b.port)
            a.send("a", "b", b"sealed")
            message = await asyncio.wait_for(received.get(), 5.0)
            assert (message.sender, message.payload) == ("a", b"sealed")
            assert received.empty()
            await a.stop()
            await b.stop()

        with caplog.at_level(logging.WARNING):
            asyncio.run(scenario())
        assert "sealed frame before the peer's Hello" in caplog.text


@pytest.mark.live
class TestFlowControl:
    """Credit/watermark flow control on the outbound queues."""

    def test_send_wait_blocks_instead_of_dropping(self):
        async def scenario():
            # max_queue=4 → high watermark 3: three sends go straight in,
            # the fourth waits for credit instead of dropping.
            a = AsyncTcpNetwork("a", max_queue=4)
            await a.start()
            from repro.runtime.launch import free_port
            port = free_port()
            a.add_peer("b", "127.0.0.1", port)  # not listening yet
            for index in range(3):
                await a.send_wait("a", "b", f"f{index}".encode())
            link = a._links["b"]
            assert not link.writable.is_set()

            blocked = asyncio.ensure_future(
                a.send_wait("a", "b", b"f3"))
            await asyncio.sleep(0.1)
            assert not blocked.done()  # backpressured, not dropped

            b = AsyncTcpNetwork("b", port=port)
            received = asyncio.Queue()
            b.register("b", received.put_nowait)
            await b.start()
            payloads = [
                (await asyncio.wait_for(received.get(), 5.0)).payload
                for _ in range(4)
            ]
            await asyncio.wait_for(blocked, 5.0)
            assert payloads == [b"f0", b"f1", b"f2", b"f3"]
            assert link.drops == 0
            assert link.drops_by_plane == {"protocol": 0, "control": 0}
            assert link.backpressure_waits >= 1
            await a.stop()
            await b.stop()

        asyncio.run(scenario())

    def test_drops_counted_per_plane(self):
        async def scenario():
            a = AsyncTcpNetwork("a", max_queue=4)
            await a.start()
            from repro.runtime.launch import free_port
            a.add_peer("b", "127.0.0.1", free_port())  # never connects
            for _ in range(7):           # 4 fill the queue, 3 drop
                a.send("a", "b", b"x")
            for seq in range(2):         # both drop, on the control plane
                a.send_control("b", Echo(seq=seq, origin="a"))
            link = a._links["b"]
            assert link.drops == 5
            assert link.drops_by_plane == {"protocol": 3, "control": 2}
            peer_stats = a.stats()["peers"]["b"]
            assert peer_stats["drops_protocol"] == 3
            assert peer_stats["drops_control"] == 2
            await a.stop()

        asyncio.run(scenario())

    def test_flush_is_a_write_barrier(self):
        async def scenario():
            a = AsyncTcpNetwork("a")
            b = AsyncTcpNetwork("b")
            await a.start()
            await b.start()
            received = asyncio.Queue()
            b.register("b", received.put_nowait)
            a.add_peer("b", b.host, b.port)
            await a.wait_connected("b", 5.0)
            for index in range(20):
                a.send("a", "b", f"frame{index}".encode())
            await a.flush("b", timeout=5.0)
            assert a._links["b"].queue.qsize() == 0
            # flush() with no destination covers every link.
            await a.flush(timeout=5.0)
            for _ in range(20):
                await asyncio.wait_for(received.get(), 5.0)
            await a.stop()
            await b.stop()

        asyncio.run(scenario())

    def test_flush_timeout_reports_queue_depth(self):
        async def scenario():
            a = AsyncTcpNetwork("a", max_queue=8)
            await a.start()
            from repro.runtime.launch import free_port
            a.add_peer("b", "127.0.0.1", free_port())  # never connects
            a.send("a", "b", b"stuck")
            with pytest.raises(NetworkError, match="flush timed out"):
                await a.flush("b", timeout=0.2)
            await a.stop()

        asyncio.run(scenario())

    def test_wait_writable_hysteresis(self):
        async def scenario():
            # high=3, low=1: credit is lost when the queue reaches 3 and
            # only returns once it has drained back down to 1 — a stalled
            # sender resumes into bulk headroom, not a single free slot.
            a = AsyncTcpNetwork("a", max_queue=4)
            await a.start()
            from repro.runtime.launch import free_port
            port = free_port()
            a.add_peer("b", "127.0.0.1", port)
            await a.wait_writable("b")  # plenty of credit while empty
            for index in range(3):
                a.send("a", "b", f"f{index}".encode())
            link = a._links["b"]
            assert not link.writable.is_set()
            with pytest.raises(NetworkError, match="no send credit"):
                await a.wait_writable("b", timeout=0.2)

            b = AsyncTcpNetwork("b", port=port)
            received = asyncio.Queue()
            b.register("b", received.put_nowait)
            await b.start()
            await a.wait_writable("b", timeout=5.0)  # drained → credit back
            assert link.queue.qsize() <= 1
            # Unknown destinations have no queue to exert pressure.
            await a.wait_writable("nobody", timeout=0.1)
            await a.stop()
            await b.stop()

        asyncio.run(scenario())
