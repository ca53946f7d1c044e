"""Control and peer I/O on real loopback sockets.

A control connection answers its lines strictly in order, whether a
handler suspends or not, answers a client that has stopped sending,
refuses an over-long line in words, and still answers ``shutdown``
before it hangs up.  The sharded router pipelines
its worker links: two clients of one worker are in flight together, a
lost or silent worker fails every pending call without replaying one,
and a worker's reply comes back as the worker wrote it, ``"worker"``
spliced into a success.  A peer link keeps send order across a redial.

Handlers here are declared ``handle(request, line=None)`` so the same
server scenario runs whichever arguments the control server passes.
"""

import asyncio
import json

import pytest

from repro import obs
from repro.runtime.control import CONTROL_LINE_LIMIT, AsyncControlClient, \
    ControlError, ControlServer
from repro.runtime.daemon import NodeDaemon
from repro.runtime.launch import free_port
from repro.runtime.transport import AsyncTcpNetwork
from repro.runtime.workers import ShardedDaemon, WorkerHandle

HOST = "127.0.0.1"


async def echo_server(handle):
    """A bare ControlServer with ``handle``; returns (server, port)."""
    server = ControlServer(handle)
    return server, await server.start(HOST, 0)


async def read_replies(reader, count):
    return [json.loads(await asyncio.wait_for(reader.readline(), 5.0))
            for _ in range(count)]


class Worker:
    """A scripted worker control port: records each request line, then
    lets ``script(worker, connection_number, writer)`` answer or not."""

    def __init__(self, script):
        self.script = script
        self.lines = []
        self.connections = 0

    async def start(self):
        self.server = await asyncio.start_server(self._serve, HOST, 0)
        return self.server.sockets[0].getsockname()[1]

    async def _serve(self, reader, writer):
        self.connections += 1
        connection = self.connections
        while line := await reader.readline():
            self.lines.append(json.loads(line))
            await self.script(self, connection, writer)
        writer.close()

    async def stop(self):
        self.server.close()
        await self.server.wait_closed()


def answer(request):
    if request.get("channel_id") == "missing":
        return {"ok": False, "code": "no_such_channel",
                "error": "ChannelStateError: no channel 'missing'"}
    return {"ok": True, "channel_id": request.get("channel_id")}


async def router_on(port, workers=1):
    """A router whose pool is the scripted worker on ``port``."""
    router = ShardedDaemon("hub", workers=workers)
    name = router.worker_names[0]
    router.workers = {name: WorkerHandle(name, None, HOST, 0, port)}
    for channel in ("c1", "c2", "missing"):
        router._channel_worker[channel] = name
    return router, await router.control.start(HOST, 0)


async def stop_router(router):
    for handle in router.workers.values():
        if handle.client is not None:
            await handle.client.close()
    await router.control.stop()


@pytest.mark.live
class TestControlServer:
    def test_pipelined_lines_are_answered_in_order(self):
        """Three lines in one write: the suspending middle one is still
        answered second, and the third runs only after it."""
        ran = []

        async def handle(request, line=None):
            if request["cmd"] == "slow":
                await asyncio.sleep(0.05)
            ran.append(request["cmd"])
            return {"cmd": request["cmd"]}

        async def scenario():
            server, port = await echo_server(handle)
            reader, writer = await asyncio.open_connection(HOST, port)
            writer.write(b'{"cmd": "one"}\n{"cmd": "slow"}\n'
                         b'{"cmd": "three"}\n')
            replies = await read_replies(reader, 3)
            writer.close()
            await server.stop()
            return replies

        replies = asyncio.run(scenario())
        assert [reply["cmd"] for reply in replies] == ["one", "slow", "three"]
        assert all(reply["ok"] for reply in replies)
        assert ran == ["one", "slow", "three"]

    def test_an_over_long_line_is_refused_and_the_connection_closed(self):
        async def handle(request, line=None):
            return {}

        async def scenario():
            server, port = await echo_server(handle)
            reader, writer = await asyncio.open_connection(HOST, port)
            padding = "x" * (CONTROL_LINE_LIMIT + 10)
            writer.write(json.dumps({"cmd": "ping", "pad": padding})
                         .encode() + b"\n")
            reply = json.loads(await asyncio.wait_for(reader.readline(),
                                                      5.0))
            tail = await asyncio.wait_for(reader.read(), 5.0)
            writer.close()
            await server.stop()
            return reply, tail

        reply, tail = asyncio.run(scenario())
        assert reply["ok"] is False
        assert reply["code"] == "bad_request"
        assert str(CONTROL_LINE_LIMIT) in reply["error"]
        assert tail == b""

    def test_a_client_that_stops_sending_still_gets_its_answers(self):
        """A half-closed connection is answered, the suspending request
        included, and then closed."""
        async def handle(request, line=None):
            await asyncio.sleep(0.02)
            return {"cmd": request["cmd"]}

        async def scenario():
            server, port = await echo_server(handle)
            reader, writer = await asyncio.open_connection(HOST, port)
            writer.write(b'{"cmd": "one"}\n{"cmd": "two"}')  # no last \n
            writer.write_eof()
            replies = await asyncio.wait_for(reader.read(), 5.0)
            writer.close()
            await server.stop()
            return [json.loads(line)["cmd"] for line in replies.splitlines()]

        assert asyncio.run(scenario()) == ["one", "two"]

    def test_shutdown_is_answered_before_the_connection_closes(self):
        async def scenario():
            daemon = NodeDaemon("solo", allocations={"solo": 1_000})
            _, port = await daemon.start()
            running = asyncio.ensure_future(daemon.run_until_shutdown())
            reader, writer = await asyncio.open_connection(HOST, port)
            writer.write(b'{"cmd": "shutdown"}\n')
            reply = await asyncio.wait_for(reader.readline(), 5.0)
            await asyncio.wait_for(running, 5.0)
            writer.close()
            return json.loads(reply)

        with obs.collecting():  # NodeDaemon installs its own registry
            assert asyncio.run(scenario()) == {"ok": True, "stopping": True}


@pytest.mark.live
class TestRouterLinks:
    def test_two_clients_of_one_worker_are_in_flight_together(self):
        """The worker answers only once both requests reached it: a
        router that waited for the first reply before sending the
        second would never be answered."""
        async def both_then_answer(worker, connection, writer):
            if len(worker.lines) == 2:
                for request in worker.lines:
                    writer.write(json.dumps(answer(request)).encode()
                                 + b"\n")

        async def scenario():
            worker = Worker(both_then_answer)
            router, port = await router_on(await worker.start())
            clients = [await AsyncControlClient.connect(HOST, port)
                       for _ in range(2)]
            replies = await asyncio.wait_for(asyncio.gather(
                clients[0].call("channel", channel_id="c1"),
                clients[1].call("channel", channel_id="c2")), 5.0)
            for client in clients:
                await client.close()
            await stop_router(router)
            await worker.stop()
            return replies

        assert asyncio.run(scenario()) == [
            {"channel_id": "c1", "worker": "hub-w0"},
            {"channel_id": "c2", "worker": "hub-w0"}]

    def test_a_forwarded_error_keeps_the_worker_code(self):
        async def echo(worker, connection, writer):
            writer.write(json.dumps(answer(worker.lines[-1])).encode()
                         + b"\n")

        async def scenario():
            worker = Worker(echo)
            router, port = await router_on(await worker.start())
            reader, writer = await asyncio.open_connection(HOST, port)
            writer.write(b'{"cmd": "channel", "channel_id": "missing"}\n'
                         b'{"cmd": "channel", "channel_id": "c1"}\n')
            replies = await read_replies(reader, 2)
            writer.close()
            await stop_router(router)
            await worker.stop()
            return replies

        failed, succeeded = asyncio.run(scenario())
        assert failed == {"ok": False, "code": "no_such_channel",
                          "error": "ChannelStateError: no channel 'missing'"}
        assert succeeded == {"ok": True, "channel_id": "c1",
                             "worker": "hub-w0"}

    def test_a_lost_worker_fails_every_pending_call_and_replays_none(self):
        """The first connection dies holding two requests: both fail
        ``connection_closed``, neither is sent again, and the next call
        dials a new link."""
        async def die_holding_two(worker, connection, writer):
            if connection == 1 and len(worker.lines) == 2:
                writer.transport.abort()
            elif connection > 1:
                writer.write(json.dumps(answer(worker.lines[-1])).encode()
                             + b"\n")

        async def scenario():
            worker = Worker(die_holding_two)
            router, port = await router_on(await worker.start())
            clients = [await AsyncControlClient.connect(HOST, port)
                       for _ in range(2)]
            lost = await asyncio.wait_for(asyncio.gather(
                clients[0].call("channel", channel_id="c1"),
                clients[1].call("channel", channel_id="c2"),
                return_exceptions=True), 5.0)
            again = await asyncio.wait_for(
                clients[0].call("channel", channel_id="c1"), 5.0)
            for client in clients:
                await client.close()
            await stop_router(router)
            await worker.stop()
            return lost, again, worker

        lost, again, worker = asyncio.run(scenario())
        assert [error.code for error in lost] == ["connection_closed"] * 2
        assert again == {"channel_id": "c1", "worker": "hub-w0"}
        assert [line["channel_id"] for line in worker.lines] \
            == ["c1", "c2", "c1"]
        assert worker.connections == 2


@pytest.mark.live
def test_a_call_timeout_fails_every_pending_call_and_closes_the_link():
    async def silent(worker, connection, writer):
        pass

    async def scenario():
        worker = Worker(silent)
        port = await worker.start()
        client = await AsyncControlClient.connect(HOST, port, timeout=0.2)
        failures = await asyncio.wait_for(asyncio.gather(
            client.call("ping"), client.call("health"),
            return_exceptions=True), 5.0)
        closed = client.closed
        with pytest.raises(ControlError) as after:
            await client.call("ping")
        await client.close()
        await worker.stop()
        return failures, closed, after.value.code

    failures, closed, after = asyncio.run(scenario())
    assert all(isinstance(error, ControlError) for error in failures)
    assert [error.code for error in failures] == ["timeout",
                                                  "connection_closed"]
    assert closed
    assert after == "connection_closed"


@pytest.mark.live
def test_frames_sent_while_earlier_ones_wait_keep_send_order():
    """Frames queued while the link dials, then frames sent as it comes
    up: the queued ones go first, and every frame arrives in order."""
    async def scenario():
        port = free_port()
        a = AsyncTcpNetwork("a")
        await a.start()
        a.add_peer("b", HOST, port)
        sent = 0
        for _ in range(5):
            a.send("a", "b", b"%d" % sent)
            sent += 1
        b = AsyncTcpNetwork("b", port=port)
        received = []
        b.register("b", lambda message: received.append(message.payload))
        await b.start()
        link = a._links["b"]
        while not link.connected.is_set() or sent < 40:
            a.send("a", "b", b"%d" % sent)
            sent += 1
            await asyncio.sleep(0.005)
        await a.flush("b", timeout=5.0)
        deadline = asyncio.get_running_loop().time() + 5.0
        while len(received) < sent:
            assert asyncio.get_running_loop().time() < deadline
            await asyncio.sleep(0.01)
        await a.stop()
        await b.stop()
        return received, sent

    received, sent = asyncio.run(scenario())
    assert received == [b"%d" % index for index in range(sent)]
