"""A peer handshake with a bad quote is refused, not raised into asyncio.

A raw socket sends a daemon a ``Hello`` whose quote is missing, of the
wrong type, or well typed but signed by nobody the daemon trusts.  Each
must cost that connection only: it is closed, the event loop's exception
handler hears nothing, and the daemon still answers its control port.
"""

import asyncio
import logging

import pytest

from repro import obs
from repro.crypto.keys import KeyPair
from repro.runtime.control import AsyncControlClient
from repro.runtime.daemon import NodeDaemon
from repro.runtime.messages import Hello
from repro.runtime.transport import _frame
from repro.tee.attestation import Quote

HOST = "127.0.0.1"


def forged_quote(daemon):
    """The daemon's own measurement and a fresh key, signed by that key
    instead of the attestation service."""
    keys = KeyPair.generate()
    key = keys.public.to_bytes()
    measurement = daemon.node.enclave.measurement
    return Quote(measurement=measurement, enclave_key=keys.public,
                 report_data=key, signature=keys.private.sign_message(
                     b"quote:" + measurement + key + key))


@pytest.mark.live
@pytest.mark.parametrize("kind", ["none", "string", "forged"])
def test_a_hello_with_a_bad_quote_drops_only_its_connection(kind, caplog):
    async def scenario():
        loop = asyncio.get_running_loop()
        reported = []
        loop.set_exception_handler(
            lambda _loop, context: reported.append(context))
        daemon = NodeDaemon("victim", allocations={"victim": 1_000})
        port, control_port = await daemon.start()
        quote = {"none": None, "string": "x",
                 "forged": forged_quote(daemon)}[kind]
        hello = Hello(name="mallory", host=HOST, port=1,
                      settlement_address="nowhere", quote=quote,
                      session=bytes(16))
        reader, writer = await asyncio.open_connection(HOST, port)
        writer.write(_frame(hello))
        await writer.drain()
        closed = await asyncio.wait_for(reader.read(), 5.0)
        writer.close()
        client = await AsyncControlClient.connect(HOST, control_port)
        pong = await client.call("ping")
        await client.close()
        await daemon.stop()
        return closed, reported, pong

    with obs.collecting(), caplog.at_level(logging.WARNING):
        closed, reported, pong = asyncio.run(scenario())
    assert closed == b""
    assert reported == []
    assert pong["name"] == "victim"
    assert "dropping connection from mallory" in caplog.text
