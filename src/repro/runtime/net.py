"""The runtime's one listen/dial seam.

Every asyncio listener and outbound connection under ``src/`` — the
control server, the peer listener, a peer link's dial, the sharded
router's worker links — is made here (a CI grep keeps it so), from an
:class:`asyncio.Protocol` factory.  A transport that is not a socket (an
in-memory pair on a virtual clock) replaces these two functions only.
"""

import asyncio
from typing import Any, Callable, Tuple


async def listen(host: str, port: int, protocol_factory: Callable[[], Any]
                 ) -> asyncio.AbstractServer:
    """Serve ``host:port`` (``0``: any free port), one protocol a peer."""
    return await asyncio.get_running_loop().create_server(
        protocol_factory, host, port)


async def dial(host: str, port: int,
               protocol_factory: Callable[[], Any]) -> Tuple[Any, Any]:
    """Connect to ``host:port``; returns (transport, protocol)."""
    return await asyncio.get_running_loop().create_connection(
        protocol_factory, host, port)
