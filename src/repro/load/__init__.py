"""``repro.load`` — concurrent load generation for the live runtime.

The paper's headline numbers are throughput at scale: Table 3 drives a
hub with ~30 concurrent spoke channels and §7.2 reaches 33k tx/s per
channel pair with client-side batching.  This package is the driver for
that shape of experiment against real daemons: it fans payments across
many channels/daemons concurrently from asyncio tasks, measures
per-channel latency and throughput through :mod:`repro.obs`, and writes
the ``BENCH_load`` sidecar.

The generator is *closed loop* (:func:`run_closed_loop`): N concurrent
users per target, each issuing its next payment the moment the previous
one completes.  Offered load adapts to the system; latency measures pure
service time — the discipline for "how fast can it go".

Each concurrent user is one control connection (the daemon serves each
connection serially, so in-flight concurrency equals open connections),
and the payments themselves ride the daemon's backpressured send path —
under overload the generator slows down rather than the transport
dropping protocol frames.

``python -m repro.load`` drives running daemons with it, plus a
self-contained ``smoke`` mode used by CI (spawn a loopback pair, run a
closed-loop burst, verify conservation and zero protocol-plane drops).
"""

from repro.load.accounts import AccountFleet
from repro.load.generators import (
    LoadReport,
    LoadTarget,
    run_closed_loop,
    transport_drops,
)

__all__ = [
    "AccountFleet",
    "LoadReport",
    "LoadTarget",
    "run_closed_loop",
    "transport_drops",
]
