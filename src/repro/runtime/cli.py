"""``python -m repro.runtime`` — serve a node daemon or drive one.

Serve a two-party network (run each in its own terminal)::

    python -m repro.runtime serve --name alice --port 9401 \\
        --control-port 9501 --fund alice=200000 --fund bob=200000
    python -m repro.runtime serve --name bob --port 9402 \\
        --control-port 9502 --fund alice=200000 --fund bob=200000

Then drive them over the control API::

    python -m repro.runtime call 127.0.0.1:9501 connect \\
        peer=bob host=127.0.0.1 port=9402
    python -m repro.runtime call 127.0.0.1:9501 open-channel peer=bob
    python -m repro.runtime call 127.0.0.1:9501 deposit value=50000
    python -m repro.runtime call 127.0.0.1:9501 pay \\
        channel_id=chan-alice-bob-1 amount=100

``call`` arguments are ``key=value`` pairs; values that parse as
integers are sent as integers, everything else as strings.
"""

from __future__ import annotations

import argparse
import asyncio
import ctypes
import json
import logging
import os
import sys
import time
from typing import Any, Dict, List, Optional

from repro.errors import ReproError
from repro.runtime.control import ControlClient, ControlError
from repro.runtime.daemon import COMMANDS, NodeDaemon


def _parse_fund(values: List[str]) -> Dict[str, int]:
    allocations: Dict[str, int] = {}
    for item in values:
        name, _, amount = item.partition("=")
        if not name or not amount:
            raise ReproError(f"--fund expects name=amount, got {item!r}")
        allocations[name] = int(amount)
    return allocations


def _parse_call_args(pairs: List[str]) -> Dict[str, object]:
    kwargs: Dict[str, object] = {}
    for pair in pairs:
        key, separator, value = pair.partition("=")
        if not separator:
            raise ReproError(f"call arguments are key=value, got {pair!r}")
        kwargs[key.replace("-", "_")] = int(value) if value.isdigit() else value
    return kwargs


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.runtime",
        description="Live Teechain node daemon and control CLI",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    serve_cmd = commands.add_parser("serve", help="run a node daemon")
    serve_cmd.add_argument("--name", required=True,
                           help="node name (determines the wallet seed)")
    serve_cmd.add_argument("--host", default="127.0.0.1")
    serve_cmd.add_argument("--port", type=int, default=0,
                           help="peer port (0 = OS-assigned)")
    serve_cmd.add_argument("--control-port", type=int, default=0)
    serve_cmd.add_argument("--fund", action="append", default=[],
                           metavar="NAME=AMOUNT",
                           help="genesis allocation; repeat per participant, "
                                "identical across all daemons")
    serve_cmd.add_argument("--state-dir", default=None,
                           help="directory for sealed state; enables "
                                "crash recovery across restarts")
    serve_cmd.add_argument("--workers", type=int, default=0,
                           help="shard channels across N worker processes "
                                "(0 = single-process daemon); the --fund "
                                "allocation must list NAME-w0..N-1")
    serve_cmd.add_argument("--trace", action="store_true",
                           help="enable causal tracing (also: REPRO_TRACE=1); "
                                "spans are served via 'trace_dump'")
    serve_cmd.add_argument("--log-level", default="WARNING")

    top_cmd = commands.add_parser(
        "top", help="live telemetry view over one or more daemons")
    top_cmd.add_argument("targets", nargs="+", metavar="host:port",
                         help="control addresses to poll")
    top_cmd.add_argument("--interval", type=float, default=1.0,
                         help="seconds between polls")
    top_cmd.add_argument("--iterations", type=int, default=0,
                         help="number of polls (0 = until interrupted)")

    call_cmd = commands.add_parser(
        "call", help="send one control command",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        # The command table is generated from the daemon's registry, so
        # this help can never drift from what the daemon accepts.
        epilog="commands:\n" + COMMANDS.help_text(),
    )
    call_cmd.add_argument("target", help="control address, host:port")
    call_cmd.add_argument("cmd", help="command name (e.g. open-channel)")
    call_cmd.add_argument("args", nargs="*", metavar="key=value")
    return parser


def run_top(targets: List[str], interval: float, iterations: int,
            out=None) -> int:
    """Poll ``health`` + ``metrics_stream`` on every target and render a
    one-line-per-daemon table each tick — the live analogue of watching
    the DES metrics snapshot."""
    out = out if out is not None else sys.stdout
    clients: List[ControlClient] = []
    try:
        for target in targets:
            host, _, port = target.rpartition(":")
            clients.append(ControlClient(host or "127.0.0.1", int(port)))
        header = (f"{'NODE':<12} {'STATUS':<7} {'UP(S)':>8} {'PEERS':>5} "
                  f"{'CHANS':>5} {'HEIGHT':>6} {'SPANS':>7} {'DROP':>5}  "
                  "BUSIEST COUNTERS (delta)")
        tick = 0
        while True:
            print(header, file=out)
            for client in clients:
                health = client.call("health")
                delta = client.call("metrics_stream")
                busiest = sorted(delta["counters"].items(),
                                 key=lambda item: -item[1])[:3]
                summary = "  ".join(f"{name}={value:g}"
                                    for name, value in busiest) or "-"
                print(f"{health['node']:<12} {health['status']:<7} "
                      f"{health['uptime']:>8.1f} {health.get('peers', 0):>5} "
                      f"{health.get('channels', 0):>5} "
                      f"{health.get('chain_height', 0):>6} "
                      f"{health['trace_events']:>7} "
                      f"{health['trace_dropped']:>5}  {summary}", file=out)
            out.flush()
            tick += 1
            if iterations and tick >= iterations:
                return 0
            time.sleep(interval)
    except KeyboardInterrupt:
        return 0
    finally:
        for client in clients:
            client.close()


def _pin_malloc_thresholds() -> None:
    """asyncio reads each socket through a fresh 256 KiB buffer, which
    glibc serves with mmap/munmap — two page faults, ~20 µs per read —
    until the free of some larger block raises its *dynamic* threshold.
    Whether set-up happened to free one decided a daemon's speed; fixed
    thresholds do not.  No-op without glibc's ``mallopt``."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(-3, 4 << 20)  # M_MMAP_THRESHOLD
    mallopt(-1, 8 << 20)  # M_TRIM_THRESHOLD


async def _serve(daemon: Any) -> None:
    """Start ``daemon``, write one ready line naming its bound ports
    (``port`` is null for a sharded router), point stdout at
    ``/dev/null`` so that a launcher which read the line and closed the
    pipe can never block a later write, and run until ``shutdown``."""
    port, control_port = await daemon.start()
    print(json.dumps({"name": daemon.name, "port": port,
                      "control_port": control_port}), flush=True)
    with open(os.devnull, "wb") as devnull:
        os.dup2(devnull.fileno(), sys.stdout.fileno())
    await daemon.run_until_shutdown()


def main(argv: Optional[List[str]] = None) -> int:
    arguments = build_parser().parse_args(argv)
    if arguments.command == "serve":
        logging.basicConfig(level=arguments.log_level.upper())
        _pin_malloc_thresholds()
        allocations = _parse_fund(arguments.fund)
        if arguments.workers > 0:
            from repro.runtime.workers import ShardedDaemon
            daemon = ShardedDaemon(
                arguments.name, host=arguments.host,
                control_port=arguments.control_port, allocations=allocations,
                workers=arguments.workers, state_dir=arguments.state_dir,
                trace=bool(arguments.trace))
        else:
            daemon = NodeDaemon(
                arguments.name, host=arguments.host, port=arguments.port,
                control_port=arguments.control_port, allocations=allocations,
                state_dir=arguments.state_dir,
                trace=True if arguments.trace else None)
        try:
            asyncio.run(_serve(daemon))
        except KeyboardInterrupt:
            pass
        return 0
    if arguments.command == "top":
        return run_top(arguments.targets, arguments.interval,
                       arguments.iterations)
    if arguments.command == "call":
        host, _, port = arguments.target.rpartition(":")
        with ControlClient(host or "127.0.0.1", int(port)) as client:
            try:
                response = client.call(arguments.cmd,
                                       **_parse_call_args(arguments.args))
            except ControlError as exc:
                print(json.dumps({"ok": False, "code": exc.code,
                                  "error": str(exc)}))
                return 1
            except ReproError as exc:
                print(json.dumps({"ok": False, "error": str(exc)}))
                return 1
        print(json.dumps({"ok": True, **response}, indent=2))
        return 0
    return 2


if __name__ == "__main__":
    sys.exit(main())
