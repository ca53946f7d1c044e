"""``python -m repro.obs`` — fleet observability from the terminal.

``fleet`` is the operator's live view over
:class:`repro.obs.fleet.FleetMonitor`: one row per daemon with its
status, derived rates (payments/s, drops/s, backpressure/s), channel
and peer counts and chain height, then the fleet conservation line and
every active alert.  ``--once --json`` emits a single machine-readable
sweep for scripts (each point also carries ``uptime`` and the trace
ring's ``trace_events``/``trace_dropped``); a sweep that raised a
CRITICAL alert exits 1.

Examples::

    python -m repro.obs fleet alice=127.0.0.1:7101 bob=127.0.0.1:7102
    python -m repro.obs fleet 127.0.0.1:7101 --once --json
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
from typing import Any, Dict, List, Optional

from repro.obs.fleet import FleetMonitor, parse_targets


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="Fleet observability: live invariant auditing and "
                    "telemetry over running daemons.")
    sub = parser.add_subparsers(dest="command", required=True)
    fleet = sub.add_parser(
        "fleet", help="poll daemons, derive rates, audit invariants")
    fleet.add_argument(
        "targets", nargs="+", metavar="NAME=HOST:PORT",
        help="control endpoints (bare HOST:PORT names itself)")
    fleet.add_argument("--interval", type=float, default=1.0,
                       help="seconds between sweeps (default 1.0)")
    fleet.add_argument("--iterations", type=int, default=0,
                       help="stop after N sweeps (0 = until Ctrl-C)")
    fleet.add_argument("--once", action="store_true",
                       help="one sweep, then exit (implies iterations=1)")
    fleet.add_argument("--json", action="store_true",
                       help="emit JSON instead of the table view")
    fleet.add_argument("--expected-total", type=int, default=None,
                       help="funded supply to audit conservation "
                            "against (default: first sweep's observed "
                            "total)")
    return parser


def _render(monitor: FleetMonitor, sweep: Dict[str, Any], out) -> None:
    header = (f"{'NODE':<14} {'STATUS':<7} {'TX/S':>8} {'RX/S':>8} "
              f"{'DROP/S':>7} {'BP/S':>6} {'RECONN':>6} {'QUEUED':>6} "
              f"{'ONCHAIN':>9} {'CHANS':>5} {'PEERS':>5} {'HEIGHT':>6}")
    print(header, file=out)
    for name in sorted(monitor.targets):
        point = sweep["daemons"].get(name)
        if not point or not point.get("ok"):
            print(f"{name:<14} {'DOWN':<7}", file=out)
            continue
        # A router's merged health carries no peers or height: "-".
        peers, height = ("-" if point.get(key) is None else point[key]
                         for key in ("peers", "chain_height"))
        print(f"{name:<14} {point.get('status', '?'):<7} "
              f"{point['tx_s']:>8.1f} {point['rx_s']:>8.1f} "
              f"{point['drops_s']:>7.1f} {point['backpressure_s']:>6.1f} "
              f"{point['reconnects']:>6} {point['queued']:>6} "
              f"{point['onchain']:>9} {point['channels']:>5} "
              f"{peers:>5} {height:>6}", file=out)
    observed = sweep.get("observed_total")
    expected = sweep.get("expected_total")
    verdict = "OK" if observed == expected else (
        "SURPLUS" if (observed or 0) > (expected or 0) else "DEFICIT")
    print(f"conservation: observed={observed} expected={expected} "
          f"[{verdict}]", file=out)
    alerts = sweep.get("alerts", [])
    if alerts:
        print(f"active alerts ({len(alerts)}):", file=out)
        for alert in alerts:
            print(f"  [{alert['severity']:>8}] {alert['code']:<24} "
                  f"{alert['subject']:<14} {alert['detail']}", file=out)
    else:
        print("active alerts: none", file=out)
    out.flush()


async def run_fleet(arguments: argparse.Namespace, out=None) -> int:
    out = out if out is not None else sys.stdout
    monitor = FleetMonitor(
        parse_targets(arguments.targets),
        interval=arguments.interval,
        expected_total=arguments.expected_total)
    try:
        iterations = 1 if arguments.once else arguments.iterations
        tick = 0
        while True:
            sweep = await monitor.sweep()
            if arguments.json:
                payload = {"sweep": sweep,
                           "audit": monitor.auditor.summary()}
                print(json.dumps(payload, sort_keys=True), file=out)
            else:
                _render(monitor, sweep, out)
            tick += 1
            if iterations and tick >= iterations:
                break
            await asyncio.sleep(arguments.interval)
        # Scripting contract: a sweep that saw a CRITICAL exits nonzero.
        return 1 if monitor.auditor.critical_alerts() else 0
    finally:
        await monitor.close()


def main(argv: Optional[List[str]] = None) -> int:
    arguments = build_parser().parse_args(argv)
    if arguments.command == "fleet":
        try:
            return asyncio.run(run_fleet(arguments))
        except KeyboardInterrupt:
            return 0
    return 2


if __name__ == "__main__":
    raise SystemExit(main())
