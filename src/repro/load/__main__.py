"""``python -m repro.load`` — drive payment load at live daemons.

Two subcommands:

``run``
    Drive daemons that are already serving.  Targets are
    ``host:port/channel_id`` (control address of the daemon that
    *originates* the payments).  Prints the report as JSON and, with
    ``--sidecar``, writes ``BENCH_<name>.json``.

``smoke``
    Self-contained check used by CI.  ``--mode channel`` (default):
    launch a two-daemon loopback network, run a few hundred
    closed-loop payments bidirectionally, settle, and verify (a) zero
    protocol-plane transport drops, (b) zero payment errors, and
    (c) exact on-chain conservation.  Writes ``BENCH_load.json``.

    ``--mode account``: launch a hub plus two channel peers, open
    ``--accounts`` simulated client accounts inside the hub's enclave,
    drive closed-loop account pays, inject a forged and a replayed
    request (both must be rejected with their stable codes), withdraw
    over a real channel, settle it, and verify the ledger's exact
    conservation invariant plus zero drops/errors.  Writes
    ``BENCH_load_hub.json``.

    Both exit nonzero on any violation.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import sys
import time
from typing import Any, Dict, List, Optional

from repro.bench.harness import ExperimentResult, write_sidecar
from repro.crypto.keys import KeyPair
from repro.hub.client import sign_request
from repro.hub.messages import AccountPay
from repro.load.accounts import AccountFleet
from repro.load.generators import (
    LoadReport,
    LoadTarget,
    run_closed_loop,
    transport_drops,
)
from repro.obs import MetricsRegistry
from repro.obs.fleet import FleetMonitorThread
from repro.runtime.control import ControlError
from repro.runtime.launch import HOST, launch_network

GENESIS = 200_000
DEPOSIT = 60_000
A_TO_B, B_TO_A = 2, 1  # asymmetric so the smoke settlement is on-chain


def _result_rows(experiment: str,
                 report: LoadReport) -> List[ExperimentResult]:
    """Per-target throughput/p50/p95 rows for the sidecar table."""
    rows: List[ExperimentResult] = []
    for target in report.targets:
        if target["throughput_tx_s"] is not None:
            rows.append(ExperimentResult(
                experiment, target["target"], "throughput",
                target["throughput_tx_s"], None, "tx/s"))
        latency = target["latency"]
        if latency:
            rows.append(ExperimentResult(
                experiment, target["target"], "p50",
                latency["p50"] * 1000, None, "ms"))
            rows.append(ExperimentResult(
                experiment, target["target"], "p95",
                latency["p95"] * 1000, None, "ms"))
    return rows


def _write_sidecar(name: str, experiment: str, report: LoadReport,
                   registry: MetricsRegistry, directory: Optional[str],
                   extra: Dict[str, Any]) -> str:
    if directory:
        os.makedirs(directory, exist_ok=True)
    return write_sidecar(
        name, _result_rows(experiment, report), metrics=registry,
        extra={"load": report.to_dict(), **extra}, directory=directory)


def _start_monitor(args: argparse.Namespace,
                   targets: Dict[str, Any]) -> Optional[FleetMonitorThread]:
    """Attach a FleetMonitor (own thread + loop) when ``--monitor`` is
    set; sweeps run concurrently with whatever the caller drives."""
    if not getattr(args, "monitor", False):
        return None
    return FleetMonitorThread(
        targets, interval=args.monitor_interval).start()


def _finish_monitor(monitored: Optional[FleetMonitorThread],
                    failures: List[str],
                    extra: Dict[str, Any]) -> None:
    """Stop the monitor, fold its sidecar payload into ``extra``, and
    turn any CRITICAL alert ever raised into a smoke failure."""
    if monitored is None:
        return
    monitored.stop()
    monitor = monitored.monitor
    if monitor is None:
        failures.append("fleet monitor never started")
        return
    extra["fleet"] = monitor.to_sidecar()
    for alert in monitor.auditor.critical_alerts():
        failures.append(f"CRITICAL alert {alert.code} on {alert.subject}: "
                        f"{alert.detail}")


def _cmd_run(args: argparse.Namespace) -> int:
    targets = [LoadTarget.parse(spec, amount=args.amount)
               for spec in args.target]
    addresses = sorted({(t.host, t.port) for t in targets})
    monitored = _start_monitor(
        args, {f"{host}:{port}": (host, port) for host, port in addresses})
    registry = MetricsRegistry()
    try:
        report = asyncio.run(run_closed_loop(
            targets, args.count, concurrency=args.concurrency,
            timeout=args.timeout, registry=registry))
        drops = asyncio.run(transport_drops(addresses))
    except BaseException:
        if monitored is not None:
            monitored.stop()
        raise
    failures: List[str] = []
    extra: Dict[str, Any] = {"transport_drops": drops}
    _finish_monitor(monitored, failures, extra)
    payload = {**report.to_dict(), "transport_drops": drops}
    if "fleet" in extra:
        payload["alerts"] = extra["fleet"]["audit"]["log"]
    print(json.dumps(payload, indent=2))
    if args.sidecar:
        path = _write_sidecar(args.sidecar, "load run", report, registry,
                              args.sidecar_dir, extra)
        print(f"sidecar: {path}", file=sys.stderr)
    if args.fail_on_drops and drops["protocol"]:
        failures.append(
            f"{drops['protocol']} protocol-plane frame(s) dropped")
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


def _poll(predicate, timeout: float = 30.0, interval: float = 0.05,
          what: str = "condition") -> None:
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:
            raise TimeoutError(f"timed out waiting for {what}")
        time.sleep(interval)


def _cmd_smoke(args: argparse.Namespace) -> int:
    if args.mode == "account":
        return _smoke_account(args)
    return _smoke_channel(args)


def _smoke_channel(args: argparse.Namespace) -> int:
    payments = args.payments
    handles, _ = launch_network({"alice": GENESIS, "bob": GENESIS})
    alice = handles["alice"].control
    bob = handles["bob"].control
    failures: List[str] = []
    monitor_extra: Dict[str, Any] = {}
    monitored = None
    try:
        channel_id = alice.call("open-channel", peer="bob")["channel_id"]
        for client, peer in ((alice, "bob"), (bob, "alice")):
            deposit = client.call("deposit", value=DEPOSIT)
            client.call("approve-associate", peer=peer,
                        channel_id=channel_id, txid=deposit["txid"])

        def funded(client) -> bool:
            snapshot = client.call("channel", channel_id=channel_id)
            return (snapshot["my_balance"] == DEPOSIT
                    and snapshot["remote_balance"] == DEPOSIT)

        _poll(lambda: funded(alice) and funded(bob),
              what="both deposits visible on both daemons")

        # Audit plane: sweep the fleet concurrently with the load and
        # through settlement; any CRITICAL alert fails the smoke.
        monitored = _start_monitor(args, {
            "alice": (HOST, handles["alice"].control_port),
            "bob": (HOST, handles["bob"].control_port),
        })

        targets = [
            LoadTarget(HOST, handles["alice"].control_port, channel_id,
                       amount=A_TO_B, label="alice->bob"),
            LoadTarget(HOST, handles["bob"].control_port, channel_id,
                       amount=B_TO_A, label="bob->alice"),
        ]
        registry = MetricsRegistry()
        report = asyncio.run(run_closed_loop(
            targets, payments_per_target=payments,
            concurrency=args.concurrency, registry=registry))

        # Every payment the generators report complete must land in the
        # channel ledger on both sides before we settle.
        net = payments * (A_TO_B - B_TO_A)
        final_alice = DEPOSIT - net
        final_bob = DEPOSIT + net

        def converged(client, mine, theirs) -> bool:
            snapshot = client.call("channel", channel_id=channel_id)
            return (snapshot["my_balance"] == mine
                    and snapshot["remote_balance"] == theirs)

        _poll(lambda: converged(alice, final_alice, final_bob)
              and converged(bob, final_bob, final_alice),
              what="channel balances to converge after the load run")

        drops = asyncio.run(transport_drops(
            [(HOST, handles["alice"].control_port),
             (HOST, handles["bob"].control_port)]))

        settlement = alice.call("settle", channel_id=channel_id)
        height = alice.call("stats")["chain"]["height"]
        _poll(lambda: bob.call("stats")["chain"]["height"] == height,
              what="bob's chain replica to include the settlement")
        balance_a = alice.call("balance")["onchain"]
        balance_b = bob.call("balance")["onchain"]
        _finish_monitor(monitored, failures, monitor_extra)
        monitored = None
    finally:
        if monitored is not None:
            monitored.stop()
        for handle in handles.values():
            handle.shutdown()

    conservation = {
        "balance_alice": balance_a,
        "balance_bob": balance_b,
        "total": balance_a + balance_b,
        "expected_total": 2 * GENESIS,
        "expected_alice": GENESIS - DEPOSIT + final_alice,
        "expected_bob": GENESIS - DEPOSIT + final_bob,
    }
    path = _write_sidecar(
        "load", "load smoke", report, registry, args.sidecar_dir,
        {"transport_drops": drops, "conservation": conservation,
         "settlement": settlement, **monitor_extra})
    print(json.dumps({**report.to_dict(), "transport_drops": drops,
                      "conservation": conservation}, indent=2))
    print(f"sidecar: {path}", file=sys.stderr)

    if drops["protocol"]:
        failures.append(
            f"{drops['protocol']} protocol-plane frame(s) dropped")
    if report.errors:
        failures.append(f"{report.errors} payment(s) errored")
    if report.completed != 2 * payments:
        failures.append(f"completed {report.completed} of {2 * payments}")
    if balance_a != conservation["expected_alice"]:
        failures.append(f"alice settled to {balance_a}, "
                        f"expected {conservation['expected_alice']}")
    if balance_a + balance_b != 2 * GENESIS:
        failures.append(f"conservation broken: {balance_a + balance_b} "
                        f"!= {2 * GENESIS}")
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    if not failures:
        print(f"OK: {report.completed} payments, zero drops, "
              "balances conserved", file=sys.stderr)
    return 1 if failures else 0


HUB_FEE = 1
ACCOUNT_PAY = 2  # must exceed the fee


def _smoke_account(args: argparse.Namespace) -> int:
    """Hub-account smoke: open N accounts in one enclave, drive pays,
    reject a forged and a replayed request, withdraw over a channel,
    settle it, and check the ledger's exact conservation invariant."""
    accounts, payments = args.accounts, args.payments
    streams = 4
    handles, _ = launch_network(
        {"hub": GENESIS, "alice": GENESIS, "bob": GENESIS})
    hub = handles["hub"].control
    alice = handles["alice"].control
    failures: List[str] = []
    monitor_extra: Dict[str, Any] = {}
    monitored = None
    try:
        channels = {}
        for peer in ("alice", "bob"):
            channel_id = hub.call("open-channel",
                                  peer=peer)["channel_id"]
            deposit = hub.call("deposit", value=DEPOSIT)
            hub.call("approve-associate", peer=peer,
                     channel_id=channel_id, txid=deposit["txid"])
            channels[peer] = channel_id

        def backed() -> bool:
            return all(
                hub.call("channel", channel_id=cid)["my_balance"]
                == DEPOSIT for cid in channels.values())

        _poll(backed, what="hub deposits to associate on both channels")
        monitored = _start_monitor(args, {
            name: (HOST, handle.control_port)
            for name, handle in handles.items()
        })
        backing = len(channels) * DEPOSIT
        per_account = backing // accounts
        if per_account <= 0:
            raise SystemExit(f"--accounts {accounts} too large for "
                             f"backing {backing}")

        hub.call("hub-fee", fee_per_pay=HUB_FEE)
        fleet = AccountFleet(accounts)
        for batch in fleet.open_batches(per_account):
            opened = hub.call("account-pay-many", requests=batch)
            if opened["accepted"] != len(batch):
                failures.append(
                    f"account opening rejected "
                    f"{opened['rejected']}/{len(batch)} deposits")

        targets = fleet.pay_targets(
            HOST, handles["hub"].control_port, ACCOUNT_PAY,
            streams=streams)
        registry = MetricsRegistry()
        report = asyncio.run(run_closed_loop(
            targets, payments_per_target=payments,
            concurrency=args.concurrency, registry=registry))

        # Adversarial injections: a request signed with the wrong key,
        # then a legitimate request submitted twice.  Both must be
        # refused with their stable codes and counted by the enclave.
        attacker = KeyPair.from_seed(b"smoke-attacker")
        forged = sign_request(
            AccountPay(fleet.signers[0].account,
                       fleet.signers[1].account, 1, 10**6),
            attacker.private)
        try:
            hub.call("account-pay", request=forged)
            failures.append("forged request was accepted")
        except ControlError as exc:
            if exc.code != "authentication_failed":
                failures.append(
                    f"forged request rejected as {exc.code!r}, "
                    "expected 'authentication_failed'")
        replay = fleet.pay_request(0, ACCOUNT_PAY)
        extra_pays = 0
        try:
            hub.call("account-pay", request=replay)
            extra_pays = 1
            hub.call("account-pay", request=replay)
            failures.append("replayed request was accepted")
        except ControlError as exc:
            if exc.code != "stale_nonce":
                failures.append(f"replay rejected as {exc.code!r}, "
                                "expected 'stale_nonce'")

        stats = hub.call("account-stats")["hub"]
        expected_pays = streams * payments + extra_pays
        checks = [
            ("accounts", accounts), ("pays", expected_pays),
            ("deposited_total", accounts * per_account),
            ("fee_bucket", expected_pays * HUB_FEE),
            ("withdrawn_total", 0),
            ("conserved", True), ("solvent", True),
        ]
        for key, expected in checks:
            if stats[key] != expected:
                failures.append(
                    f"hub.{key} = {stats[key]!r}, expected {expected!r}")

        # Withdraw over a real channel, then settle that channel: the
        # value must leave the enclave and land in alice's wallet.
        withdrawal = per_account // 4
        hub.call("account-withdraw",
                 request=fleet.signers[0].withdraw_request(
                     withdrawal, "channel", channels["alice"]))
        _poll(lambda: alice.call(
                  "channel",
                  channel_id=channels["alice"])["my_balance"]
              == withdrawal,
              what="channel withdrawal to reach alice")
        after = hub.call("account-stats")["hub"]
        if after["withdrawn_total"] != withdrawal:
            failures.append(f"withdrawn_total {after['withdrawn_total']}"
                            f" != {withdrawal}")
        if not after["conserved"]:
            failures.append("ledger not conserved after withdrawal")

        drops = asyncio.run(transport_drops(
            [(HOST, handle.control_port) for handle in handles.values()]))
        counters = hub.call("metrics")["metrics"]["counters"]
        hub.call("settle", channel_id=channels["alice"])
        _poll(lambda: alice.call("balance")["onchain"]
              == GENESIS + withdrawal,
              what="settlement to pay alice's wallet")
        balance_alice = alice.call("balance")["onchain"]
        _finish_monitor(monitored, failures, monitor_extra)
        monitored = None
    finally:
        if monitored is not None:
            monitored.stop()
        for handle in handles.values():
            handle.shutdown()

    if drops["protocol"]:
        failures.append(
            f"{drops['protocol']} protocol-plane frame(s) dropped")
    if report.errors:
        failures.append(f"{report.errors} account pay(s) rejected: "
                        f"{report.rejected}")
    if report.completed != streams * payments:
        failures.append(f"completed {report.completed} "
                        f"of {streams * payments}")
    if not counters.get("hub.rejected_sigs"):
        failures.append("hub.rejected_sigs not incremented")
    if not counters.get("hub.rejected_nonces"):
        failures.append("hub.rejected_nonces not incremented")
    if balance_alice != GENESIS + withdrawal:
        failures.append(f"alice settled to {balance_alice}, expected "
                        f"{GENESIS + withdrawal}")

    conservation = {
        "accounts": accounts, "per_account": per_account,
        "backing": backing, "stats": after,
        "balance_alice": balance_alice,
    }
    path = _write_sidecar(
        "load_hub", "load smoke (account)", report, registry,
        args.sidecar_dir,
        {"transport_drops": drops, "conservation": conservation,
         "hub_counters": {k: v for k, v in counters.items()
                          if k.startswith("hub.")},
         **monitor_extra})
    print(json.dumps({**report.to_dict(), "transport_drops": drops,
                      "conservation": conservation}, indent=2))
    print(f"sidecar: {path}", file=sys.stderr)

    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    if not failures:
        print(f"OK: {accounts} accounts, {report.completed} account "
              "pays, forged/replayed rejected, ledger conserved",
              file=sys.stderr)
    return 1 if failures else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.load",
        description="Payment load generation against live daemons.")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="drive already-running daemons")
    run.add_argument("--target", action="append", required=True,
                     metavar="HOST:PORT/CHANNEL",
                     help="control address of the paying daemon plus the "
                          "channel id (repeatable)")
    run.add_argument("--count", type=int, default=100,
                     help="payments per target")
    run.add_argument("--concurrency", type=int, default=4,
                     help="closed-loop users per target")
    run.add_argument("--amount", type=int, default=1)
    run.add_argument("--timeout", type=float, default=120.0)
    run.add_argument("--sidecar", default=None, metavar="NAME",
                     help="write BENCH_<NAME>.json")
    run.add_argument("--sidecar-dir", default=None)
    run.add_argument("--fail-on-drops", action="store_true",
                     help="exit nonzero on protocol-plane transport drops")
    run.add_argument("--monitor", action="store_true",
                     help="attach a FleetMonitor during the run; any "
                          "CRITICAL invariant alert exits nonzero")
    run.add_argument("--monitor-interval", type=float, default=0.25,
                     help="seconds between monitor sweeps (default 0.25)")
    run.set_defaults(func=_cmd_run)

    smoke = sub.add_parser(
        "smoke", help="self-contained loopback load check (CI)")
    smoke.add_argument("--mode", choices=("channel", "account"),
                       default="channel",
                       help="channel: loopback pair; account: hub "
                            "with simulated client accounts")
    smoke.add_argument("--payments", type=int, default=150,
                       help="payments per direction (channel) or per "
                            "stream (account)")
    smoke.add_argument("--accounts", type=int, default=200,
                       help="account mode: simulated clients")
    smoke.add_argument("--concurrency", type=int, default=4)
    smoke.add_argument("--sidecar-dir", default=None,
                       help="where BENCH_load[_hub].json goes "
                            "(default: cwd)")
    smoke.add_argument("--monitor", action="store_true",
                       help="audit invariants concurrently with the "
                            "load; any CRITICAL alert fails the smoke")
    smoke.add_argument("--monitor-interval", type=float, default=0.25,
                       help="seconds between monitor sweeps "
                            "(default 0.25)")
    smoke.set_defaults(func=_cmd_smoke)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
