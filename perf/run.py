#!/usr/bin/env python3
"""The repo benchmark: five payment workloads, measured from outside.

    python3 perf/run.py --seed 0                 every workload, both tables
    python3 perf/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perf/run.py --quick                  1 window x 1 s, for smoke
    python3 perf/run.py --layers                 the layer walk + its trace
    python3 perf/run.py compare A.json B.json    apply the bounds

``BENCHMARK.json`` at the repository root names every metric, its unit,
its direction and (end to end) its bound; this file measures them.
With one ``--workload`` the last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}`` holding the
end-to-end metrics (``--trace 0``) or the per-layer ones (``--trace 1``).
See README.md next to this file for what each number means.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional

PERF = Path(__file__).resolve().parent
ROOT = PERF.parent
SPEC_PATH = ROOT / "BENCHMARK.json"

if not (ROOT / "src" / "repro").is_dir():
    sys.exit(f"perf/run.py: no program to measure: {ROOT / 'src' / 'repro'} "
             "is missing")

import compare  # noqa: E402
import harness  # noqa: E402
import layers  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402

@dataclass(frozen=True)
class Plan:
    """How long one run measures; identical on every commit."""

    windows: int
    window_s: float
    warmup_s: float
    setups: int
    #: Length of one host-speed reference slice (harness.host_speed).
    reference_s: float
    #: Samples a percentile needs beyond it (see harness.percentile).
    min_beyond: int
    walk_batch_s: float
    walk_batches: int

    @classmethod
    def timed(cls, seconds: float) -> "Plan":
        windows = max(1, round(seconds))
        return cls(windows=windows, window_s=seconds / windows, warmup_s=1.0,
                   setups=3, reference_s=0.25, min_beyond=10,
                   walk_batch_s=0.05, walk_batches=3)

    @classmethod
    def quick(cls) -> "Plan":
        return cls(windows=1, window_s=1.0, warmup_s=0.2, setups=1,
                   reference_s=0.05, min_beyond=0, walk_batch_s=0.005,
                   walk_batches=1)


class Windows:
    """Observations of consecutive timed windows on one launch.

    Every time-based series is normalised by the host speed measured
    around its window (see harness.host_speed): rates are divided by it,
    durations multiplied."""

    def __init__(self) -> None:
        self.speed: List[float] = []
        self.elapsed: List[float] = []
        self.completed: List[int] = []
        self.failed = 0
        self.latencies: List[List[float]] = []
        self.role_cpu: Dict[str, List[float]] = {}
        self.generator_cpu: List[float] = []

    def run(self, workload: Workload, seconds: float) -> None:
        """One window: closed loops for ``seconds``, then the delivery
        barrier; the barrier's wait is inside the window."""
        roles = workload.roles
        cpu_before = {role: harness.cpu_seconds(pids)
                      for role, pids in roles.items()}
        own_before = harness.own_cpu_seconds()
        done_before = workload.completed()
        started = time.perf_counter()
        tallies = harness.drive(workload.steps, seconds)
        missing = workload.unapplied()
        self.elapsed.append(time.perf_counter() - started)
        self.generator_cpu.append(harness.own_cpu_seconds() - own_before)
        for role, pids in roles.items():
            self.role_cpu.setdefault(role, []).append(
                harness.cpu_seconds(pids) - cpu_before[role])
        self.completed.append(workload.completed() - done_before - missing)
        self.failed += missing + sum(tally.failed for tally in tallies)
        self.latencies.append(
            [sample for tally in tallies for sample in tally.latencies])
        for tally in tallies:
            if tally.aborted:
                raise RuntimeError(f"{workload.name}: connection lost "
                                   f"mid-window: {tally.aborted}")

    # -- per-window series -------------------------------------------------

    def tx_s(self) -> List[float]:
        return [done / elapsed / speed for done, elapsed, speed
                in zip(self.completed, self.elapsed, self.speed)]

    def cpu_ms_per_tx(self, *roles: str) -> List[float]:
        """System CPU per payment, of ``roles`` (default: every role)."""
        chosen = roles or tuple(self.role_cpu)
        return [1000.0 * speed * sum(self.role_cpu[role][index]
                                     for role in chosen
                                     if role in self.role_cpu) / max(done, 1)
                for index, (done, speed)
                in enumerate(zip(self.completed, self.speed))]

    def cpu_share(self, cpu_seconds: List[float]) -> float:
        """CPU seconds ÷ wall seconds over all windows (a ratio of two
        times on the same host, so not normalised)."""
        return sum(cpu_seconds) / sum(self.elapsed)

    def percentile_ms(self, q: float, min_beyond: int) -> float:
        pooled = [sample * speed
                  for window, speed in zip(self.latencies, self.speed)
                  for sample in window]
        return 1000.0 * harness.percentile(pooled, q, min_beyond)

    def percentile_ms_by_window(self, q: float) -> List[float]:
        return [1000.0 * speed * harness.percentile(window, q, 0)
                for window, speed in zip(self.latencies, self.speed)
                if window]


def load_spec() -> Dict[str, Any]:
    with open(SPEC_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def machine_tag() -> str:
    return (f"{os.cpu_count()}cpu-py{platform.python_version()}-"
            f"{platform.system().lower()}{platform.release().split('-')[0]}")


def _warm_up(workload: Workload, plan: Plan, windows: int) -> None:
    """Untimed: let caches fill, then pre-sign for the windows to come."""
    workload.prepare(plan.warmup_s)
    harness.drive(workload.steps, plan.warmup_s)
    workload.unapplied()
    workload.prepare(windows * plan.window_s)


def _measure(workload: Workload, plan: Plan, windows: int) -> Windows:
    """``windows`` timed windows, each between two host-speed slices."""
    observed = Windows()
    before = harness.host_speed(plan.reference_s)
    for _ in range(windows):
        observed.run(workload, plan.window_s)
        after = harness.host_speed(plan.reference_s)
        observed.speed.append((before + after) / 2.0)
        before = after
    return observed


def end_to_end(name: str, seed: int, plan: Plan) -> Dict[str, Any]:
    """The ``--trace 0`` run: set up ``plan.setups`` times, measure on
    the last launch with tracing off, then check the money."""
    setups = []
    before = harness.host_speed(plan.reference_s)
    for _ in range(plan.setups - 1):
        with WORKLOADS[name](seed) as throwaway:
            after = harness.host_speed(plan.reference_s)
            setups.append(throwaway.setup_s * (before + after) / 2.0)
            before = after
    with WORKLOADS[name](seed) as workload:
        after = harness.host_speed(plan.reference_s)
        setups.append(workload.setup_s * (before + after) / 2.0)
        _warm_up(workload, plan, plan.windows)
        observed = _measure(workload, plan, plan.windows)
        pids = [pid for pids in workload.roles.values() for pid in pids]
        rss = harness.peak_rss_mb(pids)
        problems = workload.verify()
    series = {
        "tx_s": observed.tx_s(),
        "p50_ms": observed.percentile_ms_by_window(0.50),
        "p95_ms": observed.percentile_ms_by_window(0.95),
        "cpu_ms_per_tx": observed.cpu_ms_per_tx(),
        "setup_s": setups,
        "peak_rss_mb": [rss],
        "host_speed": observed.speed,
    }
    values = {key: statistics.median(window_values)
              for key, window_values in series.items()}
    # Latency percentiles pool every window's samples.  p95 accepts half
    # the usual margin (5 samples beyond it): multihop_3 completes under
    # 200 payments in a run.
    values["p50_ms"] = observed.percentile_ms(0.50, plan.min_beyond // 2)
    values["p95_ms"] = observed.percentile_ms(0.95, plan.min_beyond // 2)
    return _result(observed, problems, values, series)


def per_layer(name: str, seed: int, plan: Plan,
              walk: Optional[Dict[str, float]] = None) -> Dict[str, Any]:
    """The ``--trace 1`` run: counters and per-role CPU on an untraced
    launch, a traced relaunch for the tracing overhead, and the walk."""
    plain_windows = max(1, plan.windows * 2 // 3)
    with WORKLOADS[name](seed) as workload:
        values = workload.control_rtts_us()
        _warm_up(workload, plan, plain_windows)
        counters_before = workload.counters()
        inline_before = workload.inline_signed()
        observed = _measure(workload, plan, plain_windows)
        counters = {key: value - counters_before.get(key, 0)
                    for key, value in workload.counters().items()}
        inline_signed = workload.inline_signed() - inline_before
        problems = workload.verify()
    payments = max(1, sum(observed.completed))

    def family(prefix: str) -> float:
        return sum(value for key, value in counters.items()
                   if key.startswith(prefix))

    values.update({
        "crypto.signs_per_tx": counters.get("crypto.sign", 0) / payments,
        "crypto.verifies_per_tx": counters.get("crypto.verify", 0) / payments,
        "crypto.macs_per_tx":
            counters.get("crypto.mac_fastpath", 0) / payments,
        "core.checkpoints_per_tx":
            counters.get("crypto.checkpoints_sent", 0) / payments,
        "transport.frames_per_tx": family("transport.messages[") / payments,
        "transport.bytes_per_tx": family("transport.bytes[") / payments,
        "hub.rejected": family("hub.rejected"),
        "transport.backpressure_waits":
            counters.get("runtime.backpressure_waits", 0),
        "transport.reconnects": counters.get("runtime.reconnects", 0),
        "transport.drops": (counters.get("runtime.queue_drops", 0)
                            + counters.get("runtime.no_route_drops", 0)),
    })
    hits = counters.get("routing.cache_hits", 0)
    if hits + counters.get("routing.cache_misses", 0):
        values["routing.cache_hit_ratio"] = \
            hits / (hits + counters["routing.cache_misses"])

    def role_ms(*roles: str) -> float:
        return statistics.median(observed.cpu_ms_per_tx(*roles))

    cpu = observed.role_cpu
    if "self" not in cpu:  # live: the generator is a process of its own
        sender = "worker" if "worker" in cpu else "sender"
        values["daemon.sender_cpu_ms_per_tx"] = role_ms(sender)
        values["daemon.receiver_cpu_ms_per_tx"] = role_ms("receiver")
        values["daemon.sender_cpu_util"] = observed.cpu_share(cpu[sender])
        values["load.generator_cpu_frac"] = \
            observed.cpu_share(observed.generator_cpu)
        values["load.inline_signed_frac"] = inline_signed / payments
    if "router" in cpu:
        values["workers.router_cpu_ms_per_tx"] = role_ms("router")
        values["workers.worker_cpu_ms_per_tx"] = role_ms("worker")
    try:
        values["latency.p99_ms"] = observed.percentile_ms(
            0.99, plan.min_beyond)
    except ValueError:
        pass  # too few samples for a tail estimate: not reported

    with WORKLOADS[name](seed, trace=True) as traced:
        traced_count = max(1, plan.windows - plain_windows)
        _warm_up(traced, plan, traced_count)
        spans_before = traced.spans_emitted()
        traced_windows = _measure(traced, plan, traced_count)
        spans = traced.spans_emitted() - spans_before
        problems += traced.verify()
    values["obs.trace_tx_ratio"] = (statistics.median(traced_windows.tx_s())
                                    / statistics.median(observed.tx_s()))
    values["obs.trace_spans_per_tx"] = \
        spans / max(1, sum(traced_windows.completed))
    observed.failed += traced_windows.failed

    if walk is None:
        walk = layers.LayerWalk(plan.walk_batch_s, plan.walk_batches).run()
    values.update(walk)
    if "control.ping_rtt_us" in values and values["crypto.macs_per_tx"] > 0.5:
        # A fast-path workload: how much of one payment's observed
        # latency do the layers on its path account for?
        path_us = (sum(values[key] for key in layers.PAY_PATH)
                   + 1e6 / values["transport.frames_s"])
        values["layers.pay_covered_frac"] = \
            path_us / (1000.0 * observed.percentile_ms(0.50, 0))
    return _result(observed, problems, values, {})


def _result(observed: Windows, problems: List[str],
            values: Dict[str, float],
            series: Dict[str, List[float]]) -> Dict[str, Any]:
    done = sum(observed.completed)
    return {"correct": not problems, "problems": problems,
            "attempted": done + observed.failed, "failed": observed.failed,
            "samples": sum(len(window) for window in observed.latencies),
            "values": values, "series": series}


def contract_line(result: Dict[str, Any],
                  declared: List[Dict[str, str]]) -> str:
    """The one-line JSON result: every declared metric, by name; a
    per-layer metric that does not exist on this workload reads 0."""
    metrics = {
        entry["name"]: {"value": result["values"].get(entry["name"], 0.0),
                        "unit": entry["unit"]}
        for entry in declared}
    return json.dumps({"correct": result["correct"],
                       "attempted": result["attempted"],
                       "failed": result["failed"], "metrics": metrics})


def print_table(title: str, result: Dict[str, Any],
                declared: List[Dict[str, str]]) -> None:
    print(f"\n== {title}: {result['attempted']} attempted, "
          f"{result['failed']} failed, {result['samples']} latency samples, "
          f"{'correct' if result['correct'] else 'INCORRECT'}")
    for problem in result["problems"]:
        print(f"   !! {problem}")
    for entry in declared:
        value = result["values"].get(entry["name"])
        shown = "n/a" if value is None else f"{value:14.4f}"
        print(f"   {entry['name']:34s} {shown:>14s} {entry['unit']}")


def run_layers(spec: Dict[str, Any], quick: bool) -> int:
    """The walk on its own, at full length (5 batches x 0.3 s)."""
    plan = Plan.quick()
    walk = layers.LayerWalk(plan.walk_batch_s, plan.walk_batches) if quick \
        else layers.LayerWalk()
    results = walk.run()
    for entry in spec["per_layer"]:
        if entry["name"] in results:
            print(f"   {entry['name']:34s} {results[entry['name']]:14.4f} "
                  f"{entry['unit']}")
    harness.OUT.mkdir(parents=True, exist_ok=True)
    path = harness.OUT / "layers_trace.json"
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(walk.chrome_trace(), handle)
    print(f"layer-walk trace (Perfetto-loadable): {path}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["compare"]:
        return compare.main(argv[1:], load_spec())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append",
                        choices=sorted(WORKLOADS),
                        help="repeatable; default: all five")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds per run "
                             "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: end-to-end metrics; 1: per-layer metrics; "
                             "default: both")
    parser.add_argument("--quick", action="store_true",
                        help="1 window x 1 s, 1 set-up: smoke only")
    parser.add_argument("--layers", action="store_true",
                        help="only the layer walk; writes "
                             "perf/out/layers_trace.json")
    parser.add_argument("--out", default=None,
                        help="write every result as JSON "
                             "(default perf/out/run.json on a full run)")
    arguments = parser.parse_args(argv)

    spec = load_spec()
    harness.exit_on_signals()
    seconds = arguments.seconds or spec["run_seconds"]
    if arguments.layers:
        return run_layers(spec, arguments.quick)
    plan = Plan.quick() if arguments.quick else Plan.timed(seconds)
    names = arguments.workload or [entry["name"]
                                   for entry in spec["workloads"]]
    traces = (0, 1) if arguments.trace is None else (arguments.trace,)
    report: Dict[str, Any] = {
        "machine": machine_tag(), "seed": arguments.seed,
        "seconds": seconds, "quick": arguments.quick, "workloads": {}}
    single = len(names) == 1 and len(traces) == 1
    out = arguments.out
    last_line = ""
    for name in names:
        for trace in traces:
            kind = "per_layer" if trace else "end_to_end"
            if single:
                measure = per_layer if trace else end_to_end
                result = measure(name, arguments.seed, plan)
                print_table(f"{name} / {kind}", result, spec[kind])
                last_line = contract_line(result, spec[kind])
            else:
                result = _run_in_child(name, trace, arguments)
            report["workloads"].setdefault(name, {})[kind] = result
    if out is None and not single:
        out = str(harness.OUT / "run.json")
    if out:
        Path(out).parent.mkdir(parents=True, exist_ok=True)
        with open(out, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=1)
        print(f"\nresults: {out}")
    sys.stdout.flush()
    if single:
        print(last_line)
    healthy = all(result["correct"] and not result["failed"]
                  for row in report["workloads"].values()
                  for result in row.values())
    return 0 if healthy else 1


def _run_in_child(name: str, trace: int,
                  arguments: argparse.Namespace) -> Dict[str, Any]:
    """One (workload, trace) run in a process of its own — exactly what a
    single ``--workload … --trace …`` invocation measures, so a full run
    is the sum of its parts (and ``peak_rss_mb`` of the in-process
    workload is not inflated by the runs before it)."""
    kind = "per_layer" if trace else "end_to_end"
    part = harness.OUT / f"part-{name}-{kind}.json"
    command = [sys.executable, str(Path(__file__).resolve()),
               "--workload", name, "--seed", str(arguments.seed),
               "--trace", str(trace), "--out", str(part)]
    if arguments.seconds:
        command += ["--seconds", str(arguments.seconds)]
    if arguments.quick:
        command.append("--quick")
    child = subprocess.run(command, stdout=subprocess.PIPE, text=True)
    lines = child.stdout.rstrip("\n").split("\n")
    print("\n".join(lines[:-2]))  # drop "results:" and the JSON line
    if child.returncode not in (0, 1) or not part.exists():
        raise RuntimeError(f"{name} --trace {trace} exited "
                           f"{child.returncode} without a result")
    with open(part, encoding="utf-8") as handle:
        result = json.load(handle)["workloads"][name][kind]
    part.unlink()
    return result


if __name__ == "__main__":
    sys.exit(main())
