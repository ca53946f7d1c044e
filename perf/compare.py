"""``run.py compare A.json B.json``: apply each metric's bound.

A is the parent's run, B the change's.  One row per (workload,
end-to-end metric): *worse* when B's value is worse than A's by more
than the metric's bound, *better* when it is better by more than the
bound, *within* otherwise — and *unresolved* when either run's own
noise is wider than the bound, because then the two values cannot be
told apart.  A run's noise is estimated from its windows: their
interquartile spread, shrunk by √n because the reported value is the
median of n of them.  (Two files cannot show drift between runs; a
claim still needs the ten pairs README.md asks for.)  A higher failure
ratio is always worse.
"""

from __future__ import annotations

import json
import math
from typing import Any, Dict, List, Tuple

from harness import spread


def _load(path: str) -> Dict[str, Any]:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def _fail_ratio(result: Dict[str, Any]) -> float:
    return result["failed"] / max(1, result["attempted"])


def verdict(metric: Dict[str, Any], parent: float, change: float,
            parent_series: List[float], change_series: List[float]) -> str:
    bound = metric["bound"]
    noise = max(spread(series) / math.sqrt(len(series))
                for series in (parent_series, change_series) if series)
    if noise > bound:
        return "unresolved"
    delta = (change - parent) / parent
    if metric["better"] == "higher":
        delta = -delta
    if delta > bound:
        return "worse"
    return "better" if delta < -bound else "within"


def rows(spec: Dict[str, Any], parent: Dict[str, Any],
         change: Dict[str, Any]) -> List[Tuple[str, str, float, float, str]]:
    """(workload, metric, parent value, change value, verdict) for every
    pairing both runs hold."""
    table = []
    for workload in spec["workloads"]:
        name = workload["name"]
        try:
            ours = parent["workloads"][name]["end_to_end"]
            theirs = change["workloads"][name]["end_to_end"]
        except KeyError:
            continue
        for metric in spec["end_to_end"]:
            key = metric["name"]
            table.append((name, key, ours["values"][key],
                          theirs["values"][key],
                          verdict(metric, ours["values"][key],
                                  theirs["values"][key],
                                  ours["series"].get(key, []),
                                  theirs["series"].get(key, []))))
        before, after = _fail_ratio(ours), _fail_ratio(theirs)
        table.append((name, "fail_ratio", before, after,
                      "worse" if after > before else "within"))
    return table


def render(table: List[Tuple[str, str, float, float, str]]) -> str:
    lines = [f"| {'workload':18s} | {'metric':14s} | {'A':>12s} | "
             f"{'B':>12s} | {'B vs A':>8s} | verdict    |",
             "|" + "|".join("-" * width for width in
                            (20, 16, 14, 14, 10, 12)) + "|"]
    for name, key, before, after, outcome in table:
        change = f"{(after - before) / before:+.1%}" if before else "n/a"
        lines.append(f"| {name:18s} | {key:14s} | {before:12.4f} | "
                     f"{after:12.4f} | {change:>8s} | {outcome:10s} |")
    return "\n".join(lines)


def main(argv: List[str], spec: Dict[str, Any]) -> int:
    if len(argv) != 2:
        print("usage: run.py compare A.json B.json")
        return 2
    table = rows(spec, _load(argv[0]), _load(argv[1]))
    print(render(table))
    worse = [row for row in table if row[4] == "worse"]
    print(f"\n{len(table)} rows, {len(worse)} worse, "
          f"{sum(1 for row in table if row[4] == 'unresolved')} unresolved")
    return 1 if worse else 0
