"""Smoke tests of the benchmark itself (not of the program it measures).

Run with ``python -m pytest perf -q``; not collected by the tier-1
``testpaths``.  Everything runs on the ``--quick`` plan (1 window x 1 s).
"""

import copy
import json
import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import compare  # noqa: E402
import harness  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

from repro.obs import load_json  # noqa: E402
from repro.obs.merge import validate_perfetto  # noqa: E402

SPEC = run.load_spec()
QUICK = run.Plan.quick()


@pytest.fixture(scope="module")
def walk():
    walker = layers.LayerWalk(QUICK.walk_batch_s, QUICK.walk_batches)
    walker.run()
    return walker


def _declared(kind):
    return {entry["name"] for entry in SPEC[kind]}


@pytest.mark.parametrize("name", ["committee_inproc", "channel_fastpath"])
def test_quick_run_emits_exactly_the_declared_metrics(name, walk, capsys):
    assert run.main(["--workload", name, "--quick", "--trace", "0"]) == 0
    line = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    assert set(line["metrics"]) == _declared("end_to_end")
    assert all(metric["value"] > 0 for metric in line["metrics"].values())

    result = run.per_layer(name, 0, QUICK, walk=walk.results)
    assert result["correct"], result["problems"]
    undeclared = set(result["values"]) - _declared("per_layer")
    assert not undeclared
    line = json.loads(run.contract_line(result, SPEC["per_layer"]))
    assert set(line["metrics"]) == _declared("per_layer")
    # Every walked layer is declared, and the workload's own layers read.
    assert set(walk.results) <= _declared("per_layer")
    assert result["values"]["crypto.verifies_per_tx"] >= 0
    assert result["values"]["obs.trace_spans_per_tx"] > 0


def test_spec_matches_the_workloads():
    assert [entry["name"] for entry in SPEC["workloads"]] \
        == list(workloads.WORKLOADS)
    assert SPEC["paths"] == ["perf"]
    setup = [entry for entry in SPEC["end_to_end"]
             if entry["name"] == "setup_s"]
    assert setup and setup[0]["bound"] == max(
        entry["bound"] for entry in SPEC["end_to_end"])


def test_balance_verifier_catches_a_doctored_receiver():
    paid = 1_234
    ours = {"my_balance": workloads.DEPOSIT - paid, "remote_balance": paid}
    theirs = {"my_balance": paid, "remote_balance": workloads.DEPOSIT - paid}
    assert workloads._mirror_problems("a-b", ours, theirs, paid) == []
    doctored = dict(theirs, my_balance=paid + 1)
    assert workloads._mirror_problems("a-b", ours, doctored, paid)
    short = dict(ours, my_balance=ours["my_balance"] - 1)
    assert workloads._mirror_problems("a-b", short, theirs, paid)


def _synthetic_run(scale=1.0):
    metrics = {"tx_s": 1000.0 * scale, "p50_ms": 1.0, "p95_ms": 2.0,
               "cpu_ms_per_tx": 0.5, "setup_s": 1.0, "peak_rss_mb": 80.0}
    result = {"correct": True, "attempted": 1000, "failed": 0,
              "values": metrics,
              "series": {key: [value] * 6 for key, value in metrics.items()}}
    return {"workloads": {"channel_fastpath": {"end_to_end": result}}}


def test_compare_applies_the_bounds(tmp_path):
    parent = _synthetic_run()
    verdicts = lambda change: {  # noqa: E731
        key: outcome
        for _, key, _, _, outcome in compare.rows(SPEC, parent, change)}
    bound = next(entry["bound"] for entry in SPEC["end_to_end"]
                 if entry["name"] == "tx_s")
    assert verdicts(_synthetic_run(1 - bound - 0.05))["tx_s"] == "worse"
    assert verdicts(_synthetic_run(0.95))["tx_s"] == "within"
    assert verdicts(_synthetic_run(1 + bound + 0.05))["tx_s"] == "better"

    failing = copy.deepcopy(parent)
    failing["workloads"]["channel_fastpath"]["end_to_end"]["failed"] = 1
    assert verdicts(failing)["fail_ratio"] == "worse"

    noisy = _synthetic_run(1 - bound - 0.05)
    noisy["workloads"]["channel_fastpath"]["end_to_end"]["series"]["tx_s"] \
        = [200.0, 300.0, 700.0, 900.0, 1500.0, 1900.0]
    assert verdicts(noisy)["tx_s"] == "unresolved"

    paths = []
    for label, content in (("a", parent),
                           ("b", _synthetic_run(1 - bound - 0.05)),
                           ("c", _synthetic_run(0.95))):
        paths.append(tmp_path / f"{label}.json")
        paths[-1].write_text(json.dumps(content))
    assert run.main(["compare", str(paths[0]), str(paths[1])]) == 1
    assert run.main(["compare", str(paths[0]), str(paths[2])]) == 0


def test_percentile_refuses_a_tail_it_cannot_support():
    with pytest.raises(ValueError):
        harness.percentile([float(i) for i in range(999)], 0.99)
    assert harness.percentile([float(i) for i in range(1000)], 0.99) == 989.0
    assert harness.percentile([3.0, 1.0, 2.0], 0.5, min_beyond=0) == 2.0


def test_layer_walk_trace_is_perfetto_loadable(walk):
    schema = load_json(str(harness.ROOT / "benchmarks"
                           / "perfetto_trace.schema.json"))
    trace = walk.chrome_trace()
    assert validate_perfetto(trace, schema) == []
    names = {event["name"] for event in trace["traceEvents"]}
    assert {"layers.walk", "crypto.sign_us", "core.pay_fast_us"} <= names


def test_fleet_reaps_its_process_groups():
    with harness.Fleet() as fleet:
        daemon = fleet.spawn("solo", {"solo": 1_000})
        fleet.connect(daemon.control_port).call("ping")
        pid = daemon.process.pid
        assert harness.cpu_seconds([pid]) >= 0.0
    assert not os.path.exists(f"/proc/{pid}")
