"""The full crash fault matrix (chaos tier).

Every (role × stage) cell of Algorithm 2's case analysis, plus the
committee-loss cells.  Each participant recovers through
``TeechainNode.eject_all``, the product's one recovery sweep.  The
``chaos`` marker groups the file with the other fault sweeps, but none
of it is live, so tier-1's ``-m "not live"`` runs and gates it too.  A
failed cell prints its violation list, which names the invariant that
broke and the balances that broke it.
"""

import json
from pathlib import Path

import pytest

from repro.faults import (
    ROLE_STAGE_POINTS,
    ROLES,
    STAGES,
    run_committee_member_loss,
    run_committee_primary_loss,
    run_crash_cell,
    run_matrix,
    summarise,
)
from repro.obs import NOOP, MetricsRegistry, set_metrics

pytestmark = pytest.mark.chaos


@pytest.mark.parametrize("role", ROLES)
@pytest.mark.parametrize("stage", STAGES)
def test_crash_cell(role, stage):
    result = run_crash_cell(role, stage)
    assert result.crash_fired, (
        f"probe at {result.point} never fired — the cell tested nothing"
    )
    assert result.ok, result.violations


def test_matrix_covers_every_cell():
    assert set(ROLE_STAGE_POINTS) == {(role, stage)
                                      for role in ROLES for stage in STAGES}


def test_committee_member_loss():
    result = run_committee_member_loss()
    assert result["ok"], result["violations"]


def test_committee_primary_loss():
    result = run_committee_primary_loss()
    assert result["ok"], result["violations"]


def test_matrix_summary_sidecar(tmp_path):
    """The sweep under metrics collection, summarised the way the chaos
    CI job archives it (benchmarks/bench_fault_matrix.py does the same
    against the repo's benchmarks directory)."""
    metrics = MetricsRegistry()
    set_metrics(metrics)
    try:
        cells = run_matrix()
        summary = summarise(cells)
        summary["metrics"] = metrics.snapshot()
    finally:
        set_metrics(NOOP)
    assert summary["ok"] == summary["total"] == 18, summary["failed"]
    counters = summary["metrics"]["counters"]
    assert counters.get("faults.injected[crash]", 0) >= 18, counters
    assert counters.get("faults.recovered[restore]", 0) >= 18, counters
    sidecar = Path(tmp_path) / "fault_matrix.json"
    sidecar.write_text(json.dumps(summary, indent=2))
    assert json.loads(sidecar.read_text())["ok"] == 18
