"""Live causal tracing: three daemons, one multihop payment, one trace.

The acceptance test for the distributed tracing plane: three ``python -m
repro.runtime serve --trace`` subprocesses form a path alice→bob→carol,
alice pays carol through bob, and the three ``trace_dump`` payloads are
merged into a single timeline by the operator's command line, ``python -m
repro.obs.merge``.  Asserted on the merged file it writes:

* every hop shows all six multihop pipeline stage spans
  (lock→sign→preUpdate→update→postUpdate→release), all parented under a
  single ``trace`` id that crossed the sockets in the codec's v2 header;
* the merged (skew-corrected) timeline is causally monotone — no span
  starts before its parent — even though the daemons' local clocks have
  different epochs (each ``WallClockScheduler`` starts at process birth);
* the handshake NTP estimates measured real skew (the daemons were
  started seconds apart, so the raw clocks genuinely disagree).
"""

import json

import pytest

from repro.runtime.launch import launch_network
from tests.conftest import run_module

GENESIS = 200_000
DEPOSIT = 50_000
AMOUNT = 500

STAGES = ["lock", "sign", "preUpdate", "update", "postUpdate", "release"]


@pytest.mark.live
def test_three_daemons_multihop_single_merged_trace(tmp_path):
    handles, _ = launch_network(
        {"alice": GENESIS, "bob": GENESIS, "carol": GENESIS}, trace=True
    )
    alice = handles["alice"].control
    bob = handles["bob"].control
    try:
        # Path channels: alice—bob and bob—carol, funded on the paying side.
        chan_ab = alice.call("open-channel", peer="bob")["channel_id"]
        chan_bc = bob.call("open-channel", peer="carol")["channel_id"]
        deposit = alice.call("deposit", value=DEPOSIT)
        alice.call("approve-associate", peer="bob", channel_id=chan_ab,
                   txid=deposit["txid"])
        deposit = bob.call("deposit", value=DEPOSIT)
        bob.call("approve-associate", peer="carol", channel_id=chan_bc,
                 txid=deposit["txid"])

        result = alice.call("pay-multihop", amount=AMOUNT,
                            path="alice,bob,carol")
        assert result["completed"] and result["hops"] == 2

        paths = []
        for name in ("alice", "bob", "carol"):
            dump = handles[name].control.call("trace_dump")
            assert dump["dropped"] == 0, f"{name} overflowed its ring"
            assert dump["peer_offsets"], f"{name} measured no skew"
            paths.append(tmp_path / f"{name}.json")
            paths[-1].write_text(json.dumps(dump))
        done = run_module("repro.obs.merge", *paths, "--reference", "alice",
                          "-o", tmp_path / "merged.json",
                          "--perfetto", tmp_path / "trace.json")
        assert done.returncode == 0, done.stderr
        merged = json.loads((tmp_path / "merged.json").read_text())
        assert json.loads((tmp_path / "trace.json").read_text())
        events = merged["events"]

        # Every hop participated in all six pipeline stages, in order.
        stage_events = [event for event in events
                        if event["event"].startswith("multihop.stage.")]
        per_node = {}
        for event in stage_events:
            per_node.setdefault(event["node"], []).append(
                event["event"].rsplit(".", 1)[1])
        assert set(per_node) == {"alice", "bob", "carol"}
        for node, stages in sorted(per_node.items()):
            assert stages == STAGES, f"{node}: {stages}"

        # One trace id spans all three processes.
        trace_ids = {event.get("trace") for event in stage_events}
        assert len(trace_ids) == 1 and None not in trace_ids
        trace_id = trace_ids.pop()

        # Skew-corrected timestamps are monotone along the causal chain.
        in_trace = [event for event in events
                    if event.get("trace") == trace_id]
        assert len(in_trace) >= 18  # ≥ 6 stages × 3 hops
        by_span = {event["span"]: event for event in in_trace
                   if event.get("span")}
        assert "multihop.pay" in {event["event"] for event in in_trace}
        for event in in_trace:
            parent = by_span.get(event.get("parent"))
            if parent is not None:
                assert event["start"] >= parent["start"] - 1e-9, (
                    f"{event['event']}@{event['node']} starts before its "
                    f"parent {parent['event']}@{parent['node']}"
                )

        # The corrected deltas are real: the daemons were spawned one
        # after another, so their scheduler epochs differ by far more
        # than loopback RTT noise.
        offsets = merged["offsets"]
        assert offsets["alice"] == 0.0  # the reference clock
        assert any(abs(delta) > 1e-3 for name, delta in offsets.items()
                   if name != "alice")
    finally:
        for handle in handles.values():
            handle.shutdown()
