"""The crash fault matrix: every multi-hop stage × every path role.

Algorithm 2's security argument (§5.1) is a case analysis — whatever
stage a participant dies at, the deposits backing the path can always be
settled at a consistent pre- or post-payment state.  This module turns
that case analysis into an executable matrix: for each (role, stage)
cell it runs a three-hop payment, fail-stops the chosen participant's
enclave at the chosen protocol point (before the state transition became
durable — the pessimistic crash model), restores it from sealed state
(§6.2), runs the paper's recovery sweep on every participant, and checks
the balance invariants:

* **conservation** — no value is stranded in unspent deposit outputs;
* **hop neutrality** — the intermediary ends exactly where it started;
* **atomicity** — the sender's loss equals the receiver's gain, and is
  either ``0`` (payment never happened) or the full amount (it did);
* **balance security** — Definition A.1's inequality for every node,
  via the tracker's ``assert_balance_correctness``.

The recovery sweep is the product's own, :meth:`TeechainNode.eject_all`
(Alg. 2 lines 60–72): before ejecting a session, the participant looks up
the session's candidate settlements (their txids were announced during
the lock phase) on the blockchain and, if another participant already
landed one, ejects *consistently with it* (``eject(popt)``) — that is
what keeps a stale restored enclave from racing a τ-holder into an
inconsistent split.

The committee cells exercise §6.1/§7 instead of sealing: losing a
backup freezes the chain (in-flight payment rolls back, settlement still
quorate), and losing the primary recovers from a live backup's
replicated state.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.core.node import TeechainNetwork
from repro.core.persistence import PersistentStore
from repro.errors import ReplicationError
from repro.faults.des import DesFaultInjector
from repro.faults.schedule import FaultSchedule
from repro.obs import get_metrics

ROLES: Tuple[str, ...] = ("sender", "hop", "receiver")
STAGES: Tuple[str, ...] = ("lock", "sign", "preUpdate", "update",
                           "postUpdate", "release")

# Which ``_replicated`` protocol point each (role, stage) cell crashes
# at.  The point is where that participant *processes* the named stage:
# the sender drives lock and then observes sign/update/release coming
# back, so several of its cells share a point — the sender simply has no
# code to run at a stage that never reaches it.  All 18 cells resolve to
# 13 distinct points; DESIGN.md's fault-model table documents the
# mapping alongside the paper's line numbers.
ROLE_STAGE_POINTS: Dict[Tuple[str, str], str] = {
    ("sender", "lock"): "mh_lock",
    ("sender", "sign"): "mh_sign_head",
    ("sender", "preUpdate"): "mh_sign_head",
    ("sender", "update"): "mh_postupdate_head",
    ("sender", "postUpdate"): "mh_postupdate_head",
    ("sender", "release"): "mh_release",
    ("hop", "lock"): "mh_lock",
    ("hop", "sign"): "mh_sign",
    ("hop", "preUpdate"): "mh_preupdate",
    ("hop", "update"): "mh_update",
    ("hop", "postUpdate"): "mh_postupdate",
    ("hop", "release"): "mh_release",
    ("receiver", "lock"): "mh_lock_last",
    ("receiver", "sign"): "mh_lock_last",
    ("receiver", "preUpdate"): "mh_update_last",
    ("receiver", "update"): "mh_update_last",
    ("receiver", "postUpdate"): "mh_release_last",
    ("receiver", "release"): "mh_release_last",
}


@dataclass
class CellResult:
    """Outcome of one fault-matrix cell."""

    role: str
    stage: str
    point: str
    crash_fired: bool
    completed: bool          # payment finished at the sender despite fault
    transfer: int            # amount that actually moved sender → receiver
    balances: Dict[str, int] = field(default_factory=dict)
    violations: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_dict(self) -> Dict[str, object]:
        return {
            "role": self.role, "stage": self.stage, "point": self.point,
            "crash_fired": self.crash_fired, "completed": self.completed,
            "transfer": self.transfer, "balances": dict(self.balances),
            "violations": list(self.violations), "ok": self.ok,
        }


def _three_hop(funds: int, deposit: int):
    network = TeechainNetwork()
    alice = network.create_node("alice", funds=funds)
    bob = network.create_node("bob", funds=funds)
    carol = network.create_node("carol", funds=funds)
    ab = alice.open_channel(bob)
    bc = bob.open_channel(carol)
    deposit_ab = alice.create_deposit(deposit)
    alice.approve_and_associate(bob, deposit_ab, ab)
    deposit_bc = bob.create_deposit(deposit)
    bob.approve_and_associate(carol, deposit_bc, bc)
    return network, alice, bob, carol


def run_crash_cell(role: str, stage: str, *, funds: int = 100_000,
                   deposit: int = 40_000, amount: int = 5_000,
                   seed: int = 0) -> CellResult:
    """Run one matrix cell end to end and return its invariant record."""
    point = ROLE_STAGE_POINTS[(role, stage)]
    network, alice, bob, carol = _three_hop(funds, deposit)
    nodes = {"sender": alice, "hop": bob, "receiver": carol}
    victim = nodes[role]

    # Stable storage for every participant (§6.2).  Zero increment delay:
    # the matrix checks safety, not the counter-throttle latency, which
    # the persistence benchmarks already measure.
    stores = {
        node.name: PersistentStore(node.enclave, network.scheduler,
                                   increment_delay=0.0)
        for node in nodes.values()
    }
    for node in nodes.values():
        stores[node.name].attach()
        stores[node.name].persist()  # seal the funded pre-payment state

    schedule = FaultSchedule(seed=seed).crash(victim.name, point=point,
                                              note=f"{role}@{stage}")
    injector = DesFaultInjector(network, schedule)
    injector.arm()

    payment = injector.run(alice.pay_multihop, [alice, bob, carol], amount)
    crash_fired = victim.name in injector.crashed
    completed = (payment is not None and "alice" not in injector.crashed
                 and alice.multihop_completed(payment))

    result = CellResult(role=role, stage=stage, point=point,
                        crash_fired=crash_fired, completed=completed,
                        transfer=0)
    if not crash_fired:
        result.violations.append(
            f"probe at {point} never fired — the matrix lost coverage"
        )

    # Recovery: restart the victim from its sealed state, then run the
    # sweep on every participant — survivors first (they were never down),
    # the restored enclave last, forced to stay consistent with whatever
    # the survivors already put on chain.
    if crash_fired:
        injector.restore_node(victim, stores[victim.name])
    order = [node for node in (alice, bob, carol) if node is not victim]
    order.append(victim)
    for node in order:
        node.eject_all()
        network.mine()

    # Reclaim everything and check the paper's balance inequality.
    for node in (alice, bob, carol):
        try:
            node.assert_balance_correct()
        except AssertionError as exc:
            result.violations.append(f"{node.name}: {exc}")

    final = {node.name: network.chain.balance(node.address)
             for node in (alice, bob, carol)}
    result.balances = final
    sender_loss = funds - final["alice"]
    receiver_gain = final["carol"] - funds
    result.transfer = receiver_gain

    if sum(final.values()) != 3 * funds:
        result.violations.append(
            f"conservation: {sum(final.values())} != {3 * funds} — value "
            "stranded in unspent deposits"
        )
    if final["bob"] != funds:
        result.violations.append(
            f"hop neutrality: bob ended with {final['bob']}, not {funds}"
        )
    if sender_loss != receiver_gain:
        result.violations.append(
            f"atomicity: sender lost {sender_loss} but receiver gained "
            f"{receiver_gain}"
        )
    if receiver_gain not in (0, amount):
        result.violations.append(
            f"partial transfer: {receiver_gain} moved, expected 0 or {amount}"
        )
    if completed and receiver_gain != amount:
        result.violations.append(
            "sender saw completion but the receiver was not paid"
        )

    metrics = get_metrics()
    if metrics.enabled and result.ok:
        metrics.inc("faults.matrix.cells_ok")
    injector.detach()
    return result


def run_matrix(*, funds: int = 100_000, deposit: int = 40_000,
               amount: int = 5_000, seed: int = 0) -> List[CellResult]:
    """All 18 (role × stage) crash cells, each on a fresh network."""
    return [
        run_crash_cell(role, stage, funds=funds, deposit=deposit,
                       amount=amount, seed=seed)
        for role in ROLES for stage in STAGES
    ]


# ---------------------------------------------------------------------------
# Committee cells (§6.1, §7): member loss up to the threshold.
# ---------------------------------------------------------------------------

def run_committee_member_loss(*, funds: int = 100_000,
                              deposit: int = 40_000,
                              payments: int = 10,
                              amount: int = 1_000) -> Dict[str, object]:
    """Lose one committee backup mid-workload.

    The next replication push fails, force-freezing the chain (Alg. 3);
    the in-flight payment must roll back cleanly, and settlement must
    still gather a quorum from the surviving members."""
    from repro.tee.compromise import crash_enclave

    network = TeechainNetwork()
    alice = network.create_node("alice", funds=funds)
    bob = network.create_node("bob", funds=funds)
    alice.attach_committee(backups=2, threshold=2)
    channel = alice.open_channel(bob)
    record = alice.create_deposit(deposit)
    alice.approve_and_associate(bob, record, channel)
    for _ in range(payments):
        alice.pay(channel, amount)

    crash_enclave(alice.replication.members[0])
    rolled_back = False
    try:
        alice.pay(channel, amount)
    except ReplicationError:
        rolled_back = True
    violations: List[str] = []
    if not rolled_back:
        violations.append("payment survived a failed replication push")
    if not alice.replication.frozen:
        violations.append("chain did not freeze on member loss")

    for node in (alice, bob):
        try:
            node.assert_balance_correct()
        except AssertionError as exc:
            violations.append(f"{node.name}: {exc}")
    paid = payments * amount
    final = {node.name: network.chain.balance(node.address)
             for node in (alice, bob)}
    if final["alice"] != funds - paid or final["bob"] != funds + paid:
        violations.append(
            f"frozen-state settlement paid {final}, expected "
            f"alice={funds - paid} bob={funds + paid}"
        )
    return {"cell": "committee_member_loss", "balances": final,
            "violations": violations, "ok": not violations}


def run_committee_primary_loss(*, funds: int = 100_000,
                               deposit: int = 40_000,
                               payments: int = 10,
                               amount: int = 1_000) -> Dict[str, object]:
    """Lose the primary enclave; recover from a live backup's replicated
    state (the paper's committee recovery path)."""
    from repro.tee.compromise import crash_enclave

    network = TeechainNetwork()
    alice = network.create_node("alice", funds=funds)
    bob = network.create_node("bob", funds=funds)
    alice.attach_committee(backups=2, threshold=2)
    channel = alice.open_channel(bob)
    record = alice.create_deposit(deposit)
    alice.approve_and_associate(bob, record, channel)
    for _ in range(payments):
        alice.pay(channel, amount)

    crash_enclave(alice.enclave)
    violations: List[str] = []
    for node in (alice, bob):
        try:
            node.assert_balance_correct()
        except AssertionError as exc:
            violations.append(f"{node.name}: {exc}")
    metrics = get_metrics()
    if metrics.enabled:
        metrics.inc("faults.injected[crash]")
    paid = payments * amount
    final = {node.name: network.chain.balance(node.address)
             for node in (alice, bob)}
    if final["alice"] != funds - paid or final["bob"] != funds + paid:
        violations.append(
            f"backup recovery paid {final}, expected "
            f"alice={funds - paid} bob={funds + paid}"
        )
    return {"cell": "committee_primary_loss", "balances": final,
            "violations": violations, "ok": not violations}


def summarise(cells: List[CellResult]) -> Dict[str, object]:
    """Compact JSON summary for sidecars and CI artifacts."""
    return {
        "cells": [cell.to_dict() for cell in cells],
        "total": len(cells),
        "ok": sum(1 for cell in cells if cell.ok),
        "failed": [f"{cell.role}/{cell.stage}" for cell in cells
                   if not cell.ok],
    }
