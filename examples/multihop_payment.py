#!/usr/bin/env python
"""Multi-hop payments with proofs of premature termination (paper §5).

Alice pays Carol through Bob (no direct Alice↔Carol channel).  The example
runs the happy path, then reproduces the paper's central safety scenario:
a participant walks away mid-payment, settles one channel on the
blockchain, and everyone else uses that settlement as a *proof of
premature termination* (PoPT) to settle their own channels in the
consistent state — no synchrony required.
"""

from repro import TeechainNetwork
from repro.network import NetworkAdversary


def build_path(network):
    alice = network.create_node("alice", funds=100_000)
    bob = network.create_node("bob", funds=100_000)
    carol = network.create_node("carol", funds=100_000)
    ab = alice.open_channel(bob)
    bc = bob.open_channel(carol)
    deposit_ab = alice.create_deposit(40_000)
    alice.approve_and_associate(bob, deposit_ab, ab)
    deposit_bc = bob.create_deposit(40_000)
    bob.approve_and_associate(carol, deposit_bc, bc)
    return alice, bob, carol, ab, bc


def main() -> None:
    print("=== happy path: alice → bob → carol ===")
    network = TeechainNetwork()
    alice, bob, carol, ab, bc = build_path(network)
    payment = alice.pay_multihop([alice, bob, carol], 5_000)
    print(f"payment completed: {alice.multihop_completed(payment)}")
    print(f"alice↔bob balances (alice's view): {alice.channel_balance(ab)}")
    print(f"bob↔carol balances (carol's view): {carol.channel_balance(bc)}")
    for node in (alice, bob, carol):
        node.assert_balance_correct()
    print("balance correctness holds for all three ✓")

    print("\n=== premature termination: bob ejects mid-payment ===")
    network = TeechainNetwork()
    alice, bob, carol, ab, bc = build_path(network)
    adversary = NetworkAdversary(network.transport)
    adversary.partition("bob", "carol")  # the lock never reaches carol

    payment = alice.pay_multihop([alice, bob, carol], 5_000)
    print(f"payment stuck; bob's stage: "
          f"{bob.program.multihop_sessions[payment].stage.value}")

    settlements = bob.eject(payment)
    network.mine()
    print(f"bob ejected, broadcasting {len(settlements)} pre-payment "
          f"settlement(s)")

    # Alice observes bob's settlement of their shared channel on the
    # blockchain and presents it to her TEE as a PoPT.
    popt = settlements[0]
    alice_settlements = alice.eject(payment, popt)
    network.mine()
    print(f"alice settled consistently (pre-payment) with "
          f"{len(alice_settlements)} transaction(s)")

    for node in (alice, bob, carol):
        node.assert_balance_correct()
    print("no funds lost despite the premature termination ✓")


if __name__ == "__main__":
    main()
