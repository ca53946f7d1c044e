"""Teechain reproduction: a secure payment network with asynchronous
blockchain access (Lind et al., SOSP 2019).

Quickstart::

    from repro import TeechainNetwork

    network = TeechainNetwork()
    alice = network.create_node("alice", funds=100_000)
    bob = network.create_node("bob", funds=100_000)
    channel = alice.open_channel(bob)
    deposit = alice.create_deposit(50_000)
    alice.approve_and_associate(bob, deposit, channel)
    alice.pay(channel, 1_000)
    alice.settle(channel)

Package layout:

* :mod:`repro.core` — the Teechain protocols (channels, multi-hop
  payments, force-freeze replication, committee chains) and the
  :class:`TeechainNode` public API.
* :mod:`repro.tee` — the simulated trusted-execution substrate.
* :mod:`repro.blockchain` — the simulated Bitcoin-like ledger with
  asynchronous write access.
* :mod:`repro.network` — transport, topologies, attested secure channels.
* :mod:`repro.crypto` — secp256k1 ECDSA, AEAD, multisig.
* :mod:`repro.baselines` — Lightning Network, DMC, SFMC.
* :mod:`repro.workloads` — synthetic Bitcoin-trace payment workloads.
* :mod:`repro.bench` — the evaluation harness reproducing every table and
  figure of the paper's §7 (see EXPERIMENTS.md).
"""

from repro.core.correctness import BalanceTracker
from repro.core.node import TeechainNetwork, TeechainNode

__version__ = "1.0.0"

__all__ = ["BalanceTracker", "TeechainNetwork", "TeechainNode", "__version__"]
