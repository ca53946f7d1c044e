"""The Teechain protocols — the paper's primary contribution.

* :mod:`~repro.core.state` / :mod:`~repro.core.deposits` — channel and
  deposit state (paper §3, §4).
* :mod:`~repro.core.messages` — signed protocol messages.
* :mod:`~repro.core.channel_base` — the payment-channel protocol, Algorithm 1.
* :mod:`~repro.core.settlement` — settlement-transaction construction and
  proofs of premature termination.
* :mod:`~repro.core.multihop` — the multi-hop protocol, Algorithm 2, and
  :class:`TeechainEnclave`, the program an enclave hosts (Alg. 1 + 2).
* :mod:`~repro.core.replication` — force-freeze chain replication,
  Algorithm 3.
* :mod:`~repro.core.committee` — committee chains: replication + threshold
  deposits (§6.1).
* :mod:`~repro.core.persistence` — stable-storage crash fault tolerance
  (§6.2).
* :mod:`~repro.core.outsourcing` — TEE outsourcing for users without local
  TEEs (§3).
* :mod:`~repro.core.temporary` — temporary channels (§5.2); path
  selection and rerouting (§7.4) live in :mod:`repro.routing`.
* :mod:`~repro.core.batching` — client-side transaction batching (§7.2).
* :mod:`~repro.core.node` — :class:`~repro.core.node.TeechainNode`, the
  high-level public API.
* :mod:`~repro.core.correctness` — executable balance-correctness checking
  (Appendix A).
"""

from repro.core.multihop import TeechainEnclave
from repro.core.correctness import BalanceTracker
from repro.core.deposits import DepositRecord, DepositStatus
from repro.core.node import TeechainNode, TeechainNetwork
from repro.core.state import ChannelState, MultihopStage

__all__ = [
    "BalanceTracker",
    "ChannelState",
    "DepositRecord",
    "DepositStatus",
    "MultihopStage",
    "TeechainEnclave",
    "TeechainNetwork",
    "TeechainNode",
]
