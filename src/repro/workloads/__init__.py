"""Payment workload generation (paper §7.4).

The paper replays the filtered Bitcoin transaction history (150 M
payments).  That dataset is not redistributable, so
:mod:`~repro.workloads.bitcoin_trace` synthesises an equivalent stream —
including the paper's own filtering steps — and
:mod:`~repro.workloads.assignment` distributes addresses across machines
uniformly (complete graph) or skewed 50/35/15 by tier (hub-and-spoke).
"""

from repro.workloads.assignment import (
    assign_addresses_skewed,
)
from repro.workloads.bitcoin_trace import (
    Payment,
    RawTransaction,
    filter_for_replay,
    generate_raw_transactions,
    generate_trace,
)
from repro.workloads.scalefree import degree_stats, scale_free_overlay

__all__ = [
    "Payment",
    "RawTransaction",
    "assign_addresses_skewed",
    "degree_stats",
    "filter_for_replay",
    "generate_raw_transactions",
    "generate_trace",
    "scale_free_overlay",
]
