"""Baseline payment-channel systems the paper compares against.

* :mod:`~repro.baselines.lightning` — the Lightning Network: an executable
  channel model (commitment transactions, revocation, the synchronous
  justice window that Teechain eliminates) plus the latency, throughput
  and on-chain cost constants the paper measured for LND.  The LN lines
  of Fig. 4 and §7.3 come from :mod:`repro.bench.timing`.
* :mod:`~repro.baselines.dmc` — Duplex Micropayment Channels cost model.
* :mod:`~repro.baselines.sfmc` — Scalable Funding of Micropayment
  Channels cost model.
* :mod:`~repro.baselines.costmodel` — the Table 4 comparison generator.
"""

from repro.baselines.costmodel import CostRow, table4_rows, teechain_costs
from repro.baselines.dmc import dmc_costs
from repro.baselines.lightning import LightningChannel, lightning_costs
from repro.baselines.sfmc import sfmc_costs

__all__ = [
    "CostRow",
    "LightningChannel",
    "dmc_costs",
    "lightning_costs",
    "sfmc_costs",
    "table4_rows",
    "teechain_costs",
]
