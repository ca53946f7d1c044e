"""repro.faults — deterministic fault injection and crash recovery.

One :class:`FaultSchedule` drives both execution modes: the DES injector
replays it exactly (same seed ⇒ identical event trace), the live
injector approximately against real daemon processes.  The fault matrix
turns Algorithm 2's §5.1 case analysis into an executable sweep.  See
DESIGN.md's "Fault model" section for the mapping to the paper.
"""

from repro.faults.chain_cells import (
    ChainCellResult,
    run_all_chain_cells,
    run_deposit_double_spend_fork_cell,
    run_fee_spike_deferral_cell,
    run_settlement_reorg_cell,
)
from repro.faults.des import DesFaultInjector
from repro.faults.live import LiveFaultInjector
from repro.faults.matrix import (
    ROLE_STAGE_POINTS,
    ROLES,
    STAGES,
    CellResult,
    run_committee_member_loss,
    run_committee_primary_loss,
    run_crash_cell,
    run_matrix,
    summarise,
)
from repro.faults.schedule import (
    DES_KINDS,
    LIVE_KINDS,
    FaultKind,
    FaultSchedule,
    FaultSpec,
)

__all__ = [
    "DES_KINDS",
    "LIVE_KINDS",
    "ROLES",
    "ROLE_STAGE_POINTS",
    "STAGES",
    "CellResult",
    "ChainCellResult",
    "DesFaultInjector",
    "FaultKind",
    "FaultSchedule",
    "FaultSpec",
    "LiveFaultInjector",
    "run_all_chain_cells",
    "run_committee_member_loss",
    "run_committee_primary_loss",
    "run_crash_cell",
    "run_deposit_double_spend_fork_cell",
    "run_fee_spike_deferral_cell",
    "run_matrix",
    "run_settlement_reorg_cell",
    "summarise",
]
