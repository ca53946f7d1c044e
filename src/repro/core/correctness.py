"""Executable balance correctness (paper §7.1 and Appendix A).

Definition A.1: at any time t, a well-behaved user u can unilaterally
perform a finite series of operations after which their on-chain balance
satisfies ``L(u) ≥ perceivedBal_t(u)`` where::

    perceivedBal_t(u) = L0(u) + rcvd_t(u) − paid_t(u)

:class:`BalanceTracker` maintains the right-hand side (the *specification*
view: initial funds plus payments received minus payments made), entirely
outside the protocol.  Tests and examples drive the protocol arbitrarily —
including adversarially — then call a node's reclaim procedure
(Appendix A.4's OPS1∪OPS2∪OPS3: settle every channel, release every free
deposit, collect the ledger payments) and assert the inequality.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from repro.blockchain.chain import Blockchain
from repro.errors import ReproError


class BalanceTracker:
    """Tracks each user's perceived balance (Definition A.2)."""

    def __init__(self, chain: Blockchain) -> None:
        self.chain = chain
        self._initial: Dict[str, int] = {}
        self._paid: Dict[str, int] = {}
        self._received: Dict[str, int] = {}
        # In-flight multi-hop amounts per payer.  Appendix A.5: while a
        # multi-hop payment is unresolved, the payer's perceived balance
        # may legitimately reflect either the pre- or post-payment state,
        # so the correctness lower bound subtracts in-flight amounts.
        self._inflight: Dict[str, int] = {}

    def register(self, user: str, initial_funds: int) -> None:
        """Record L0(u).  Additional funding adds to the initial balance."""
        self._initial[user] = self._initial.get(user, 0) + initial_funds
        self._paid.setdefault(user, 0)
        self._received.setdefault(user, 0)

    def record_payment(self, payer: str, payee: str, amount: int) -> None:
        """Record one completed payment (channel or multi-hop end-to-end)."""
        if amount <= 0:
            raise ReproError(f"payment amount must be positive, got {amount}")
        self._paid[payer] = self._paid.get(payer, 0) + amount
        self._received[payee] = self._received.get(payee, 0) + amount

    def record_inflight(self, payer: str, amount: int) -> None:
        """A multi-hop payment entered the network and has not resolved."""
        self._inflight[payer] = self._inflight.get(payer, 0) + amount

    def resolve_inflight(self, payer: str, payee: str, amount: int,
                         completed: bool) -> None:
        """A multi-hop payment resolved: completed (counts as paid) or
        definitively failed pre-payment (no transfer)."""
        self._inflight[payer] = self._inflight.get(payer, 0) - amount
        if completed:
            self.record_payment(payer, payee, amount)

    def inflight(self, user: str) -> int:
        return self._inflight.get(user, 0)

    def perceived_balance(self, user: str) -> int:
        """perceivedBal(u) = L0(u) + rcvd(u) − paid(u)."""
        return (
            self._initial.get(user, 0)
            + self._received.get(user, 0)
            - self._paid.get(user, 0)
        )

    def assert_balance_correctness(self, user: str,
                                   ledger_balance: int) -> None:
        """The Definition A.1 inequality, as an assertion with a readable
        failure message."""
        perceived = self.perceived_balance(user)
        lower_bound = perceived - self.inflight(user)
        if ledger_balance < lower_bound:
            raise AssertionError(
                f"balance correctness violated for {user}: ledger holds "
                f"{ledger_balance}, perceived balance is {perceived} "
                f"(initial {self._initial.get(user, 0)}, received "
                f"{self._received.get(user, 0)}, paid "
                f"{self._paid.get(user, 0)}, "
                f"in-flight {self.inflight(user)})"
            )
