"""Synthetic Bitcoin-history payment trace.

§7.4: "we use the transactions found in the Bitcoin blockchain.  To adapt
the Bitcoin transaction history, we filter out transactions that are not
appropriate for replaying, such as those that spend to/from
multi-signature addresses, or payments of value over a certain threshold
(i.e. $100).  For transactions with multi-input and output addresses, we
choose only one.  This results in a dataset of over 150 million payments
from a source to a recipient address."

We reproduce the *pipeline*, not the dataset: a raw transaction stream
with realistic features (Zipf-skewed address popularity, log-normal
values, a multisig fraction, multi-input/output transactions) runs through
the same filter to yield (sender, recipient, value) payments.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator, List, Optional, Sequence, Tuple

from repro.errors import WorkloadError

if TYPE_CHECKING:
    import numpy

# USD 100 at the paper's late-2018 Bitcoin prices (~USD 4,000/BTC)
# ≈ 0.025 BTC = 2.5 million satoshi.
DEFAULT_VALUE_THRESHOLD_SATOSHI = 2_500_000


@dataclass(frozen=True)
class Payment:
    """One replayable payment."""

    sender: str
    recipient: str
    value: int


@dataclass(frozen=True)
class RawTransaction:
    """A raw (pre-filter) transaction from the synthetic history."""

    input_addresses: Tuple[str, ...]
    output_addresses: Tuple[str, ...]
    value: int
    involves_multisig: bool


class _AddressUniverse:
    """Zipf-skewed address popularity: a few exchange-like addresses
    dominate, a long tail of individuals.  The default exponent of 0.75
    keeps the single hottest address below ~3 % of traffic, matching the
    concentration of the *filtered* Bitcoin history (the paper's filter
    drops the large/multisig exchange sweeps that dominate the raw
    chain)."""

    def __init__(self, count: int, rng: numpy.random.Generator,
                 zipf_exponent: float = 0.75) -> None:
        if count < 2:
            raise WorkloadError(f"need at least 2 addresses, got {count}")
        import numpy

        self.addresses = [f"addr{i:08d}" for i in range(count)]
        ranks = numpy.arange(1, count + 1, dtype=float)
        weights = ranks ** (-zipf_exponent)
        self.probabilities = weights / weights.sum()
        self._rng = rng
        self._count = count

    def sample(self, size: int) -> List[str]:
        indices = self._rng.choice(self._count, size=size,
                                   p=self.probabilities)
        return [self.addresses[index] for index in indices]


def generate_raw_transactions(
    count: int,
    address_count: int = 10_000,
    seed: int = 0,
    multisig_fraction: float = 0.05,
    high_value_fraction: float = 0.10,
    value_threshold: int = DEFAULT_VALUE_THRESHOLD_SATOSHI,
) -> Iterator[RawTransaction]:
    """The synthetic raw history: log-normal values with a heavy tail
    (``high_value_fraction`` of transactions exceed the threshold), a
    ``multisig_fraction`` of multisig transactions, and 1–3 inputs/outputs.

    numpy (and scipy) are imported here, not at module level, so importing
    :mod:`repro.workloads` for :class:`~repro.workloads.assignment.HashRing`
    costs a daemon nothing."""
    import numpy

    rng = numpy.random.Generator(numpy.random.PCG64(seed))
    universe = _AddressUniverse(address_count, rng)
    # Log-normal tuned so roughly high_value_fraction of mass sits above
    # the threshold: median well below, long tail above.
    sigma = 1.8
    mu = math.log(value_threshold) - sigma * _normal_quantile(
        1 - high_value_fraction
    )
    for _ in range(count):
        n_inputs = int(rng.integers(1, 4))
        n_outputs = int(rng.integers(1, 4))
        participants = universe.sample(n_inputs + n_outputs)
        value = max(1, int(rng.lognormal(mean=mu, sigma=sigma)))
        yield RawTransaction(
            input_addresses=tuple(participants[:n_inputs]),
            output_addresses=tuple(participants[n_inputs:]),
            value=value,
            involves_multisig=bool(rng.random() < multisig_fraction),
        )


def _normal_quantile(p: float) -> float:
    """Standard-normal quantile via scipy (kept local: only used here)."""
    from scipy.stats import norm

    return float(norm.ppf(p))


def filter_for_replay(
    transactions: Sequence[RawTransaction],
    value_threshold: int = DEFAULT_VALUE_THRESHOLD_SATOSHI,
) -> List[Payment]:
    """The paper's filter: drop multisig and over-threshold transactions;
    for multi-input/output transactions pick one input and one output;
    drop self-payments (unroutable)."""
    payments = []
    for transaction in transactions:
        if transaction.involves_multisig:
            continue
        if transaction.value > value_threshold:
            continue
        sender = transaction.input_addresses[0]
        recipient = transaction.output_addresses[0]
        if sender == recipient:
            continue
        payments.append(Payment(sender, recipient, transaction.value))
    return payments


def generate_trace(
    count: int,
    address_count: int = 10_000,
    seed: int = 0,
    value_threshold: int = DEFAULT_VALUE_THRESHOLD_SATOSHI,
) -> List[Payment]:
    """End-to-end: synthesise raw history and filter it for replay.

    Oversamples the raw stream so the post-filter trace has roughly
    ``count`` payments, then truncates exactly."""
    raw_needed = int(count * 1.35) + 64  # ≈ compensate filter losses
    raw = list(generate_raw_transactions(raw_needed, address_count, seed,
                                         value_threshold=value_threshold))
    payments = filter_for_replay(raw, value_threshold)
    while len(payments) < count:
        seed += 1
        more = list(generate_raw_transactions(raw_needed, address_count,
                                              seed,
                                              value_threshold=value_threshold))
        payments.extend(filter_for_replay(more, value_threshold))
    return payments[:count]
