"""Baseline systems: LN channel mechanics and the Table 4 cost models."""

import pytest

from repro.baselines import (
    LightningChannel,
    dmc_costs,
    lightning_costs,
    sfmc_costs,
    table4_rows,
    teechain_costs,
)
from repro.baselines.costmodel import measure_teechain_lifecycle
from repro.baselines.dmc import dmc_cost, dmc_transactions
from repro.baselines.sfmc import sfmc_cost, sfmc_transactions
from repro.bench.timing import MultihopTimingModel
from repro.blockchain import Blockchain, LockingScript
from repro.blockchain.cost import blockchain_cost
from repro.crypto import KeyPair
from repro.errors import PaymentError, ReproError


def _open_ln_channel(window=144):
    chain = Blockchain()
    alice = KeyPair.from_seed(b"ln-a")
    bob = KeyPair.from_seed(b"ln-b")
    coinbase = chain.mint(LockingScript.pay_to_address(alice.address()),
                          100_000)
    chain.mine_block()
    channel = LightningChannel(chain, alice, bob, 60_000, 0,
                               justice_window_blocks=window)
    channel.open([(coinbase.outpoint(0), 100_000)], alice)
    return chain, alice, bob, channel


class TestLightningChannel:
    def test_payments_advance_and_revoke(self):
        chain, _, _, channel = _open_ln_channel()
        first = channel.current
        channel.pay(from_a=True, amount=10_000)
        assert channel.current.balance_a == 50_000
        assert first.transaction.txid in channel.revoked_txids

    def test_overdraft_rejected(self):
        chain, _, _, channel = _open_ln_channel()
        with pytest.raises(PaymentError):
            channel.pay(from_a=True, amount=60_001)

    def test_cooperative_close_pays_final_state(self):
        chain, alice, bob, channel = _open_ln_channel()
        for _ in range(6):
            chain.mine_block()
        channel.pay(from_a=True, amount=25_000)
        # A cooperative close confirms the final, unrevoked commitment.
        channel.broadcast_state(channel.current)
        chain.mine_block()
        assert chain.balance(bob.address()) == 25_000
        # 35k channel share + 40k funding change.
        assert chain.balance(alice.address()) == 75_000

    def test_revoked_broadcast_detected(self):
        chain, _, _, channel = _open_ln_channel()
        for _ in range(6):
            chain.mine_block()
        stale = channel.current
        channel.pay(from_a=True, amount=10_000)
        assert stale.transaction.txid in channel.revoked_txids
        assert channel.justice_deadline(stale) is None
        channel.broadcast_state(stale)
        chain.mine_block()
        assert channel.justice_deadline(stale) == chain.height + 144

    def test_justice_deadline_tracks_window(self):
        chain, _, _, channel = _open_ln_channel(window=10)
        for _ in range(6):
            chain.mine_block()
        stale = channel.current
        channel.pay(from_a=True, amount=1_000)
        channel.broadcast_state(stale)
        chain.mine_block()
        confirmed_at = chain.height
        assert channel.justice_deadline(stale) == confirmed_at + 10

    def test_theft_undecided_inside_window(self):
        chain, _, _, channel = _open_ln_channel(window=10)
        for _ in range(6):
            chain.mine_block()
        stale = channel.current
        channel.pay(from_a=True, amount=1_000)
        channel.broadcast_state(stale)
        chain.mine_block()
        assert not channel.theft_succeeded(stale)  # window still open


class TestTimingModel:
    """The LN lines of Fig. 4 and §7.3."""

    def test_multihop_scales_linearly(self):
        model = MultihopTimingModel.paper_setup()
        assert model.lightning_latency(4) == pytest.approx(
            2 * model.lightning_latency(2))

    def test_throughput_inverse_in_hops(self):
        model = MultihopTimingModel.paper_setup()
        assert model.lightning_throughput(2) == pytest.approx(
            2 * model.lightning_throughput(4))


class TestCostModels:
    def test_ln_row(self):
        assert lightning_costs() == (4, 6.0, 4, 6.0)

    def test_dmc_bilateral(self):
        assert dmc_transactions(True) == 2
        assert dmc_cost(True) == 4.0

    def test_dmc_unilateral_grows_with_depth(self):
        assert dmc_transactions(False, chain_depth=1) == 4
        assert dmc_transactions(False, chain_depth=3) == 6
        assert dmc_cost(False, chain_depth=3) == 12.0

    def test_dmc_invalid_depth(self):
        with pytest.raises(ReproError):
            dmc_transactions(True, chain_depth=0)

    def test_sfmc_bilateral_amortises_over_channels(self):
        assert sfmc_transactions(True, parties=3, channels=2) == 1.0
        assert sfmc_cost(True, parties=3, channels=2) == 3.0
        assert sfmc_cost(True, parties=3, channels=6) == 1.0

    def test_sfmc_unilateral(self):
        assert sfmc_transactions(False, parties=3, channels=2) == 1.0 + 4
        assert sfmc_cost(False, parties=3, channels=2) == pytest.approx(
            2 * 1.5 + 8)

    def test_sfmc_requires_group(self):
        with pytest.raises(ReproError):
            sfmc_costs(parties=2)

    def test_teechain_formulas(self):
        bilateral_txs, bilateral_cost, unilateral_txs, unilateral_cost = (
            teechain_costs(committee_n1=3, committee_m1=2,
                           committee_n2=3, committee_m2=2))
        assert (bilateral_txs, bilateral_cost) == (1, 2.5)
        assert (unilateral_txs, unilateral_cost) == (3, 7.0)

    def test_teechain_1of1(self):
        bilateral_txs, bilateral_cost, _, _ = teechain_costs(
            committee_n1=1, committee_m1=1, committee_n2=1, committee_m2=1)
        assert bilateral_cost == 1.5

    def test_measured_matches_formula_bilateral(self):
        measured = measure_teechain_lifecycle(committee_backups=2,
                                              threshold=2, bilateral=True)
        assert measured == (1, 2.5)

    def test_measured_matches_formula_unilateral(self):
        measured = measure_teechain_lifecycle(committee_backups=2,
                                              threshold=2, bilateral=False)
        assert measured == (3, 7.0)

    def test_measured_1of1_unilateral(self):
        measured = measure_teechain_lifecycle(committee_backups=0,
                                              threshold=1, bilateral=False)
        # two 1-of-1 fundings at 1.5 each + settlement (2 sigs) at 1.0.
        assert measured == (3, 4.0)

    def test_table4_ordering(self):
        rows = table4_rows()
        by_system = {row.system.split(" ")[0]: row for row in rows}
        assert by_system["Teechain"].bilateral_cost < min(
            by_system["LN"].bilateral_cost, by_system["DMC"].bilateral_cost)
        assert by_system["Teechain"].unilateral_cost > by_system[
            "LN"].unilateral_cost
