"""Asynchronous blockchain access: write delays, censorship, eclipse."""

import pytest

from repro.blockchain import (
    AsyncBlockchainClient,
    Blockchain,
    LockingScript,
    WriteAdversary,
    build_p2pkh_transfer,
)
from repro.crypto import KeyPair
from repro.errors import BlockchainError
from repro.simulation import Scheduler

ALICE = KeyPair.from_seed(b"async-alice")
BOB = KeyPair.from_seed(b"async-bob")


def delivered(receipt):
    return receipt.delivered_at is not None and receipt.rejected is None


def orphaned(receipt):
    """Evicted by a reorg and not yet re-delivered."""
    return receipt.orphaned_at is not None and receipt.delivered_at is None


def wait_for_confirmations(client, txid, depth, callback, poll_interval=10.0):
    """A light client watching block arrivals: ``callback`` once ``txid``
    has ``depth`` confirmations, polled through the client's public read
    path.  An eclipsed client cannot observe the chain, so a poll during
    an eclipse reschedules instead of leaking a read."""
    scheduler = client.scheduler

    def poll():
        try:
            confirmed = client.is_confirmed(txid, depth)
        except BlockchainError:
            scheduler.call_after(poll_interval, poll)
            return
        if confirmed:
            callback()
        else:
            scheduler.call_after(poll_interval, poll)

    poll()


@pytest.fixture
def setup():
    scheduler = Scheduler()
    chain = Blockchain()
    coinbase = chain.mint(LockingScript.pay_to_address(ALICE.address()),
                          100_000)
    chain.mine_block()
    adversary = WriteAdversary(base_delay=1.0)
    client = AsyncBlockchainClient(chain, scheduler, adversary)
    tx = build_p2pkh_transfer([(coinbase.outpoint(0), 100_000)],
                              ALICE.private, [(BOB.address(), 100_000)])
    return scheduler, chain, adversary, client, tx


def test_broadcast_arrives_after_base_delay(setup):
    scheduler, chain, _, client, tx = setup
    receipt = client.broadcast(tx)
    assert chain.mempool_size() == 0
    scheduler.run()
    assert delivered(receipt)
    assert receipt.delivered_at == 1.0
    assert chain.mempool_size() == 1


def test_adversarial_extra_delay(setup):
    scheduler, chain, adversary, client, tx = setup
    adversary.delay(tx.txid, extra=3_599.0)
    receipt = client.broadcast(tx)
    scheduler.run(until=3_000.0)
    assert not delivered(receipt)
    scheduler.run()
    assert delivered(receipt)
    assert receipt.delivered_at == 3_600.0


def test_censorship_never_delivers(setup):
    scheduler, chain, adversary, client, tx = setup
    adversary.censor(tx.txid)
    receipt = client.broadcast(tx)
    scheduler.run()
    assert not delivered(receipt)
    assert chain.mempool_size() == 0


def test_eclipse_blocks_everything_until_lifted(setup):
    scheduler, chain, adversary, client, tx = setup
    adversary.eclipse()
    client.broadcast(tx)
    scheduler.run()
    assert chain.mempool_size() == 0
    adversary.lift_eclipse()
    receipt = client.broadcast(tx)
    scheduler.run()
    assert delivered(receipt)


def test_invalid_transaction_surfaces_on_receipt(setup):
    scheduler, chain, _, client, tx = setup
    receipt = client.broadcast(tx)
    # A conflicting spend delivered first wins; ours gets rejected.
    conflict = build_p2pkh_transfer([(tx.inputs[0].outpoint, 100_000)],
                                    ALICE.private, [(ALICE.address(), 1)])
    chain.submit(conflict)
    scheduler.run()
    assert receipt.rejected is not None
    assert not delivered(receipt)


def test_reads_blocked_when_eclipsed(setup):
    _, _, _, client, tx = setup
    client.reads_blocked = True
    with pytest.raises(BlockchainError):
        client.balance(ALICE.address())
    with pytest.raises(BlockchainError):
        client.is_confirmed(tx.txid)


def test_wait_for_confirmations(setup):
    scheduler, chain, _, client, tx = setup
    fired = []
    client.broadcast(tx)
    wait_for_confirmations(client, tx.txid, depth=2, callback=lambda:
                                  fired.append(scheduler.now))
    scheduler.run(until=5.0)
    assert not fired
    chain.mine_block()
    chain.mine_block()
    scheduler.run(until=30.0)
    assert fired


def test_wait_never_fires_for_censored_tx(setup):
    scheduler, chain, adversary, client, tx = setup
    adversary.censor(tx.txid)
    fired = []
    client.broadcast(tx)
    wait_for_confirmations(client, tx.txid, depth=1,
                                  callback=lambda: fired.append(1))
    chain.mine_block()
    scheduler.run(until=1_000.0)
    assert not fired


def test_censorship_imposed_after_broadcast_still_suppresses(setup):
    # §2.2: the adversary can suppress a transaction at *any* point.
    # Regression: censorship used to be checked only at broadcast time,
    # so censoring during the propagation window leaked the delivery.
    scheduler, chain, adversary, client, tx = setup
    receipt = client.broadcast(tx)
    adversary.censor(tx.txid)  # after broadcast, before mempool arrival
    scheduler.run()
    assert not delivered(receipt)
    assert chain.mempool_size() == 0


def test_mid_poll_eclipse_suspends_confirmation_watch(setup):
    # Regression: the confirmation poll used to read the chain object
    # directly, bypassing the eclipse check — an eclipsed client would
    # keep observing confirmations it could not actually see.
    scheduler, chain, _, client, tx = setup
    fired = []
    client.broadcast(tx)
    wait_for_confirmations(client, tx.txid, depth=1,
                                  callback=lambda: fired.append(1))
    scheduler.run(until=5.0)
    client.reads_blocked = True
    chain.mine_block()  # confirmed on chain, but we cannot see it
    scheduler.run(until=100.0)
    assert not fired
    client.reads_blocked = False  # eclipse lifts; the poll resumes
    scheduler.run(until=200.0)
    assert fired


def test_reorg_marks_receipt_orphaned_and_rebroadcasts(setup):
    scheduler, chain, _, client, tx = setup
    receipt = client.broadcast(tx)
    scheduler.run()
    fork_parent = chain.tip_hash
    chain.mine_block(timestamp=scheduler.now)
    assert delivered(receipt) and chain.contains(tx.txid)

    # A competing two-block branch from below the tx's block wins.
    rival = chain.mine_block(timestamp=scheduler.now, parent=fork_parent,
                             transactions=())
    chain.mine_block(timestamp=scheduler.now,
                     parent=rival.block_hash, transactions=())
    assert chain.confirmations(tx.txid) == 0
    assert orphaned(receipt)
    assert receipt.rebroadcasts == 1

    # The automatic re-broadcast re-delivers; mining re-confirms it.
    scheduler.run()
    chain.mine_block(timestamp=scheduler.now)
    assert chain.confirmations(tx.txid) == 1
    assert delivered(receipt)
    assert not orphaned(receipt)
