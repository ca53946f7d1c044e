"""Live account hub end-to-end: one enclave, a thousand signed clients.

The acceptance shape for ``repro.hub``: a hub daemon holding two real
channels serves ≥1,000 simulated accounts driven by the repo
benchmark's closed loop (``perf.harness.drive``) — zero protocol drops,
every accepted pay reflected exactly in the enclave ledger, forged and
replayed requests rejected with stable codes, and the conservation
invariant holding before *and* after the hub withdraws over a channel,
pays out on-chain, and settles.

A second test runs the account surface against a
:class:`~repro.runtime.workers.ShardedDaemon`: accounts shard by
consistent hash across workers, batches split per owner and merge in
order, cross-shard pays are refused with ``cross_shard``, and
``account-stats`` aggregates one conserved, solvent answer.

A client is what the README says it is: a keypair that signs requests
(``sign_request``) and counts its own nonces, over any
:class:`~repro.runtime.control.ControlClient`.
"""

import itertools

import pytest

from perf.harness import drive
from repro.crypto.keys import KeyPair
from repro.hub.client import sign_request
from repro.hub.messages import (
    AccountDeposit,
    AccountPay,
    AccountQuery,
    AccountWithdraw,
)
from repro.runtime.control import ControlClient, ControlError
from repro.runtime.launch import HOST, launch_network
from repro.workloads.assignment import HashRing

from tests.test_runtime_load_live import transport_drops
from tests.test_runtime_sharded_live import RouterThread

GENESIS = 400_000
DEPOSIT = 60_000
ACCOUNTS = 1_000
STREAMS = 4             # connections
SECONDS = 2.0           # closed-loop window
HUB_FEE = 1
PAY_AMOUNT = 2


def _poll(predicate, timeout=60.0, interval=0.05, what="condition"):
    import time
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:
            pytest.fail(f"timed out waiting for {what}")
        time.sleep(interval)


def _request(keypair, body_type, *fields):
    """``body_type(keypair's account, *fields)``, signed by ``keypair``."""
    return sign_request(body_type(keypair.public, *fields), keypair.private)


def _query(control, keypair):
    """The hub's signed, read-only view of one account: balance, nonce."""
    return control.call("account-query",
                        request=_request(keypair, AccountQuery))


def _signers(count, prefix):
    """``count`` fresh accounts with seed-derived keys."""
    return [KeyPair.from_seed(f"{prefix}:{index}".encode())
            for index in range(count)]


def _open(control, signers, nonces, amount, batch):
    """One signed opening deposit per account, ``batch`` per request."""
    results = []
    for start in range(0, len(signers), batch):
        requests = []
        for index in range(start, min(start + batch, len(signers))):
            nonces[index] += 1
            requests.append(_request(signers[index], AccountDeposit,
                                     amount, nonces[index]))
        response = control.call("account-pay-many", requests=requests)
        assert response["rejected"] == 0
        results.extend(response["results"])
    return results


def _drive_pays(port, signers, nonces, partner, amount, streams, seconds):
    """Signed ``account-pay`` from each account to ``partner[account]``,
    closed loop on ``streams`` connections for ``seconds``.  Connection
    ``k`` owns every ``streams``-th account, so an account's nonces go
    out in order.  Returns how many pays the hub accepted."""
    clients = [ControlClient(HOST, port) for _ in range(streams)]

    def payer(client, owned):
        cycle = itertools.cycle(owned)

        def step():
            index = next(cycle)
            nonces[index] += 1
            client.call("account-pay", request=_request(
                signers[index], AccountPay, signers[partner[index]].public,
                amount, nonces[index]))
        return step

    try:
        tallies = drive([payer(client, range(lane, len(signers), streams))
                         for lane, client in enumerate(clients)], seconds)
    finally:
        for client in clients:
            client.close()
    assert [(t.failed, t.aborted) for t in tallies] == \
        [(0, None)] * streams
    assert all(tally.latencies for tally in tallies)
    return sum(len(tally.latencies) for tally in tallies)


@pytest.mark.live(timeout=420)
def test_live_hub_thousand_accounts():
    handles, _ = launch_network(
        {"hub": GENESIS, "alice": GENESIS, "bob": GENESIS})
    hub = handles["hub"].control
    alice = handles["alice"].control
    try:
        channels = {}
        for peer in ("alice", "bob"):
            cid = hub.call("open-channel", peer=peer)["channel_id"]
            deposit = hub.call("deposit", value=DEPOSIT)
            hub.call("approve-associate", peer=peer, channel_id=cid,
                     txid=deposit["txid"])
            channels[peer] = cid
        _poll(lambda: all(
            hub.call("channel", channel_id=cid)["my_balance"] == DEPOSIT
            for cid in channels.values()),
            what="hub deposits to associate")
        backing = 2 * DEPOSIT
        per_account = backing // ACCOUNTS
        hub.call("hub-fee", fee_per_pay=HUB_FEE)

        signers = _signers(ACCOUNTS, "live-hub")
        nonces = [0] * ACCOUNTS
        _open(hub, signers, nonces, per_account, batch=500)
        partner = [(index + 1) % ACCOUNTS for index in range(ACCOUNTS)]
        completed = _drive_pays(handles["hub"].control_port, signers,
                                nonces, partner, PAY_AMOUNT, STREAMS,
                                SECONDS)

        # Forged and replayed requests die inside the enclave.
        attacker = KeyPair.from_seed(b"live-attacker")
        forged = sign_request(
            AccountPay(signers[0].public, signers[1].public, 1, 10**6),
            attacker.private)
        with pytest.raises(ControlError) as excinfo:
            hub.call("account-pay", request=forged)
        assert excinfo.value.code == "authentication_failed"
        nonces[0] += 1
        replay = _request(signers[0], AccountPay, signers[1].public,
                          PAY_AMOUNT, nonces[0])
        hub.call("account-pay", request=replay)
        with pytest.raises(ControlError) as excinfo:
            hub.call("account-pay", request=replay)
        assert excinfo.value.code == "stale_nonce"

        expected_pays = completed + 1  # + the replay's original
        stats = hub.call("account-stats")["hub"]
        assert stats["accounts"] == ACCOUNTS
        assert stats["pays"] == expected_pays
        assert stats["deposited_total"] == ACCOUNTS * per_account
        assert stats["fee_bucket"] == expected_pays * HUB_FEE
        assert stats["conserved"] and stats["solvent"]
        assert stats["backing"] == backing

        # A chain withdrawal the hub wallet cannot cover is refused
        # *before* the enclave debits: stable code, nonce unconsumed,
        # no burned balance awaiting a payout that can never happen.
        over = _request(signers[1], AccountWithdraw, 10**9, 10**6,
                        "chain", "nowhere")
        with pytest.raises(ControlError) as excinfo:
            hub.call("account-withdraw", request=over)
        assert excinfo.value.code == "insufficient_funds"

        # A signer that holds no local nonce learns it from a signed
        # account-query and counts on from there.  It shares a keypair
        # with signer 0 but none of the driver's nonce state, so a
        # successful withdrawal below proves the query-then-count
        # resynchronisation protocol.
        owner = signers[0]
        client0 = ControlClient(HOST, handles["hub"].control_port)
        state = _query(client0, owner)
        balance0, nonce = state["balance"], state["nonce"]
        assert nonce == nonces[0]

        # One withdrawal per external route, both exactly accounted.
        w_channel = 20
        w_chain = 10
        assert balance0 >= w_channel + w_chain
        client0.call("account-withdraw", request=_request(
            owner, AccountWithdraw, w_channel, nonce + 1, "channel",
            channels["alice"]))
        chain_result = client0.call("account-withdraw", request=_request(
            owner, AccountWithdraw, w_chain, nonce + 2, "chain",
            "live-payout-address"))
        assert chain_result["txid"]
        _poll(lambda: alice.call(
                  "channel",
                  channel_id=channels["alice"])["my_balance"] == w_channel,
              what="channel withdrawal to reach alice")
        assert _query(client0, owner)["balance"] == \
            balance0 - w_channel - w_chain

        # A newcomer opens its account at 0 and is paid, the README's
        # client flow; the hub keeps its fee out of what the recipient
        # gets.
        newcomer = KeyPair.from_seed(b"live-newcomer")
        with ControlClient(HOST, handles["hub"].control_port) as control:
            fresh = _query(control, newcomer)
            assert not fresh["exists"]
            opened = control.call("account-open", request=_request(
                newcomer, AccountDeposit, 0, fresh["nonce"] + 1))
            assert opened["balance"] == 0
            client0.call("account-pay", request=_request(
                owner, AccountPay, newcomer.public, 5, nonce + 3))
            assert _query(control, newcomer)["balance"] == 5 - HUB_FEE
        assert _query(client0, owner)["balance"] == \
            balance0 - w_channel - w_chain - 5

        stats = hub.call("account-stats")["hub"]
        assert stats["withdrawn_total"] == w_channel + w_chain
        assert stats["conserved"] and stats["solvent"]
        client0.close()

        drops = transport_drops(handles)
        counters = hub.call("metrics")["metrics"]["counters"]

        # Alice's channel is unbalanced by the withdrawal, so it settles
        # on-chain; bob's is balanced and settles off-chain, leaving its
        # deposit locked until reclaim spends it back to the hub.
        settled = hub.call("settle", channel_id=channels["alice"])
        assert not settled["offchain"]
        hub.call("reclaim")
        _poll(lambda: alice.call("balance")["onchain"]
              == GENESIS + w_channel,
              what="settlement to credit alice's wallet")
        _poll(lambda: hub.call("balance")["onchain"]
              == GENESIS - w_channel - w_chain,
              what="settlement + reclaim to return the hub's funds")
        hub_onchain = hub.call("balance")["onchain"]
        after = hub.call("account-stats")["hub"]
    finally:
        for handle in handles.values():
            handle.shutdown()

    assert drops["protocol"] == 0
    assert counters.get("hub.accounts") == ACCOUNTS + 1
    assert counters.get("hub.account_pays") == expected_pays + 1
    assert counters.get("hub.rejected_sigs") == 1
    assert counters.get("hub.rejected_nonces") == 1

    # Conservation survives settlement: the ledger invariant still
    # holds, and every token the enclave released is accounted for —
    # the channel withdrawal reached alice, the chain payout left the
    # hub's wallet, and the rest of the channel funds came home.
    assert after["conserved"]
    assert hub_onchain == GENESIS - w_channel - w_chain


WORKERS = 2
SHARD_ACCOUNTS = 120
SHARD_DEPOSIT = 40_000


@pytest.mark.live(timeout=300)
def test_sharded_hub_accounts():
    # RouterThread reuses the sharded-live module's ALLOCATIONS, which
    # already funds hub-w0/hub-w1; the spoke entries are inert here.
    router = RouterThread()
    control = ControlClient(HOST, router.router.control_port, timeout=120)
    worker_names = [f"hub-w{i}" for i in range(WORKERS)]
    ring = HashRing(worker_names)
    try:
        # Backing per worker: a free deposit routed to it via a peer
        # name the ring assigns there (free deposits back the ledger
        # like channel balances do).
        for worker in worker_names:
            peer = next(f"probe{i}" for i in range(1000)
                        if ring.owner(f"probe{i}") == worker)
            control.call("deposit", value=SHARD_DEPOSIT, peer=peer)

        control.call("hub-fee", fee_per_pay=0)
        signers = _signers(SHARD_ACCOUNTS, "live-shard")
        nonces = [0] * SHARD_ACCOUNTS
        per_account = SHARD_DEPOSIT * WORKERS // (2 * SHARD_ACCOUNTS)
        assert len(_open(control, signers, nonces, per_account,
                         batch=64)) == SHARD_ACCOUNTS

        # Every account landed on its ring owner.
        shards = {}
        for index, signer in enumerate(signers):
            result = _query(control, signer)
            owner = ring.owner(f"account:{signer.public.to_bytes().hex()}")
            assert result["worker"] == owner
            shards.setdefault(owner, []).append(index)

        # Pairing within each shard never crosses shards, so the load
        # runs clean through the router.
        partner = {}
        for group in shards.values():
            for position, index in enumerate(group):
                partner[index] = group[(position + 1) % len(group)]
        completed = _drive_pays(router.router.control_port, signers,
                                nonces, partner, 1, streams=2, seconds=1.0)

        # An explicit cross-shard pay is refused with the stable code.
        payer, payee = (signers[shards[name][0]] for name in worker_names)
        cross = _request(payer, AccountPay, payee.public, 1, 10**6)
        with pytest.raises(ControlError) as excinfo:
            control.call("account-pay", request=cross)
        assert excinfo.value.code == "cross_shard"

        # The account-route withdraw is the same internal move and gets
        # the same refusal (not a misleading no_such_account).
        cross_withdraw = _request(payer, AccountWithdraw, 1, 10**6,
                                  "account", payee.public.to_bytes().hex())
        with pytest.raises(ControlError) as excinfo:
            control.call("account-withdraw", request=cross_withdraw)
        assert excinfo.value.code == "cross_shard"

        stats = control.call("account-stats")
        assert set(stats["workers"]) == set(worker_names)
        merged = stats["hub"]
        assert merged["accounts"] == SHARD_ACCOUNTS
        assert merged["pays"] == completed
        assert merged["deposited_total"] == SHARD_ACCOUNTS * per_account
        assert merged["conserved"] and merged["solvent"]
    finally:
        try:
            control.close()
        finally:
            router.close()
