"""The account hub's in-enclave ledger: signed requests, nonces, fees,
conservation, withdrawal routes, batches, rollback, and persistence.

Companion to ``tests/test_security_attacks.py::TestHubAccountAttacks``
(adversarial paths) — this file covers the honest protocol and the
state-machine edges.
"""

import pytest

from repro.core.channel_base import replication_state
from repro.core.persistence import restore_program_state
from repro.core.multihop import TeechainEnclave
from repro.core.messages import SignedMessage
from repro.crypto import KeyPair
from repro.errors import (
    AccountFundsError,
    AccountNonceError,
    HubError,
    NoSuchAccountError,
    ReplicationError,
)
from repro.hub import AccountLedger
from repro.hub.messages import (
    AccountDeposit,
    AccountPay,
    AccountQuery,
    AccountWithdraw,
)
from repro.runtime import codec

CLIENT = KeyPair.from_seed(b"hub-unit-client")
PARTNER = KeyPair.from_seed(b"hub-unit-partner")


def signed(body, keypair=CLIENT):
    return SignedMessage.create(body, keypair.private)


@pytest.fixture
def hub(open_channel):
    """Alice's enclave acting as the hub: 50k of channel backing, with
    CLIENT and PARTNER accounts opened at 10k and 5k."""
    network, alice, bob, channel = open_channel
    alice.enclave.ecall(
        "hub_handle_request",
        signed(AccountDeposit(CLIENT.public, 10_000, 1)))
    alice.enclave.ecall(
        "hub_handle_request",
        signed(AccountDeposit(PARTNER.public, 5_000, 1), PARTNER))
    return network, alice, bob, channel


class TestAccountLedger:
    def test_conservation_arithmetic(self):
        ledger = AccountLedger()
        ledger.balances = {b"a": 70, b"b": 20}
        ledger.fee_bucket = 10
        ledger.deposited_total = 120
        ledger.withdrawn_total = 20
        assert ledger.liabilities() == 100
        assert ledger.conserved()
        ledger.balances[b"a"] += 1  # tamper
        assert not ledger.conserved()


class TestCodecRegistration:
    @pytest.mark.parametrize("body", [
        AccountDeposit(CLIENT.public, 500, 1),
        AccountPay(CLIENT.public, PARTNER.public, 25, 2),
        AccountWithdraw(CLIENT.public, 40, 3, "chain", "addr-x"),
        AccountQuery(CLIENT.public),
    ], ids=["deposit", "pay", "withdraw", "query"])
    def test_round_trip(self, body):
        assert codec.decode(codec.encode(body)) == body

    @pytest.mark.parametrize("body", [
        AccountDeposit(CLIENT.public, 500, 1),
        AccountWithdraw(CLIENT.public, 40, 3, "channel", "cid"),
    ], ids=["deposit", "withdraw"])
    def test_signed_round_trip(self, body):
        wire = codec.encode(signed(body))
        decoded = codec.decode(wire)
        assert decoded.body == body
        decoded.verify(expected_sender=CLIENT.public)


class TestDepositsAndPays:
    def test_deposit_opens_and_credits(self, hub):
        _, alice, _, _ = hub
        result = alice.enclave.ecall(
            "hub_handle_request",
            signed(AccountDeposit(CLIENT.public, 2_000, 2)))
        assert result["created"] is False
        assert result["balance"] == 12_000
        assert alice.program.hub.deposited_total == 17_000
        assert alice.program.hub.conserved()

    def test_deposit_beyond_backing_rejected(self, hub):
        """Solvency: the hub never owes more than its channels and free
        deposits can pay out (50k backing, 15k already owed)."""
        _, alice, _, _ = hub
        with pytest.raises(AccountFundsError):
            alice.enclave.ecall(
                "hub_handle_request",
                signed(AccountDeposit(CLIENT.public, 35_001, 2)))
        assert alice.program.hub.balances[CLIENT.public.to_bytes()] == 10_000

    def test_pay_moves_funds(self, hub):
        _, alice, _, _ = hub
        alice.enclave.ecall(
            "hub_handle_request",
            signed(AccountPay(CLIENT.public, PARTNER.public, 3_000, 2)))
        ledger = alice.program.hub
        assert ledger.balances[CLIENT.public.to_bytes()] == 7_000
        assert ledger.balances[PARTNER.public.to_bytes()] == 8_000
        assert ledger.pays == 1
        assert ledger.conserved()

    def test_pay_fee_lands_in_bucket(self, hub):
        _, alice, _, _ = hub
        alice.enclave.ecall("hub_set_fee", 25)
        alice.enclave.ecall(
            "hub_handle_request",
            signed(AccountPay(CLIENT.public, PARTNER.public, 1_000, 2)))
        ledger = alice.program.hub
        assert ledger.balances[PARTNER.public.to_bytes()] == 5_000 + 975
        assert ledger.fee_bucket == 25
        assert ledger.conserved()  # the fee is a liability, not income

    def test_pay_at_or_below_fee_rejected(self, hub):
        _, alice, _, _ = hub
        alice.enclave.ecall("hub_set_fee", 25)
        with pytest.raises(HubError):
            alice.enclave.ecall(
                "hub_handle_request",
                signed(AccountPay(CLIENT.public, PARTNER.public, 25, 2)))

    def test_pay_to_unknown_recipient_rejected(self, hub):
        _, alice, _, _ = hub
        ghost = KeyPair.from_seed(b"hub-unit-ghost")
        with pytest.raises(NoSuchAccountError):
            alice.enclave.ecall(
                "hub_handle_request",
                signed(AccountPay(CLIENT.public, ghost.public, 1, 2)))

    def test_pay_from_unknown_account_rejected(self, hub):
        _, alice, _, _ = hub
        ghost = KeyPair.from_seed(b"hub-unit-ghost")
        with pytest.raises(NoSuchAccountError):
            alice.enclave.ecall(
                "hub_handle_request",
                signed(AccountPay(ghost.public, CLIENT.public, 1, 1),
                       ghost))


class TestNonces:
    def test_nonce_must_strictly_increase(self, hub):
        _, alice, _, _ = hub
        for nonce in (1, 0):
            with pytest.raises(AccountNonceError):
                alice.enclave.ecall(
                    "hub_handle_request",
                    signed(AccountDeposit(CLIENT.public, 1, nonce)))

    def test_nonce_gaps_allowed(self, hub):
        """Clients may burn nonces (e.g. a request lost in transit);
        only monotonicity matters."""
        _, alice, _, _ = hub
        result = alice.enclave.ecall(
            "hub_handle_request",
            signed(AccountDeposit(CLIENT.public, 1, 100)))
        assert result["nonce"] == 100

    def test_failed_request_does_not_consume_nonce(self, hub):
        _, alice, _, _ = hub
        with pytest.raises(AccountFundsError):
            alice.enclave.ecall(
                "hub_handle_request",
                signed(AccountWithdraw(CLIENT.public, 99_999, 2)))
        # The same nonce is still fresh for the corrected request.
        result = alice.enclave.ecall(
            "hub_handle_request",
            signed(AccountWithdraw(CLIENT.public, 1_000, 2, "account",
                                   PARTNER.public.to_bytes().hex())))
        assert result["nonce"] == 2

    def test_query_consumes_no_nonce(self, hub):
        _, alice, _, _ = hub
        for _ in range(3):
            result = alice.enclave.ecall(
                "hub_handle_request", signed(AccountQuery(CLIENT.public)))
        assert result == {"account": CLIENT.public.to_bytes().hex(),
                          "exists": True, "balance": 10_000, "nonce": 1}


class TestWithdrawRoutes:
    def test_account_route_is_internal(self, hub):
        _, alice, _, _ = hub
        alice.enclave.ecall(
            "hub_handle_request",
            signed(AccountWithdraw(CLIENT.public, 4_000, 2, "account",
                                   PARTNER.public.to_bytes().hex())))
        ledger = alice.program.hub
        assert ledger.balances[CLIENT.public.to_bytes()] == 6_000
        assert ledger.balances[PARTNER.public.to_bytes()] == 9_000
        assert ledger.withdrawn_total == 0  # liabilities unchanged
        assert ledger.conserved()

    def test_channel_route_pays_over_real_channel(self, hub):
        network, alice, bob, channel = hub
        before = alice.program.channels[channel].my_balance
        alice.enclave.ecall(
            "hub_handle_request",
            signed(AccountWithdraw(CLIENT.public, 2_500, 2, "channel",
                                   channel)))
        ledger = alice.program.hub
        assert alice.program.channels[channel].my_balance == before - 2_500
        assert ledger.balances[CLIENT.public.to_bytes()] == 7_500
        assert ledger.withdrawn_total == 2_500
        assert ledger.conserved()

    def test_channel_route_failure_leaves_ledger_untouched(self, hub):
        """A channel that cannot cover the withdrawal rejects before
        any ledger mutation — no partial state, nonce still fresh."""
        network, alice, bob, channel = hub
        # Drain the channel below the client's balance so the pay —
        # not the ledger check — is what refuses.
        alice.pay(channel, 45_000)
        balance = alice.program.channels[channel].my_balance
        assert balance < 10_000
        with pytest.raises(Exception) as excinfo:
            alice.enclave.ecall(
                "hub_handle_request",
                signed(AccountWithdraw(CLIENT.public, 10_000, 2,
                                       "channel", channel)))
        assert not isinstance(excinfo.value, AccountNonceError)
        ledger = alice.program.hub
        assert ledger.balances[CLIENT.public.to_bytes()] == 10_000
        assert ledger.withdrawn_total == 0
        assert alice.program.channels[channel].my_balance == balance
        assert ledger.nonces[CLIENT.public.to_bytes()] == 1

    def test_channel_route_flush_failure_restores_channel_and_ledger(
            self, hub, monkeypatch):
        """The ecall guard only undoes replication failures; any other
        failure after pay() has moved channel funds must be unwound by
        the handler itself — channel balance, payment sequence, queued
        frames, ledger, and nonce all revert together.  The failure is
        the Paid's send, after the debit."""
        network, alice, bob, channel = hub
        before = alice.program.channels[channel].my_balance
        sequence = alice.program._pay_seq_out[channel]
        outbox_before = list(alice.program._outbox)

        def boom(remote_key, body):
            raise RuntimeError("injected after pay() moved funds")

        monkeypatch.setattr(alice.program, "_send", boom)
        with pytest.raises(RuntimeError):
            alice.enclave.ecall(
                "hub_handle_request",
                signed(AccountWithdraw(CLIENT.public, 2_500, 2, "channel",
                                       channel)))
        ledger = alice.program.hub
        assert alice.program.channels[channel].my_balance == before
        assert alice.program._pay_seq_out[channel] == sequence
        assert alice.program._outbox == outbox_before
        assert ledger.balances[CLIENT.public.to_bytes()] == 10_000
        assert ledger.withdrawn_total == 0
        assert ledger.nonces[CLIENT.public.to_bytes()] == 1
        assert ledger.conserved()

    def test_chain_route_authorises_host_payout(self, hub):
        _, alice, _, _ = hub
        result = alice.enclave.ecall(
            "hub_handle_request",
            signed(AccountWithdraw(CLIENT.public, 3_000, 2, "chain",
                                   "payout-address")))
        assert result["address"] == "payout-address"
        assert alice.program.hub.withdrawn_total == 3_000
        assert alice.program.hub.conserved()

    def test_chain_payout_refund_restores_balance(self, hub):
        """Authorise-then-execute: when the host cannot execute the
        payout, the compensating ecall re-credits the account.  The
        nonce stays consumed and conservation holds throughout."""
        _, alice, _, _ = hub
        alice.enclave.ecall(
            "hub_handle_request",
            signed(AccountWithdraw(CLIENT.public, 3_000, 2, "chain",
                                   "payout-address")))
        result = alice.enclave.ecall(
            "hub_refund_payout", CLIENT.public.to_bytes().hex(), 3_000)
        ledger = alice.program.hub
        assert result["balance"] == 10_000
        assert ledger.balances[CLIENT.public.to_bytes()] == 10_000
        assert ledger.withdrawn_total == 0
        assert ledger.conserved()
        assert ledger.nonces[CLIENT.public.to_bytes()] == 2

    def test_refund_cannot_mint_liabilities(self, hub):
        """A refund must reverse a real external debit: with nothing
        withdrawn any amount is refused, and after a withdrawal a
        refund above ``withdrawn_total`` is refused — a host claiming
        phantom payout failures cannot inflate what the hub owes."""
        _, alice, _, _ = hub
        key_hex = CLIENT.public.to_bytes().hex()
        with pytest.raises(HubError):
            alice.enclave.ecall("hub_refund_payout", key_hex, 1)
        alice.enclave.ecall(
            "hub_handle_request",
            signed(AccountWithdraw(CLIENT.public, 100, 2, "chain", "addr")))
        with pytest.raises(HubError):
            alice.enclave.ecall("hub_refund_payout", key_hex, 101)
        ledger = alice.program.hub
        assert ledger.balances[CLIENT.public.to_bytes()] == 9_900
        assert ledger.withdrawn_total == 100
        assert ledger.conserved()

    def test_chain_route_needs_destination(self, hub):
        _, alice, _, _ = hub
        with pytest.raises(HubError):
            alice.enclave.ecall(
                "hub_handle_request",
                signed(AccountWithdraw(CLIENT.public, 1, 2, "chain", "")))

    def test_unknown_route_rejected(self, hub):
        _, alice, _, _ = hub
        with pytest.raises(HubError):
            alice.enclave.ecall(
                "hub_handle_request",
                signed(AccountWithdraw(CLIENT.public, 1, 2, "teleport",
                                       "x")))


class TestBatchesAndStats:
    def test_batch_rejects_items_independently(self, hub):
        _, alice, _, _ = hub
        mallory = KeyPair.from_seed(b"hub-unit-mallory")
        batch = [
            signed(AccountDeposit(CLIENT.public, 100, 2)),
            signed(AccountDeposit(CLIENT.public, 100, 2)),      # replay
            signed(AccountPay(CLIENT.public, PARTNER.public, 1, 9),
                   mallory),                                    # forged
            signed(AccountPay(CLIENT.public, PARTNER.public, 50, 3)),
        ]
        results = alice.enclave.ecall("hub_handle_batch", batch)
        assert [row["ok"] for row in results] == [True, False, False, True]
        assert results[1]["code"] == "stale_nonce"
        assert results[2]["code"] == "authentication_failed"
        assert alice.program.hub.conserved()

    def test_stats_snapshot(self, hub):
        _, alice, _, _ = hub
        stats = alice.enclave.ecall("hub_stats")
        assert stats["accounts"] == 2
        assert stats["total_balance"] == 15_000
        assert stats["liabilities"] == 15_000
        assert stats["backing"] == 50_000
        assert stats["conserved"] and stats["solvent"]

    def test_negative_fee_rejected(self, hub):
        _, alice, _, _ = hub
        with pytest.raises(HubError):
            alice.enclave.ecall("hub_set_fee", -1)


class TestRollbackAndPersistence:
    def test_failed_replication_rolls_the_ledger_back(self, hub):
        """Algorithm 3 extends to accounts: if the replication barrier
        fails, the deposit never happened — balance, totals, and nonce
        all restore."""
        _, alice, _, _ = hub

        def hook(description):
            raise ReplicationError(f"injected during {description}")

        alice.program.replication_hook = hook
        with pytest.raises(ReplicationError):
            alice.enclave.ecall(
                "hub_handle_request",
                signed(AccountDeposit(CLIENT.public, 2_000, 2)))
        alice.program.replication_hook = None
        ledger = alice.program.hub
        assert ledger.balances[CLIENT.public.to_bytes()] == 10_000
        assert ledger.deposited_total == 15_000
        assert ledger.nonces[CLIENT.public.to_bytes()] == 1
        # The rolled-back nonce is accepted once replication recovers.
        alice.enclave.ecall(
            "hub_handle_request",
            signed(AccountDeposit(CLIENT.public, 2_000, 2)))
        assert ledger.balances[CLIENT.public.to_bytes()] == 12_000

    def test_batch_aborts_atomically_on_replication_failure(self, hub):
        """A replication failure mid-batch cannot be reported as a
        per-item rejection: by then the item has already mutated the
        ledger, and only the ecall guard can undo that.  The batch
        re-raises instead, the guard rolls every item back, and a
        client retrying the 'failed' batch cannot double-spend."""
        _, alice, _, _ = hub
        calls = {"n": 0}

        def hook(description):
            calls["n"] += 1
            if calls["n"] == 2:
                raise ReplicationError(f"injected during {description}")

        alice.program.replication_hook = hook
        batch = [
            signed(AccountDeposit(CLIENT.public, 100, 2)),
            signed(AccountPay(CLIENT.public, PARTNER.public, 50, 3)),
        ]
        with pytest.raises(ReplicationError):
            alice.enclave.ecall("hub_handle_batch", batch)
        alice.program.replication_hook = None
        ledger = alice.program.hub
        # Item 1 replicated fine but is rolled back with the whole
        # batch: nothing is half-applied and the nonces stay fresh.
        assert ledger.balances[CLIENT.public.to_bytes()] == 10_000
        assert ledger.balances[PARTNER.public.to_bytes()] == 5_000
        assert ledger.deposited_total == 15_000
        assert ledger.nonces[CLIENT.public.to_bytes()] == 1
        assert ledger.conserved()
        # The identical batch replays cleanly once replication recovers.
        results = alice.enclave.ecall("hub_handle_batch", batch)
        assert [row["ok"] for row in results] == [True, True]

    def test_replication_blob_round_trips_the_ledger(self, hub):
        _, alice, _, _ = hub
        blob = codec.encode(replication_state(alice.program))
        replica = TeechainEnclave()
        restore_program_state(replica, codec.decode(blob))
        assert replication_state(replica)["hub"] \
            == replication_state(alice.program)["hub"]
        assert replica.hub.balances and replica.hub.conserved()


class TestShardRouting:
    """Router-side ownership checks for account verbs (no workers are
    spawned — the handles are name-only stubs; only the ring lookups
    and the ``cross_shard`` refusal paths run)."""

    @pytest.fixture
    def router(self):
        from types import SimpleNamespace

        from repro.runtime.workers import ShardedDaemon

        router = ShardedDaemon("hubpool", workers=2)
        router.workers = {name: SimpleNamespace(name=name)
                          for name in router.worker_names}
        return router

    @staticmethod
    def _accounts_on_distinct_shards(router):
        by_owner = {}
        for index in range(64):
            keypair = KeyPair.from_seed(f"shard-route-{index}".encode())
            owner = router.ring.owner(
                "account:" + keypair.public.to_bytes().hex())
            by_owner.setdefault(owner, keypair)
            if len(by_owner) == 2:
                break
        return [by_owner[name] for name in router.worker_names]

    def test_cross_shard_account_withdraw_refused(self, router):
        """An account-route withdraw is an internal move like a pay:
        when the destination lives on another shard it is refused with
        the same stable code, not a misleading ``no_such_account``."""
        from repro.runtime.registry import CommandError

        payer, payee = self._accounts_on_distinct_shards(router)
        body = AccountWithdraw(payer.public, 5, 1, "account",
                               payee.public.to_bytes().hex())
        with pytest.raises(CommandError) as excinfo:
            router._route_account_request(body)
        assert excinfo.value.code == "cross_shard"

    def test_same_shard_account_withdraw_routes_to_owner(self, router):
        payer, _ = self._accounts_on_distinct_shards(router)
        body = AccountWithdraw(payer.public, 5, 1, "account",
                               payer.public.to_bytes().hex())
        worker = router._route_account_request(body)
        assert worker.name == router.ring.owner(
            "account:" + payer.public.to_bytes().hex())

    def test_channel_route_withdraw_is_not_shard_checked(self, router):
        """Channel and chain routes leave the shard by construction —
        their destinations are channel ids / addresses, not accounts."""
        payer, _ = self._accounts_on_distinct_shards(router)
        body = AccountWithdraw(payer.public, 5, 1, "channel", "chan-1")
        worker = router._route_account_request(body)
        assert worker.name == router.ring.owner(
            "account:" + payer.public.to_bytes().hex())
