"""The in-enclave account ledger and its enclave-program mixin.

:class:`AccountLedger` is pure state: client pubkey → balance, the last
accepted nonce per account, the hub's fee bucket, and running deposit/
withdrawal totals.  Its conservation invariant —

    sum(account balances) + fee bucket == deposited − withdrawn

— is re-checked inside the enclave before every mutating request, so a
host that reaches into the (in a real deployment, encrypted) ledger and
edits a balance is detected on the next operation rather than silently
paid out.  Solvency — liabilities never exceed the hub's channel and
free-deposit holdings — is enforced at deposit time, so the enclave
never owes clients more than the channels/deposits it controls can pay.

:class:`HubAccountsMixin` is mixed into
:class:`~repro.core.multihop.TeechainEnclave` and adds the ecall
surface: ``hub_handle_request`` (one signed request), ``hub_handle_batch``
(many, with per-item results), ``hub_stats`` (read-only),
``hub_set_fee``, and ``hub_refund_payout`` (compensation for a chain
payout the host could not execute).  Signature and nonce verification
happen here, inside the enclave — the untrusted host only shuttles
encoded bytes.
"""

from __future__ import annotations

from typing import Any, Dict, List

from repro.core.messages import SignedMessage
from repro.crypto.keys import PublicKey
from repro.errors import (
    AccountFundsError,
    AccountNonceError,
    HubError,
    LedgerTamperError,
    MessageAuthenticationError,
    NoSuchAccountError,
    ReplicationError,
)
from repro.hub.messages import (
    WITHDRAW_ROUTES,
    AccountDeposit,
    AccountPay,
    AccountQuery,
    AccountWithdraw,
)
from repro.obs import get_metrics


class AccountLedger:
    """Account table living inside the hub enclave.

    Keys are the 33-byte compressed client public keys; values are plain
    integers.  ``balances`` and ``nonces`` are journalled per account, the
    :attr:`SCALARS` whole (``repro.core.journal``).
    """

    SCALARS = ("fee_per_pay", "fee_bucket", "deposited_total",
               "withdrawn_total", "withdrawn_onchain", "payout_pending",
               "pays")

    def __init__(self) -> None:
        self.balances: Dict[bytes, int] = {}
        # Last *accepted* nonce per account; a request is accepted only
        # with a strictly greater nonce, and the nonce advances in the
        # same mutation as the balance change (so a crash/rollback can
        # never leave a spent nonce reusable).
        self.nonces: Dict[bytes, int] = {}
        self.fee_per_pay = 0
        self.fee_bucket = 0
        self.deposited_total = 0
        # External withdrawals only (channel + chain routes); internal
        # account-to-account moves conserve liabilities.
        self.withdrawn_total = 0
        # Chain-route slice of withdrawn_total, and how much of it the
        # host has yet to execute (authorise-then-execute leaves a
        # window between the ledger debit and the wallet payout).  Both
        # advance inside the withdraw ecall; ``hub_payout_done`` retires
        # the pending amount once the payout is on chain, so an auditor
        # can tell an in-flight payout from one the host is withholding.
        self.withdrawn_onchain = 0
        self.payout_pending = 0
        self.pays = 0

    def liabilities(self) -> int:
        """Everything the hub owes: client balances plus collected fees."""
        return sum(self.balances.values()) + self.fee_bucket

    def conserved(self) -> bool:
        return self.liabilities() == self.deposited_total - self.withdrawn_total


class HubAccountsMixin:
    """Account-multiplexing ecalls for a channel-protocol enclave.

    Relies on the :class:`~repro.core.channel_base.ChannelProtocol`
    surface later in the MRO: ``channels``, ``deposits``, ``pay``, and
    ``_replicated``.
    """

    _HUB_HANDLER_NAMES = {
        AccountDeposit: "_hub_deposit",
        AccountPay: "_hub_pay",
        AccountWithdraw: "_hub_withdraw",
        AccountQuery: "_hub_query",
    }

    def __init__(self) -> None:
        super().__init__()
        self.hub = AccountLedger()

    # ------------------------------------------------------------------
    # Ecall surface
    # ------------------------------------------------------------------

    def hub_handle_request(self, signed: SignedMessage) -> Dict[str, Any]:
        """Verify and apply one signed account request (see module doc)."""
        return self._hub_apply(signed)

    def hub_handle_batch(self, requests: List[SignedMessage]
                         ) -> List[Dict[str, Any]]:
        """Apply many requests in order, independently: one bad request
        is rejected in place (with its stable error code) without
        aborting the rest — the batch verb exists to amortise control
        round-trips, not to add transactional semantics.

        The one exception is a replication failure: by the time
        ``_replicated`` raises, the item has already mutated the ledger,
        and only the ecall rollback guard can undo that.  Reporting the
        item as rejected would swallow the exception the guard keys on,
        leaving the pay applied (and its nonce consumed) while the
        client is told it failed — a retry would then double-spend.  So
        replication failures abort the whole batch: the guard restores
        the pre-batch state and the caller resubmits everything."""
        from repro.runtime.registry import code_for_exception

        results: List[Dict[str, Any]] = []
        for signed in requests:
            try:
                results.append({"ok": True, **self._hub_apply(signed)})
            except ReplicationError:
                raise  # Alg. 3: no effect without the backup's ack
            except Exception as exc:  # rejected item, not a crashed batch
                results.append({"ok": False,
                                "code": code_for_exception(exc),
                                "error": str(exc)})
        return results

    def hub_stats(self) -> Dict[str, Any]:
        """Read-only ledger summary (conservation + solvency checks)."""
        liabilities = self.hub.liabilities()
        backing = self._hub_backing()
        return {
            "accounts": len(self.hub.balances),
            "total_balance": sum(self.hub.balances.values()),
            "fee_bucket": self.hub.fee_bucket,
            "fee_per_pay": self.hub.fee_per_pay,
            "deposited_total": self.hub.deposited_total,
            "withdrawn_total": self.hub.withdrawn_total,
            "withdrawn_onchain": self.hub.withdrawn_onchain,
            "payout_pending": self.hub.payout_pending,
            "pays": self.hub.pays,
            "liabilities": liabilities,
            "backing": backing,
            "conserved": self.hub.conserved(),
            "solvent": liabilities <= backing,
        }

    def hub_set_fee(self, fee_per_pay: int) -> Dict[str, Any]:
        if fee_per_pay < 0:
            raise HubError(f"fee must be >= 0, got {fee_per_pay}")
        self.hub.fee_per_pay = int(fee_per_pay)
        self._replicated(f"hub_set_fee:{fee_per_pay}")
        return {"fee_per_pay": self.hub.fee_per_pay}

    def hub_refund_payout(self, account_hex: str,
                          amount: int) -> Dict[str, Any]:
        """Compensate a chain withdrawal whose host-side payout failed.

        The chain route is authorise-then-execute: the enclave debits,
        the host builds/broadcasts the wallet transaction.  When that
        execution fails (wallet UTXOs short, broadcast rejected) the
        host calls back in here to re-credit the account, so the debit
        is a clean rejection instead of burned funds.  The nonce stays
        consumed — replay protection is untouched; the client retries
        with a fresh nonce.

        The host is trusted only for payout *liveness* (it can always
        withhold broadcasts, here as everywhere in Teechain's model); a
        dishonest refund claim cannot mint value — the refund can never
        exceed what external withdrawals actually debited, conservation
        still holds, and every reversal is metered
        (``hub.payout_refunds``) and auditable against the replicated
        chain, where the payout, had it happened, would be visible."""
        if amount <= 0:
            raise HubError(f"refund amount must be positive, got {amount}")
        try:
            key = bytes.fromhex(account_hex)
        except ValueError:
            raise HubError("refund account must be a hex-encoded public "
                           "key") from None
        if key not in self.hub.balances:
            raise NoSuchAccountError(
                f"no account {key.hex()[:12]}… at this hub")
        if amount > self.hub.withdrawn_total:
            raise HubError(
                f"refund of {amount} exceeds the {self.hub.withdrawn_total} "
                "ever withdrawn externally — refused (a refund must "
                "reverse a real debit, not mint liabilities)")
        if amount > self.hub.payout_pending:
            raise HubError(
                f"refund of {amount} exceeds the {self.hub.payout_pending} "
                "still pending host execution — refused (only an "
                "unexecuted chain payout can fail and be refunded)")
        self._hub_check_conserved()
        self._touch_account(key)
        self.hub.balances[key] += amount
        self.hub.withdrawn_total -= amount
        self.hub.withdrawn_onchain -= amount
        self.hub.payout_pending -= amount
        get_metrics().inc("hub.payout_refunds")
        self._replicated(
            f"hub_refund_payout:{key.hex()[:12]}:{amount}")
        return {"account": key.hex(), "amount": amount,
                "balance": self.hub.balances[key]}

    def hub_payout_done(self, amount: int) -> Dict[str, Any]:
        """Retire a pending chain payout the host has executed.

        Closes the authorise-then-execute window opened by a chain-route
        withdrawal: the host calls back in once the wallet transaction
        is mined, and ``payout_pending`` drops by the executed amount.
        Pure bookkeeping for the audit plane — balances and totals are
        untouched, so no conservation property moves — but it is what
        lets `repro.obs` distinguish an in-flight payout (pending for
        one sweep) from a withheld one (pending forever)."""
        if amount <= 0:
            raise HubError(f"payout amount must be positive, got {amount}")
        if amount > self.hub.payout_pending:
            raise HubError(
                f"payout completion of {amount} exceeds the "
                f"{self.hub.payout_pending} outstanding — refused")
        self.hub.payout_pending -= amount
        self._replicated(f"hub_payout_done:{amount}")
        return {"payout_pending": self.hub.payout_pending}

    # ------------------------------------------------------------------
    # Verification and dispatch
    # ------------------------------------------------------------------

    def _hub_backing(self) -> int:
        """What the hub can actually pay out: its side of every open
        channel plus unassociated (free) deposits."""
        backing = sum(
            channel.my_balance for channel in self.channels.values()
            if channel.is_open and not channel.terminated
        )
        backing += sum(record.value for record in self.deposits.values()
                       if record.is_free)
        return backing

    def _touch_account(self, key: bytes) -> None:
        """Journal one account's balance and nonce before they change."""
        journal = self.journal
        if journal.depth:
            journal.record_row(("hub.balances", "hub.nonces"), key)

    def _hub_check_conserved(self) -> None:
        if not self.hub.conserved():
            get_metrics().inc("hub.rejected_tamper")
            raise LedgerTamperError(
                f"ledger conservation violated: liabilities "
                f"{self.hub.liabilities()} != deposited "
                f"{self.hub.deposited_total} - withdrawn "
                f"{self.hub.withdrawn_total} — hub state was modified "
                f"outside the request protocol"
            )

    def _hub_apply(self, signed: SignedMessage) -> Dict[str, Any]:
        if not isinstance(signed, SignedMessage):
            raise HubError("account requests must arrive as SignedMessage")
        body = signed.body
        handler = self._HUB_HANDLER_NAMES.get(type(body))
        if handler is None:
            raise HubError(
                f"{type(body).__name__} is not an account request")
        account = body.account
        if not isinstance(account, PublicKey):
            raise HubError("request carries no account public key")
        try:
            # The client key inside the request must also be the signer:
            # the host cannot splice a victim's account onto its own
            # signature, and a flipped bit anywhere breaks the ECDSA
            # check over the canonical body bytes.
            signed.verify(expected_sender=account)
        except MessageAuthenticationError:
            get_metrics().inc("hub.rejected_sigs")
            raise
        key = account.to_bytes()
        if not isinstance(body, AccountQuery):
            self._touch_account(key)
            self._hub_check_conserved()
            last = self.hub.nonces.get(key, 0)
            if body.nonce <= last:
                get_metrics().inc("hub.rejected_nonces")
                raise AccountNonceError(
                    f"nonce {body.nonce} <= last accepted {last} for "
                    f"account {key.hex()[:12]}… (replay?)")
        return getattr(self, handler)(key, body)

    def _hub_commit(self, key: bytes, nonce: int, description: str) -> None:
        """Advance the account nonce and run the replication/persistence
        barrier — one atomic step with the handler's balance mutation
        (``_hub_apply`` journalled the account before either changed)."""
        self.hub.nonces[key] = nonce
        self._replicated(description)

    # ------------------------------------------------------------------
    # Request handlers (called with signature + nonce already verified)
    # ------------------------------------------------------------------

    def _hub_deposit(self, key: bytes, body: AccountDeposit) -> Dict[str, Any]:
        if body.amount < 0:
            raise HubError(f"deposit amount must be >= 0, got {body.amount}")
        backing = self._hub_backing()
        if self.hub.liabilities() + body.amount > backing:
            get_metrics().inc("hub.rejected_funds")
            raise AccountFundsError(
                f"deposit of {body.amount} would raise hub liabilities to "
                f"{self.hub.liabilities() + body.amount}, above its "
                f"channel/deposit backing of {backing}")
        created = key not in self.hub.balances
        if created:
            self.hub.balances[key] = 0
            get_metrics().inc("hub.accounts")
        self.hub.balances[key] += body.amount
        self.hub.deposited_total += body.amount
        self._hub_commit(key, body.nonce,
                         f"account_deposit:{key.hex()[:12]}:{body.amount}")
        return {"account": key.hex(), "created": created,
                "balance": self.hub.balances[key], "nonce": body.nonce}

    def _hub_pay(self, key: bytes, body: AccountPay) -> Dict[str, Any]:
        if body.amount <= 0:
            raise HubError(f"amount must be positive, got {body.amount}")
        if not isinstance(body.recipient, PublicKey):
            raise HubError("pay request carries no recipient public key")
        balance = self.hub.balances.get(key)
        if balance is None:
            raise NoSuchAccountError(
                f"no account {key.hex()[:12]}… at this hub")
        recipient = body.recipient.to_bytes()
        if recipient not in self.hub.balances:
            raise NoSuchAccountError(
                f"no recipient account {recipient.hex()[:12]}… at this hub")
        self._touch_account(recipient)
        fee = self.hub.fee_per_pay
        if fee and body.amount <= fee:
            raise HubError(
                f"amount {body.amount} does not exceed the hub fee {fee}")
        if balance < body.amount:
            get_metrics().inc("hub.rejected_funds")
            raise AccountFundsError(
                f"account {key.hex()[:12]}… holds {balance}, "
                f"cannot pay {body.amount}")
        self.hub.balances[key] = balance - body.amount
        self.hub.balances[recipient] += body.amount - fee
        self.hub.fee_bucket += fee
        self.hub.pays += 1
        get_metrics().inc("hub.account_pays")
        self._hub_commit(key, body.nonce,
                         f"account_pay:{key.hex()[:12]}:{body.amount}")
        return {"account": key.hex(), "recipient": recipient.hex(),
                "amount": body.amount, "fee": fee,
                "balance": self.hub.balances[key], "nonce": body.nonce}

    def _hub_withdraw(self, key: bytes,
                      body: AccountWithdraw) -> Dict[str, Any]:
        if body.amount <= 0:
            raise HubError(f"amount must be positive, got {body.amount}")
        if body.route not in WITHDRAW_ROUTES:
            raise HubError(
                f"unknown withdrawal route {body.route!r} "
                f"(one of: {', '.join(WITHDRAW_ROUTES)})")
        balance = self.hub.balances.get(key)
        if balance is None:
            raise NoSuchAccountError(
                f"no account {key.hex()[:12]}… at this hub")
        if balance < body.amount:
            get_metrics().inc("hub.rejected_funds")
            raise AccountFundsError(
                f"account {key.hex()[:12]}… holds {balance}, "
                f"cannot withdraw {body.amount}")
        result: Dict[str, Any] = {"account": key.hex(), "route": body.route,
                                  "amount": body.amount, "nonce": body.nonce,
                                  "destination": body.destination}
        if body.route == "account":
            try:
                destination = bytes.fromhex(body.destination)
            except ValueError:
                raise HubError("account-route destination must be the "
                               "recipient public key, hex-encoded") from None
            if destination not in self.hub.balances:
                raise NoSuchAccountError(
                    f"no account {destination.hex()[:12]}… at this hub")
            self._touch_account(destination)
            self.hub.balances[key] = balance - body.amount
            self.hub.balances[destination] += body.amount
        elif body.route == "channel":
            # Existing channel machinery does the heavy lifting: pay()
            # validates the channel (open, idle, sufficient hub balance)
            # and raises before any ledger mutation.  The ecall guard only
            # rolls back on replication failure, so any *other* failure
            # after pay() has moved channel funds (its send, say) must be
            # unwound here — otherwise the channel has paid out while the
            # account is still credited, and the client can withdraw
            # again.
            with self.journal.savepoint():
                self.pay(body.destination, body.amount)
            self.hub.balances[key] = balance - body.amount
            self.hub.withdrawn_total += body.amount
        else:  # chain
            if not body.destination:
                raise HubError("chain withdrawal needs a destination address")
            # The enclave authorises; the host executes the wallet
            # transfer (observable on the replicated chain, so a client
            # can audit that the payout actually happened).
            self.hub.balances[key] = balance - body.amount
            self.hub.withdrawn_total += body.amount
            self.hub.withdrawn_onchain += body.amount
            self.hub.payout_pending += body.amount
            result["address"] = body.destination
        result["balance"] = self.hub.balances[key]
        self._hub_commit(key, body.nonce,
                         f"account_withdraw:{body.route}:{body.amount}")
        return result

    def _hub_query(self, key: bytes, body: AccountQuery) -> Dict[str, Any]:
        balance = self.hub.balances.get(key)
        return {"account": key.hex(), "exists": balance is not None,
                "balance": 0 if balance is None else balance,
                "nonce": self.hub.nonces.get(key, 0)}
