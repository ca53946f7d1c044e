"""The sharded router places every verb from its declaration, without sockets.

The workers are stubs that record what they are sent, as in
``test_hub_accounts.py``'s router fixture; the account decoder is driven
through both the router and an in-process ``NodeDaemon``.  Every
``COMMANDS`` verb must reach one worker, every worker, or a named
refusal — never ``unknown_command`` — and the router's ``help`` must
say which.
"""

import asyncio
import json

import pytest

from repro import obs
from repro.core.messages import SignedMessage
from repro.crypto import KeyPair
from repro.hub.client import sign_request
from repro.hub.messages import AccountDeposit
from repro.routing import ChannelAnnounce
from repro.runtime import codec
from repro.runtime.daemon import COMMANDS, NodeDaemon
from repro.runtime.registry import CommandError
from repro.runtime.workers import ROUTER, ShardedDaemon

CLIENT = KeyPair.from_seed(b"router-client")
PARTNER = KeyPair.from_seed(b"router-partner")
CHANNEL = "chan-routed"

POOL_VERBS = {
    "batch-window", "fastpath", "mine", "eject-all", "reclaim", "hub-fee",
    "fee-policy", "chain-sync", "fault", "stats", "metrics", "balance",
    "health", "account-stats", "audit-snapshot", "metrics_stream",
    "trace_dump",
}
REFUSED = {"route", "pay-multihop"}

# One answer every merge can read.
HUB = {key: 0 for key in (
    "accounts", "total_balance", "fee_bucket", "fee_per_pay",
    "deposited_total", "withdrawn_total", "withdrawn_onchain",
    "payout_pending", "pays", "liabilities", "backing")}
ANSWER = {"channel_id": CHANNEL, "onchain": 0, "status": "ok",
          "payments": {"sent": 0, "received": 0},
          "hub": {**HUB, "conserved": True, "solvent": True}}


class StubWorker:
    def __init__(self, name, sent):
        self.name = name
        self.sent = sent

    async def call(self, cmd, **kwargs):
        self.sent.append((self.name, cmd, kwargs))
        if cmd == "account-pay-many":
            return {"results": [{"ok": True} for _ in kwargs["requests"]]}
        return dict(ANSWER)

    async def forward(self, line, cmd):
        kwargs = json.loads(line)
        del kwargs["cmd"]
        self.sent.append((self.name, cmd, kwargs))
        return json.dumps({"ok": True, **ANSWER}).encode() + b"\n"


@pytest.fixture
def router():
    router = ShardedDaemon("hub", workers=2)
    router.sent = []
    router.workers = {name: StubWorker(name, router.sent)
                      for name in router.worker_names}
    router._channel_worker[CHANNEL] = router.worker_names[1]
    return router


def deposit_hex(keypair=CLIENT, nonce=1):
    return sign_request(AccountDeposit(keypair.public, 1_000, nonce),
                        keypair.private)


def announce_hex():
    """A well-formed signed message whose body is no account request."""
    body = ChannelAnnounce(channel_id="ab", origin="alice", peer="bob",
                           capacity=1, seq=1)
    return codec.encode(SignedMessage.create(body, CLIENT.private)).hex()


def sample(param):
    """A value that passes the parameter's declaration."""
    if param.name == "request":
        return deposit_hex()
    if param.name == "requests":
        return [deposit_hex()]
    if param.name == "channel_id":
        return CHANNEL
    if param.name == "peer":
        return "spoke"
    return {int: 1, float: 1.0, list: []}.get(param.type, "x")


def reached(router, request):
    """``"one"``, ``"every"`` or ``"refused"``: where a request went."""
    router.sent.clear()
    try:
        asyncio.run(router.handle(request))
    except CommandError as exc:
        assert exc.code == "bad_request", (request, exc)
        assert not router.sent
        return "refused"
    workers = {name for name, _, _ in router.sent}
    return "every" if workers == set(router.worker_names) else "one"


class TestEveryVerbIsPlaced:
    def test_each_verb_reaches_one_worker_every_worker_or_a_refusal(
            self, router):
        help_rows = {row["cmd"]: row["routing"] for row in
                     asyncio.run(router.handle({"cmd": "help"}))["commands"]}
        for spec in COMMANDS:
            if spec.name in ROUTER:
                assert help_rows[spec.name] == "router"
                continue
            # A routing hint is given wherever it is declared, except to
            # a pool verb, which must then reach every worker.
            request = {"cmd": spec.name, **{
                param.name: sample(param) for param in spec.params
                if param.required or (param.name in ("peer", "channel_id")
                                      and not spec.pool)}}
            outcome = reached(router, request)
            routing = help_rows[spec.name]
            if spec.name in REFUSED:
                expected, says = "refused", routing.startswith("refused")
            elif spec.pool:
                expected, says = "every", "every worker" in routing
            else:
                expected, says = "one", routing.startswith(("by ", "split"))
            assert (outcome, says) == (expected, True), (spec.name, routing)

    def test_pool_verbs_are_the_declared_ones(self):
        assert {spec.name for spec in COMMANDS if spec.pool} == POOL_VERBS

    def test_help_lists_both_tables(self, router):
        rows = asyncio.run(router.handle({"cmd": "help"}))["commands"]
        names = [row["cmd"] for row in rows]
        assert sorted(names) == names
        assert set(names) == {spec.name for spec in COMMANDS} | {
            spec.name for spec in ROUTER}

    def test_a_pool_verb_given_a_peer_reaches_its_owner(self, router):
        assert reached(router, {"cmd": "fault", "action": "heal",
                                "peer": "spoke"}) == "one"
        assert reached(router, {"cmd": "fault", "action": "crash"}) \
            == "every"

    def test_the_client_request_is_forwarded_not_the_coerced_one(
            self, router):
        asyncio.run(router.handle({"cmd": "open-channel", "peer": "spoke"}))
        [(_, cmd, kwargs)] = router.sent
        assert (cmd, kwargs) == ("open-channel", {"peer": "spoke"})

    def test_bad_parameters_are_refused_before_forwarding(self, router):
        for request, code in (
                ({"cmd": "frobnicate"}, "unknown_command"),
                ({"cmd": "pay", "channel_id": CHANNEL}, "bad_request"),
                ({"cmd": "health", "timeout": 1}, "bad_request"),
                ({"cmd": "pay", "channel_id": CHANNEL, "amount": "many"},
                 "bad_request")):
            with pytest.raises(CommandError) as excinfo:
                asyncio.run(router.handle(request))
            assert excinfo.value.code == code
        assert not router.sent


class TestOneAccountDecoder:
    """Router and daemon decode account requests with the same function,
    so a body that is no account request is ``bad_request`` in both, and
    a batch rejects such an item in place."""

    def test_router_refuses_a_signed_non_account_body(self, router):
        with pytest.raises(CommandError) as excinfo:
            asyncio.run(router.handle({"cmd": "account-pay",
                                       "request": announce_hex()}))
        assert excinfo.value.code == "bad_request"

    def test_router_batch_rejects_a_non_account_item_in_place(self, router):
        good = deposit_hex()
        result = asyncio.run(router.handle({
            "cmd": "account-pay-many",
            "requests": [good, announce_hex(), "not hex"]}))
        assert [r["ok"] for r in result["results"]] == [True, False, False]
        assert [r.get("code") for r in result["results"][1:]] \
            == ["bad_request", "bad_request"]
        assert (result["accepted"], result["rejected"]) == (1, 2)
        [(_, _, kwargs)] = router.sent
        assert kwargs == {"requests": [good]}

    def test_daemon_batch_rejects_a_bad_item_in_place(self):
        with obs.collecting():  # NodeDaemon installs its own registry
            daemon = NodeDaemon("hub", allocations={"hub": 500_000})
            daemon.node.create_deposit(50_000)
            result = asyncio.run(COMMANDS.dispatch(daemon, {
                "cmd": "account-pay-many",
                "requests": [deposit_hex(), "not hex", announce_hex(),
                             deposit_hex(PARTNER)]}))
        assert [r["ok"] for r in result["results"]] \
            == [True, False, False, True]
        assert [r["code"] for r in result["results"][1:3]] \
            == ["bad_request", "bad_request"]
        assert (result["accepted"], result["rejected"]) == (2, 2)
        assert daemon.node.program.hub.deposited_total == 2_000
