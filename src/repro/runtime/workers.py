"""Multi-core channel sharding: a worker pool behind one control port.

The pay hot path is CPU-bound (crypto + protocol logic in one Python
process), so one daemon saturates one core no matter how many channels
it hosts.  :class:`ShardedDaemon` spawns N full
:class:`~repro.runtime.daemon.NodeDaemon` workers (``<name>-w0`` …
``<name>-wN-1``) and forwards every control verb to the worker that owns
it.  A consistent-hash ring (:class:`~repro.workloads.assignment.HashRing`)
over the worker names assigns each remote peer — and with it every
channel to that peer, every deposit backing them, and every protocol
frame on them — to exactly one worker.  The router holds no enclave and
no channel state: it is a control-plane proxy plus two tables,
peer→worker from ``connect`` and channel→worker from ``open-channel``.

The router keeps no verb list of its own.  It validates each request
against the daemon's :data:`~repro.runtime.daemon.COMMANDS` and places it
by the parameters the verb declares, first match wins (DESIGN.md §11):

* ``request`` — a hub account, owned by ``ring.owner("account:" +
  <client pubkey hex>)``; the router decodes the signed envelope, not the
  signature.  Worker ledgers are independent, so a move to an account on
  another worker is refused with the stable code ``cross_shard``;
* ``requests`` — a batch of those, split per owner, merged in order;
* ``channel_id`` / ``peer`` — the worker that recorded the channel at
  ``open-channel``, else ``ring.owner(peer)``; channels never migrate;
* no routing parameter given and the verb declared ``pool=True`` — every
  worker, the answers merged where a merge exists (:attr:`MERGES`);
* anything else (``route``, ``pay-multihop``) is refused: a route starts
  at one named node, and a pool has N of them.

``ping``, ``help``, ``workers``, ``shard-map`` and ``shutdown`` are the
router's own (:data:`ROUTER`).  Every worker gets the router's ``--fund``
allocation verbatim, so it must list the worker names (``hub-w0=…``)
beside the other participants: genesis is minted from it identically in
every daemon of the network.
"""

from __future__ import annotations

import asyncio
import functools
import json
import logging
import subprocess
from typing import Any, Awaitable, Callable, Dict, List, Optional, Tuple

from repro.errors import ReproError
from repro.hub.client import decode_request
from repro.hub.messages import AccountPay, AccountWithdraw
from repro.runtime.control import AsyncControlClient, ControlError, \
    ControlServer, Reply
from repro.runtime.daemon import COMMANDS
from repro.runtime.launch import boot, free_port
from repro.runtime.registry import CommandError, CommandRegistry, \
    CommandSpec
from repro.workloads.assignment import HashRing

logger = logging.getLogger(__name__)

#: The router's own verbs; every other verb is a COMMANDS verb, forwarded.
ROUTER = CommandRegistry()

#: How every ``ok`` reply line of a ControlServer starts.
_OK = b'{"ok": true'


def sum_numbers(dicts: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Key-wise sum of the numeric values of several dicts."""
    total: Dict[str, Any] = {}
    for one in dicts:
        for key, value in one.items():
            if isinstance(value, (int, float)):
                total[key] = total.get(key, 0) + value
    return total


def merge_hubs(hubs: List[Dict[str, Any]]) -> Dict[str, Any]:
    """One hub ledger summary from per-worker ones: sums, the largest
    fee, and the conjunction of the conservation and solvency checks."""
    return {**sum_numbers(hubs),
            "fee_per_pay": max(hub["fee_per_pay"] for hub in hubs),
            "conserved": all(hub["conserved"] for hub in hubs),
            "solvent": all(hub["solvent"] for hub in hubs)}


class WorkerHandle:
    """One worker process plus its pipelined control link."""

    def __init__(self, name: str, process: subprocess.Popen, host: str,
                 port: int, control_port: int) -> None:
        self.name = name
        self.process = process
        self.host = host
        self.port = port
        self.control_port = control_port
        self.client: Optional[AsyncControlClient] = None
        self._dialling: Optional["asyncio.Future[None]"] = None
        self._tag = b', "worker": ' + json.dumps(name).encode()

    async def _link(self) -> AsyncControlClient:
        """The open link.  One a failed call closed is redialled, once
        however many calls wait, so a lost reply costs the calls then in
        flight, not the link."""
        if self.client is None or self.client.closed:
            if self._dialling is None:
                self._dialling = asyncio.ensure_future(self._dial())
            await asyncio.shield(self._dialling)
        return self.client

    async def _dial(self) -> None:
        try:
            self.client = await AsyncControlClient.connect(
                self.host, self.control_port)
        finally:
            self._dialling = None

    async def call(self, cmd: str, **kwargs: Any) -> Dict[str, Any]:
        """Send one command and return the worker's answer."""
        return await (await self._link()).call(cmd, **kwargs)

    def forward(self, line: bytes, cmd: str) -> Awaitable[bytes]:
        """Send a client's request line as it is; the answer is the
        worker's reply line, ``"worker"`` spliced into an ``ok`` one, an
        error passed through with the worker's code."""
        client = self.client
        if client is None or client.closed:
            return asyncio.ensure_future(self._dial_and_forward(line, cmd))
        reply = Reply()
        client.send(line, cmd).add_done_callback(
            functools.partial(self._splice, reply))
        return reply

    async def _dial_and_forward(self, line: bytes, cmd: str) -> bytes:
        await self._link()
        return await self.forward(line, cmd)

    def _splice(self, reply: Reply, answer: Reply) -> None:
        try:
            line = answer.result()
        except ControlError as exc:
            reply.settle(exc)
            return
        if line.startswith(_OK):
            line = _OK + self._tag + line[len(_OK):]
        reply.settle(line + b"\n")


class ShardedDaemon:
    """Control-plane router in front of a pool of worker daemons."""

    def __init__(
        self,
        name: str,
        host: str = "127.0.0.1",
        control_port: int = 0,
        allocations: Optional[Dict[str, int]] = None,
        workers: int = 2,
        state_dir: Optional[str] = None,
        trace: bool = False,
    ) -> None:
        if workers < 1:
            raise ReproError(f"worker count must be >= 1, got {workers}")
        self.name = name
        self.host = host
        self.control_port = control_port
        self.allocations = dict(allocations or {})
        self.state_dir = state_dir
        self.trace = trace
        self.worker_names = [f"{name}-w{index}" for index in range(workers)]
        self.ring = HashRing(self.worker_names)
        self.workers: Dict[str, WorkerHandle] = {}
        self._peer_worker: Dict[str, str] = {}
        self._channel_worker: Dict[str, str] = {}
        self.control = ControlServer(self.handle)
        self._shutdown = asyncio.Event()
        #: verb → (help text, forwarder): how each COMMANDS verb is placed.
        self._rules = {spec.name: self._rule(spec) for spec in COMMANDS
                      if spec.name not in ROUTER}

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    async def start(self) -> int:
        """Boot the pool and bind the control listener; returns the
        control port.

        Every worker is spawned before the first readiness probe, so the
        router is ready after its slowest worker, not after their sum.  A
        worker that never answers fails the start with every worker
        killed (:func:`~repro.runtime.launch.boot`)."""
        ports = {name: (free_port(), free_port())
                 for name in self.worker_names}
        # Blocking: nothing else runs on this loop before the control
        # listener is bound below.
        booted = boot(ports, self.allocations, host=self.host,
                      state_dir=self.state_dir, trace=self.trace)
        for name, (process, probe) in booted.items():
            # The router routes over an async client, which
            # WorkerHandle.call dials on first use.
            probe.close()
            self.workers[name] = WorkerHandle(name, process, self.host,
                                              *ports[name])
        try:
            self.control_port = await self.control.start(self.host,
                                                         self.control_port)
        except Exception:
            await self.stop()
            raise
        logger.info("%s: routing %d workers, control on %s:%d", self.name,
                    len(self.workers), self.host, self.control_port)
        return self.control_port

    async def stop(self) -> None:
        for handle in self.workers.values():
            try:
                await handle.call("shutdown")
            except (ControlError, OSError):
                pass
            if handle.client is not None:
                await handle.client.close()
            try:
                handle.process.wait(timeout=10)
            except subprocess.TimeoutExpired:
                handle.process.kill()
                handle.process.wait()
        self.workers.clear()
        await self.control.stop()

    async def run_until_shutdown(self) -> None:
        await self._shutdown.wait()
        await self.stop()

    # ------------------------------------------------------------------
    # Routing: one rule per declaration, one forwarder per rule
    # ------------------------------------------------------------------

    def handle(self, request: Dict[str, Any],
               line: bytes = b"") -> Awaitable[Any]:
        """Answer a router verb, or validate a daemon verb and forward it.

        What is forwarded is what the client sent, not the coerced
        arguments: those name every omitted optional parameter as
        ``None``, which a worker would refuse.  A verb placed on one
        worker is forwarded as the request ``line`` itself (the control
        server passes it; it is encoded when only the dict is given) and
        answered with the worker's reply line, through no Task."""
        name = request.get("cmd")
        if name in ROUTER:
            return ROUTER.dispatch(self, request)
        spec, _ = COMMANDS.validate(name, request)
        _, forward = self._rules[name]
        return forward(spec, request,
                       line or json.dumps(request).encode() + b"\n")

    def _rule(self, spec: CommandSpec) -> Tuple[str, Callable[..., Any]]:
        """How the router places ``spec``, read off its declaration: the
        one resolver :meth:`handle` forwards by and ``help`` prints."""
        declared = {param.name for param in spec.params}
        if "request" in declared:
            return "by account key", self._to_owner
        if "requests" in declared:
            return "split per account owner, merged", self._split_by_account
        keys = [label for key, label in (("channel_id", "channel"),
                                         ("peer", "peer"))
                if key in declared]
        if keys:
            text = "by " + ", else ".join(keys)
            return (text + ", else every worker" if spec.pool else text,
                    self._to_owner)
        if spec.pool:
            return ("every worker, merged" if spec.name in self.MERGES
                    else "every worker"), self._to_every_worker
        return "refused: a route starts at one node", self._refuse

    def _owner(self, request: Dict[str, Any]) -> Optional[WorkerHandle]:
        """The worker a request's routing parameter names, or ``None``
        when it gives none."""
        if "request" in request:
            return self._route_account_request(
                decode_request(request["request"]).body)
        channel_id = request.get("channel_id")
        owner = self._channel_worker.get(channel_id)
        if owner is None:
            peer = request.get("peer")
            if peer:
                owner = self.ring.owner(peer)
            elif channel_id:
                raise CommandError(
                    f"no worker owns channel {channel_id!r} (was it opened "
                    "through this router?)", code="no_such_channel")
            else:
                return None
        return self.workers[owner]

    def _worker_for_account(self, key: bytes) -> WorkerHandle:
        # Namespaced so account placement is independent of peer
        # placement even when a pubkey hex collides with a peer name.
        return self.workers[self.ring.owner(f"account:{key.hex()}")]

    def _route_account_request(self, body: Any) -> WorkerHandle:
        """The worker owning ``body``'s account.

        Both kinds of internal account-to-account move — a pay and an
        account-route withdraw — land on the payer's worker, whose ledger
        does not hold the other side; one that crosses workers is refused
        with the stable ``cross_shard`` code rather than the worker's
        misleading ``no_such_account``."""
        worker = self._worker_for_account(body.account.to_bytes())
        other = None
        if isinstance(body, AccountPay):
            other = body.recipient.to_bytes()
        elif isinstance(body, AccountWithdraw) and body.route == "account":
            try:
                other = bytes.fromhex(str(body.destination))
            except ValueError:
                pass  # the enclave rejects it with its own code
        if other is not None:
            other_worker = self._worker_for_account(other)
            if other_worker is not worker:
                raise CommandError(
                    f"account {other.hex()[:16]}… lives on "
                    f"{other_worker.name}, payer on {worker.name}; "
                    "cross-shard account moves are not supported — pair "
                    "accounts within a shard or withdraw over a channel",
                    code="cross_shard")
        return worker

    def _to_owner(self, spec: CommandSpec, request: Dict[str, Any],
                  line: bytes) -> Awaitable[Any]:
        owner = self._owner(request)
        if owner is None:
            if spec.pool:
                return self._to_every_worker(spec, request, line)
            raise CommandError(
                f"{spec.name!r} on a sharded daemon needs peer= or "
                "channel_id= to pick the owning worker", code="bad_request")
        if spec.name in ("connect", "open-channel"):
            return self._call_owner(owner, spec, request)
        return owner.forward(line, spec.name)

    async def _call_owner(self, owner: WorkerHandle, spec: CommandSpec,
                          request: Dict[str, Any]) -> Dict[str, Any]:
        response = await owner.call(**request)
        # Ownership is recorded where it is made.
        if spec.name == "connect":
            self._peer_worker[request["peer"]] = owner.name
        elif spec.name == "open-channel":
            self._channel_worker[response["channel_id"]] = owner.name
        return {**response, "worker": owner.name}

    async def _split_by_account(self, spec: CommandSpec,
                                request: Dict[str, Any],
                                _line: bytes) -> Dict[str, Any]:
        """Split a batch per owning worker, fan out, merge in order; an
        item that cannot be placed is rejected in place."""
        items = request["requests"]
        if not isinstance(items, list) or not items:
            raise CommandError(
                f"{spec.name} requires a non-empty 'requests' list",
                code="bad_request")
        merged: List[Optional[Dict[str, Any]]] = [None] * len(items)
        per_worker: Dict[str, List[int]] = {}
        for index, item in enumerate(items):
            try:
                owner = self._route_account_request(decode_request(item).body)
            except CommandError as exc:
                merged[index] = {"ok": False, "code": exc.code,
                                 "error": str(exc)}
                continue
            per_worker.setdefault(owner.name, []).append(index)
        responses = await self._gather({
            name: self.workers[name].call(
                spec.name, requests=[items[index] for index in indices])
            for name, indices in per_worker.items()})
        for name, response in responses.items():
            for index, result in zip(per_worker[name], response["results"]):
                merged[index] = result
        accepted = sum(1 for result in merged if result["ok"])
        return {"results": merged, "accepted": accepted,
                "rejected": len(merged) - accepted}

    async def _to_every_worker(self, spec: CommandSpec,
                               request: Dict[str, Any],
                               _line: bytes) -> Dict[str, Any]:
        responses = await self._gather({
            name: worker.call(**request)
            for name, worker in self.workers.items()})
        merge = self.MERGES.get(spec.name)
        return merge(self, responses) if merge else {"workers": responses}

    def _refuse(self, spec: CommandSpec, request: Dict[str, Any],
                _line: bytes) -> Dict[str, Any]:
        raise CommandError(
            f"{spec.name!r} does not run on a sharded daemon: a route "
            f"starts at one named node and this pool has "
            f"{len(self.worker_names)}; send it to a worker's own control "
            "port (see 'workers')", code="bad_request")

    @staticmethod
    async def _gather(calls: Dict[str, Awaitable[Dict[str, Any]]]
                      ) -> Dict[str, Dict[str, Any]]:
        """Await one call per worker concurrently; a failure raises."""
        results = await asyncio.gather(*calls.values(),
                                       return_exceptions=True)
        for result in results:
            if isinstance(result, BaseException):
                raise result
        return dict(zip(calls, results))

    # ------------------------------------------------------------------
    # Pool-wide answers merged into one
    # ------------------------------------------------------------------

    def _merge_balance(self, responses: Dict[str, Any]) -> Dict[str, Any]:
        return {"name": self.name,
                "onchain": sum(r["onchain"] for r in responses.values()),
                "workers": responses}

    def _merge_metrics(self, responses: Dict[str, Any]) -> Dict[str, Any]:
        counters = sum_numbers([r.get("metrics", {}).get("counters", {})
                                for r in responses.values()])
        return {"metrics": {"counters": counters}, "workers": responses}

    def _merge_health(self, responses: Dict[str, Any]) -> Dict[str, Any]:
        status = "ok" if all(r.get("status") == "ok"
                             for r in responses.values()) else "degraded"
        return {"node": self.name, "status": status, "workers": responses}

    def _merge_account_stats(self,
                             responses: Dict[str, Any]) -> Dict[str, Any]:
        return {"name": self.name,
                "hub": merge_hubs([r["hub"] for r in responses.values()]),
                "workers": responses}

    def _merge_stats(self, responses: Dict[str, Any]) -> Dict[str, Any]:
        return {"name": self.name,
                "payments": sum_numbers([r["payments"]
                                         for r in responses.values()]),
                "channels": len(self._channel_worker),
                "peers": len(self._peer_worker),
                "workers": responses}

    def _merge_audit(self, responses: Dict[str, Any]) -> Dict[str, Any]:
        """One fleet-facing digest from per-worker atomic snapshots: a
        payment lives inside the worker owning its channel, so the union
        of the disjoint channel maps and the summed totals conserve what
        each slice does."""
        workers = list(responses.values())
        # A sum of per-worker seqs is monotonic across aggregate scrapes
        # as long as each worker's counter is.
        merged: Dict[str, Any] = {
            key: sum(r.get(key, 0) for r in workers)
            for key in ("seq", "free_deposit_value", "payments_sent",
                        "payments_received", "outbox_pending", "onchain")}
        merged.update(
            name=self.name,
            channels={cid: channel for r in workers
                      for cid, channel in r.get("channels", {}).items()},
            chain_height=max(r.get("chain_height", 0) for r in workers),
            mempool=max(r.get("mempool", 0) for r in workers),
            transport=sum_numbers([r.get("transport", {}) for r in workers]),
            workers=responses)
        hubs = [r["hub"] for r in workers if "hub" in r]
        if hubs:
            merged["hub"] = merge_hubs(hubs)
        return merged

    #: verb → merge of the per-worker answers into one pool-wide answer.
    MERGES: Dict[str, Callable[..., Dict[str, Any]]] = {
        "balance": _merge_balance,
        "metrics": _merge_metrics,
        "health": _merge_health,
        "account-stats": _merge_account_stats,
        "stats": _merge_stats,
        "audit-snapshot": _merge_audit,
    }

    # ------------------------------------------------------------------
    # The router's own verbs
    # ------------------------------------------------------------------

    @ROUTER.command("ping", doc="Liveness check; returns the pool size.")
    async def _cmd_ping(self) -> Dict[str, Any]:
        return {"name": self.name, "sharded": True,
                "workers": len(self.workers)}

    @ROUTER.command("help", doc="Every verb, its signature, and where the "
                                "router sends it.")
    async def _cmd_help(self) -> Dict[str, Any]:
        rows = [{**row, "routing": "router"} for row in ROUTER.help_table()]
        rows += [{**row, "routing": self._rules[row["cmd"]][0]}
                 for row in COMMANDS.help_table() if row["cmd"] in self._rules]
        return {"commands": sorted(rows, key=lambda row: row["cmd"])}

    @ROUTER.command("workers", doc="Each worker's name, ports and pid.")
    def worker_table(self) -> Dict[str, Any]:
        return {"workers": [
            {"name": handle.name, "port": handle.port,
             "control_port": handle.control_port,
             "pid": handle.process.pid}
            for handle in self.workers.values()]}

    @ROUTER.command("shard-map", doc="The hash ring and the recorded peer "
                                     "and channel owners.")
    async def _cmd_shard_map(self) -> Dict[str, Any]:
        return {"ring": self.ring.nodes,
                "peers": dict(self._peer_worker),
                "channels": dict(self._channel_worker)}

    @ROUTER.command("shutdown", doc="Stop every worker, then the router.")
    async def _cmd_shutdown(self) -> Dict[str, Any]:
        self._shutdown.set()
        return {"stopping": True, "workers": len(self.workers)}


async def serve_sharded(name: str, host: str, control_port: int,
                        allocations: Dict[str, int], workers: int,
                        state_dir: Optional[str] = None,
                        announce: bool = True,
                        trace: bool = False) -> None:
    """Run a sharded daemon until its control API receives ``shutdown``."""
    router = ShardedDaemon(name, host=host, control_port=control_port,
                           allocations=allocations, workers=workers,
                           state_dir=state_dir, trace=trace)
    ctrl_port = await router.start()
    if announce:
        print(json.dumps({"name": name, "host": host,
                          "control_port": ctrl_port,
                          **router.worker_table()}), flush=True)
    await router.run_until_shutdown()
