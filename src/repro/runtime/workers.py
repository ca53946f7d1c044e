"""Multi-core channel sharding: a worker pool behind one control port.

The pay hot path is CPU-bound (crypto + protocol logic in one Python
process), so one daemon saturates one core no matter how many channels
it hosts.  :class:`ShardedDaemon` splits the hosting across OS
processes: it spawns N full :class:`~repro.runtime.daemon.NodeDaemon`
workers (``<name>-w0`` … ``<name>-wN-1``) and routes every control verb
to the worker that owns it.  Ownership is by *peer*: a consistent-hash
ring (:class:`~repro.workloads.assignment.HashRing`) over the worker
names assigns each remote peer — and therefore every channel to that
peer, every deposit backing those channels, and every protocol frame on
them — to exactly one worker.  The router itself holds no enclave and
no channel state; it is a pure control-plane proxy plus two routing
tables (peer→worker from ``connect``, channel→worker from
``open-channel``).

Ownership rules (also documented in DESIGN.md §11):

* a peer is owned by ``ring.owner(peer)``, fixed for the pool's
  lifetime — channels never migrate between workers;
* every verb scoped to a channel executes on the owning worker, so a
  channel's enclave state lives in exactly one process;
* pool-wide verbs (``fastpath``, ``batch-window``, ``mine``,
  ``eject-all``, ``reclaim``, ``hub-fee``) broadcast to all workers;
* read-only verbs (``stats``, ``metrics``, ``balance``, ``health``,
  ``account-stats``) aggregate across workers;
* hub *accounts* (``account-open``, ``account-pay``, …) are owned by
  ``ring.owner("account:" + <client pubkey hex>)`` — the router decodes
  the signed request envelope (not the signature) just far enough to
  read the account key.  Each worker's ledger is independent, so a pay
  whose recipient lives on a different shard is rejected with the
  stable code ``cross_shard``; batches split per owner and merge back
  in submission order.

Genesis determinism: every worker is started with the router's
``--fund`` allocation verbatim, so the allocation handed to a sharded
daemon must already list the worker names (``hub-w0=…``) alongside the
external participants — the same rule that already applies to every
other daemon in the network.
"""

from __future__ import annotations

import asyncio
import json
import logging
import subprocess
from typing import Any, Dict, List, Optional

from repro.errors import ReproError
from repro.hub.client import decode_request
from repro.hub.messages import AccountPay, AccountWithdraw
from repro.runtime.control import AsyncControlClient, \
    CONTROL_LINE_LIMIT, ControlError, wait_for_control
from repro.runtime.launch import free_port, spawn_daemon
from repro.runtime.registry import CommandError, code_for_exception
from repro.workloads.assignment import HashRing

logger = logging.getLogger(__name__)


class WorkerHandle:
    """One worker process plus its async control client."""

    def __init__(self, name: str, process: subprocess.Popen,
                 port: int, control_port: int) -> None:
        self.name = name
        self.process = process
        self.port = port
        self.control_port = control_port
        self.client: Optional[AsyncControlClient] = None
        # The daemon serves each control connection serially, so calls
        # over one client must not interleave; the lock keeps concurrent
        # router connections from corrupting the request/response pairing.
        self.lock = asyncio.Lock()

    async def call(self, cmd: str, **kwargs: Any) -> Dict[str, Any]:
        assert self.client is not None
        async with self.lock:
            return await self.client.call(cmd, **kwargs)


class ShardedDaemon:
    """Control-plane router in front of a pool of worker daemons."""

    #: Routed by the peer name in the request (consistent hash).
    BY_PEER = frozenset({"connect", "echo"})
    #: Routed by the channel id in the request (recorded at open).
    BY_CHANNEL = frozenset({"pay", "settle", "channel"})
    #: Routed by the client account key inside the signed request.
    BY_ACCOUNT = frozenset({"account-open", "account-pay",
                            "account-withdraw", "account-query"})
    #: Fan out to every worker; per-worker responses returned verbatim.
    BROADCAST = frozenset({"batch-window", "fastpath", "mine", "eject-all",
                           "reclaim", "hub-fee"})
    #: Fan out and merge into one pool-wide answer.
    AGGREGATE = frozenset({"stats", "metrics", "balance", "health",
                           "account-stats", "audit-snapshot"})

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
        self.worker_count = workers
        self.state_dir = state_dir
        self.trace = trace
        self.worker_names = [f"{name}-w{index}" for index in range(workers)]
        self.ring = HashRing(self.worker_names)
        self.workers: Dict[str, WorkerHandle] = {}
        self._peer_worker: Dict[str, str] = {}
        self._channel_worker: Dict[str, str] = {}
        self._control_server: Optional[asyncio.AbstractServer] = None
        self._connections: set = set()
        self._shutdown = asyncio.Event()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    async def start(self) -> int:
        """Spawn the pool and bind the control listener; returns the
        control port."""
        try:
            for worker_name in self.worker_names:
                port, control_port = free_port(), free_port()
                process = spawn_daemon(
                    worker_name, port, control_port, self.allocations,
                    host=self.host, state_dir=self.state_dir,
                    extra_args=("--trace",) if self.trace else (),
                )
                handle = WorkerHandle(worker_name, process, port,
                                      control_port)
                self.workers[worker_name] = handle
                # Blocking readiness probe, then the long-lived async
                # client the router actually routes over.
                wait_for_control(self.host, control_port).close()
                handle.client = await AsyncControlClient.connect(
                    self.host, control_port)
        except Exception:
            await self.stop()
            raise
        self._control_server = await asyncio.start_server(
            self._serve_control, self.host, self.control_port,
            limit=CONTROL_LINE_LIMIT)
        self.control_port = \
            self._control_server.sockets[0].getsockname()[1]
        logger.info("%s: routing %d workers, control on %s:%d", self.name,
                    len(self.workers), self.host, self.control_port)
        return self.control_port

    async def stop(self) -> None:
        for handle in self.workers.values():
            if handle.client is not None:
                try:
                    await handle.call("shutdown")
                except (ControlError, OSError):
                    pass
                await handle.client.close()
            try:
                handle.process.wait(timeout=10)
            except subprocess.TimeoutExpired:
                handle.process.kill()
                handle.process.wait()
        self.workers.clear()
        if self._control_server is not None:
            self._control_server.close()
            await self._control_server.wait_closed()
            self._control_server = None
        # wait_closed() only covers the listener: established control
        # connections keep their sockets, and a client blocked on a reply
        # would sit in readline() until its own timeout.  Close them so
        # clients see EOF immediately.
        for writer in list(self._connections):
            writer.close()
        self._connections.clear()

    async def run_until_shutdown(self) -> None:
        await self._shutdown.wait()
        await self.stop()

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------

    def _worker_for_peer(self, peer: str) -> WorkerHandle:
        owner = self._peer_worker.get(peer) or self.ring.owner(peer)
        return self.workers[owner]

    def _worker_for_channel(self, channel_id: str) -> WorkerHandle:
        owner = self._channel_worker.get(channel_id)
        if owner is None:
            raise CommandError(
                f"no worker owns channel {channel_id!r} (was it opened "
                "through this router?)", code="no_such_channel")
        return self.workers[owner]

    def _worker_for_account(self, account_hex: str) -> WorkerHandle:
        # Namespaced so account placement is independent of peer
        # placement even when a pubkey hex collides with a peer name.
        return self.workers[self.ring.owner(f"account:{account_hex}")]

    @staticmethod
    def _decode_account(request_hex: Any):
        """Decode a signed account request far enough to route it.

        The router reads only the envelope (account key, and recipient
        for pays); signature and nonce verification stay inside the
        owning worker's enclave."""
        try:
            signed = decode_request(str(request_hex))
        except Exception as exc:  # noqa: BLE001 — any decode failure
            raise CommandError(
                f"undecodable account request: {exc}",
                code="bad_request") from None
        return signed.body

    def _route_account_request(self, cmd: str,
                               body: Any) -> WorkerHandle:
        account_hex = body.account.to_bytes().hex()
        worker = self._worker_for_account(account_hex)
        # Both kinds of internal account-to-account move — a pay and an
        # account-route withdraw — land on the payer's shard, whose
        # ledger does not hold the other side; refuse with the stable
        # ``cross_shard`` code rather than letting the worker report a
        # misleading ``no_such_account``.
        other_hex, what = None, ""
        if isinstance(body, AccountPay):
            other_hex = body.recipient.to_bytes().hex()
            what = "recipient account"
        elif isinstance(body, AccountWithdraw) and body.route == "account":
            try:
                other_hex = bytes.fromhex(str(body.destination)).hex()
            except ValueError:
                other_hex = None  # the enclave rejects it with its own code
            what = "destination account"
        if other_hex is not None:
            other_worker = self._worker_for_account(other_hex)
            if other_worker.name != worker.name:
                raise CommandError(
                    f"{what} {other_hex[:16]}… lives on "
                    f"{other_worker.name}, payer on {worker.name}; "
                    "cross-shard account moves are not supported — pair "
                    "accounts within a shard or withdraw over a channel",
                    code="cross_shard")
        return worker

    async def _account_pay_many(
            self, kwargs: Dict[str, Any]) -> Dict[str, Any]:
        """Split a batch per owning worker, fan out, merge in order."""
        requests = kwargs.get("requests")
        if not isinstance(requests, list) or not requests:
            raise CommandError(
                "account-pay-many requires a non-empty 'requests' list",
                code="bad_request")
        merged: List[Optional[Dict[str, Any]]] = [None] * len(requests)
        per_worker: Dict[str, List[tuple]] = {}
        for index, request_hex in enumerate(requests):
            try:
                body = self._decode_account(request_hex)
                worker = self._route_account_request(
                    "account-pay" if isinstance(body, AccountPay)
                    else "account-batch", body)
            except CommandError as exc:
                merged[index] = {"ok": False, "code": exc.code,
                                 "error": str(exc)}
                continue
            per_worker.setdefault(worker.name, []).append(
                (index, request_hex))
        names = list(per_worker)
        responses = await asyncio.gather(
            *(self.workers[name].call(
                "account-pay-many",
                requests=[hexes for _, hexes in per_worker[name]])
              for name in names),
            return_exceptions=True)
        for name, response in zip(names, responses):
            if isinstance(response, BaseException):
                raise response
            for (index, _), result in zip(per_worker[name],
                                          response["results"]):
                merged[index] = result
        accepted = sum(1 for r in merged if r and r.get("ok"))
        return {"results": merged, "accepted": accepted,
                "rejected": len(merged) - accepted}

    def _resolve_worker(self, cmd: str,
                        kwargs: Dict[str, Any]) -> WorkerHandle:
        """Pick the owning worker for a peer-/channel-scoped verb."""
        channel_id = kwargs.get("channel_id")
        peer = kwargs.get("peer")
        if cmd in self.BY_CHANNEL or (cmd == "approve-associate"
                                      and channel_id in self._channel_worker):
            if not channel_id:
                raise CommandError(f"{cmd!r} requires channel_id",
                                   code="bad_request")
            return self._worker_for_channel(str(channel_id))
        if not peer:
            raise CommandError(
                f"{cmd!r} on a sharded daemon needs peer= (or channel_id=) "
                "to pick the owning worker", code="bad_request")
        return self._worker_for_peer(str(peer))

    async def _broadcast(self, cmd: str,
                         kwargs: Dict[str, Any]) -> Dict[str, Any]:
        names = list(self.workers)
        results = await asyncio.gather(
            *(self.workers[name].call(cmd, **kwargs) for name in names),
            return_exceptions=True)
        responses: Dict[str, Any] = {}
        for name, result in zip(names, results):
            if isinstance(result, BaseException):
                raise result
            responses[name] = result
        return responses

    # ------------------------------------------------------------------
    # Command handling
    # ------------------------------------------------------------------

    async def handle(self, request: Dict[str, Any]) -> Dict[str, Any]:
        kwargs = dict(request)
        cmd = kwargs.pop("cmd", None)
        if not isinstance(cmd, str) or not cmd:
            raise CommandError("request needs a 'cmd' string",
                               code="bad_request")

        if cmd == "ping":
            return {"name": self.name, "sharded": True,
                    "workers": len(self.workers)}
        if cmd == "workers":
            return {"workers": [
                {"name": handle.name, "port": handle.port,
                 "control_port": handle.control_port,
                 "pid": handle.process.pid}
                for handle in self.workers.values()]}
        if cmd == "shard-map":
            return {"ring": self.ring.nodes,
                    "peers": dict(self._peer_worker),
                    "channels": dict(self._channel_worker)}
        if cmd == "help":
            return {"commands": self._help_table()}
        if cmd == "shutdown":
            self._shutdown.set()
            return {"stopping": True, "workers": len(self.workers)}

        if cmd == "connect":
            peer = str(kwargs.get("peer", ""))
            worker = self._worker_for_peer(peer)
            response = await worker.call(cmd, **kwargs)
            self._peer_worker[peer] = worker.name
            return {**response, "worker": worker.name}
        if cmd == "open-channel":
            peer = str(kwargs.get("peer", ""))
            worker = self._worker_for_peer(peer)
            response = await worker.call(cmd, **kwargs)
            self._channel_worker[response["channel_id"]] = worker.name
            return {**response, "worker": worker.name}
        if cmd == "deposit":
            # `deposit` has no routing key of its own: the caller says
            # which channel (or peer) the deposit is destined for and the
            # hint is stripped before forwarding — the worker's registry
            # would reject the extra parameter.
            channel_id = kwargs.pop("channel_id", None)
            peer = kwargs.pop("peer", None)
            if channel_id:
                worker = self._worker_for_channel(str(channel_id))
            elif peer:
                worker = self._worker_for_peer(str(peer))
            else:
                raise CommandError(
                    "deposit on a sharded daemon needs peer= or "
                    "channel_id= to pick the owning worker",
                    code="bad_request")
            response = await worker.call(cmd, **kwargs)
            return {**response, "worker": worker.name}
        if cmd == "fault" and kwargs.get("peer") in self._peer_worker:
            worker = self._worker_for_peer(str(kwargs["peer"]))
            return await worker.call(cmd, **kwargs)

        if cmd in self.BY_ACCOUNT:
            body = self._decode_account(kwargs.get("request", ""))
            worker = self._route_account_request(cmd, body)
            response = await worker.call(cmd, **kwargs)
            return {**response, "worker": worker.name}
        if cmd == "account-pay-many":
            return await self._account_pay_many(kwargs)

        if cmd in self.BY_PEER or cmd in self.BY_CHANNEL \
                or cmd == "approve-associate":
            worker = self._resolve_worker(cmd, kwargs)
            response = await worker.call(cmd, **kwargs)
            return {**response, "worker": worker.name}
        if cmd in self.BROADCAST:
            return {"workers": await self._broadcast(cmd, kwargs)}
        if cmd in self.AGGREGATE:
            responses = await self._broadcast(cmd, kwargs)
            return self._aggregate(cmd, responses)
        raise CommandError(
            f"unknown command {cmd!r} (sharded daemon; see 'help')",
            code="unknown_command")

    def _aggregate(self, cmd: str,
                   responses: Dict[str, Any]) -> Dict[str, Any]:
        if cmd == "balance":
            return {"name": self.name,
                    "onchain": sum(r["onchain"] for r in responses.values()),
                    "workers": responses}
        if cmd == "metrics":
            merged: Dict[str, float] = {}
            for response in responses.values():
                counters = response.get("metrics", {}).get("counters", {})
                for key, value in counters.items():
                    if isinstance(value, (int, float)):
                        merged[key] = merged.get(key, 0) + value
            return {"metrics": {"counters": merged}, "workers": responses}
        if cmd == "health":
            status = "ok" if all(r.get("status") == "ok"
                                 for r in responses.values()) else "degraded"
            return {"node": self.name, "status": status,
                    "workers": responses}
        if cmd == "account-stats":
            summed = {}
            for key in ("accounts", "total_balance", "fee_bucket",
                        "deposited_total", "withdrawn_total",
                        "withdrawn_onchain", "payout_pending", "pays",
                        "liabilities", "backing"):
                summed[key] = sum(r["hub"][key] for r in responses.values())
            summed["fee_per_pay"] = max(
                r["hub"]["fee_per_pay"] for r in responses.values())
            summed["conserved"] = all(r["hub"]["conserved"]
                                      for r in responses.values())
            summed["solvent"] = all(r["hub"]["solvent"]
                                    for r in responses.values())
            return {"name": self.name, "hub": summed, "workers": responses}
        if cmd == "stats":
            sent = sum(r["payments"]["sent"] for r in responses.values())
            received = sum(r["payments"]["received"]
                           for r in responses.values())
            return {"name": self.name,
                    "payments": {"sent": sent, "received": received},
                    "channels": len(self._channel_worker),
                    "peers": len(self._peer_worker),
                    "workers": responses}
        if cmd == "audit-snapshot":
            return self._aggregate_audit(responses)
        return {"workers": responses}

    def _aggregate_audit(self, responses: Dict[str, Any]) -> Dict[str, Any]:
        """Merge per-worker audit snapshots into one fleet-facing digest.

        Each worker snapshot is individually atomic; a payment lives
        entirely inside the worker owning its channel, so the merged
        channel map (ownership is disjoint) and summed totals preserve
        the per-slice conservation guarantees — the cross-worker skew
        is the same benign skew the auditor already absorbs between
        daemons."""
        workers = list(responses.values())
        channels: Dict[str, Any] = {}
        for response in workers:
            channels.update(response.get("channels", {}))
        merged: Dict[str, Any] = {
            "name": self.name,
            # Sum of per-worker seqs: monotonic across aggregate scrapes
            # as long as each worker's counter is.
            "seq": sum(r.get("seq", 0) for r in workers),
            "channels": channels,
            "free_deposit_value": sum(
                r.get("free_deposit_value", 0) for r in workers),
            "payments_sent": sum(r.get("payments_sent", 0)
                                 for r in workers),
            "payments_received": sum(r.get("payments_received", 0)
                                     for r in workers),
            "outbox_pending": sum(r.get("outbox_pending", 0)
                                  for r in workers),
            "onchain": sum(r.get("onchain", 0) for r in workers),
            "chain_height": max(r.get("chain_height", 0) for r in workers),
            "mempool": max(r.get("mempool", 0) for r in workers),
            "transport": {
                key: sum(r.get("transport", {}).get(key, 0)
                         for r in workers)
                for key in ("peers", "disconnected", "queued",
                            "reconnects", "backpressure_waits",
                            "drops_protocol", "drops_control")
            },
            "workers": responses,
        }
        hubs = [r["hub"] for r in workers if "hub" in r]
        if hubs:
            hub: Dict[str, Any] = {
                key: sum(h[key] for h in hubs)
                for key in ("accounts", "total_balance", "fee_bucket",
                            "deposited_total", "withdrawn_total",
                            "withdrawn_onchain", "payout_pending",
                            "pays", "liabilities", "backing")
            }
            hub["fee_per_pay"] = max(h["fee_per_pay"] for h in hubs)
            hub["conserved"] = all(h["conserved"] for h in hubs)
            hub["solvent"] = all(h["solvent"] for h in hubs)
            merged["hub"] = hub
        return merged

    def _help_table(self) -> List[Dict[str, str]]:
        rows = [
            {"cmd": "ping", "routing": "router"},
            {"cmd": "workers", "routing": "router"},
            {"cmd": "shard-map", "routing": "router"},
            {"cmd": "shutdown", "routing": "router + broadcast"},
            {"cmd": "deposit", "routing": "by peer=/channel_id= hint"},
            {"cmd": "approve-associate", "routing": "by channel, else peer"},
            {"cmd": "fault", "routing": "by peer, else broadcast"},
        ]
        rows += [{"cmd": cmd, "routing": "by peer (consistent hash)"}
                 for cmd in sorted(self.BY_PEER | {"open-channel"})]
        rows += [{"cmd": cmd,
                  "routing": "by account key (consistent hash)"}
                 for cmd in sorted(self.BY_ACCOUNT)]
        rows.append({"cmd": "account-pay-many",
                     "routing": "split per owning worker, merged"})
        rows += [{"cmd": cmd, "routing": "by channel"}
                 for cmd in sorted(self.BY_CHANNEL)]
        rows += [{"cmd": cmd, "routing": "broadcast"}
                 for cmd in sorted(self.BROADCAST)]
        rows += [{"cmd": cmd, "routing": "aggregate"}
                 for cmd in sorted(self.AGGREGATE)]
        return rows

    # ------------------------------------------------------------------
    # Control server — the same line-JSON protocol the workers speak
    # ------------------------------------------------------------------

    async def _serve_control(self, reader: asyncio.StreamReader,
                             writer: asyncio.StreamWriter) -> None:
        self._connections.add(writer)
        try:
            while True:
                line = await reader.readline()
                if not line:
                    break
                try:
                    try:
                        request = json.loads(line)
                    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
                        raise CommandError(
                            f"request is not valid JSON: {exc}",
                            code="bad_request") from None
                    if not isinstance(request, dict):
                        raise CommandError("request must be a JSON object",
                                           code="bad_request")
                    result = await self.handle(request)
                    response = {"ok": True, **result}
                except ControlError as exc:
                    # A worker rejected the forwarded command; relay its
                    # stable code instead of wrapping it in proxy noise.
                    response = {"ok": False, "code": exc.code,
                                "error": str(exc)}
                except Exception as exc:  # noqa: BLE001 — report, don't die
                    response = {"ok": False,
                                "code": code_for_exception(exc),
                                "error": f"{type(exc).__name__}: {exc}"}
                writer.write(json.dumps(response).encode() + b"\n")
                await writer.drain()
        except asyncio.CancelledError:
            return
        except (ConnectionResetError, asyncio.IncompleteReadError):
            pass
        finally:
            self._connections.discard(writer)
            try:
                writer.close()
            except RuntimeError:
                # The event loop is already closed — nothing to flush; the
                # socket dies with the process.  Raising here would only
                # surface as an unraisable warning from the GC finalizer.
                pass


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
        print(json.dumps({
            "name": name, "host": host, "control_port": ctrl_port,
            "workers": [{"name": handle.name, "port": handle.port,
                         "control_port": handle.control_port}
                        for handle in router.workers.values()],
        }), flush=True)
    await router.run_until_shutdown()
