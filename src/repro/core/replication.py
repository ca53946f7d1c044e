"""Force-freeze chain replication — paper Algorithm 3 and §6.

Traditional chain replication lets clients read from any backup.  Applied
naively to TEEs that would enable roll-back attacks: read an old state from
a backup, keep paying via the primary, then settle at the old state.
Teechain's *force-freeze* variant closes this: **any read from a backup
breaks the chain** — every member freezes at the current state, future
updates are refused, and the only remaining operations are settling
channels and releasing deposits.

:class:`CommitteeMemberProgram` is the enclave program run by backups; it

* applies the primary's updates: a full state, or — once it holds one —
  a delta carrying only the entries changed since the last update, and
  of a channel or deposit it already holds only the fields that changed;
* refuses non-monotonic state versions (in-chain rollback protection);
* freezes the whole chain on any state read;
* holds its *own* deposit keys for m-of-n committee deposits and co-signs
  spends **only** when the replicated state vouches for the unsigned
  transaction — a channel's settlement at its current balances, a
  multi-hop candidate, or a free deposit's release (see
  :mod:`repro.core.committee`) — the defence against a compromised
  primary.

:class:`ReplicationChain` is the host-side wiring: it installs the
primary's replication hook and propagates updates down the member list,
blocking (synchronously, in direct mode) until the tail acknowledges —
Alg. 3 line 24's "block until recv ack".  Wide-area replication *timing*
is modelled by the benchmark harness on the simulated clock
(``repro.bench.models``), which uses the chain's RTT sum.
"""

from __future__ import annotations

import pickle
from functools import reduce
from typing import Any, Dict, List, Optional, Set

from repro.blockchain.transaction import Transaction
from repro.core.channel_base import (
    CANDIDATES,
    ChannelProtocol,
    StateDelta,
    current_settlement_txid,
    replication_delta,
    replication_state,
)
from repro.core.journal import DELETED
from repro.core.settlement import local_key_provider, sign_settlement
from repro.core.settlement import build_unsigned_settlement, build_release
from repro.crypto.keys import PrivateKey, PublicKey
from repro.errors import (
    EnclaveCrashed,
    EnclaveFrozen,
    ReplicationError,
    SettlementError,
)
from repro.obs import exponential_buckets, get_metrics, get_tracer
from repro.tee.attestation import AttestationService, verify_quote
from repro.tee.enclave import Enclave, EnclaveProgram

# Replication blobs run hundreds of bytes to a few hundred KiB.
_BLOB_BUCKETS = exponential_buckets(256, 2.0, 12)


class CommitteeMemberProgram(EnclaveProgram):
    """Backup/committee-member enclave program (Alg. 3's backup role)."""

    PROGRAM_NAME = "teechain-committee"
    PROGRAM_VERSION = 1

    FREEZE_ALLOWED = (
        "read_state",
        "sign_deposit_spend",
        "new_deposit_address",
        "latest_version",
    )

    def __init__(self) -> None:
        super().__init__()
        self.chain_id: Optional[str] = None
        self.version = 0
        self.state: Optional[Dict[str, Any]] = None
        self.frozen = False
        # The member's own deposit keys (slots in m-of-n multisig specs).
        self.deposit_keys: Dict[str, PrivateKey] = {}
        self.updates_applied = 0

    # -- Alg. 3 lines 14–19: backup assignment ---------------------------

    def assign_to_chain(self, chain_id: str) -> None:
        if self.chain_id is not None:
            raise ReplicationError(
                f"member already assigned to chain {self.chain_id!r}"
            )
        self.chain_id = chain_id

    # -- Alg. 3 lines 21–28: state updates -------------------------------

    def state_update(self, chain_id: str, version: int, blob: bytes) -> None:
        """Apply a replicated full state or delta.

        A full state's version must strictly increase — a replayed (older)
        update is an in-chain rollback attempt and is refused.  A delta
        only means something on top of the exact state it was cut from:
        it must carry version ``current + 1`` and find a full state in
        place, or a skipped update would silently diverge this backup."""
        if self.frozen:
            raise EnclaveFrozen("chain member is frozen; updates refused")
        if chain_id != self.chain_id:
            raise ReplicationError(
                f"update for chain {chain_id!r}, member belongs to "
                f"{self.chain_id!r}"
            )
        update = pickle.loads(blob)
        if not isinstance(update, StateDelta):
            if version <= self.version:
                raise ReplicationError(
                    f"non-monotonic state update: version {version} "
                    f"≤ current {self.version}"
                )
            self.state = update
        elif self.state is None:
            raise ReplicationError("delta before any full state")
        elif version != self.version + 1:
            raise ReplicationError(
                f"delta version {version} does not follow current "
                f"{self.version}"
            )
        else:
            self._apply_delta(update)
        self.version = version
        self.updates_applied += 1

    def _apply_delta(self, delta: StateDelta) -> None:
        state = self.state
        for path, changes in delta.sections.items():
            target = reduce(dict.__getitem__, path, state)
            for key, value in changes.items():
                if value is DELETED:
                    target.pop(key, None)
                else:
                    target[key] = value
        for path, entries in delta.patches.items():
            target = reduce(dict.__getitem__, path, state)
            for key, fields in entries.items():
                entry = target.get(key)
                if entry is None:
                    raise ReplicationError(
                        f"patch for {key!r}, which this member does not "
                        "hold")
                vars(entry).update(fields)
        for (*parents, leaf), value in delta.scalars.items():
            reduce(dict.__getitem__, parents, state)[leaf] = value
        if CANDIDATES in delta.sections:
            # Only in-flight payments have candidates: rebuild the union.
            state["valid_txids"] = set().union(
                *state[CANDIDATES[0]].values())

    # -- force-freeze on read ---------------------------------------------

    def read_state(self) -> Dict[str, Any]:
        """Read the replicated state — and freeze (§6: "if a read access
        occurs to a backup, the chain is broken, freezing all nodes").

        The freeze flag is local; the hosting :class:`ReplicationChain`
        observes it and freezes every other member.  Returns the latest
        replicated snapshot."""
        self.frozen = True
        if self.state is None:
            raise ReplicationError("no replicated state yet")
        return self.state

    def latest_version(self) -> int:
        return self.version

    # -- committee deposit keys (m-of-n slots) ----------------------------

    def new_deposit_address(self):
        """Generate this member's key for a committee deposit."""
        key = PrivateKey.generate()
        address = key.public_key.address()
        self.deposit_keys[address] = key
        return address, key.public_key

    # -- threshold signing with state validation --------------------------

    def sign_deposit_spend(self, key_address: str,
                           unsigned: Transaction):
        """Co-sign a deposit spend *iff* it is consistent with replicated
        state.

        A transaction qualifies when it settles a replicated channel at
        its current balances, when its txid is a replicated multi-hop
        candidate, or when it is a structurally valid release of a deposit
        the replicated state says is free (releases pay a caller-chosen
        address, so their txids cannot be pre-registered).  Anything else
        — in particular a stale-balance settlement proposed by a
        compromised primary — is refused."""
        key = self.deposit_keys.get(key_address)
        if key is None:
            raise SettlementError(
                f"member holds no deposit key for {key_address}"
            )
        if self.state is None:
            raise ReplicationError("member has no replicated state")
        if not self._transaction_is_valid(unsigned):
            raise SettlementError(
                "transaction is inconsistent with replicated state; "
                "committee member refuses to sign"
            )
        return key.sign(unsigned.sighash())

    def _transaction_is_valid(self, unsigned: Transaction) -> bool:
        valid_txids: Set[str] = self.state.get("valid_txids", set())
        if unsigned.txid in valid_txids:
            return True
        return (self._is_current_settlement(unsigned)
                or self._is_free_deposit_release(unsigned))

    def _is_current_settlement(self, unsigned: Transaction) -> bool:
        """Derived here, from the replicated channel its first input
        belongs to — so no update has to carry it."""
        deposits = self.state.get("deposits", {})
        record = deposits.get(unsigned.inputs[0].outpoint) \
            if unsigned.inputs else None
        channel = self.state.get("channels", {}).get(
            record.channel_id) if record is not None else None
        if channel is None:
            return False
        feerate = self.state.get("fee_policy", {}).get(
            "settlement_feerate", 0.0)
        return current_settlement_txid(
            channel, deposits, feerate) == unsigned.txid

    def _is_free_deposit_release(self, unsigned: Transaction) -> bool:
        deposits = self.state.get("deposits", {})
        if len(unsigned.inputs) != 1 or len(unsigned.outputs) != 1:
            return False
        outpoint = unsigned.inputs[0].outpoint
        record = deposits.get(outpoint)
        if record is None or not record.is_free:
            return False
        return unsigned.outputs[0].value == record.value


class ReplicationChain:
    """Host-side chain wiring: primary → member_1 → … → member_k.

    ``push`` runs synchronously down the chain; a failure anywhere freezes
    every member (and the primary), after which only settlement operations
    remain available — the paper's failure handling.
    """

    _chain_counter = 0

    def __init__(
        self,
        primary: Enclave,
        members: List[Enclave],
        attestation: AttestationService,
    ) -> None:
        if not isinstance(primary.program, ChannelProtocol):
            raise ReplicationError("primary must run the Teechain program")
        ReplicationChain._chain_counter += 1
        self.chain_id = f"chain-{ReplicationChain._chain_counter}"
        self.primary = primary
        self.members = list(members)
        self.version = 0
        self.frozen = False
        self.pushes = 0
        # Alg. 3 lines 3–9: mutual attestation before joining the chain.
        for member in self.members:
            quote = attestation.quote(member)
            verify_quote(quote, attestation.root_key,
                         CommitteeMemberProgram.measurement(),
                         expected_key=member.public_key, service=attestation)
            member.ecall("assign_to_chain", self.chain_id)
        self._install_hook()

    def _install_hook(self) -> None:
        program: ChannelProtocol = self.primary.program
        # The members hold nothing yet: the first push ships everything.
        program.journal.resync()

        def hook(description: str) -> None:
            # A frozen chain accepts no updates, but the settlement
            # operations that remain allowed on a frozen enclave must not
            # error out — the chain is in its wind-down phase.
            if self.frozen:
                return
            self.push()

        program.replication_hook = hook

    @property
    def length(self) -> int:
        """Committee-chain length n = primary + backups."""
        return 1 + len(self.members)

    def push(self) -> None:
        """Replicate the primary's changes down the chain, blocking until
        every member has applied them (Alg. 3 line 24).

        Ships the journal's delta — the entries changed since the last
        acknowledged push — or, on the first push and after any failure,
        the full state."""
        if self.frozen:
            raise ReplicationError(f"{self.chain_id} is frozen")
        if not self.members:
            return
        program: ChannelProtocol = self.primary.program
        update = replication_delta(program)
        full = update is None
        if full:
            update = replication_state(program)
        blob = pickle.dumps(update)
        self.version += 1
        self.pushes += 1
        metrics = get_metrics()
        if metrics.enabled:
            # One chain-update round = one push down the whole chain;
            # blob size drives the replication-bandwidth bottleneck (§7.3).
            metrics.inc("replication.chain_updates")
            metrics.inc("replication.member_updates", len(self.members))
            if full:
                metrics.inc("replication.full_pushes")
            metrics.observe("replication.blob_bytes", len(blob),
                            buckets=_BLOB_BUCKETS)
        try:
            tracer = get_tracer()
            if tracer.enabled:
                with tracer.span("replication.push", chain=self.chain_id,
                                 members=len(self.members), bytes=len(blob),
                                 full=full):
                    self._push_members(blob)
            else:
                self._push_members(blob)
        except BaseException:
            # Some members may have applied this version, some not: only
            # a full state (strictly-greater rule) can realign them.
            program.journal.resync()
            raise
        program.journal.shipped()

    def _push_members(self, blob: bytes) -> None:
        for member in self.members:
            try:
                member.ecall("state_update", self.chain_id, self.version, blob)
            except (EnclaveCrashed, EnclaveFrozen) as exc:
                # A broken chain freezes everyone: no further updates, only
                # settlement (paper §6).
                self.freeze(reason=str(exc))
                raise ReplicationError(
                    f"replication to {member.name} failed: {exc}"
                ) from exc

    def read_backup(self, member: Enclave) -> Dict[str, Any]:
        """Read state from a backup — triggers the force-freeze."""
        state = member.ecall("read_state")
        metrics = get_metrics()
        if metrics.enabled:
            # A backup read is the recovery path: the participant lost
            # its primary and is settling from replicated state.
            metrics.inc("faults.recovered[backup_read]")
        self.freeze(reason=f"read access at {member.name}")
        return state

    def freeze(self, reason: str = "") -> None:
        """Freeze the whole chain (primary included)."""
        if self.frozen:
            return
        metrics = get_metrics()
        if metrics.enabled:
            metrics.inc("replication.freezes")
        self.frozen = True
        for member in self.members:
            if member.status.value != "crashed":
                member.program.frozen = True
        if self.primary.status.value != "crashed":
            self.primary.freeze()

    def live_members(self) -> List[Enclave]:
        return [
            member for member in self.members
            if member.status.value != "crashed"
        ]


def recover_settlements(state: Dict[str, Any],
                        release_address: str,
                        provider_factory=None) -> List[Transaction]:
    """Rebuild signed settlement and release transactions from a replicated
    state snapshot — what a participant does after its primary TEE dies:
    read any live backup (freezing the chain) and settle everything.

    ``release_address`` receives the free deposits.  1-of-1 deposits are
    signed with the replicated keys; committee (m-of-n) deposits need
    quorum signatures — pass ``provider_factory`` (a wrapper over the
    local provider, e.g. a node's committee signing chain) to gather
    them."""
    deposit_keys = {
        address: PrivateKey.from_bytes(raw)
        for address, raw in state.get("deposit_keys", {}).items()
    }
    provider = local_key_provider(deposit_keys)
    if provider_factory is not None:
        provider = provider_factory(provider)
    deposits = state.get("deposits", {})
    transactions: List[Transaction] = []
    for channel in state.get("channels", {}).values():
        if not channel.is_open or channel.terminated:
            continue
        records = [deposits[outpoint]
                   for outpoint in sorted(channel.all_deposits())
                   if outpoint in deposits]
        if not records:
            continue
        unsigned = build_unsigned_settlement(
            records,
            payouts=[
                (channel.my_settlement_address, channel.my_balance),
                (channel.remote_settlement_address, channel.remote_balance),
            ],
        )
        transactions.append(sign_settlement(unsigned, records, provider))
    for record in deposits.values():
        if record.is_free:
            try:
                transactions.append(
                    build_release(record, release_address, provider)
                )
            except SettlementError:
                continue  # a committee deposit we cannot sign alone
    return transactions
