"""Durable daemon state: sealed enclave snapshots plus host metadata.

With ``--state-dir`` a daemon survives ``SIGKILL``: every protocol state
change is sealed (``tee/sealing``) bound to a persisted monotonic
counter (``tee/monotonic``) — the live wiring of the paper's §6.2 stable
storage — and the *untrusted* host bookkeeping (channel→peer map,
deposit records, the simulated chain's blocks and mempool) is written
alongside.  On restart the daemon unseals the latest blob (the counter
binding rejects rollback to an older one), replays the chain, and
resumes; in-flight multi-hop sessions come back with the sealed state
and are completed or safely ejected by the recovery sweep.

Layout, one directory per daemon name under the state root::

    <state_dir>/<name>/counter.txt   # monotonic counter value (survives
                                     # power cycles, like the hardware it
                                     # models)
    <state_dir>/<name>/sealed.bin    # latest SealedBlob, wire form
    <state_dir>/<name>/host.pickle   # host metadata (untrusted)

Host metadata is *untrusted by design*: tampering with it can confuse
the host into dialing wrong peers or forgetting deposits, but every
balance-bearing decision is made from the sealed enclave state, which
tampering cannot forge (MAC) or roll back (counter).
"""

from __future__ import annotations

import pickle
from pathlib import Path
from typing import Any, Dict, Optional

from repro.blockchain.chain import Blockchain
from repro.crypto.hashing import sha256
from repro.errors import SealingError
from repro.tee.sealing import SealedBlob


class DaemonStateStore:
    """File-backed stable storage for one daemon."""

    def __init__(self, root: str, name: str) -> None:
        self.directory = Path(root) / name
        self.directory.mkdir(parents=True, exist_ok=True)
        self._counter_path = self.directory / "counter.txt"
        self._sealed_path = self.directory / "sealed.bin"
        self._host_path = self.directory / "host.pickle"
        # Stable per-machine sealing secret.  A real TEE derives this
        # from the CPU's fused key; deriving it from the daemon name
        # keeps restarts (same "machine") able to unseal while distinct
        # daemons cannot read each other's blobs.
        self.platform_secret = sha256(b"platform:" + name.encode())

    @property
    def has_state(self) -> bool:
        return self._sealed_path.exists()

    # -- monotonic counter -------------------------------------------------

    def load_counter(self) -> int:
        if not self._counter_path.exists():
            return 0
        return int(self._counter_path.read_text().strip() or 0)

    def save_counter(self, value: int) -> None:
        self._counter_path.write_text(f"{value}\n")

    # -- sealed enclave state ----------------------------------------------

    def save_sealed(self, blob: SealedBlob) -> None:
        # Counter first: if we die between the two writes, the counter is
        # ahead of the blob and restore fails *loudly* (counter mismatch)
        # instead of silently resurrecting a stale state.
        self.save_counter(blob.counter_value)
        self._sealed_path.write_bytes(blob.to_bytes())

    def load_sealed(self) -> Optional[SealedBlob]:
        if not self._sealed_path.exists():
            return None
        try:
            return SealedBlob.from_bytes(self._sealed_path.read_bytes())
        except (SealingError, ValueError) as exc:
            raise SealingError(
                f"corrupt sealed state at {self._sealed_path}: {exc}"
            ) from exc

    # -- host metadata -----------------------------------------------------

    def save_host(self, meta: Dict[str, Any]) -> None:
        self._host_path.write_bytes(pickle.dumps(meta))

    def load_host(self) -> Optional[Dict[str, Any]]:
        if not self._host_path.exists():
            return None
        return pickle.loads(self._host_path.read_bytes())


# ---------------------------------------------------------------------------
# Simulated-chain snapshot/replay (the chain object holds live listener
# callbacks, so it is persisted as data and rebuilt by replay).
# ---------------------------------------------------------------------------

ChainSnapshot = Dict[str, Any]


def chain_snapshot(chain: Blockchain) -> ChainSnapshot:
    """The chain as plain data: every post-genesis active-chain block
    (full :class:`Block` bodies — fork choice, fee coinbases, and block
    identity must survive a restart byte-exact) plus the mempool.
    Genesis is excluded — it is rebuilt deterministically from the
    funding allocations all daemons share."""
    return {
        "blocks": list(chain.blocks[1:]),
        "mempool": list(chain._mempool),
    }


def replay_chain(chain: Blockchain, snapshot: ChainSnapshot) -> None:
    """Rebuild chain state by re-attaching each stored block in order
    (hash-chain linkage re-validates on connect).  Must run before gossip
    listeners are subscribed (replay is local history, not news)."""
    for stored in snapshot.get("blocks", []):
        chain.receive_block(stored)
    for transaction in snapshot.get("mempool", []):
        try:
            chain.submit(transaction)
        except Exception:  # noqa: BLE001 — mempool entries may have been
            # confirmed by the replayed blocks or invalidated; replay is
            # best-effort for the queue, exact for the chain.
            continue
