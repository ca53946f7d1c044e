"""Durable daemon state: sealed enclave snapshots plus host metadata.

With ``--state-dir`` a daemon survives ``SIGKILL``: every protocol state
change is sealed (``tee/sealing``) bound to a persisted monotonic
counter (``tee/monotonic``) — the live wiring of the paper's §6.2 stable
storage — and the *untrusted* host bookkeeping (channel→peer map,
deposit records, the simulated chain's blocks and mempool) is written
whenever it changes.  On restart the daemon unseals the latest blob (the
counter binding rejects rollback to an older one), seals it again at the
next counter value before any ecall runs, replays the chain, and
resumes; in-flight multi-hop sessions come back with the sealed state
and are completed or safely ejected by the recovery sweep.

Layout, one directory per daemon name under the state root::

    <state_dir>/<name>/counter.txt   # monotonic counter value (survives
                                     # power cycles, like the hardware it
                                     # models)
    <state_dir>/<name>/sealed.bin    # latest SealedBlob
    <state_dir>/<name>/host.bin      # host metadata (untrusted)

The ``.bin`` files are wire-codec frames.  Each file is replaced
atomically, and a seal writes the blob bound to counter + 1 before it
bumps the counter, so a crash anywhere leaves a directory that boots
(the write order and restore's rule: DESIGN.md §8).

Host metadata is *untrusted by design*: tampering with it can confuse
the host into dialing wrong peers or forgetting deposits, but every
balance-bearing decision is made from the sealed enclave state, which
tampering cannot forge (MAC) or roll back (counter).
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Any, Dict, Optional

from repro.blockchain.chain import Blockchain
from repro.crypto.hashing import sha256
from repro.errors import SealingError
from repro.runtime import codec
from repro.tee.sealing import SealedBlob


def _atomic_write(path: Path, data: bytes) -> None:
    """Replace ``path`` with ``data``: a crash leaves the old or the new
    file (a torn temp file is never read)."""
    temp = path.with_name(path.name + ".tmp")
    with open(temp, "wb") as handle:
        handle.write(data)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(temp, path)
    directory = os.open(path.parent, os.O_RDONLY)
    try:
        os.fsync(directory)  # the rename itself must survive power loss
    finally:
        os.close(directory)


def _read_frame(path: Path, kind: type) -> Any:
    """The ``kind`` at ``path``; a file in another storage format, or a
    damaged one, is refused rather than guessed at."""
    try:
        value = codec.decode(path.read_bytes())
    except codec.CodecError as exc:
        raise SealingError(
            f"{path} is not in the wire-codec storage format ({exc})"
        ) from exc
    if not isinstance(value, kind):
        raise SealingError(f"{path} holds a {type(value).__name__}, "
                           f"not a {kind.__name__}")
    return value


class DaemonStateStore:
    """File-backed stable storage for one daemon."""

    def __init__(self, root: str, name: str) -> None:
        self.directory = Path(root) / name
        self.directory.mkdir(parents=True, exist_ok=True)
        self._counter_path = self.directory / "counter.txt"
        self._sealed_path = self.directory / "sealed.bin"
        self._host_path = self.directory / "host.bin"
        # Stable per-machine sealing secret.  A real TEE derives this
        # from the CPU's fused key; deriving it from the daemon name
        # keeps restarts (same "machine") able to unseal while distinct
        # daemons cannot read each other's blobs.
        self.platform_secret = sha256(b"platform:" + name.encode())

    @property
    def has_state(self) -> bool:
        return self._sealed_path.exists()

    def load_counter(self) -> int:
        if not self._counter_path.exists():
            return 0
        return int(self._counter_path.read_text())

    def save_sealed(self, blob: SealedBlob) -> None:
        """Blob first, counter after: see the module docstring."""
        _atomic_write(self._sealed_path, codec.encode(blob))
        _atomic_write(self._counter_path, f"{blob.counter_value}\n".encode())

    def load_sealed(self) -> SealedBlob:
        return _read_frame(self._sealed_path, SealedBlob)

    def save_host(self, meta: Dict[str, Any]) -> None:
        _atomic_write(self._host_path, codec.encode(meta))

    def load_host(self) -> Optional[Dict[str, Any]]:
        if not self._host_path.exists():
            return None
        return _read_frame(self._host_path, dict)


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
