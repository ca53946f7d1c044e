"""A ``--state-dir`` daemon's stable storage, without sockets.

One hub daemon in this process makes account payments, each a sealing
ecall.  A power cut is injected at every fsync and rename the store
makes — during a seal, and during the commit a boot makes before any
ecall runs — with the file being synced cut short or intact.  Whatever
the directory holds afterwards must boot, to the state just before or
just after the interrupted write and never to an older one.  A blob an
interrupted seal left behind, held back by the host and presented after
the next payment, must be refused; so must files in the storage format
used before the wire codec.
"""

import os
import pathlib
import pickle
import shutil
import stat
from itertools import count

import pytest

from repro import obs
from repro.core.channel_base import replication_state
from repro.core.messages import SignedMessage
from repro.crypto import KeyPair
from repro.errors import SealingError
from repro.hub.messages import AccountDeposit, AccountPay
from repro.runtime import codec, recovery
from repro.runtime.daemon import NodeDaemon

CLIENT = KeyPair.from_seed(b"recovery-client")
PARTNER = KeyPair.from_seed(b"recovery-partner")
# A seal writes two files, blob then counter, each with three steps:
# fsync of the temp file, rename, fsync of the directory.
SEAL_STEPS = 6
BLOB_RENAMED = 2  # from this step on, the new blob is in place


class Crash(Exception):
    """The power went at this instruction."""


class PowerCut:
    """Raise :class:`Crash` at the ``step``-th fsync or rename (from 0);
    with ``torn``, a file's fsync first cuts it to half its length — a
    write that reached the disk only in part."""

    def __init__(self, patch, step, torn=False):
        self.step, self.torn = step, torn
        self.calls = 0
        self.fired = False
        self._fsync, self._replace = os.fsync, os.replace
        patch.setattr(recovery.os, "fsync", self.fsync)
        patch.setattr(recovery.os, "replace", self.replace)

    def _due(self):
        due = self.calls == self.step
        self.calls += 1
        self.fired |= due
        return due

    def fsync(self, fd):
        if self._due():
            if self.torn and stat.S_ISREG(os.fstat(fd).st_mode):
                os.ftruncate(fd, os.fstat(fd).st_size // 2)
            raise Crash(self.step)
        self._fsync(fd)

    def replace(self, source, target):
        if self._due():
            raise Crash(self.step)
        self._replace(source, target)


def boot(root):
    return NodeDaemon("hub", allocations={"hub": 500_000},
                      state_dir=str(root))


def state(daemon):
    return replication_state(daemon.node.program)


def request(body, keypair=CLIENT):
    return SignedMessage.create(body, keypair.private)


def pay(daemon, nonce, amount=10):
    daemon.node._ecall("hub_handle_request", request(
        AccountPay(CLIENT.public, PARTNER.public, amount, nonce)))


@pytest.fixture
def funded(tmp_path):
    """A hub daemon whose free deposit backs two funded accounts."""
    with obs.collecting():  # NodeDaemon installs its own registry globally
        daemon = boot(tmp_path / "funded")
        daemon.node.create_deposit(50_000)
        for keypair in (CLIENT, PARTNER):
            daemon.node._ecall("hub_handle_request", request(
                AccountDeposit(keypair.public, 10_000, 1), keypair))
        yield daemon, tmp_path


def copy_of(tmp_path, name):
    root = tmp_path / name
    shutil.copytree(tmp_path / "funded", root)
    return root


def cuts():
    """Every (step, torn) until a step past the last write."""
    for step in count():
        for torn in (False, True):
            yield step, torn


def test_a_crash_at_any_step_of_a_seal_boots_before_or_after(
        funded, monkeypatch):
    _, tmp_path = funded
    outcomes = []
    for step, torn in cuts():
        root = copy_of(tmp_path, f"seal-{step}-{torn}")
        victim = boot(root)
        before = state(victim)
        with monkeypatch.context() as patch:
            cut = PowerCut(patch, step, torn)
            try:
                pay(victim, nonce=2)
            except Crash:
                pass
        if not cut.fired:
            break
        after = state(victim)
        assert after != before
        restored = state(boot(root))
        assert restored in (before, after), (step, torn)
        outcomes.append(restored == after)
    assert step == SEAL_STEPS
    # Before the blob's rename: the old state; once it is durable: the new.
    assert outcomes == [False] * 2 * BLOB_RENAMED \
        + [True] * 2 * (SEAL_STEPS - BLOB_RENAMED)


@pytest.mark.parametrize("interrupted", [False, True],
                         ids=["after-a-seal", "after-an-interrupted-seal"])
def test_a_crash_at_any_step_of_the_boot_commit_boots_the_same_state(
        funded, monkeypatch, interrupted):
    daemon, tmp_path = funded
    if interrupted:  # the blob is one ahead of the counter
        with monkeypatch.context() as patch:
            PowerCut(patch, BLOB_RENAMED + 1)
            with pytest.raises(Crash):
                pay(daemon, nonce=2)
    expected = state(daemon)
    for step, torn in cuts():
        root = copy_of(tmp_path, f"commit-{step}-{torn}")
        with monkeypatch.context() as patch:
            cut = PowerCut(patch, step, torn)
            try:
                boot(root)
            except Crash:
                pass
        if not cut.fired:
            break
        assert state(boot(root)) == expected, (step, torn)
    assert step > SEAL_STEPS  # the commit, then the host file


def test_a_held_back_blob_is_refused_once_a_payment_follows(
        funded, monkeypatch):
    daemon, tmp_path = funded
    sealed = tmp_path / "funded" / "hub" / "sealed.bin"
    older = sealed.read_bytes()
    with monkeypatch.context() as patch:
        PowerCut(patch, BLOB_RENAMED + 1)  # blob durable, counter not
        with pytest.raises(Crash):
            pay(daemon, nonce=2)
    kept = sealed.read_bytes()
    assert kept != older
    sealed.write_bytes(older)  # the host holds the newer blob back
    pay(boot(tmp_path / "funded"), nonce=3)
    sealed.write_bytes(kept)
    with pytest.raises(SealingError, match="rollback"):
        boot(tmp_path / "funded")


def test_files_in_the_pre_codec_format_are_refused(funded):
    _, tmp_path = funded
    directory = tmp_path / "funded" / "hub"
    sealed = directory / "sealed.bin"
    current = sealed.read_bytes()
    # The previous framing: magic, counter, MAC length, MAC, payload.
    sealed.write_bytes(b"SEAL1" + (9).to_bytes(8, "big") + (32).to_bytes(
        2, "big") + bytes(32) + pickle.dumps({"channels": {}}))
    with pytest.raises(SealingError, match="not in the wire-codec storage"):
        boot(tmp_path / "funded")
    sealed.write_bytes(current)
    (directory / "host.bin").write_bytes(pickle.dumps({"channels": {}}))
    with pytest.raises(SealingError, match="not in the wire-codec storage"):
        boot(tmp_path / "funded")


def test_sealing_ecalls_leave_the_host_file_alone(funded, monkeypatch):
    """Fails on the parent, whose seal hook rewrote the host file — every
    block and the mempool — on every payment."""
    daemon, _ = funded
    writes = []
    monkeypatch.setattr(daemon.state, "save_host", writes.append)
    seals = daemon.pstore.seals_written
    for nonce in range(2, 12):
        pay(daemon, nonce)
    assert daemon.pstore.seals_written == seals + 10
    assert writes == []


def test_a_state_dir_sealed_by_the_previous_codec_restores(tmp_path):
    """``tests/golden/state`` was written by a hub daemon on the codec
    before its offset decoder: a 50,000 deposit, two accounts funded with
    10,000 each, then one account pay of 1,234.  It must boot to exactly
    that state, and its blob must re-encode byte-identically."""
    shutil.copytree(pathlib.Path(__file__).parent / "golden" / "state",
                    tmp_path / "golden")
    sealed = tmp_path / "golden" / "hub" / "sealed.bin"
    frame = sealed.read_bytes()
    assert codec.encode(codec.decode(frame)) == frame
    with obs.collecting():
        hub = state(boot(tmp_path / "golden"))["hub"]
    owner = {KeyPair.from_seed(seed).public.to_bytes(): amount
             for seed, amount in ((b"golden-client", 8_766),
                                  (b"golden-partner", 11_234))}
    assert hub["balances"] == owner
    assert hub["deposited_total"] == 20_000 and hub["pays"] == 1
