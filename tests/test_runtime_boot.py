"""Cold start: what a daemon loads, and how a set of daemons boots.

A daemon or router imports neither numpy, scipy nor networkx (only
workload generation and k-shortest retries use them).  ``launch.boot``
spawns every process before its first readiness wait, and a boot that
fails kills every process it spawned.  The boot tests need no sockets:
``spawn_daemon`` is a stub that starts a sleeping Python process and the
readiness probe is a stub that answers or fails on cue.
"""

import asyncio
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.runtime import launch
from repro.runtime.control import ControlError
from repro.runtime.workers import ShardedDaemon

SRC = Path(__file__).resolve().parents[1] / "src"
SLEEPER = [sys.executable, "-c", "import time; time.sleep(100)"]


class FakeClient:
    def __init__(self, events):
        self.events = events

    def call(self, cmd, **kwargs):
        self.events.append(("call", cmd))
        return {}

    def close(self):
        pass


class Stubs:
    """A spawn that starts a sleeper and a probe that answers ``answering``
    times, then fails; both record the order they ran in."""

    def __init__(self, answering):
        self.answering = answering
        self.events = []
        self.processes = []
        self.failed_at = None

    def spawn(self, name, port, control_port, allocations, **kwargs):
        self.events.append(("spawn", name))
        process = subprocess.Popen(SLEEPER)
        self.processes.append(process)
        return process

    def probe(self, host, port, timeout=15.0, watch=None):
        self.events.append(("wait", port))
        if self.answering == 0:
            self.failed_at = time.monotonic()
            raise ControlError(f"no daemon on {host}:{port}", code="timeout")
        self.answering -= 1
        return FakeClient(self.events)

    def kinds(self):
        return [kind for kind, _ in self.events if kind != "call"]

    def alive(self):
        return [process for process in self.processes
                if process.poll() is None]


@pytest.fixture
def stubs(monkeypatch):
    made = []

    def install(answering):
        made.append(Stubs(answering))
        monkeypatch.setattr(launch, "spawn_daemon", made[-1].spawn)
        monkeypatch.setattr(launch, "wait_for_control", made[-1].probe)
        return made[-1]

    yield install
    for one in made:
        for process in one.processes:
            process.kill()
            process.wait()


def test_daemon_and_router_import_no_numeric_or_graph_library():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    loaded = subprocess.run(
        [sys.executable, "-c",
         "import sys, repro.runtime.cli, repro.runtime.workers; "
         "print(sorted({'numpy', 'scipy', 'networkx'} & set(sys.modules)))"],
        env=env, capture_output=True, text=True, check=True).stdout
    assert loaded.strip() == "[]"


def test_workloads_package_still_exports_its_generators():
    from repro.workloads import generate_trace, scale_free_overlay

    assert len(list(generate_trace(20, seed=3))) == 20
    assert len(scale_free_overlay(12, seed=3).nodes) == 12


def test_launch_network_spawns_every_daemon_before_the_first_wait(stubs):
    stub = stubs(answering=3)
    handles, _ = launch.launch_network({"a": 1, "b": 1, "c": 1})
    assert stub.kinds() == ["spawn"] * 3 + ["wait"] * 3
    assert sorted(handles) == ["a", "b", "c"]
    assert stub.events.count(("call", "connect")) == 3


def test_launch_network_kills_every_daemon_when_one_never_answers(stubs):
    stub = stubs(answering=1)
    with pytest.raises(ControlError):
        launch.launch_network({"a": 1, "b": 1, "c": 1})
    assert stub.alive() == []
    assert len(stub.processes) == 3


def test_respawn_kills_a_daemon_that_never_answers(stubs):
    stub = stubs(answering=0)
    dead = subprocess.Popen([sys.executable, "-c", "pass"])
    dead.wait()
    handle = launch.DaemonHandle("a", dead, 1, 2, FakeClient([]))
    with pytest.raises(ControlError):
        handle.respawn()
    assert len(stub.processes) == 1
    assert stub.alive() == []


def test_router_spawns_every_worker_before_the_first_wait(stubs):
    stub = stubs(answering=2)
    router = ShardedDaemon("hub", workers=3)
    with pytest.raises(ControlError):
        asyncio.run(router.start())
    assert stub.kinds() == ["spawn"] * 3 + ["wait"] * 3


def test_router_start_fails_at_once_when_a_worker_never_answers(stubs):
    stub = stubs(answering=0)
    router = ShardedDaemon("hub", workers=3)
    with pytest.raises(ControlError):
        asyncio.run(router.start())
    assert time.monotonic() - stub.failed_at < 1.0
    assert stub.alive() == []
    assert len(stub.processes) == 3
    assert router.workers == {}


@pytest.mark.live
def test_boot_fails_at_once_when_a_daemon_exits(monkeypatch):
    """A daemon that dies before it answers ends the boot at the next
    poll, with its exit status, and takes the other daemons with it."""
    spawned = []

    def spawn(name, port, control_port, allocations, **kwargs):
        code = "import sys; sys.exit(3)" if name == "dies" \
            else "import time; time.sleep(100)"
        spawned.append(subprocess.Popen([sys.executable, "-c", code]))
        return spawned[-1]

    monkeypatch.setattr(launch, "spawn_daemon", spawn)
    ports = {name: (launch.free_port(), launch.free_port())
             for name in ("sleeps", "dies")}
    started = time.monotonic()
    try:
        with pytest.raises(ControlError) as excinfo:
            launch.boot(ports, {}, timeout=4.0)
        elapsed = time.monotonic() - started
    finally:
        for process in spawned:
            process.kill()
            process.wait()
    assert elapsed < 1.0
    assert "dies" in str(excinfo.value) and "3" in str(excinfo.value)
    assert excinfo.value.code == "daemon_exited"
    assert [process.returncode for process in spawned] == [-9, 3]
