"""Cold start: what a daemon loads, and how a set of daemons boots.

A daemon or router imports neither numpy, scipy nor networkx (only
workload generation and k-shortest retries use them).  ``launch.boot``
spawns every process before it reads the first ready line, learns each
daemon's ports from its line, and a boot that fails kills and reaps
every process it spawned.  The boot tests run stub processes in place of
daemons: one that binds a port, writes its ready line and answers every
control line ``ok``; one that exits with status 3 first; one that never
writes.  The live test at the end boots real daemons.
"""

import asyncio
import functools
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.runtime import launch, workers
from repro.runtime.control import ControlError
from repro.runtime.workers import ShardedDaemon

SRC = Path(__file__).resolve().parents[1] / "src"

# A daemon in miniature: binds its ports, says so, then answers every
# control line ok, logging the verb to argv[1], until ``shutdown``.
SERVES = """
import json, socket, sys
peer, control = socket.socket(), socket.socket()
peer.bind(("127.0.0.1", 0))
control.bind(("127.0.0.1", 0))
control.listen()
print(json.dumps({"port": peer.getsockname()[1],
                  "control_port": control.getsockname()[1]}), flush=True)
while True:
    connection, _ = control.accept()
    for line in connection.makefile("rb"):
        cmd = json.loads(line)["cmd"]
        with open(sys.argv[1], "a") as log:
            log.write(cmd + "\\n")
        connection.sendall(b'{"ok": true}\\n')
        if cmd == "shutdown":
            sys.exit(0)
"""
EXITS = "import sys; sys.exit(3)"
SILENT = "import time; time.sleep(100)"


class Stubs:
    """A ``spawn_daemon`` that starts the stub named for each daemon."""

    def __init__(self, log, codes):
        self.log = log
        self.log.touch()
        self.codes = codes
        self.processes = {}
        self.extra_args = []

    def spawn(self, name, port, control_port, allocations, **kwargs):
        self.extra_args.append((name, tuple(kwargs.get("extra_args", ()))))
        code = self.codes.get(name, SERVES)
        self.processes[name] = subprocess.Popen(
            [sys.executable, "-S", "-c", code, str(self.log)],
            stdout=subprocess.PIPE)
        return self.processes[name]

    def verbs(self):
        return self.log.read_text().split()

    def reaped(self):
        return all(process.returncode is not None
                   for process in self.processes.values())


@pytest.fixture
def stubs(monkeypatch, tmp_path):
    made = []

    def install(**codes):
        made.append(Stubs(tmp_path / f"verbs{len(made)}", codes))
        monkeypatch.setattr(launch, "spawn_daemon", made[-1].spawn)
        return made[-1]

    yield install
    for one in made:
        for process in one.processes.values():
            process.kill()
            process.wait()


def fails(call, code):
    """Run ``call``; return how long it took to raise ``code``."""
    started = time.monotonic()
    with pytest.raises(ControlError) as excinfo:
        call()
    assert excinfo.value.code == code, excinfo.value
    return time.monotonic() - started, str(excinfo.value)


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
    """The first daemon dies before its line; a launcher that read it
    before spawning the next would never have spawned the others.  The
    ports come from the lines, and the mesh is connected over them."""
    stub = stubs(a=EXITS)
    fails(lambda: launch.launch_network({"a": 1, "b": 1, "c": 1}),
          "daemon_exited")
    assert sorted(stub.processes) == ["a", "b", "c"]

    stub = stubs()
    handles, ports = launch.launch_network({"a": 1, "b": 1, "c": 1})
    assert sorted(handles) == ["a", "b", "c"]
    for name, handle in handles.items():
        assert ports[name] == (handle.port, handle.control_port)
        assert 0 not in ports[name]
        handle.shutdown()
    assert stub.verbs().count("connect") == 3
    assert stub.verbs().count("shutdown") == 3


def test_boot_fails_at_once_when_a_daemon_exits(stubs):
    """A daemon that exits before its line ends the boot at once, with
    its exit status, and takes the other daemons with it."""
    stub = stubs(dies=EXITS)
    elapsed, message = fails(
        lambda: launch.boot(dict.fromkeys(("sleeps", "dies", "serves"),
                                          (0, 0)), {}, timeout=5.0),
        "daemon_exited")
    assert elapsed < 0.2
    assert "dies" in message and "3" in message
    assert {name: process.returncode
            for name, process in stub.processes.items()} == {
        "sleeps": -signal.SIGKILL, "dies": 3, "serves": -signal.SIGKILL}


def test_launch_network_kills_every_daemon_when_one_never_answers(stubs):
    stub = stubs(b=SILENT)
    elapsed, message = fails(
        lambda: launch.launch_network({"a": 1, "b": 1, "c": 1},
                                      startup_timeout=0.5), "timeout")
    assert 0.5 <= elapsed < 2.0
    assert "from b " in message
    assert len(stub.processes) == 3 and stub.reaped()


def test_respawn_kills_a_daemon_that_never_answers(stubs):
    stub = stubs(a=SILENT)
    dead = subprocess.Popen([sys.executable, "-c", "pass"])
    dead.wait()
    handle = launch.DaemonHandle("a", dead, 1, 2, None)
    fails(lambda: handle.respawn(startup_timeout=0.3), "timeout")
    assert len(stub.processes) == 1 and stub.reaped()


def test_respawn_keeps_tracing_on(stubs):
    """A daemon launched with tracing comes back traced after a kill."""
    stub = stubs()
    handles, _ = launch.launch_network({"a": 1, "b": 1}, trace=True)
    victim = handles["b"]
    victim.process.kill()
    victim.process.wait()
    victim.control.close()
    handles["b"] = victim.respawn()
    for handle in handles.values():
        handle.shutdown()
    assert stub.extra_args == [("a", ("--trace",)), ("b", ("--trace",)),
                               ("b", ("--trace",))]


def test_router_spawns_every_worker_before_the_first_wait(stubs):
    """As for a network, with the workers' ports taken from their lines;
    the router's stop shuts every worker down."""
    stub = stubs(**{"hub-w0": EXITS})
    router = ShardedDaemon("hub", workers=3)
    with pytest.raises(ControlError):
        asyncio.run(router.start())
    assert sorted(stub.processes) == ["hub-w0", "hub-w1", "hub-w2"]

    stub = stubs()
    router = ShardedDaemon("hub", workers=3)

    async def start_then_stop():
        port, control_port = await router.start()
        table = router.worker_table()["workers"]
        await router.stop()
        return port, control_port, table

    port, control_port, table = asyncio.run(start_then_stop())
    assert port is None and control_port > 0
    assert [row["name"] for row in table] == ["hub-w0", "hub-w1", "hub-w2"]
    assert all(row["port"] and row["control_port"] for row in table)
    assert stub.verbs() == ["shutdown"] * 3
    assert stub.reaped()


def test_router_start_fails_at_once_when_a_worker_never_answers(stubs):
    stub = stubs(**{"hub-w1": EXITS})
    router = ShardedDaemon("hub", workers=3)
    elapsed, message = fails(lambda: asyncio.run(router.start()),
                             "daemon_exited")
    assert elapsed < 0.2
    assert "hub-w1" in message and "3" in message
    assert len(stub.processes) == 3 and stub.reaped()
    assert router.workers == {}


def test_router_start_fails_at_the_deadline_when_a_worker_is_silent(
        stubs, monkeypatch):
    stub = stubs(**{"hub-w2": SILENT})
    monkeypatch.setattr(workers, "boot",
                        functools.partial(launch.boot, timeout=0.5))
    router = ShardedDaemon("hub", workers=3)
    elapsed, message = fails(lambda: asyncio.run(router.start()), "timeout")
    assert 0.5 <= elapsed < 2.0
    assert "hub-w2" in message
    assert len(stub.processes) == 3 and stub.reaped()
    assert router.workers == {}


@pytest.mark.live
def test_a_network_boots_on_the_ports_its_daemons_bound():
    """Six distinct bound ports, stdout on /dev/null once the line is
    read, and a SIGKILLed daemon comes back on its old ports."""
    handles, ports = launch.launch_network({"a": 1, "b": 1, "c": 1})
    try:
        bound = [port for pair in ports.values() for port in pair]
        assert len(set(bound)) == 6 and 0 not in bound
        for handle in handles.values():
            assert os.readlink(f"/proc/{handle.process.pid}/fd/1") \
                == os.devnull
        victim = handles["b"]
        victim.process.kill()
        victim.process.wait()
        victim.control.close()
        handles["b"] = victim.respawn()
        assert (handles["b"].port, handles["b"].control_port) == ports["b"]
        assert handles["b"].control.call("ping")["name"] == "b"
    finally:
        for handle in handles.values():
            handle.shutdown()
