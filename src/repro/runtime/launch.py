"""Helpers for spawning daemon processes (tests, benchmarks, examples).

The live e2e test, the loopback benchmark, and the two-process example
all need the same dance: pick free ports, start ``python -m
repro.runtime serve`` subprocesses with a shared ``--fund`` allocation,
and wait for their control APIs to answer.  Centralised here so the
dance exists once.
"""

from __future__ import annotations

import os
import socket
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.runtime.control import ControlClient, wait_for_control

HOST = "127.0.0.1"


def free_port() -> int:
    """An OS-assigned free TCP port (raceable, but fine on loopback)."""
    with socket.socket() as probe:
        probe.bind((HOST, 0))
        return probe.getsockname()[1]


def _src_root() -> str:
    # …/src/repro/runtime/launch.py → …/src
    return str(Path(__file__).resolve().parents[2])


def spawn_daemon(
    name: str,
    port: int,
    control_port: int,
    allocations: Dict[str, int],
    host: str = HOST,
    state_dir: Optional[str] = None,
    extra_args: Sequence[str] = (),
) -> subprocess.Popen:
    """Start ``python -m repro.runtime serve`` as a subprocess.

    Nobody reads the ready line, so stdout goes to ``/dev/null``; stderr
    is inherited, so a daemon (or a sharded router's worker) logs where
    its parent does.  A pipe nobody drains would wedge the daemon on its
    first ~64 KiB of log output.
    """
    command: List[str] = [
        sys.executable, "-m", "repro.runtime", "serve",
        "--name", name, "--host", host,
        "--port", str(port), "--control-port", str(control_port),
    ]
    for participant, amount in sorted(allocations.items()):
        command += ["--fund", f"{participant}={amount}"]
    if state_dir is not None:
        command += ["--state-dir", state_dir]
    command += list(extra_args)
    env = dict(os.environ)
    env["PYTHONPATH"] = _src_root() + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.Popen(command, env=env, stdout=subprocess.DEVNULL)


class DaemonHandle:
    """A spawned daemon plus its control client."""

    def __init__(self, name: str, process: subprocess.Popen,
                 port: int, control_port: int,
                 client: ControlClient,
                 allocations: Optional[Dict[str, int]] = None,
                 state_dir: Optional[str] = None) -> None:
        self.name = name
        self.process = process
        self.port = port
        self.control_port = control_port
        self.control = client
        self.allocations = dict(allocations or {})
        self.state_dir = state_dir

    def shutdown(self, timeout: float = 10.0) -> None:
        try:
            self.control.call("shutdown")
        except Exception:  # noqa: BLE001 — best effort; kill below anyway
            pass
        try:
            self.process.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait(timeout=timeout)
        finally:
            self.control.close()

    def respawn(self, startup_timeout: float = 20.0) -> "DaemonHandle":
        """Start a fresh process on the same ports and state directory
        (requires the old process to be dead).  Returns a new handle —
        with a ``state_dir`` the daemon restores its sealed state."""
        if self.process.poll() is None:
            raise RuntimeError(f"daemon {self.name} is still running")
        process = spawn_daemon(self.name, self.port, self.control_port,
                               self.allocations, state_dir=self.state_dir)
        return DaemonHandle(
            self.name, process, self.port, self.control_port,
            wait_for_control(HOST, self.control_port,
                             timeout=startup_timeout),
            allocations=self.allocations, state_dir=self.state_dir,
        )


def launch_network(
    allocations: Dict[str, int],
    names: Optional[Sequence[str]] = None,
    startup_timeout: float = 20.0,
    state_dir: Optional[str] = None,
    trace: bool = False,
) -> Tuple[Dict[str, DaemonHandle], Dict[str, Tuple[int, int]]]:
    """Spawn one daemon per name and connect a full peer mesh.

    Returns handles plus the (peer port, control port) map.  Every daemon
    gets the same allocation, so their genesis blocks agree.  With a
    ``state_dir``, daemons seal state to ``<state_dir>/<name>/`` and can
    be killed and respawned (see :meth:`DaemonHandle.respawn`).
    """
    names = list(names if names is not None else sorted(allocations))
    ports = {name: (free_port(), free_port()) for name in names}
    handles: Dict[str, DaemonHandle] = {}
    try:
        for name in names:
            port, control_port = ports[name]
            process = spawn_daemon(name, port, control_port, allocations,
                                   state_dir=state_dir,
                                   extra_args=("--trace",) if trace else ())
            handles[name] = DaemonHandle(
                name, process, port, control_port,
                wait_for_control(HOST, control_port,
                                 timeout=startup_timeout),
                allocations=allocations, state_dir=state_dir,
            )
        seen = set()
        for name in names:
            for peer in names:
                if peer == name or (peer, name) in seen:
                    continue
                seen.add((name, peer))
                handles[name].control.call(
                    "connect", peer=peer, host=HOST, port=ports[peer][0]
                )
    except Exception:
        for handle in handles.values():
            handle.shutdown()
        raise
    return handles, ports
