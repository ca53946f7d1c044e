"""Spawning daemon processes (tests, benchmarks, examples, the sharded
router's worker pool).

``python -m repro.runtime serve`` binds its ports, writes one ready line
naming them to stdout, then points stdout at ``/dev/null``.  :func:`boot`
spawns every process of a set on ports 0 (or on ports to reuse), then
reads every ready line against one deadline: a set of daemons is ready
when its slowest one says so, and no port is picked before its bind.  A
boot that fails kills and reaps every process it spawned.
"""

from __future__ import annotations

import json
import os
import selectors
import socket
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.runtime.control import ControlClient, ControlError

HOST = "127.0.0.1"


def free_port() -> int:
    """An OS-assigned TCP port nobody listens on yet; another process may
    take it before the caller binds it, so :func:`boot` does not use it."""
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

    stdout is a pipe for the ready line :func:`boot` reads (the daemon
    then points stdout at ``/dev/null``, so a closed pipe cannot wedge
    it); stderr is inherited, so a daemon (or a sharded router's worker)
    logs where its parent does.
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
    return subprocess.Popen(command, env=env, stdout=subprocess.PIPE)


def _read_ready_lines(processes: Dict[str, subprocess.Popen],
                      timeout: float) -> Dict[str, bytes]:
    """name → the first line its process writes to stdout."""
    deadline = time.monotonic() + timeout
    lines = dict.fromkeys(processes, b"")
    with selectors.DefaultSelector() as selector:
        for name, process in processes.items():
            selector.register(process.stdout, selectors.EVENT_READ, name)
        while selector.get_map():
            events = selector.select(deadline - time.monotonic())
            if not events and time.monotonic() >= deadline:
                silent = [key.data for key in selector.get_map().values()]
                raise ControlError(
                    f"no ready line from {', '.join(sorted(silent))} after "
                    f"{timeout}s", code="timeout")
            for key, _ in events:
                chunk = os.read(key.fd, 4096)
                if not chunk:
                    status = processes[key.data].wait(
                        max(deadline - time.monotonic(), 0))
                    raise ControlError(
                        f"daemon {key.data} exited with status {status} "
                        "before its ready line", code="daemon_exited")
                lines[key.data] += chunk
                if b"\n" in chunk:
                    selector.unregister(key.fileobj)
    return {name: line.partition(b"\n")[0] for name, line in lines.items()}


def boot(
    ports: Dict[str, Tuple[int, int]],
    allocations: Dict[str, int],
    host: str = HOST,
    state_dir: Optional[str] = None,
    trace: bool = False,
    timeout: float = 20.0,
) -> Dict[str, DaemonHandle]:
    """Spawn one daemon per name in ``ports`` (name → (peer port, control
    port), 0 for one the daemon's OS assigns), read every ready line, and
    return name → :class:`DaemonHandle` on the ports the daemons bound.

    Any failure, a daemon that exits before its line (``daemon_exited``,
    with its status) or stays silent past ``timeout`` included, kills and
    reaps every process spawned so far and re-raises.
    """
    processes: Dict[str, subprocess.Popen] = {}
    handles: Dict[str, DaemonHandle] = {}
    try:
        for name, (port, control_port) in ports.items():
            processes[name] = spawn_daemon(
                name, port, control_port, allocations, host=host,
                state_dir=state_dir,
                extra_args=("--trace",) if trace else ())
        for name, line in _read_ready_lines(processes, timeout).items():
            ready = json.loads(line)
            handles[name] = DaemonHandle(
                name, processes[name], ready["port"], ready["control_port"],
                ControlClient(host, ready["control_port"], timeout=timeout),
                allocations=allocations, state_dir=state_dir, trace=trace)
    except BaseException:
        for handle in handles.values():
            handle.control.close()
        for process in processes.values():
            process.kill()
            process.wait()
        raise
    finally:
        for process in processes.values():
            process.stdout.close()
    return handles


@dataclass(eq=False)
class DaemonHandle:
    """A spawned daemon plus its control client."""

    name: str
    process: subprocess.Popen
    port: int
    control_port: int
    control: ControlClient
    allocations: Dict[str, int] = field(default_factory=dict)
    state_dir: Optional[str] = None
    trace: bool = False

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
        """Start a fresh process on the same ports, state directory and
        tracing (requires the old process to be dead).  Returns a new
        handle — with a ``state_dir`` the daemon restores its sealed
        state."""
        if self.process.poll() is None:
            raise RuntimeError(f"daemon {self.name} is still running")
        return boot(
            {self.name: (self.port, self.control_port)}, self.allocations,
            state_dir=self.state_dir, trace=self.trace,
            timeout=startup_timeout)[self.name]


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
    handles = boot(dict.fromkeys(names, (0, 0)), allocations,
                   state_dir=state_dir, trace=trace, timeout=startup_timeout)
    ports = {name: (handle.port, handle.control_port)
             for name, handle in handles.items()}
    try:
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
