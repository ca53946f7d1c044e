"""Process handling, /proc sampling, closed-loop driving and statistics.

Everything here looks at the system from outside: daemons are started
through the ``python -m repro.runtime serve`` command line, spoken to
through the control API, and accounted through ``/proc``.  Nothing in
this file knows what a payment is.
"""

from __future__ import annotations

import atexit
import hashlib
import math
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from repro.runtime.control import (  # noqa: E402 — needs SRC on the path
    ControlClient,
    ControlError,
    wait_for_control,
)
from repro.runtime.launch import HOST, free_port  # noqa: E402

_CLK_TCK = os.sysconf("SC_CLK_TCK")


# ---------------------------------------------------------------------------
# System processes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Daemon:
    """One spawned ``serve`` process and its addresses."""

    process: subprocess.Popen
    port: int
    control_port: int


class Fleet:
    """The system processes of one workload launch.

    Started here rather than through ``repro.runtime.launch.spawn_daemon``
    because each process must lead its own session: ``close`` kills the whole
    group — a sharded router's workers included — without the generator
    being in it.  ``close`` runs from ``with``, from ``atexit`` and (via
    :func:`exit_on_signals`) on SIGINT/SIGTERM, so no exit path of the
    benchmark leaves a daemon behind.  Ports come from ``free_port`` and
    CPU is read per spawned pid, so a daemon some *other* run leaked
    cannot collide with or be counted into this one.
    """

    def __init__(self, trace: bool = False) -> None:
        self.trace = trace
        self.daemons: Dict[str, Daemon] = {}
        self._clients: List[ControlClient] = []
        self.first_spawn: Optional[float] = None
        atexit.register(self.close)

    def __enter__(self) -> "Fleet":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def spawn(self, name: str, allocations: Dict[str, int],
              extra: Sequence[str] = ()) -> Daemon:
        """Start ``python -m repro.runtime serve`` without waiting."""
        port, control_port = free_port(), free_port()
        command = [sys.executable, "-m", "repro.runtime", "serve",
                   "--name", name, "--host", HOST,
                   "--control-port", str(control_port)]
        if "--workers" not in extra:
            command += ["--port", str(port)]
        for participant, amount in sorted(allocations.items()):
            command += ["--fund", f"{participant}={amount}"]
        if self.trace:
            command.append("--trace")
        command += list(extra)
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC)
        env.pop("REPRO_TRACE", None)
        OUT.mkdir(parents=True, exist_ok=True)
        if self.first_spawn is None:
            self.first_spawn = time.perf_counter()
        with open(OUT / f"{name}.stderr.log", "wb") as log:
            process = subprocess.Popen(
                command, env=env, stdin=subprocess.DEVNULL,
                stdout=subprocess.DEVNULL, stderr=log,
                start_new_session=True)
        daemon = Daemon(process, port, control_port)
        self.daemons[name] = daemon
        return daemon

    def connect(self, control_port: int,
                timeout: float = 30.0) -> ControlClient:
        """A control connection, opened once the port answers ``ping``."""
        client = wait_for_control(HOST, control_port, timeout=timeout)
        self._clients.append(client)
        return client

    def close(self) -> None:
        atexit.unregister(self.close)
        for client in self._clients:
            client.close()
        self._clients.clear()
        for daemon in self.daemons.values():
            try:
                os.killpg(daemon.process.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        for daemon in self.daemons.values():
            daemon.process.wait()
        self.daemons.clear()


def exit_on_signals() -> None:
    """Turn SIGTERM and SIGINT into ``SystemExit``, so ``finally`` blocks
    and ``atexit`` reap the daemons.  (SIGINT too: a shell that starts
    the benchmark in the background leaves it ignored, and Python then
    never raises ``KeyboardInterrupt``.)"""
    def handler(signum, _frame):
        sys.exit(128 + signum)
    signal.signal(signal.SIGTERM, handler)
    signal.signal(signal.SIGINT, handler)


# ---------------------------------------------------------------------------
# /proc accounting
# ---------------------------------------------------------------------------

def _stat_fields(pid: int) -> Optional[List[str]]:
    try:
        with open(f"/proc/{pid}/stat") as handle:
            # comm may hold spaces and parentheses; fields follow the last ')'.
            return handle.read().rsplit(")", 1)[1].split()
    except (FileNotFoundError, ProcessLookupError):
        return None


def process_tree(root: int) -> List[int]:
    """``root`` and every live descendant, found by walking ``/proc``."""
    children: Dict[int, List[int]] = {}
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            fields = _stat_fields(int(entry))
            if fields is not None:
                children.setdefault(int(fields[1]), []).append(int(entry))
    tree, frontier = [], [root]
    while frontier:
        pid = frontier.pop()
        tree.append(pid)
        frontier.extend(children.get(pid, ()))
    return tree


def cpu_seconds(pids: Sequence[int]) -> float:
    """User + system CPU consumed so far by ``pids`` (dead ones count 0)."""
    ticks = 0
    for pid in pids:
        fields = _stat_fields(pid)
        if fields is not None:
            ticks += int(fields[11]) + int(fields[12])  # utime, stime
    return ticks / _CLK_TCK


def own_cpu_seconds() -> float:
    """User + system CPU of this process, all threads."""
    times = os.times()
    return times.user + times.system


def peak_rss_mb(pids: Sequence[int]) -> float:
    """Sum of the processes' resident-set high-water marks."""
    total_kb = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/status") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
                        break
        except (FileNotFoundError, ProcessLookupError):
            pass
    return total_kb / 1024.0


# ---------------------------------------------------------------------------
# Closed-loop driving
# ---------------------------------------------------------------------------

class Tally:
    """What one connection saw during one window."""

    def __init__(self) -> None:
        self.latencies: List[float] = []
        self.failed = 0
        self.aborted: Optional[str] = None


def _closed_loop(step: Callable[[], None], deadline: float,
                 tally: Tally) -> None:
    """Issue requests back to back until ``deadline``: the next one is
    sent only when the previous reply has arrived."""
    clock = time.perf_counter
    latencies = tally.latencies
    while clock() < deadline:
        started = clock()
        try:
            step()
        except ControlError as exc:
            tally.failed += 1
            if exc.code in ("timeout", "connection_closed"):
                tally.aborted = f"{exc.code}: {exc}"  # the daemon is gone
                return
        else:
            latencies.append(clock() - started)


def drive(steps: Sequence[Callable[[], None]], seconds: float) -> List[Tally]:
    """Run one closed loop per step concurrently for ``seconds``.

    One step is one connection; a single step runs on the calling
    thread, several run on one thread each (they spend their time
    blocked in ``recv`` with the GIL released)."""
    tallies = [Tally() for _ in steps]
    deadline = time.perf_counter() + seconds
    if len(steps) == 1:
        _closed_loop(steps[0], deadline, tallies[0])
        return tallies
    threads = [threading.Thread(target=_closed_loop,
                                args=(step, deadline, tally), daemon=True)
               for step, tally in zip(steps, tallies)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return tallies


def control_rtt_us(client: ControlClient, verb: str, probes: int = 300,
                   **kwargs) -> float:
    """Median round trip of ``verb`` on an open control connection."""
    samples = []
    for _ in range(probes):
        started = time.perf_counter()
        client.call(verb, **kwargs)
        samples.append(time.perf_counter() - started)
    return statistics.median(samples) * 1e6


def wait_until(predicate: Callable[[], bool], timeout: float,
               interval: float = 0.001) -> bool:
    """Poll ``predicate`` until it holds; False on timeout."""
    deadline = time.perf_counter() + timeout
    while not predicate():
        if time.perf_counter() > deadline:
            return False
        time.sleep(interval)
    return True


# ---------------------------------------------------------------------------
# Host speed
# ---------------------------------------------------------------------------

#: Spins per second of :func:`host_speed`'s loop on this container when
#: the host is quiet.  It only fixes the scale of the normalised numbers
#: (speed 1.0 = this rate); changing it rescales every time-based metric.
REFERENCE_SPINS_PER_S = 850_000.0
_P256K1 = 2 ** 256 - 2 ** 32 - 977


def _spin_rate(seconds: float) -> float:
    clock = time.perf_counter
    sha256 = hashlib.sha256
    value = 0x1234567890ABCDEF1234567890ABCDEF
    spins, elapsed = 0, 0.0
    started = clock()
    while elapsed < seconds:
        for _ in range(200):
            value = (value * value + 7) % _P256K1
            value ^= int.from_bytes(
                sha256(value.to_bytes(32, "big")).digest()[:8], "big")
        spins += 200
        elapsed = clock() - started
    return spins / elapsed


def host_speed(seconds: float) -> float:
    """How fast this host runs right now, relative to the reference.

    The sandbox is a shared VM whose effective CPU speed wanders by
    ±15 % over seconds to minutes — more than the bounds the benchmark
    has to resolve.  A fixed pure-Python loop with the program's own
    instruction mix (256-bit modular arithmetic and SHA-256) is timed
    for ``seconds`` while the system is idle, just before and after
    every window; dividing a window's times by the speed around it
    cancels the host's share of the variation.  Each CPU the benchmark
    may run on gets an equal part of the slice, because the virtual
    CPUs are slowed independently.  The loop lives in the benchmark, so
    no change to ``src/`` moves it.
    """
    allowed = os.sched_getaffinity(0)
    try:
        rates = []
        for cpu in sorted(allowed):
            os.sched_setaffinity(0, {cpu})
            rates.append(_spin_rate(seconds / len(allowed)))
    finally:
        os.sched_setaffinity(0, allowed)
    return statistics.mean(rates) / REFERENCE_SPINS_PER_S


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------

def percentile(samples: Sequence[float], q: float,
               min_beyond: int = 10) -> float:
    """Nearest-rank percentile ``q`` (0–1) of ``samples``.

    Refuses (``ValueError``) unless at least ``min_beyond`` samples lie
    beyond the percentile: p99 of fewer than 1,000 samples is the
    second-largest value of a handful, not a tail estimate."""
    count = len(samples)
    if count * (1.0 - q) < min_beyond:
        needed = math.ceil(min_beyond / (1.0 - q))
        raise ValueError(
            f"p{q * 100:g} needs {needed} samples, got {count}")
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(q * count) - 1)]


def spread(values: Sequence[float]) -> float:
    """Interquartile range as a share of the median (0 with < 4 values)."""
    if len(values) < 4:
        return 0.0
    first, _, third = statistics.quantiles(values, n=4)
    middle = statistics.median(values)
    return (third - first) / middle if middle else 0.0
