"""Helpers shared by the workloads: host identity, percentiles, processes."""

from __future__ import annotations

import collections
import json
import os
import platform
import re
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch space inside the checkout (private cache dirs, span files).
WORK = ROOT / ".bench_build" / "perfbench"
CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


def program_env(span_dir: Path | None = None) -> dict:
    """Environment of a spawned program process.

    ``PYTHONDONTWRITEBYTECODE`` keeps runs from rewriting tracked ``.pyc``
    files; ``span_dir`` puts the tracing shim on the path (traced runs).
    """
    env = dict(os.environ)
    paths = [str(SRC)]
    if span_dir is not None:
        paths.insert(0, str(Path(__file__).resolve().parent / "shim"))
        env["PERFBENCH_SPAN_DIR"] = str(span_dir)
    else:
        env.pop("PERFBENCH_SPAN_DIR", None)
    env["PYTHONPATH"] = os.pathsep.join(paths)
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


# ------------------------------------------------------------------ host speed
GAUGE = Path(__file__).resolve().parent / "gauge.py"
#: Median thread CPU seconds of a ``gauge.py`` round on the host the
#: benchmark was tuned on (a 2-vCPU Xeon VM, Python 3.11, numpy 2.4), idle.
NOMINAL_REFERENCE_S = 1.5e-3


class HostGauge:
    """How fast the host runs, from a fixed reference task run beside the
    workload.

    The benchmark times the program in CPU seconds, which leave out the
    time a process waits for a core behind the benchmark's other processes.
    CPU seconds still stretch when the shared host is busy: on the 2-vCPU
    VM this was tuned on, a sweep's CPU time and the reference round's
    median both doubled when neighbours loaded the host, while the fastest
    round grew by half, and the load came and went within seconds.  So
    inside ``with HostGauge() as gauge:`` a ``gauge.py`` process times one
    round every :data:`INTERVAL_S` for the whole block.  A time the
    benchmark measured between ``perf_counter()`` readings ``start`` and
    ``end`` is reported as ``measured * gauge.scale(start, end)``: scaled to
    a host where the median round of that interval takes
    :data:`NOMINAL_REFERENCE_S`.
    """

    #: Seconds between rounds: a 1.5 ms round every 0.1 s takes 1.5% of a core.
    INTERVAL_S = 0.1
    #: An interval with fewer rounds than this is scaled by the whole run's.
    MIN_ROUNDS = 20

    def __init__(self, cpu: int | None = None) -> None:
        #: Core to pin the reference to (that of a single-threaded workload).
        self.cpu = cpu

    def __enter__(self) -> "HostGauge":
        self.samples: list[tuple[float, float]] = []
        self._process = subprocess.Popen(
            [sys.executable, str(GAUGE), str(self.INTERVAL_S)], stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            text=True,
        )
        if self.cpu is not None:
            os.sched_setaffinity(self._process.pid, {self.cpu})
        return self

    def __exit__(self, *exc_info) -> None:
        out, _ = self._process.communicate()  # closing stdin stops it
        if self._process.returncode == 0:
            self.samples = json.loads(out)

    def scale(self, start: float = float("-inf"), end: float = float("inf")) -> float:
        rounds = [cpu for at, cpu in self.samples if start <= at <= end]
        if len(rounds) < self.MIN_ROUNDS:
            rounds = [cpu for _, cpu in self.samples]
        if not rounds:
            raise RuntimeError("the host gauge recorded no rounds")
        return NOMINAL_REFERENCE_S / statistics.median(rounds)


def host_identity(scale: float) -> dict:
    """The host, with its reference score: gauge rounds per CPU second,
    the median over a run whose :meth:`HostGauge.scale` is ``scale``."""
    import numpy as np

    model = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "cpu_model": model,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "reference_score": round(scale / NOMINAL_REFERENCE_S, 3),
    }


def trace_seed(seed: int) -> int:
    """The trace seed a benchmark seed maps to (non-negative, below 10**6)."""
    return seed % 1_000_000


# ----------------------------------------------------------------- statistics
def percentile(values, q: float) -> float:
    """Nearest-rank percentile ``q`` (0-100) of ``values``."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = max(1, -(-len(ordered) * q // 100))
    return float(ordered[int(rank) - 1])


# ------------------------------------------------------------------ processes
def descendants(pid: int) -> list[int]:
    """``pid`` and every process below it, from ``/proc``."""
    children = collections.defaultdict(list)
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue
        # Field 4 (ppid) follows the parenthesised command name.
        ppid = int(stat.rsplit(")", 1)[1].split()[1])
        children[ppid].append(int(entry.name))
    found, stack = [], [pid]
    while stack:
        current = stack.pop()
        found.append(current)
        stack.extend(children.get(current, ()))
    return found


def _alive(pid: int) -> bool:
    """Whether ``pid`` runs (a zombie awaiting its parent's wait counts as gone)."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


def cpu_seconds(pids) -> float:
    """User plus system CPU seconds used so far by ``pids`` (all threads,
    and children they have reaped)."""
    ticks = 0
    for pid in pids:
        try:
            fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
        except OSError:
            continue
        # Fields 14-17 (utime, stime, cutime, cstime), counted from field 3.
        ticks += sum(int(value) for value in fields[11:15])
    return ticks / CLOCK_TICKS


def child_cpu_seconds(argv: list[str], **kwargs) -> float:
    """Run ``argv`` to completion; its user plus system CPU seconds."""
    process = subprocess.Popen(argv, **kwargs)
    _, status, usage = os.wait4(process.pid, 0)
    process.returncode = os.waitstatus_to_exitcode(status)
    if process.returncode:
        raise subprocess.CalledProcessError(process.returncode, argv)
    return usage.ru_utime + usage.ru_stime


def peak_rss_mb(pids) -> float:
    """Summed ``VmHWM`` (peak resident set) of ``pids``, in MiB."""
    total_kb = 0
    for pid in pids:
        try:
            text = Path(f"/proc/{pid}/status").read_text()
        except OSError:
            continue
        match = re.search(r"^VmHWM:\s+(\d+) kB", text, re.MULTILINE)
        if match:
            total_kb += int(match.group(1))
    return total_kb / 1024.0


class Spawned:
    """A program process whose stderr is drained for its whole life.

    The listening banner is parsed from stderr; later lines go to a bounded
    buffer so a chatty process can never block on a full pipe.
    """

    def __init__(self, argv: list[str], env: dict, banner: str, timeout: float = 60.0) -> None:
        self.process = subprocess.Popen(
            argv,
            cwd=ROOT,
            env=env,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
        )
        self.tail: collections.deque[str] = collections.deque(maxlen=50)
        self._endpoint: tuple[str, int] | None = None
        self._ready = threading.Event()
        self._pattern = re.compile(banner)
        self._reader = threading.Thread(target=self._drain, daemon=True)
        self._reader.start()
        if not self._ready.wait(timeout) or self._endpoint is None:
            self.stop()
            raise RuntimeError(f"{argv[3]} did not start: {' | '.join(self.tail)}")

    def _drain(self) -> None:
        for line in self.process.stderr:
            self.tail.append(line.rstrip())
            match = self._pattern.search(line) if self._endpoint is None else None
            if match:
                self._endpoint = (match.group(1), int(match.group(2)))
                self._ready.set()
        self._ready.set()

    @property
    def endpoint(self) -> tuple[str, int]:
        return self._endpoint

    def tree(self) -> list[int]:
        return descendants(self.process.pid)

    def stop(self, timeout: float = 15.0) -> None:
        """Wait until the process and its children have exited (after a
        shutdown op), escalating to SIGTERM and then SIGKILL."""
        pids = self.tree()
        for sig in (None, signal.SIGTERM, signal.SIGKILL):
            if sig is not None:
                for pid in pids:
                    try:
                        os.kill(pid, sig)
                    except ProcessLookupError:
                        pass
            deadline = time.monotonic() + timeout
            while time.monotonic() < deadline:
                self.process.poll()
                if not any(_alive(pid) for pid in pids):
                    break
                time.sleep(0.05)
            else:
                continue
            break
        self.process.wait()
        self._reader.join(5.0)
        self.process.stderr.close()


def python_module(*args: str) -> list[str]:
    return [sys.executable, "-m", "repro", *args]
