"""The runtime session: cache + trace store + stats, and the active session.

Experiments do not thread runtime handles through their signatures — they ask
for :func:`current_session`.  Sessions are made by one builder,
:func:`build_session` (the CLI's run, each scheduler pool worker, the serve
and cluster processes); tests use :func:`use_session`/:func:`isolated_session`.
The default session uses an in-memory cache, so importing ``repro`` and
calling ``fig9.run()`` never touches the filesystem.

Session activation is *thread-scoped*: :func:`use_session` installs a session
on the calling thread only, and threads without an override fall back to the
process-wide default.  This is what lets the serve layer
(:mod:`repro.serve`) execute concurrent jobs on worker threads, each under its
own per-request stats view of one shared session.  See ``docs/runtime.md``
for the full session model.
"""

from __future__ import annotations

import contextlib
import os
import threading
from dataclasses import dataclass, field
from pathlib import Path

from repro.core.counters import Counters
from repro.core.progress import ProgressToken
from repro.core.sweep import SweepStats
from repro.runtime.backends import SharedDirectoryBackend
from repro.runtime.cache import CacheStats, ResultCache
from repro.runtime.trace_cache import FabricCounters, TraceArtifactStore, default_trace_dir
from repro.runtime.trace_store import TraceStore

__all__ = [
    "DEFAULT_CACHE_DIR",
    "RunStats",
    "RuntimeSession",
    "build_session",
    "current_session",
    "default_cache_dir",
    "isolated_session",
    "resolve_trace_dir",
    "use_session",
]

#: Fallback on-disk cache location of the CLI when ``REPRO_CACHE_DIR`` is
#: unset.  Deliberately *not* resolved against the environment here: the env
#: var is read at call time by :func:`default_cache_dir`, so setting it after
#: ``repro`` is imported (tests, embedding apps, serve wrappers) still works.
DEFAULT_CACHE_DIR = Path("~/.cache/repro-pragmatic")


def default_cache_dir() -> Path:
    """The CLI's default cache directory, resolving ``REPRO_CACHE_DIR`` *now*."""
    return Path(os.environ.get("REPRO_CACHE_DIR") or DEFAULT_CACHE_DIR)


@dataclass
class _SessionCounters(Counters):
    """What a session counts itself: the head of the :class:`RunStats` wire form."""

    cache: CacheStats = field(default_factory=CacheStats)
    sweep: SweepStats = field(default_factory=SweepStats)
    traces_built: int = 0
    traces_reused: int = 0


@dataclass
class RunStats(FabricCounters, _SessionCounters):
    """Aggregate statistics of one run (merged across pool workers, serve
    requests and cluster workers).

    The session's own counters come first on the wire, then the trace
    fabric's :class:`~repro.runtime.trace_cache.FabricCounters`.  Every
    field merges by the rule its class declares (:mod:`repro.core.counters`).
    """

    def summary(self) -> str:
        """One-line, human-readable rendering for run summaries."""
        calibrations = self.trace_calibrations_computed
        return (
            f"cache {self.cache.hits} hits / {self.cache.misses} misses / "
            f"{self.cache.stores} stores / {self.cache.errors} errors; "
            f"simulated {self.sweep.configs_simulated} configs "
            f"({self.sweep.drain_groups_computed} drain groups); "
            f"traces {self.traces_built} built / {self.traces_reused} reused; "
            f"fabric {calibrations} calibrations / "
            f"{self.trace_tensors_built} tensor builds / "
            f"{self.traces_mapped} mmaps ({self.trace_bytes_shared} bytes shared)"
        )


class RuntimeSession:
    """Shared state of one experiment-execution session.

    ``progress`` optionally carries a :class:`~repro.core.progress.ProgressToken`
    through the session: the execution funnels (:func:`repro.runtime.engine.simulate`
    / :func:`~repro.runtime.engine.analyze`) and the experiment runner read it
    from the *active* session, check it at cooperative checkpoints (raising
    :class:`~repro.core.progress.SweepCancelled` once cancelled) and emit
    per-layer/per-network progress events through it.  Attach tokens to
    short-lived per-request sessions (the serve layer's stats views), never to
    a session shared by concurrent jobs.
    """

    def __init__(
        self,
        cache: ResultCache | None = None,
        traces: TraceStore | None = None,
        progress: "ProgressToken | None" = None,
    ) -> None:
        self.cache = cache if cache is not None else ResultCache()
        self.traces = traces if traces is not None else TraceStore()
        self.sweep_stats = SweepStats()
        self.progress = progress

    def trace(self, spec) -> object:
        """The calibrated trace for ``spec``, via the shared store."""
        return self.traces.get(spec)

    def stats(self) -> RunStats:
        """Snapshot of this session's counters."""
        stats = RunStats(traces_built=self.traces.builds, traces_reused=self.traces.reuses)
        stats.cache.merge(self.cache.stats)
        stats.sweep.merge(self.sweep_stats)
        # Trace-fabric counters live on the shared artifact store; per-job
        # stats views (serve's _TraceView) have no ``artifacts`` and report 0.
        artifacts = getattr(self.traces, "artifacts", None)
        if artifacts is not None:
            stats.merge(artifacts.counters())
        return stats


#: The process-wide default session (memory-cached); threads without an
#: explicit :func:`use_session` override fall back to it.
_DEFAULT = RuntimeSession()

#: Per-thread stack of :func:`use_session` overrides.
_LOCAL = threading.local()


def current_session() -> RuntimeSession:
    """The active session: this thread's override, or the process default."""
    stack = getattr(_LOCAL, "stack", None)
    if stack:
        return stack[-1]
    return _DEFAULT


def resolve_trace_dir(
    cache_dir: str | Path | None = None,
    trace_dir: str | Path | None = None,
    no_trace_cache: bool = False,
) -> Path | None:
    """Where (if anywhere) this process's trace fabric lives.

    ``no_trace_cache`` disables the fabric outright; an explicit ``trace_dir``
    wins otherwise; an on-disk result cache defaults to a ``traces/``
    subdirectory beside it (so N workers sharing a cache dir also share
    trace artifacts); a memory-only session keeps traces in memory too.
    Note ``--no-cache --trace-dir DIR`` keeps the fabric *on* — result caching
    and trace sharing are independent tiers.
    """
    if no_trace_cache:
        return None
    if trace_dir is not None:
        return Path(trace_dir).expanduser()
    if cache_dir is not None:
        return default_trace_dir(cache_dir)
    return None


def build_session(
    cache_dir: str | Path | None = None,
    no_cache: bool = False,
    trace_dir: str | Path | None = None,
    no_trace_cache: bool = False,
    cache_backend: object | None = None,
    shared: bool = False,
) -> RuntimeSession:
    """A fresh session: a result cache plus, when wired, the trace fabric.

    ``cache_dir`` selects the on-disk result cache; ``None`` keeps it in
    memory, and ``no_cache`` disables result caching entirely.
    ``cache_backend`` overrides ``cache_dir`` for the result tier: a
    ``--cache-backend`` URI spec (e.g. ``remote://host:port``) or a
    :class:`~repro.runtime.backends.CacheBackend` instance, resolved by
    :func:`repro.cachenet.backend.resolve_backend` (``docs/cachenet.md``).
    ``shared`` stores a ``cache_dir`` through the
    :class:`~repro.runtime.backends.SharedDirectoryBackend`, which long-lived
    sibling processes (cluster workers) need to see each other's stores.

    The trace fabric resolves by :func:`resolve_trace_dir` against
    ``cache_dir`` (unless ``no_cache``), ``trace_dir`` and
    ``no_trace_cache``: by default a ``traces/`` directory beside a disk
    cache, so every process on the host maps one physical copy of each trace
    tensor.
    """
    if no_cache:
        cache = ResultCache.disabled()
    elif cache_backend is not None:
        from repro.cachenet.backend import resolve_backend

        cache = ResultCache(backend=resolve_backend(cache_backend))
    elif shared and cache_dir is not None:
        cache = ResultCache(backend=SharedDirectoryBackend(cache_dir))
    else:
        cache = ResultCache(directory=cache_dir)
    resolved = resolve_trace_dir(None if no_cache else cache_dir, trace_dir, no_trace_cache)
    traces = None if resolved is None else TraceStore(artifacts=TraceArtifactStore(resolved))
    return RuntimeSession(cache=cache, traces=traces)


@contextlib.contextmanager
def use_session(session: RuntimeSession):
    """Temporarily make ``session`` the active session *for this thread*.

    Overrides nest; concurrent threads (the serve worker pool) can each hold
    a different active session without interfering.
    """
    stack = getattr(_LOCAL, "stack", None)
    if stack is None:
        stack = _LOCAL.stack = []
    stack.append(session)
    try:
        yield session
    finally:
        stack.pop()


@contextlib.contextmanager
def isolated_session():
    """A fresh memory-only session, isolated from all prior runtime state.

    Benchmarks use this so each measured experiment pays its full cost instead
    of reusing simulations a previous benchmark left in the session cache.
    """
    with use_session(RuntimeSession()) as session:
        yield session
