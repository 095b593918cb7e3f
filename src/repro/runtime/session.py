"""The runtime session: cache + trace store + stats, and the active session.

Experiments do not thread runtime handles through their signatures — they ask
for :func:`current_session`.  Sessions are made by one builder,
:func:`build_session`, from one :class:`SessionSpec` of storage settings (the
CLI's run, each scheduler pool worker, the serve and cluster processes);
tests use :func:`use_session`/:func:`isolated_session`.
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
    "SessionSpec",
    "build_session",
    "current_session",
    "default_cache_dir",
    "isolated_session",
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
        spec: "SessionSpec | None" = None,
    ) -> None:
        self.cache = cache if cache is not None else ResultCache()
        self.traces = traces if traces is not None else TraceStore()
        self.sweep_stats = SweepStats()
        self.progress = progress
        #: The :class:`SessionSpec` this session was built from (``None``
        #: for a hand-assembled session).
        self.spec = spec

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


#: The storage flags, declared once for every CLI: ``(field, flag, metavar,
#: help)``; a flag without a metavar is a switch.
_FLAGS = (
    ("cache_dir", "--cache-dir", "DIR", "on-disk result cache directory (default: {default})"),
    ("no_cache", "--no-cache", None, "disable the result cache entirely"),
    (
        "trace_dir", "--trace-dir", "DIR",
        "trace-fabric artifact directory (default: <cache-dir>/traces); processes "
        "sharing it map one physical copy of each trace tensor",
    ),
    (
        "no_trace_cache", "--no-trace-cache", None,
        "disable the zero-copy trace fabric (generate traces in-process)",
    ),
    (
        "cache_backend", "--cache-backend", "SPEC",
        "result-cache backend URI instead of --cache-dir: remote://HOST:PORT (network "
        "cache tier, see docs/cachenet.md), memory://, or a directory path; "
        "--cache-dir then only anchors the trace fabric",
    ),
)


@dataclass(frozen=True)
class SessionSpec:
    """The storage settings a session is built from, one value for every
    process of a run.

    ``cache_dir`` selects the on-disk result cache (``None``: memory) and
    ``no_cache`` disables result caching.  ``cache_backend`` overrides
    ``cache_dir`` for the result tier: a URI spec (``remote://host:port``) or
    a :class:`~repro.runtime.backends.CacheBackend` instance, resolved by
    :func:`repro.cachenet.backend.resolve_backend`.  ``shared`` stores a
    ``cache_dir`` through the
    :class:`~repro.runtime.backends.SharedDirectoryBackend` that sibling
    cluster workers need.  ``trace_dir``/``no_trace_cache`` place the trace
    fabric (:meth:`trace_directory`).

    A CLI declares the flags (:meth:`add_arguments`) and reads them back
    (:meth:`from_args`); :func:`build_session` records the spec as
    ``session.spec``, and :meth:`argv` rebuilds it in a spawned child.
    """

    cache_dir: Path | None = None
    no_cache: bool = False
    trace_dir: Path | None = None
    no_trace_cache: bool = False
    cache_backend: object | None = None
    shared: bool = False

    def __post_init__(self) -> None:
        # Paths compare equal however they were given (CLI string or Path).
        for name in ("cache_dir", "trace_dir"):
            if getattr(self, name) is not None:
                object.__setattr__(self, name, Path(getattr(self, name)))

    @staticmethod
    def add_arguments(
        parser, cache_dir_default: str = "~/.cache/repro-pragmatic or $REPRO_CACHE_DIR"
    ) -> None:
        """Declare the storage flags on an ``argparse`` parser."""
        group = parser.add_argument_group("storage")
        for _, flag, metavar, help_text in _FLAGS:
            options = {"metavar": metavar} if metavar else {"action": "store_true"}
            group.add_argument(flag, help=help_text.format(default=cache_dir_default), **options)

    @classmethod
    def from_args(cls, args, default_dir: str | Path | None = None) -> "SessionSpec":
        """The spec parsed storage flags describe.

        Without ``--cache-dir`` results go to ``default_dir`` — unless they
        go nowhere (``--no-cache``) or to a ``--cache-backend``, where an
        explicit ``--cache-dir`` only anchors the trace fabric.
        """
        cache_dir = None if args.no_cache else args.cache_dir
        if cache_dir is None and not args.no_cache and args.cache_backend is None:
            cache_dir = default_dir
        return cls(
            cache_dir, args.no_cache, args.trace_dir, args.no_trace_cache, args.cache_backend
        )

    def argv(self) -> list[str]:
        """The flags that rebuild this spec in a child (``shared`` is the
        child's mode, not a flag)."""
        argv: list[str] = []
        for name, flag, metavar, _ in _FLAGS:
            value = getattr(self, name)
            if metavar and value is not None:
                argv.extend([flag, str(value)])
            elif not metavar and value:
                argv.append(flag)
        return argv

    def trace_directory(self) -> Path | None:
        """Where (if anywhere) the trace fabric lives.

        ``no_trace_cache`` disables it; an explicit ``trace_dir`` wins; an
        on-disk result cache defaults to a ``traces/`` directory beside it
        (so processes sharing a cache dir share trace artifacts); otherwise
        traces stay in memory.  ``--no-cache --trace-dir DIR`` keeps the
        fabric *on*: result caching and trace sharing are independent tiers.
        """
        if self.no_trace_cache:
            return None
        if self.trace_dir is not None:
            return self.trace_dir.expanduser()
        if self.cache_dir is not None and not self.no_cache:
            return default_trace_dir(self.cache_dir)
        return None


def build_session(spec: SessionSpec = SessionSpec()) -> RuntimeSession:
    """A fresh session of ``spec``'s result cache and trace fabric; it
    records ``spec`` so pool workers can rebuild it."""
    if spec.no_cache:
        cache = ResultCache.disabled()
    elif spec.cache_backend is not None:
        from repro.cachenet.backend import resolve_backend

        cache = ResultCache(backend=resolve_backend(spec.cache_backend))
    elif spec.shared and spec.cache_dir is not None:
        cache = ResultCache(backend=SharedDirectoryBackend(spec.cache_dir))
    else:
        cache = ResultCache(directory=spec.cache_dir)
    trace_dir = spec.trace_directory()
    traces = None if trace_dir is None else TraceStore(artifacts=TraceArtifactStore(trace_dir))
    return RuntimeSession(cache=cache, traces=traces, spec=spec)


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
