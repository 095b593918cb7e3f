"""repro.runtime — parallel, cached experiment execution engine.

The runtime decomposes an experiment run into ``(network, preset,
config-group)`` simulation jobs with explicit dependencies, fans them out over
a process pool (``--jobs N``) and reassembles the results deterministically.
Expensive cycle simulations are memoized in a content-addressed on-disk cache
keyed by a stable fingerprint of (trace spec, sampling config, accelerator
config, code version), and each network's calibrated trace is built once per
session through a shared trace store.

Layering::

    fingerprint   stable content hashes (no repro dependencies)
    serialization NetworkResult/LayerResult <-> JSON payloads
    lifecycle     manifest index, gzip entry codec, LRU garbage collection
    backends      pluggable storage (memory / filesystem / shared directory)
    cache         content-addressed result cache (policy over one backend)
    trace_cache   the zero-copy trace fabric: mmap-backed tensor artifacts
    trace_store   TraceSpec + per-session calibrated-trace store
    session       RuntimeSession (cache + traces + stats) and the active session
    engine        simulate()/analyze(): cached execution against the session
    jobs          job model and run planning (dedup across experiments)
    scheduler     process-pool execution, serial fallback, run reports

The job model, cache-key scheme and session semantics are documented in
``docs/runtime.md``; :mod:`repro.serve` builds the async serving front-end on
top of this package, and :mod:`repro.cachenet` (``docs/cachenet.md``) plugs a
network-shared cache tier into the ``backends`` seam
(``--cache-backend remote://host:port``).
"""

from repro.core.progress import ProgressToken, SweepCancelled
from repro.runtime.backends import (
    CacheBackend,
    CorruptEntry,
    FilesystemBackend,
    InMemoryBackend,
    SharedDirectoryBackend,
)
from repro.runtime.cache import CacheStats, ResultCache
from repro.runtime.engine import SimulationRequest, StatisticsRequest, analyze, simulate
from repro.runtime.fingerprint import (
    code_fingerprint,
    fingerprint,
    simulation_key,
    statistics_key,
    trace_tensor_key,
)
from repro.runtime.jobs import (
    ExperimentJob,
    RunPlan,
    SimulationJob,
    StatisticsJob,
    build_plan,
)
from repro.runtime.lifecycle import CacheManifest, GCResult
from repro.runtime.scheduler import RunReport, run_experiments
from repro.runtime.session import (
    DEFAULT_CACHE_DIR,
    RunStats,
    RuntimeSession,
    SessionSpec,
    build_session,
    current_session,
    default_cache_dir,
    isolated_session,
    use_session,
)
from repro.runtime.trace_cache import (
    MmapTraceBacking,
    TraceArtifactStore,
    default_trace_dir,
)
from repro.runtime.trace_store import TraceSpec, TraceStore

__all__ = [
    "CacheBackend",
    "CacheManifest",
    "CacheStats",
    "CorruptEntry",
    "FilesystemBackend",
    "InMemoryBackend",
    "SharedDirectoryBackend",
    "ProgressToken",
    "SweepCancelled",
    "DEFAULT_CACHE_DIR",
    "GCResult",
    "ResultCache",
    "default_cache_dir",
    "SimulationRequest",
    "StatisticsRequest",
    "analyze",
    "simulate",
    "code_fingerprint",
    "fingerprint",
    "simulation_key",
    "statistics_key",
    "ExperimentJob",
    "RunPlan",
    "SimulationJob",
    "StatisticsJob",
    "build_plan",
    "RunReport",
    "run_experiments",
    "RunStats",
    "RuntimeSession",
    "SessionSpec",
    "build_session",
    "current_session",
    "isolated_session",
    "use_session",
    "MmapTraceBacking",
    "TraceArtifactStore",
    "default_trace_dir",
    "trace_tensor_key",
    "TraceSpec",
    "TraceStore",
]
