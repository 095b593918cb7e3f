"""The zero-copy trace fabric: content-addressed, mmap-backed trace artifacts.

Every process used to pay the full trace cold-start privately: re-run the
calibration bisection (:func:`repro.nn.calibration.calibrate_network`, 40
bisection steps over sampled layers) and regenerate full layer tensors it
touched — the per-process cost ROADMAP item 4 calls out as what caps worker
count per machine.  This module makes traces a shared on-host resource:

* **tensor artifacts** — each ``(TraceSpec, layer)`` full tensor is
  materialized exactly once per host into
  ``<trace-dir>/<content-hash>.npy`` (atomic temp-file + rename publication)
  and opened by everyone else with ``np.load(..., mmap_mode="r")``: a
  read-only memory map, so N workers on one host share one physical copy and
  a warm start costs an ``mmap`` instead of a generation pass.
* **persisted calibrations** — :class:`~repro.nn.calibration.NetworkCalibration`
  results are stored as ordinary gzip JSON entries in the same directory, so
  workers skip the bisection entirely on a warm host.
* **the same cache discipline as results** — keys are content hashes over the
  spec plus the trace code fingerprint
  (:func:`repro.runtime.fingerprint.trace_tensor_key`); editing ``nn`` or
  ``numerics`` source invalidates artifacts exactly like editing simulation
  source invalidates cached results.  Artifacts are indexed by the PR 3
  lifecycle manifest and garbage-collected through it (size/age caps), so
  ``--cache-gc``/``--cache-stats`` and serve background GC see them.

Bit-identity is by construction — an artifact holds exactly the bytes the
generate-on-demand path produces for that key — and proven by the fabric's
golden tests (``tests/test_trace_fabric.py``).  Concurrent publication is
safe without locks: two builders of one key produce identical bytes, each
publishes via its own temp file + ``os.replace``, and whichever rename lands
last simply overwrites the same content; readers only ever see a complete
file.  ``docs/runtime.md`` documents the artifact layout and invalidation
rule; ``docs/cluster.md`` the per-host sharing story.
"""

from __future__ import annotations

import dataclasses
import os
import tempfile
import threading
from pathlib import Path

import numpy as np

from repro.core.counters import Counters
from repro.nn.traces import TraceBacking
from repro.runtime import lifecycle
from repro.runtime.fingerprint import calibration_key, trace_tensor_key

__all__ = [
    "CALIBRATION_SAMPLES",
    "CALIBRATION_SEED",
    "FabricCounters",
    "TRACES_SUBDIR",
    "MmapTraceBacking",
    "TraceArtifactStore",
    "default_trace_dir",
]

#: Subdirectory of a result-cache directory the fabric defaults to, keeping
#: trace artifacts out of the result manifest's namespace.
TRACES_SUBDIR = "traces"

#: The :func:`~repro.nn.calibration.calibrate_network` defaults the fabric
#: persists calibrations under (the trace path always calls it with these).
CALIBRATION_SAMPLES = 8192
CALIBRATION_SEED = 12345


def default_trace_dir(cache_dir: str | Path) -> Path:
    """Where trace artifacts live next to a result cache: ``<cache-dir>/traces``."""
    return Path(cache_dir).expanduser() / TRACES_SUBDIR


@dataclasses.dataclass
class FabricCounters(Counters):
    """The fabric's event counters, under their wire names.

    Full tensors generated vs. opened as read-only memory maps of host-shared
    artifacts, the artifact bytes those opens shared instead of duplicating,
    and calibration bisections run vs. loaded from persisted results.
    :class:`~repro.runtime.session.RunStats` carries the same fields.
    """

    trace_tensors_built: int = 0
    traces_mapped: int = 0
    trace_bytes_shared: int = 0
    trace_calibrations_computed: int = 0
    trace_calibrations_loaded: int = 0


class TraceArtifactStore:
    """Per-host artifact store of trace tensors and persisted calibrations.

    Thread-safe (serve worker threads resolve tensors concurrently) and
    multi-process-safe (cluster workers share one directory; see the module
    docstring for the publication protocol).  ``max_bytes``/``max_age`` are
    enforced on each :meth:`gc` call, mirroring ``CacheManifest.gc``.

    :meth:`counters` snapshots the process's :class:`FabricCounters`;
    ``errors`` counts corrupt or unwritable artifacts (degraded to
    in-memory).
    """

    def __init__(
        self,
        directory: str | Path,
        max_bytes: int | None = None,
        max_age: float | None = None,
    ) -> None:
        self.directory = Path(directory).expanduser()
        self.directory.mkdir(parents=True, exist_ok=True)
        self.manifest = lifecycle.CacheManifest(self.directory)
        self.max_bytes = max_bytes
        self.max_age = max_age
        self._lock = threading.Lock()
        self.counts = FabricCounters()
        self.errors = 0

    # ----------------------------------------------------------------- tensors
    def layer_tensor(self, spec, layer_index: int, builder) -> np.ndarray:
        """The ``(spec, layer)`` tensor: an existing artifact's read-only mmap,
        or ``builder()``'s result published for every other process on the host.

        ``builder`` must return the generate-on-demand ground truth
        (:meth:`repro.nn.traces.NetworkTrace.generate_layer_input`); identical
        keys imply identical bytes, which is what makes lock-free concurrent
        publication safe.
        """
        key = trace_tensor_key(spec, layer_index)
        path = lifecycle.tensor_path(self.directory, key)
        tensor = self._open(key, path)
        if tensor is not None:
            self.manifest.record_use(key)
            return tensor
        values = np.ascontiguousarray(builder())
        size = self._publish(key, path, values)
        if size is None:
            return values  # unwritable directory: degrade to private memory
        with self._lock:
            self.counts.trace_tensors_built += 1
        self.manifest.record_store(key, "trace_tensor", size)
        tensor = self._open(key, path)
        return tensor if tensor is not None else values

    def _open(self, key: str, path: Path) -> np.ndarray | None:
        """Map an artifact read-only; a torn/corrupt file is dropped (rebuild)."""
        if not path.exists():
            return None
        try:
            tensor = np.load(path, mmap_mode="r")
            size = path.stat().st_size
        except (OSError, ValueError):
            with self._lock:
                self.errors += 1
            try:
                path.unlink()
            except OSError:
                pass
            self.manifest.record_remove(key)
            return None
        with self._lock:
            self.counts.traces_mapped += 1
            self.counts.trace_bytes_shared += size
        return tensor

    def _publish(self, key: str, path: Path, values: np.ndarray) -> int | None:
        """Atomically publish a tensor artifact; returns its byte size."""
        tmp_name = None
        try:
            descriptor, tmp_name = tempfile.mkstemp(
                dir=self.directory, prefix=f".{key[:16]}-", suffix=".tmp"
            )
            with os.fdopen(descriptor, "wb") as handle:
                np.save(handle, values)
            size = os.path.getsize(tmp_name)
            os.replace(tmp_name, path)
        except OSError:
            if tmp_name is not None:
                try:
                    os.unlink(tmp_name)
                except OSError:
                    pass
            with self._lock:
                self.errors += 1
            return None
        return size

    # ------------------------------------------------------------ calibrations
    def network_calibration(self, spec):
        """The persisted :class:`NetworkCalibration` for ``spec``, computing
        (and persisting) it on first request per host."""
        from repro.nn.calibration import NetworkCalibration, calibrate_network

        key = calibration_key(
            spec.network,
            spec.representation,
            spec.suffix_bits,
            CALIBRATION_SAMPLES,
            CALIBRATION_SEED,
            spec.dense_first_layer,
        )
        path = lifecycle.find_entry(self.directory, key)
        if path is not None:
            try:
                entry = lifecycle.read_entry(path)
                calibration = NetworkCalibration(**entry["calibration"])
            except (OSError, ValueError, KeyError, TypeError):
                with self._lock:
                    self.errors += 1
                try:
                    path.unlink()
                except OSError:
                    pass
                self.manifest.record_remove(key)
            else:
                with self._lock:
                    self.counts.trace_calibrations_loaded += 1
                self.manifest.record_use(key)
                return calibration
        calibration = calibrate_network(
            spec.network,
            representation=spec.representation,
            suffix_bits=spec.suffix_bits,
            samples_per_layer=CALIBRATION_SAMPLES,
            seed=CALIBRATION_SEED,
            dense_first_layer=spec.dense_first_layer,
        )
        with self._lock:
            self.counts.trace_calibrations_computed += 1
        try:
            size = lifecycle.write_entry(
                self.directory, key, {"calibration": dataclasses.asdict(calibration)}
            )
        except OSError:
            with self._lock:
                self.errors += 1
        else:
            self.manifest.record_store(key, "trace_calibration", size)
        return calibration

    def prewarm(self) -> dict:
        """Open every existing artifact once (elastic-join pre-warm).

        A worker joining a host with a warm fabric (``docs/cluster.md``)
        refreshes its manifest view, maps each tensor artifact and validates
        each calibration entry up front, so its first planned job starts from
        read-only mmaps instead of discovering (or torn-file-recovering) the
        artifacts one by one on the hot path.  Returns how many of each kind
        were warmed.
        """
        self.manifest.refresh()
        tensors = calibrations = 0
        for key, meta in self.manifest.entries().items():
            tensor_path = lifecycle.tensor_path(self.directory, key)
            kind = meta.get("kind")
            if kind == "trace_tensor" or (kind is None and tensor_path.exists()):
                if self._open(key, tensor_path) is not None:
                    tensors += 1
                continue
            entry_path = lifecycle.find_entry(self.directory, key)
            if entry_path is None:
                continue
            try:
                lifecycle.read_entry(entry_path)
            except (OSError, ValueError):
                continue
            calibrations += 1
        return {"tensors": tensors, "calibrations": calibrations}

    # -------------------------------------------------------------- observation
    def counters(self) -> dict:
        """Wire form of this process's :class:`FabricCounters`."""
        with self._lock:
            return self.counts.as_dict()

    def usage(self) -> dict:
        """Current artifact-tier state, split by kind (manifest-backed)."""
        stats = self.manifest.stats()
        tensors = tensor_bytes = calibrations = 0
        for key, meta in self.manifest.entries().items():
            kind = meta.get("kind")
            if kind is None:  # post-rebuild record: classify by on-disk form
                kind = (
                    "trace_tensor"
                    if lifecycle.tensor_path(self.directory, key).exists()
                    else "trace_calibration"
                )
            if kind == "trace_tensor":
                tensors += 1
                tensor_bytes += meta["size"]
            else:
                calibrations += 1
        return {
            "directory": str(self.directory),
            "entries": stats["entries"],
            "disk_bytes": stats["bytes"],
            "tensors": tensors,
            "tensor_bytes": tensor_bytes,
            "calibrations": calibrations,
            "oldest_age_seconds": stats["oldest_age_seconds"],
            "lru_age_seconds": stats["lru_age_seconds"],
        }

    # --------------------------------------------------------------- lifecycle
    def gc(
        self, max_bytes: int | None = None, max_age: float | None = None
    ) -> lifecycle.GCResult:
        """LRU-first collection of the artifact tier (defaults to the caps)."""
        max_bytes = max_bytes if max_bytes is not None else self.max_bytes
        max_age = max_age if max_age is not None else self.max_age
        if max_bytes is None and max_age is None:
            return lifecycle.GCResult(
                remaining_entries=len(self.manifest),
                remaining_bytes=self.manifest.total_bytes(),
            )
        return self.manifest.gc(max_bytes=max_bytes, max_age=max_age)

    def clear(self) -> int:
        """Delete every artifact (tensors and calibrations)."""
        return self.manifest.clear()

    def __len__(self) -> int:
        return len(self.manifest)


class MmapTraceBacking(TraceBacking):
    """The :class:`~repro.nn.traces.TraceBacking` the fabric attaches to traces.

    Resolves a trace's full layer tensors through a
    :class:`TraceArtifactStore`, using the trace's own on-demand generator as
    the builder — so the first resolution per host materializes the artifact
    and every later one (any process) maps it read-only.
    """

    def __init__(self, store: TraceArtifactStore, spec) -> None:
        self.store = store
        self.spec = spec

    def layer_tensor(self, trace, layer_index: int) -> np.ndarray | None:
        return self.store.layer_tensor(
            self.spec, layer_index, lambda: trace.generate_layer_input(layer_index)
        )
