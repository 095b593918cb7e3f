"""Tests for the zero-copy trace fabric (:mod:`repro.runtime.trace_cache`).

The load-bearing claim of the fabric is bit-identity: a tensor resolved
through a read-only mmap of a published artifact must be *exactly* equal —
values and dtype — to the one generate-on-demand produces for the same spec.
These tests prove it over randomized specs, then cover the publication race
(N processes, one artifact), lifecycle GC of ``.npy`` artifacts, calibration
persistence, the bounded per-trace tensor LRU, and the trace-dir resolution
policy.
"""

import multiprocessing
import os

import numpy as np
import pytest

from repro.nn.traces import FULL_CACHE_ENTRIES, TraceBacking
from repro.runtime import lifecycle
from repro.runtime.fingerprint import trace_tensor_key
from repro.runtime.session import RuntimeSession, SessionSpec
from repro.runtime.trace_cache import (
    MmapTraceBacking,
    TraceArtifactStore,
    default_trace_dir,
)
from repro.runtime.trace_store import TraceSpec, TraceStore


def _random_specs(count: int) -> list[TraceSpec]:
    """Randomized-but-reproducible specs spanning network/seed/representation."""
    rng = np.random.default_rng(20260808)
    specs = []
    for _ in range(count):
        specs.append(
            TraceSpec(
                network=str(rng.choice(["alexnet", "nin"])),
                seed=int(rng.integers(0, 100)),
                dense_first_layer=bool(rng.integers(0, 2)),
            )
        )
    return specs


def _fabric_trace(directory, spec):
    """A trace wired through a fabric store rooted at ``directory``."""
    artifacts = TraceArtifactStore(directory)
    trace = TraceStore(artifacts=artifacts).get(spec)
    return artifacts, trace


class TestGoldenBitIdentity:
    """The mmap path returns arrays exactly equal to generate-on-demand."""

    @pytest.mark.parametrize("spec", _random_specs(3), ids=lambda s: f"{s.network}-s{s.seed}")
    def test_backed_equals_generated_exactly(self, tmp_path, spec):
        artifacts, trace = _fabric_trace(tmp_path / "traces", spec)
        layers = [0, trace.network.num_layers - 1]
        for layer_index in layers:
            golden = trace.generate_layer_input(layer_index)
            backed = trace.layer_input(layer_index)
            assert isinstance(backed, np.memmap)
            assert not backed.flags.writeable
            assert backed.dtype == golden.dtype
            assert backed.shape == golden.shape
            assert np.array_equal(np.asarray(backed), golden)

    def test_second_store_maps_without_building(self, tmp_path):
        spec = TraceSpec(network="alexnet", seed=5)
        first, trace = _fabric_trace(tmp_path / "traces", spec)
        golden = trace.layer_input(0)
        assert first.counters()["trace_tensors_built"] == 1

        second, warm = _fabric_trace(tmp_path / "traces", spec)
        mapped = warm.layer_input(0)
        counters = second.counters()
        assert counters["trace_tensors_built"] == 0
        assert counters["traces_mapped"] == 1
        assert counters["trace_bytes_shared"] > 0
        assert np.array_equal(np.asarray(mapped), np.asarray(golden))

    def test_sampling_is_independent_of_backing(self, tmp_path):
        spec = TraceSpec(network="alexnet", seed=5)
        _, backed = _fabric_trace(tmp_path / "traces", spec)
        pure = TraceStore().get(spec)
        assert np.array_equal(
            backed.sample_layer_values(0, 512), pure.sample_layer_values(0, 512)
        )

    def test_corrupt_artifact_is_dropped_and_rebuilt(self, tmp_path):
        spec = TraceSpec(network="alexnet", seed=5)
        directory = tmp_path / "traces"
        artifacts, trace = _fabric_trace(directory, spec)
        # Copy before corrupting: truncating a file in place invalidates live
        # mappings of it (the fabric itself only ever replaces via rename,
        # which keeps old mappings on the old inode).
        golden = np.array(trace.layer_input(0))
        path = lifecycle.tensor_path(directory, trace_tensor_key(spec, 0))
        path.write_bytes(b"not a npy file")

        fresh, again = _fabric_trace(directory, spec)
        rebuilt = again.layer_input(0)
        assert fresh.errors == 1
        assert fresh.counters()["trace_tensors_built"] == 1
        assert np.array_equal(np.asarray(rebuilt), golden)


_RACE_SPEC = TraceSpec(network="alexnet", seed=77)


def _race_builder() -> np.ndarray:
    # Deterministic stand-in tensor: the race is about publication, not
    # generation, and a cheap builder keeps the window between processes tight.
    return np.arange(64 * 1024, dtype=np.int64).reshape(64, 32, 32)


def _race_worker(directory, barrier, queue):
    store = TraceArtifactStore(directory)
    barrier.wait()
    tensor = store.layer_tensor(_RACE_SPEC, 0, _race_builder)
    queue.put(
        (int(np.asarray(tensor).sum()), tuple(tensor.shape), store.errors)
    )


class TestPublicationRace:
    def test_concurrent_publication_one_artifact_no_torn_reads(self, tmp_path):
        directory = tmp_path / "traces"
        context = multiprocessing.get_context("fork")
        barrier = context.Barrier(4)
        queue = context.Queue()
        workers = [
            context.Process(target=_race_worker, args=(directory, barrier, queue))
            for _ in range(4)
        ]
        for worker in workers:
            worker.start()
        results = [queue.get(timeout=120) for _ in workers]
        for worker in workers:
            worker.join(timeout=120)
            assert worker.exitcode == 0

        golden = _race_builder()
        for checksum, shape, errors in results:
            assert checksum == int(golden.sum())
            assert shape == golden.shape
            assert errors == 0
        # Exactly one published artifact, no temp files left behind.
        artifacts = [name for name in os.listdir(directory) if name.endswith(".npy")]
        assert len(artifacts) == 1
        assert not [name for name in os.listdir(directory) if name.endswith(".tmp")]
        published = np.load(directory / artifacts[0])
        assert np.array_equal(published, golden)


class TestCalibrationPersistence:
    def test_second_store_loads_instead_of_computing(self, tmp_path):
        spec = TraceSpec(network="alexnet", seed=9)
        directory = tmp_path / "traces"
        cold = TraceArtifactStore(directory)
        trace_cold = TraceStore(artifacts=cold).get(spec)
        assert cold.counters()["trace_calibrations_computed"] == 1
        assert cold.counters()["trace_calibrations_loaded"] == 0

        warm = TraceArtifactStore(directory)
        trace_warm = TraceStore(artifacts=warm).get(spec)
        counters = warm.counters()
        assert counters["trace_calibrations_computed"] == 0
        assert counters["trace_calibrations_loaded"] == 1
        # A persisted calibration yields the identical trace parameterization.
        assert trace_warm.params == trace_cold.params
        assert trace_warm.precisions == trace_cold.precisions

    def test_usage_classifies_both_kinds(self, tmp_path):
        spec = TraceSpec(network="alexnet", seed=9)
        artifacts, trace = _fabric_trace(tmp_path / "traces", spec)
        trace.layer_input(0)
        usage = artifacts.usage()
        assert usage["tensors"] == 1
        assert usage["calibrations"] == 1
        assert usage["entries"] == 2
        assert usage["tensor_bytes"] > 0
        assert usage["disk_bytes"] > usage["tensor_bytes"]


class TestLifecycleGC:
    def test_gc_evicts_tensor_artifacts_then_rematerializes(self, tmp_path):
        spec = TraceSpec(network="alexnet", seed=13)
        directory = tmp_path / "traces"
        artifacts, trace = _fabric_trace(directory, spec)
        trace.layer_input(0)
        path = lifecycle.tensor_path(directory, trace_tensor_key(spec, 0))
        assert path.exists()

        result = artifacts.gc(max_bytes=0)
        assert result.removed_entries == len(result.removed_keys) > 0
        assert result.remaining_entries == 0
        assert not path.exists()
        assert artifacts.usage()["entries"] == 0

        # The fabric degrades gracefully: the next resolution rebuilds.
        rebuilt = trace.layer_input(0)
        assert np.array_equal(np.asarray(rebuilt), trace.generate_layer_input(0))
        assert path.exists()

    def test_instance_caps_are_gc_defaults(self, tmp_path):
        spec = TraceSpec(network="alexnet", seed=13)
        directory = tmp_path / "traces"
        artifacts = TraceArtifactStore(directory, max_bytes=0)
        trace = TraceStore(artifacts=artifacts).get(spec)
        trace.layer_input(0)
        assert artifacts.gc().remaining_entries == 0

    def test_gc_without_caps_is_a_noop(self, tmp_path):
        spec = TraceSpec(network="alexnet", seed=13)
        artifacts, trace = _fabric_trace(tmp_path / "traces", spec)
        trace.layer_input(0)
        before = len(artifacts)
        result = artifacts.gc()
        assert result.remaining_entries == before == len(artifacts)

    def test_clear_removes_everything(self, tmp_path):
        spec = TraceSpec(network="alexnet", seed=13)
        artifacts, trace = _fabric_trace(tmp_path / "traces", spec)
        trace.layer_input(0)
        removed = artifacts.clear()
        assert removed == 2  # tensor + calibration
        assert len(artifacts) == 0


class TestFullCacheLRU:
    def test_cache_is_bounded_and_lru_ordered(self):
        spec = TraceSpec(network="alexnet", seed=2)
        trace = TraceStore().get(spec)
        layers = trace.network.num_layers
        if layers <= FULL_CACHE_ENTRIES:
            pytest.skip("network too small to overflow the trace LRU")
        for layer_index in range(FULL_CACHE_ENTRIES):
            trace.layer_input(layer_index, cache=True)
        assert len(trace._full_cache) == FULL_CACHE_ENTRIES
        # Touch layer 0 so layer 1 becomes least-recently-used, then overflow.
        trace.layer_input(0, cache=True)
        trace.layer_input(FULL_CACHE_ENTRIES, cache=True)
        assert len(trace._full_cache) == FULL_CACHE_ENTRIES
        assert 0 in trace._full_cache
        assert FULL_CACHE_ENTRIES in trace._full_cache
        assert 1 not in trace._full_cache

    def test_cached_tensor_is_returned_without_backing_call(self):
        calls = []

        class CountingBacking(TraceBacking):
            def layer_tensor(self, trace, layer_index):
                calls.append(layer_index)
                return None

        spec = TraceSpec(network="alexnet", seed=2)
        trace = TraceStore().get(spec)
        trace.attach_backing(CountingBacking())
        first = trace.layer_input(0, cache=True)
        second = trace.layer_input(0)
        assert second is first
        assert calls == [0]


class TestSessionWiring:
    def test_resolve_trace_dir_policy(self, tmp_path):
        assert SessionSpec().trace_directory() is None
        assert SessionSpec(no_trace_cache=True).trace_directory() is None
        assert SessionSpec(cache_dir=tmp_path).trace_directory() == default_trace_dir(tmp_path)
        spec = SessionSpec(cache_dir=tmp_path, trace_dir=tmp_path / "t")
        assert spec.trace_directory() == tmp_path / "t"
        # --no-cache --trace-dir keeps the fabric on (independent tiers)...
        spec = SessionSpec(no_cache=True, trace_dir=tmp_path / "t")
        assert spec.trace_directory() == tmp_path / "t"
        # ...while --no-trace-cache always wins.
        spec = SessionSpec(cache_dir=tmp_path, trace_dir=tmp_path / "t", no_trace_cache=True)
        assert spec.trace_directory() is None

    def test_session_stats_surface_fabric_counters(self, tmp_path):
        spec = TraceSpec(network="alexnet", seed=5)
        artifacts = TraceArtifactStore(tmp_path / "traces")
        session = RuntimeSession(traces=TraceStore(artifacts=artifacts))
        session.trace(spec).layer_input(0)
        stats = session.stats()
        assert stats.trace_calibrations_computed == 1
        assert stats.trace_tensors_built == 1
        assert stats.traces_mapped >= 1
        assert stats.trace_bytes_shared > 0
        assert "fabric" in stats.summary()
        wire = stats.as_dict()
        assert wire["traces_mapped"] == stats.traces_mapped
        assert wire["trace_bytes_shared"] == stats.trace_bytes_shared

    def test_mmap_backing_uses_trace_generator_as_builder(self, tmp_path):
        spec = TraceSpec(network="alexnet", seed=5)
        artifacts = TraceArtifactStore(tmp_path / "traces")
        trace = TraceStore().get(spec)
        backing = MmapTraceBacking(artifacts, spec)
        tensor = backing.layer_tensor(trace, 1)
        assert np.array_equal(np.asarray(tensor), trace.generate_layer_input(1))
