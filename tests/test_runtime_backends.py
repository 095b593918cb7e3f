"""Conformance suite for every :class:`CacheBackend` implementation.

One parametrized battery runs against all backends, pinning the interface
contract ``ResultCache`` (and therefore every layer above it) relies on:
store/load/probe semantics, usage accounting, clear, corruption handling,
persistence across instances, and multi-process-style sharing for the
backends that claim it.  The network cache tier (``docs/cachenet.md``) runs
the same battery against an in-process :class:`CacheServer` — both the bare
:class:`RemoteBackend` client and the ``--cache-backend remote://`` composite
:class:`TieredBackend`.  Backend-specific behaviour (GC, manifest sync,
degradation, negative suppression) gets targeted classes below the shared
battery.
"""

import gzip
import json
import time

import pytest

from repro.runtime import lifecycle
from repro.runtime.backends import (
    CorruptEntry,
    FilesystemBackend,
    InMemoryBackend,
    SharedDirectoryBackend,
)
from repro.runtime.cache import CacheStats, ResultCache

BACKENDS = ("memory", "filesystem", "shared", "remote", "tiered")

#: ``ResultCache.usage()`` keys over every backend, plus each flavour's extras.
USAGE_KEYS = {
    "entries",
    "disk_bytes",
    "oldest_age_seconds",
    "lru_age_seconds",
    "memo_entries",
    "directory",
    "backend",
}
REMOTE_USAGE_KEYS = {
    "remote_endpoint",
    "remote_reachable",
    "remote_hits",
    "remote_misses",
    "remote_degraded",
}
EXTRA_USAGE_KEYS = {
    "remote": REMOTE_USAGE_KEYS,
    "tiered": REMOTE_USAGE_KEYS | {"memory_entries", "negative_entries", "suppressed_lookups"},
}


@pytest.fixture
def make_backend(tmp_path):
    """Factory building a fresh backend of the requested flavour.

    Repeated calls with the same flavour return backends over the *same*
    storage (a second filesystem backend sees the first one's entries), which
    is what the persistence and sharing tests need.  The remote flavours
    share one lazily started in-process cache server per test, reachable as
    ``make_backend.cachenet_server``.
    """
    state = {"server": None, "endpoint": None, "clients": []}

    def build(flavour: str):
        if flavour == "memory":
            return InMemoryBackend()
        if flavour == "filesystem":
            return FilesystemBackend(tmp_path / "cache")
        if flavour == "shared":
            return SharedDirectoryBackend(tmp_path / "cache", sync_interval=0.0)
        if flavour in ("remote", "tiered"):
            from repro.cachenet.backend import RemoteBackend, TieredBackend
            from repro.cachenet.server import CacheServer

            if state["server"] is None:
                state["server"] = CacheServer(directory=tmp_path / "remote-cache")
                state["endpoint"] = state["server"].start()
                build.cachenet_server = state["server"]
            host, port = state["endpoint"]
            # retries=0: degradation tests should fail fast, not back off.
            remote = RemoteBackend(host, port, retries=0, backoff=0.0)
            state["clients"].append(remote)
            return remote if flavour == "remote" else TieredBackend(remote)
        raise AssertionError(flavour)

    yield build
    for client in state["clients"]:
        client.close()
    if state["server"] is not None:
        state["server"].stop()


@pytest.mark.parametrize("flavour", BACKENDS)
class TestBackendConformance:
    def test_store_load_round_trip(self, make_backend, flavour):
        backend = make_backend(flavour)
        payload = {"cycles": [1.5, 2.0], "name": "alexnet"}
        backend.store("k1", payload, "network_result")
        assert backend.load("k1", "network_result") == payload
        assert backend.load("absent", "network_result") is None

    def test_kind_namespaces_do_not_alias(self, make_backend, flavour):
        backend = make_backend(flavour)
        backend.store("k1", {"a": 1}, "network_result")
        # A lookup under the wrong kind must never return the payload —
        # returning None or raising CorruptEntry are both conforming.
        try:
            assert backend.load("k1", "statistics") is None
        except CorruptEntry:
            pass

    def test_probe_does_not_lie(self, make_backend, flavour):
        backend = make_backend(flavour)
        assert not backend.probe("k1", "network_result")
        backend.store("k1", {"a": 1}, "network_result")
        assert backend.probe("k1", "network_result")

    def test_store_overwrites(self, make_backend, flavour):
        backend = make_backend(flavour)
        backend.store("k1", {"v": 1}, "network_result")
        backend.store("k1", {"v": 2}, "network_result")
        assert backend.load("k1", "network_result") == {"v": 2}
        assert len(backend) == 1

    def test_len_and_usage(self, make_backend, flavour):
        backend = make_backend(flavour)
        assert len(backend) == 0
        backend.store("k1", {"a": 1}, "network_result")
        backend.store("k2", {"b": 2}, "statistics")
        assert len(backend) == 2
        usage = backend.usage()
        assert usage["entries"] == 2
        assert "disk_bytes" in usage
        if backend.persistent:
            assert usage["disk_bytes"] > 0

    def test_clear(self, make_backend, flavour):
        backend = make_backend(flavour)
        backend.store("k1", {"a": 1}, "network_result")
        backend.store("k2", {"b": 2}, "network_result")
        assert backend.clear() == 2
        assert len(backend) == 0
        assert backend.load("k1", "network_result") is None

    def test_describe_is_informative(self, make_backend, flavour):
        backend = make_backend(flavour)
        assert isinstance(backend.describe(), str) and backend.describe()

    def test_persistence_across_instances(self, make_backend, flavour):
        backend = make_backend(flavour)
        backend.store("k1", {"a": 1}, "network_result")
        again = make_backend(flavour)
        if backend.persistent:
            assert again.load("k1", "network_result") == {"a": 1}
        else:
            assert again.load("k1", "network_result") is None

    def test_result_cache_over_backend(self, make_backend, flavour):
        """ResultCache policy (stats, memo) works over every backend."""
        cache = ResultCache(backend=make_backend(flavour))
        assert cache.get("k1") is None
        cache.put("k1", {"a": 1})
        assert cache.get("k1") == {"a": 1}
        assert cache.stats.misses == 1
        assert cache.stats.hits == 1
        assert cache.stats.stores == 1
        assert cache.contains("k1")
        assert len(cache) == 1
        snapshot = cache.snapshot()
        assert snapshot.hits == 1
        expected = USAGE_KEYS | EXTRA_USAGE_KEYS.get(flavour, set())
        assert set(cache.usage()) == expected

    def test_result_cache_memo_eviction_falls_back_to_backend(
        self, make_backend, flavour
    ):
        cache = ResultCache(backend=make_backend(flavour), memo_entries=2)
        for index in range(4):
            cache.put(f"k{index}", {"v": index})
        assert len(cache._memory) == 2  # memo bounded...
        assert cache.get("k0") == {"v": 0}  # ...but the backend still serves


class TestPersistentBackendCorruption:
    @pytest.mark.parametrize("flavour", ["filesystem", "shared"])
    def test_corrupt_entry_raises_and_drops(self, make_backend, flavour):
        backend = make_backend(flavour)
        backend.store("k1", {"a": 1}, "network_result")
        path = lifecycle.entry_path(backend.directory, "k1")
        path.write_bytes(b"not gzip, not json")
        with pytest.raises(CorruptEntry):
            backend.load("k1", "network_result")
        assert not path.exists()  # dropped, not left to fail forever
        assert backend.load("k1", "network_result") is None

    @pytest.mark.parametrize("flavour", ["filesystem", "shared"])
    def test_wrong_schema_is_corruption(self, make_backend, flavour):
        backend = make_backend(flavour)
        entry = {"schema": 999, "kind": "network_result", "key": "k1", "payload": {}}
        path = lifecycle.entry_path(backend.directory, "k1")
        path.write_bytes(gzip.compress(json.dumps(entry).encode()))
        with pytest.raises(CorruptEntry):
            backend.probe("k1", "network_result")

    @pytest.mark.parametrize("flavour", ["filesystem", "shared"])
    def test_result_cache_counts_corruption_as_miss(self, make_backend, flavour):
        cache = ResultCache(backend=make_backend(flavour))
        cache.put("k1", {"a": 1})
        cache._memory.clear()  # force the next get through the backend
        lifecycle.entry_path(cache.directory, "k1").write_bytes(b"garbage")
        assert cache.get("k1") is None
        assert cache.stats.errors == 1


class TestPersistentBackendGC:
    @pytest.mark.parametrize("flavour", ["filesystem", "shared"])
    def test_gc_enforces_byte_cap(self, make_backend, flavour):
        backend = make_backend(flavour)
        for index in range(3):
            backend.store(f"k{index}", {"blob": "x" * 200, "i": index}, "network_result")
        result = backend.gc(max_bytes=1)
        assert result.removed_entries == 3
        assert len(backend) == 0

    def test_memory_backend_gc_is_a_noop(self):
        backend = InMemoryBackend()
        backend.store("k1", {"a": 1}, "network_result")
        result = backend.gc(max_bytes=0)
        assert result.removed_entries == 0
        assert backend.load("k1", "network_result") == {"a": 1}


class TestSharedDirectoryBackend:
    def test_sibling_stores_are_visible(self, tmp_path):
        """Two backends on one directory see each other's entries and sizes."""
        a = SharedDirectoryBackend(tmp_path, sync_interval=0.0)
        b = SharedDirectoryBackend(tmp_path, sync_interval=0.0)
        a.store("k1", {"a": 1}, "network_result")
        # Entry reads always go to the filesystem: immediately coherent.
        assert b.load("k1", "network_result") == {"a": 1}
        assert b.probe("k1", "network_result")
        # Usage re-syncs from the shared manifest.
        assert b.usage()["entries"] == 1
        assert len(b) == 1

    def test_sibling_gc_respected(self, tmp_path):
        a = SharedDirectoryBackend(tmp_path, sync_interval=0.0)
        b = SharedDirectoryBackend(tmp_path, sync_interval=0.0)
        a.store("k1", {"a": 1}, "network_result")
        assert b.usage()["entries"] == 1
        a.gc(max_bytes=0)
        assert b.load("k1", "network_result") is None
        assert b.usage()["entries"] == 0

    def test_sync_is_throttled(self, tmp_path):
        a = SharedDirectoryBackend(tmp_path, sync_interval=3600.0)
        b = SharedDirectoryBackend(tmp_path, sync_interval=3600.0)
        assert b.usage()["entries"] == 0  # sync clock starts now
        a.store("k1", {"a": 1}, "network_result")
        # Within the interval the stale view is allowed (and expected)...
        assert b.usage()["entries"] == 0
        # ...but direct entry reads stay coherent regardless.
        assert b.load("k1", "network_result") == {"a": 1}


class TestNetworkCacheTier:
    """Cachenet-specific semantics the shared battery cannot express."""

    @pytest.mark.parametrize("flavour", ["remote", "tiered"])
    def test_corrupt_server_entry_recovers_as_miss(self, make_backend, flavour):
        """Server-side damage surfaces as CorruptEntry once, then a miss."""
        backend = make_backend(flavour)
        backend.store("k1", {"a": 1}, "network_result")
        server = make_backend.cachenet_server
        lifecycle.entry_path(server.backend.directory, "k1").write_bytes(b"garbage")
        # A fresh client (empty memory tier) must take the remote path.
        reader = make_backend(flavour)
        with pytest.raises(CorruptEntry):
            reader.load("k1", "network_result")
        # The server dropped the damaged entry: subsequent loads miss cleanly.
        assert reader.load("k1", "network_result") is None

    @pytest.mark.parametrize("flavour", ["remote", "tiered"])
    def test_result_cache_recomputes_after_remote_corruption(
        self, make_backend, flavour
    ):
        cache = ResultCache(backend=make_backend(flavour))
        cache.put("k1", {"a": 1})
        cache._memory.clear()  # force the next get through the backend
        server = make_backend.cachenet_server
        lifecycle.entry_path(server.backend.directory, "k1").write_bytes(b"garbage")
        fresh = ResultCache(backend=make_backend(flavour))
        assert fresh.get("k1") is None
        assert fresh.stats.errors == 1
        fresh.put("k1", {"a": 2})  # recompute-and-store works afterwards
        assert ResultCache(backend=make_backend(flavour)).get("k1") == {"a": 2}

    @pytest.mark.parametrize("flavour", ["remote", "tiered"])
    def test_ttl_expiry_through_remote_gc(self, make_backend, flavour):
        backend = make_backend(flavour)
        backend.store("k1", {"a": 1}, "network_result")
        time.sleep(0.02)
        result = backend.gc(max_age=0.01)
        assert result.removed_entries == 1
        assert "k1" in result.removed_keys
        # The tiered memory copy must not outlive the authoritative entry.
        reader = make_backend(flavour)
        assert reader.load("k1", "network_result") is None

    @pytest.mark.parametrize("flavour", ["remote", "tiered"])
    def test_dead_server_degrades_to_miss(self, make_backend, flavour):
        backend = make_backend(flavour)
        backend.store("k1", {"a": 1}, "network_result")
        make_backend.cachenet_server.stop()
        if flavour == "tiered":
            # The warm memory tier outlives the server — that is the point
            # of the write-through composite.
            assert backend.load("k1", "network_result") == {"a": 1}
        # A fresh client (no warm memory tier) degrades to a miss, not a raise.
        reader = make_backend(flavour)
        assert reader.load("k1", "network_result") is None
        assert reader.probe("k1", "network_result") is False
        reader.store("k2", {"b": 2}, "network_result")  # swallowed, not raised
        reader.touch("k1")
        usage = reader.usage()
        assert usage["remote_reachable"] is False
        assert usage["remote_degraded"] > 0

    def test_wrong_auth_token_degrades(self, tmp_path):
        from repro.cachenet.backend import RemoteBackend
        from repro.cachenet.server import CacheServer

        server = CacheServer(directory=tmp_path / "secured", auth_token="secret")
        host, port = server.start()
        try:
            good = RemoteBackend(host, port, auth_token="secret", retries=0)
            good.store("k1", {"a": 1}, "network_result")
            assert good.load("k1", "network_result") == {"a": 1}
            bad = RemoteBackend(host, port, auth_token="wrong", retries=0)
            assert bad.load("k1", "network_result") is None  # degraded miss
            assert bad.usage()["remote_degraded"] > 0
            good.close()
            bad.close()
        finally:
            server.stop()

    def test_negative_lookups_are_suppressed(self, make_backend):
        backend = make_backend("tiered")
        hits_before = backend.remote.remote_misses
        assert backend.load("absent", "network_result") is None
        assert backend.probe("absent", "network_result") is False
        assert backend.probe("absent", "network_result") is False
        # One remote round trip; the repeats were answered by the negative
        # cache within its TTL window.
        assert backend.remote.remote_misses == hits_before + 1
        assert backend.suppressed >= 2
        # A store invalidates the negative entry immediately.
        backend.store("absent", {"a": 1}, "network_result")
        assert backend.load("absent", "network_result") == {"a": 1}

    def test_resolve_backend_specs(self, make_backend, tmp_path):
        from repro.cachenet.backend import (
            RemoteBackend,
            TieredBackend,
            resolve_backend,
        )

        make_backend("remote")  # boot the shared server
        server = make_backend.cachenet_server
        host, port = server._server.server_address
        tiered = resolve_backend(f"remote://{host}:{port}")
        assert isinstance(tiered, TieredBackend)
        assert isinstance(tiered.remote, RemoteBackend)
        assert isinstance(resolve_backend("memory://"), InMemoryBackend)
        assert isinstance(
            resolve_backend(str(tmp_path / "plain")), SharedDirectoryBackend
        )
        with pytest.raises(ValueError):
            resolve_backend("redis://nope:1")
        tiered.close()


class TestCacheStatsDistinctMerge:
    def test_distinct_cache_merge_sums_gauges(self):
        total = CacheStats(disk_entries=10, disk_bytes=1000, memo_entries=5)
        total.merge(
            CacheStats(
                hits=2,
                disk_entries=8,
                disk_bytes=900,
                memo_entries=7,
                oldest_age_seconds=50.0,
            )
        )
        assert total.disk_entries == 18  # different caches: sum
        assert total.disk_bytes == 1900
        assert total.memo_entries == 12
        # Ages never add up: the fleet's oldest entry is the oldest anywhere.
        assert total.oldest_age_seconds == 50.0

    def test_run_stats_passthrough(self):
        from repro.runtime import RunStats

        total = RunStats()
        total.cache.disk_entries = 4
        total.merge({"cache": {"disk_entries": 3, "hits": 1}})
        assert total.cache.disk_entries == 7
        assert total.cache.hits == 1

    def test_shared_gauges_max_merge_even_when_distinct(self):
        """Workers mounting one shared tier must not multiply its footprint.

        Every cluster worker snapshots the *same* remote (or shared
        directory) storage; a distinct-cache fleet merge must max those
        gauges, not sum them once per worker — while per-process memo
        entries still sum.
        """
        fleet = CacheStats()
        for _ in range(3):  # three workers reporting one shared tier
            fleet.merge(
                CacheStats(
                    hits=5,
                    disk_entries=10,
                    disk_bytes=1000,
                    memo_entries=4,
                    shared_gauges=True,
                )
            )
        assert fleet.hits == 15  # counters always sum
        assert fleet.disk_entries == 10  # one shared tier, reported thrice
        assert fleet.disk_bytes == 1000
        assert fleet.memo_entries == 12  # memos are genuinely per-process
        assert fleet.shared_gauges is True
        assert fleet.as_dict()["shared_gauges"] is True

    def test_shared_gauges_infects_the_merge_target(self):
        """Once any snapshot is shared, later distinct merges stay max-mode."""
        fleet = CacheStats(disk_entries=10, disk_bytes=1000, shared_gauges=True)
        fleet.merge(CacheStats(disk_entries=8, disk_bytes=900))
        assert fleet.disk_entries == 10
        assert fleet.disk_bytes == 1000

    def test_snapshot_marks_shared_backends(self, make_backend):
        assert ResultCache(backend=make_backend("shared")).snapshot().shared_gauges
        assert ResultCache(backend=make_backend("remote")).snapshot().shared_gauges
        assert ResultCache(backend=make_backend("tiered")).snapshot().shared_gauges
        assert not ResultCache(
            backend=make_backend("memory")
        ).snapshot().shared_gauges
