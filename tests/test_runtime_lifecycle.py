"""Tests for the cache-lifecycle layer: manifest, compression, GC, CLI verbs.

The lifecycle contract: entry counts and disk usage come from the persistent
manifest (no directory scans), garbage collection evicts least-recently-used
entries first under a byte cap, new entries are gzip-compressed while legacy
uncompressed entries keep hitting, and the in-process memo of a disk cache is
bounded without ever losing disk hits.
"""

import gzip
import json
import multiprocessing

import pytest

from repro.experiments.runner import main as runner_main
from repro.runtime.cache import ResultCache
from repro.runtime.lifecycle import MANIFEST_NAME, CacheManifest

PAYLOAD = {"network": "alexnet", "accelerator": "x", "layers": []}


def _store_entries(directory, prefix, count, barrier):
    cache = ResultCache(directory=directory)
    barrier.wait(timeout=60)
    for index in range(count):
        cache.put(f"{prefix}{index:03d}", PAYLOAD)


def legacy_entry(key: str, payload: dict, kind: str = "network_result") -> str:
    """An entry in the pre-compression on-disk format."""
    return json.dumps({"schema": 1, "kind": kind, "key": key, "payload": payload})


# -------------------------------------------------------------------- manifest
class TestManifest:
    def test_len_reads_the_manifest_not_the_directory(self, tmp_path):
        cache = ResultCache(directory=tmp_path)
        cache.put("aaa", PAYLOAD)
        cache.put("bbb", PAYLOAD)
        # Remove one entry file behind the manifest's back: a fresh cache's
        # count still comes from the index, proving no glob happens.
        (tmp_path / "aaa.json.gz").unlink()
        fresh = ResultCache(directory=tmp_path)
        assert len(fresh) == 2
        assert fresh.usage()["entries"] == 2

    def test_manifest_maintained_incrementally(self, tmp_path):
        cache = ResultCache(directory=tmp_path)
        cache.put("aaa", PAYLOAD)
        raw = json.loads((tmp_path / MANIFEST_NAME).read_text())
        assert set(raw["entries"]) == {"aaa"}
        meta = raw["entries"]["aaa"]
        assert meta["kind"] == "network_result"
        assert meta["size"] == (tmp_path / "aaa.json.gz").stat().st_size
        assert meta["created"] <= meta["last_used"]

    def test_corrupted_manifest_is_rebuilt_from_the_directory(self, tmp_path):
        cache = ResultCache(directory=tmp_path)
        cache.put("aaa", PAYLOAD)
        cache.put("bbb", PAYLOAD)
        (tmp_path / MANIFEST_NAME).write_text("{not json")
        fresh = ResultCache(directory=tmp_path)
        assert len(fresh) == 2
        assert fresh.manifest.rebuilds == 1
        assert fresh.usage()["disk_bytes"] > 0
        # The rebuild was persisted: the next instance loads it directly.
        again = ResultCache(directory=tmp_path)
        assert len(again) == 2
        assert again.manifest.rebuilds == 0

    def test_missing_manifest_rebuild_indexes_legacy_entries(self, tmp_path):
        (tmp_path / "old.json").write_text(legacy_entry("old", PAYLOAD))
        cache = ResultCache(directory=tmp_path)
        assert len(cache) == 1
        assert cache.usage()["disk_bytes"] == (tmp_path / "old.json").stat().st_size

    def test_external_clear_is_not_resurrected_by_a_live_process(self, tmp_path):
        live = ResultCache(directory=tmp_path)
        live.put("aaa", PAYLOAD)
        # Another process clears the cache (entry files + manifest gone).
        ResultCache(directory=tmp_path).clear()
        # The live process's next store must not write its stale record back.
        live.put("bbb", PAYLOAD)
        fresh = ResultCache(directory=tmp_path)
        assert set(fresh.manifest.entries()) == {"bbb"}
        assert fresh.usage()["entries"] == 1

    def test_memo_hits_advance_the_lru_clock(self, tmp_path):
        # Regression: a hot entry answered from the in-process memo must not
        # look least-recently-used to GC.
        cache = ResultCache(directory=tmp_path)
        cache.put("aaa", PAYLOAD)
        cache.put("bbb", PAYLOAD)
        cache.manifest.record_use("aaa", now=1000.0)
        cache.manifest.record_use("bbb", now=2000.0)
        assert cache.get("aaa") == PAYLOAD  # memo hit (real-time timestamp)
        entries = cache.manifest.entries()
        assert entries["aaa"]["last_used"] > entries["bbb"]["last_used"]

    def test_concurrent_writers_merge_instead_of_clobbering(self, tmp_path):
        # Two processes sharing one directory are modeled by two instances
        # whose manifests were loaded before either stored anything.
        first = ResultCache(directory=tmp_path)
        second = ResultCache(directory=tmp_path)
        assert len(first) == 0 and len(second) == 0  # both indexes loaded
        first.put("aaa", PAYLOAD)
        second.put("bbb", PAYLOAD)
        merged = CacheManifest(tmp_path)
        assert set(merged.entries()) == {"aaa", "bbb"}

    def test_simultaneous_process_writers_keep_every_record(self, tmp_path):
        # Processes storing at the same moment: each save's read-merge-replace
        # must not drop the records another process saved meanwhile.
        context = multiprocessing.get_context("fork")
        barrier = context.Barrier(4)
        writers = [
            context.Process(
                target=_store_entries, args=(tmp_path, f"p{number}-", 100, barrier)
            )
            for number in range(4)
        ]
        for writer in writers:
            writer.start()
        for writer in writers:
            writer.join(timeout=120)
            assert writer.exitcode == 0
        assert len(CacheManifest(tmp_path)) == 400


# ----------------------------------------------------------------- compression
class TestCompression:
    def test_new_entries_are_compressed_and_round_trip(self, tmp_path):
        cache = ResultCache(directory=tmp_path)
        cache.put("aaa", PAYLOAD)
        data = (tmp_path / "aaa.json.gz").read_bytes()
        assert data[:2] == b"\x1f\x8b"  # gzip magic
        assert json.loads(gzip.decompress(data))["payload"] == PAYLOAD
        fresh = ResultCache(directory=tmp_path)
        assert fresh.get("aaa") == PAYLOAD

    def test_legacy_uncompressed_entries_still_hit(self, tmp_path):
        (tmp_path / "old.json").write_text(legacy_entry("old", PAYLOAD))
        cache = ResultCache(directory=tmp_path)
        assert cache.contains("old")
        assert cache.get("old") == PAYLOAD
        assert cache.stats.hits == 1
        assert cache.stats.errors == 0

    def test_mixed_generations_coexist(self, tmp_path):
        (tmp_path / "old.json").write_text(legacy_entry("old", PAYLOAD))
        cache = ResultCache(directory=tmp_path)
        cache.put("new", PAYLOAD)
        fresh = ResultCache(directory=tmp_path)
        assert fresh.get("old") == PAYLOAD
        assert fresh.get("new") == PAYLOAD
        assert len(fresh) == 2

    def test_rewriting_a_legacy_key_retires_the_uncompressed_copy(self, tmp_path):
        (tmp_path / "old.json").write_text(legacy_entry("old", {"stale": True}))
        cache = ResultCache(directory=tmp_path)
        cache.put("old", PAYLOAD)
        assert not (tmp_path / "old.json").exists()
        assert ResultCache(directory=tmp_path).get("old") == PAYLOAD


# -------------------------------------------------------------------------- gc
class TestGarbageCollection:
    def fill(self, tmp_path, keys):
        cache = ResultCache(directory=tmp_path)
        for index, key in enumerate(keys):
            cache.put(key, {**PAYLOAD, "index": index})
            # Deterministic, strictly increasing LRU timestamps.
            cache.manifest.record_use(key, now=1000.0 + index)
        return cache

    def test_gc_respects_the_byte_cap_evicting_lru_first(self, tmp_path):
        cache = self.fill(tmp_path, ["aaa", "bbb", "ccc"])
        sizes = {key: meta["size"] for key, meta in cache.manifest.entries().items()}
        # Cap leaves room for exactly the two most recently used entries.
        result = cache.gc(max_bytes=sizes["bbb"] + sizes["ccc"])
        assert result.removed_keys == ["aaa"]
        assert result.remaining_entries == 2
        assert cache.get("aaa") is None  # memo cannot resurrect an evicted key
        assert cache.get("bbb") is not None
        assert cache.get("ccc") is not None

    def test_gc_max_age_evicts_stale_entries(self, tmp_path):
        cache = self.fill(tmp_path, ["aaa", "bbb"])
        result = cache.manifest.gc(max_age=10.0, now=1011.0)
        # now=1011: aaa was last used at 1000 (age 11 > 10), bbb at 1001.
        assert result.removed_keys == ["aaa"]
        assert len(cache.manifest) == 1

    def test_gc_without_bounds_is_a_no_op(self, tmp_path):
        cache = self.fill(tmp_path, ["aaa"])
        result = cache.gc()
        assert result.removed_entries == 0
        assert result.remaining_entries == 1

    def test_gc_on_a_memory_cache_is_empty(self):
        cache = ResultCache()
        cache.put("aaa", PAYLOAD)
        assert cache.gc(max_bytes=0).removed_entries == 0
        assert cache.get("aaa") == PAYLOAD

    def test_clear_removes_entries_and_manifest(self, tmp_path):
        cache = self.fill(tmp_path, ["aaa", "bbb"])
        assert cache.clear() == 2
        assert len(cache) == 0
        assert not (tmp_path / "aaa.json.gz").exists()
        assert cache.get("aaa") is None
        # A cleared cache keeps working.
        cache.put("ccc", PAYLOAD)
        assert ResultCache(directory=tmp_path).get("ccc") == PAYLOAD

    def test_clear_removes_unindexed_orphan_files(self, tmp_path):
        cache = ResultCache(directory=tmp_path)
        cache.put("aaa", PAYLOAD)
        # A file a lost manifest race left unindexed must not survive clear().
        (tmp_path / "orphan.json.gz").write_bytes(gzip.compress(b"{}"))
        assert cache.clear() == 2
        assert list(tmp_path.iterdir()) == []

    def test_survivors_still_hit_after_gc_across_instances(self, tmp_path):
        cache = self.fill(tmp_path, ["aaa", "bbb", "ccc"])
        cache.gc(max_bytes=cache.manifest.total_bytes() - 1)  # evicts aaa only
        fresh = ResultCache(directory=tmp_path)
        assert fresh.get("bbb") is not None
        assert fresh.get("ccc") is not None
        assert fresh.stats.misses == 0


# ----------------------------------------------------------------- bounded memo
class TestBoundedMemo:
    def test_memo_evicts_without_losing_disk_hits(self, tmp_path):
        cache = ResultCache(directory=tmp_path, memo_entries=2)
        for key in ("aaa", "bbb", "ccc", "ddd"):
            cache.put(key, {**PAYLOAD, "key": key})
        assert len(cache._memory) == 2  # bounded despite 4 stores
        for key in ("aaa", "bbb", "ccc", "ddd"):
            assert cache.get(key) == {**PAYLOAD, "key": key}  # disk backs the memo
        assert cache.stats.misses == 0
        assert len(cache._memory) == 2

    def test_memory_mode_memo_is_never_evicted(self):
        cache = ResultCache(memo_entries=2)
        for key in ("aaa", "bbb", "ccc", "ddd"):
            cache.put(key, {**PAYLOAD, "key": key})
        for key in ("aaa", "bbb", "ccc", "ddd"):
            assert cache.get(key) == {**PAYLOAD, "key": key}
        assert cache.stats.misses == 0


# ------------------------------------------------------------------ observation
class TestObservation:
    def test_snapshot_carries_state_gauges_alongside_counters(self, tmp_path):
        cache = ResultCache(directory=tmp_path)
        cache.put("aaa", PAYLOAD)
        cache.get("aaa")
        snap = cache.snapshot()
        assert (snap.stores, snap.hits) == (1, 1)
        assert snap.disk_entries == 1
        assert snap.disk_bytes > 0
        assert snap.memo_entries == 1

    def test_run_report_carries_manifest_backed_usage(self, tmp_path):
        from repro.experiments.base import get_preset
        from repro.runtime import SessionSpec, run_experiments

        preset = get_preset("smoke")
        storage = SessionSpec(cache_dir=tmp_path)
        report = run_experiments(["table3"], preset=preset, storage=storage)
        assert report.cache_entries == len(ResultCache(directory=tmp_path))
        assert f"cache dir: {tmp_path}" in report.summary()
        assert "entries," in report.summary()


# ------------------------------------------------------------------- CLI verbs
class TestCacheCLI:
    def populate(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        cache = ResultCache(directory=tmp_path)
        cache.put("aaa", PAYLOAD)
        cache.put("bbb", PAYLOAD)
        return cache

    def test_cache_stats_reports_manifest_numbers(self, monkeypatch, tmp_path, capsys):
        self.populate(monkeypatch, tmp_path)
        assert runner_main(["--cache-stats"]) == 0
        out = capsys.readouterr().out
        assert f"cache dir: {tmp_path}" in out
        assert "entries: 2" in out
        assert "disk bytes:" in out

    def test_cache_gc_enforces_the_byte_cap(self, monkeypatch, tmp_path, capsys):
        cache = self.populate(monkeypatch, tmp_path)
        cache.manifest.record_use("bbb", now=9e9)  # bbb most recently used
        assert runner_main(["--cache-gc", "--max-bytes", "1"]) == 0
        assert "evicted 2 entries" in capsys.readouterr().out
        assert len(ResultCache(directory=tmp_path)) == 0

    def test_cache_clear_empties_the_directory(self, monkeypatch, tmp_path, capsys):
        self.populate(monkeypatch, tmp_path)
        assert runner_main(["--cache-clear"]) == 0
        assert "cleared 2 entries" in capsys.readouterr().out
        assert not (tmp_path / "aaa.json.gz").exists()

    def test_cache_stats_on_a_missing_directory_has_no_side_effects(
        self, monkeypatch, tmp_path, capsys
    ):
        target = tmp_path / "nope"
        monkeypatch.setenv("REPRO_CACHE_DIR", str(target))
        assert runner_main(["--cache-stats"]) == 0
        assert "does not exist" in capsys.readouterr().out
        assert not target.exists()  # the read-only verb created nothing

    def test_cache_gc_requires_a_bound(self, monkeypatch, tmp_path):
        self.populate(monkeypatch, tmp_path)
        with pytest.raises(SystemExit):
            runner_main(["--cache-gc"])

    def test_size_and_age_suffix_parsing(self):
        from repro.experiments.base import parse_age, parse_size

        assert parse_size("1024") == 1024
        assert parse_size("2K") == 2048
        assert parse_size("500M") == 500 * 1024**2
        assert parse_size("1g") == 1024**3
        assert parse_age("90") == 90.0
        assert parse_age("2m") == 120.0
        assert parse_age("3h") == 10800.0
        assert parse_age("30d") == 30 * 86400.0
        import argparse

        with pytest.raises(argparse.ArgumentTypeError):
            parse_size("lots")
        with pytest.raises(argparse.ArgumentTypeError):
            parse_age("-5")

    def test_endpoint_parsing(self):
        import argparse

        from repro.experiments.base import parse_endpoint

        assert parse_endpoint("host:8000") == ("host", 8000)
        assert parse_endpoint("::1:8000") == ("::1", 8000)
        for bad in ("8000", "host:", "host:abc"):
            with pytest.raises(argparse.ArgumentTypeError):
                parse_endpoint(bad)


class TestEnvVarResolution:
    def test_cache_dir_env_var_is_resolved_at_call_time(self, monkeypatch, tmp_path):
        # Regression: DEFAULT_CACHE_DIR used to snapshot $REPRO_CACHE_DIR at
        # import time, silently ignoring later changes.
        from repro.runtime.session import DEFAULT_CACHE_DIR, default_cache_dir

        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        assert default_cache_dir() == DEFAULT_CACHE_DIR
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "late"))
        assert default_cache_dir() == tmp_path / "late"
        monkeypatch.setenv("REPRO_CACHE_DIR", "")  # empty means unset
        assert default_cache_dir() == DEFAULT_CACHE_DIR
