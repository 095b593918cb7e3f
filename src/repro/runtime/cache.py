"""Content-addressed result cache over a pluggable storage backend.

One :class:`ResultCache` stores JSON payloads under fingerprint keys (see
:mod:`repro.runtime.fingerprint`).  The cache owns *policy* — hit/miss/error
accounting, the bounded in-process memo, the enabled/disabled switch — while
the storage itself is a :class:`~repro.runtime.backends.CacheBackend`:

* ``ResultCache()`` — an :class:`~repro.runtime.backends.InMemoryBackend`;
  the default for library use, so importing ``repro`` never writes to disk.
* ``ResultCache(directory=...)`` — a
  :class:`~repro.runtime.backends.FilesystemBackend`: gzip-compressed entry
  files written atomically plus a persistent manifest
  (:mod:`repro.runtime.lifecycle`) so ``len()``, :meth:`ResultCache.usage`
  and garbage collection never scan the directory.
* ``ResultCache(backend=...)`` — any backend, e.g. the multi-process-safe
  :class:`~repro.runtime.backends.SharedDirectoryBackend` cluster workers
  share (``docs/cluster.md``), or a future object-store/redis backend.
* :meth:`ResultCache.disabled` — every lookup misses and stores are dropped
  (the ``--no-cache`` mode).

Corrupted entries (truncated writes, manual edits, schema drift) are treated
as misses: the backend drops the entry, ``stats.errors`` is incremented and
the caller recomputes.  The key scheme, the on-disk layout, the GC policy and
the backend interface are documented in ``docs/runtime.md``.
"""

from __future__ import annotations

import collections
from dataclasses import dataclass
from pathlib import Path

from repro.core.counters import Counters, either, maximum, merged_by, storage
from repro.runtime import lifecycle
from repro.runtime.backends import (
    CacheBackend,
    CorruptEntry,
    FilesystemBackend,
    InMemoryBackend,
)

__all__ = ["CacheStats", "ResultCache", "DEFAULT_MEMO_ENTRIES"]

#: Default bound on the in-process memo of a *persistent* cache.  A long-lived
#: serve process used to retain every payload it ever touched; beyond this
#: many, the least-recently-used memo entries are dropped (the backend copy
#: still hits).
DEFAULT_MEMO_ENTRIES = 512


@dataclass
class CacheStats(Counters):
    """Counters describing how a cache behaved during a run.

    ``hits``/``misses``/``stores``/``errors`` are event counters.
    ``disk_entries``/``disk_bytes``/``memo_entries`` and
    ``oldest_age_seconds`` are *gauges* describing current cache state —
    populated by :meth:`ResultCache.gauges`.  One merge rule serves every
    aggregation (pool jobs, serve views, the cluster fleet):

    * counters and ``memo_entries`` sum — each process owns its memo;
    * ``oldest_age_seconds`` takes the max — the fleet's oldest entry is the
      oldest anywhere;
    * ``shared_gauges`` ORs.  A snapshot whose *storage* is shared across
      processes (the shared-directory backend, the network cache tier of
      ``docs/cachenet.md``) sets it;
    * ``disk_entries``/``disk_bytes`` take the max when either side is
      shared storage — every worker reports the same shared tier, and
      summing it once per worker would multiply the fleet's footprint — and
      sum otherwise, because distinct caches each own their footprint.
    """

    hits: int = 0
    misses: int = 0
    stores: int = 0
    errors: int = 0
    disk_entries: int = merged_by(storage)
    disk_bytes: int = merged_by(storage)
    memo_entries: int = 0
    oldest_age_seconds: float = merged_by(maximum, 0.0)
    shared_gauges: bool = merged_by(either, False)


class ResultCache:
    """Content-addressed cache of JSON payloads keyed by fingerprint."""

    def __init__(
        self,
        directory: str | Path | None = None,
        enabled: bool = True,
        memo_entries: int = DEFAULT_MEMO_ENTRIES,
        backend: CacheBackend | None = None,
    ) -> None:
        if backend is not None and directory is not None:
            raise ValueError("pass either directory or backend, not both")
        if backend is None:
            if enabled and directory is not None:
                backend = FilesystemBackend(directory)
            else:
                backend = InMemoryBackend()
        self.backend = backend
        self.enabled = enabled
        self.memo_entries = memo_entries
        self.stats = CacheStats()
        #: LRU memo keyed by ``(key, kind)`` — the kind is part of the memo
        #: key so an entry stored under one kind can never answer a lookup
        #: for another (the backend always enforced this).
        self._memory: collections.OrderedDict[tuple[str, str], dict] = (
            collections.OrderedDict()
        )

    @classmethod
    def disabled(cls) -> "ResultCache":
        """A cache that never hits and never stores."""
        return cls(directory=None, enabled=False)

    @property
    def directory(self) -> Path | None:
        """Directory of a filesystem-shaped backend, ``None`` otherwise."""
        return self.backend.directory

    @property
    def manifest(self) -> lifecycle.CacheManifest | None:
        """Manifest index of a filesystem-shaped backend, ``None`` otherwise."""
        return self.backend.manifest

    @property
    def persistent(self) -> bool:
        """Whether entries survive this process."""
        return self.enabled and self.backend.persistent

    # ------------------------------------------------------------------- memo
    def _memo_get(self, key: str, kind: str) -> dict | None:
        payload = self._memory.get((key, kind))
        if payload is not None:
            self._memory.move_to_end((key, kind))
        return payload

    def _memo_put(self, key: str, kind: str, payload: dict) -> None:
        self._memory[(key, kind)] = payload
        self._memory.move_to_end((key, kind))
        while len(self._memory) > self.memo_entries:
            self._memory.popitem(last=False)

    def _memo_drop(self, key: str) -> None:
        for memo_key in [mk for mk in self._memory if mk[0] == key]:
            del self._memory[memo_key]

    # ----------------------------------------------------------------- lookup
    def get(self, key: str, kind: str = "network_result") -> dict | None:
        """Payload stored under ``key``, or ``None`` on a miss."""
        if not self.enabled:
            self.stats.misses += 1
            return None
        payload = self._memo_get(key, kind)
        if payload is not None:
            self.stats.hits += 1
            # Memo hits must advance the backend's LRU clock too, or GC
            # would evict the hottest entries first (touch is throttled by
            # the manifest, so this stays cheap on the hot path).
            self.backend.touch(key)
            return payload
        try:
            payload = self.backend.load(key, kind)
        except CorruptEntry:
            self.stats.misses += 1
            self.stats.errors += 1
            return None
        if payload is None:
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        self._memo_put(key, kind, payload)
        return payload

    def contains(self, key: str, kind: str = "network_result") -> bool:
        """Whether ``key`` resolves to a valid entry, without counting hit/miss.

        Used by the run planner to prune simulation jobs.  Validates the entry
        but deliberately does not retain its payload (the planning process
        never consumes the results, only the workers do); hit/miss counters
        are reserved for actual lookups, while corruption discovered during a
        probe still counts as an error and drops the entry.
        """
        if not self.enabled:
            return False
        if self._memo_get(key, kind) is not None:
            return True
        try:
            return self.backend.probe(key, kind)
        except CorruptEntry:
            self.stats.errors += 1
            return False

    # ------------------------------------------------------------------ store
    def put(self, key: str, payload: dict, kind: str = "network_result") -> None:
        """Store ``payload`` under ``key`` (atomic, compressed on disk).

        Backend failures (read-only directory, disk full) are not fatal: the
        entry stays available in memory for this process and the failure is
        counted in ``stats.errors``.
        """
        if not self.enabled:
            return
        self._memo_put(key, kind, payload)
        self.stats.stores += 1
        try:
            self.backend.store(key, payload, kind)
        except OSError:
            self.stats.errors += 1

    # -------------------------------------------------------------- lifecycle
    def usage(self) -> dict:
        """Current cache state: entries, disk bytes, ages, memo size.

        Numbers come from the backend (the manifest for filesystem-shaped
        backends) — no directory scan.
        """
        usage = self.backend.usage() if self.enabled else InMemoryBackend().usage()
        # Backends report extra gauges beyond the base four (the network
        # tier's remote_*/negative_* counters, docs/cachenet.md); they pass
        # through for run summaries, the serve ``stats`` op and loadgen.
        return {
            **usage,
            "memo_entries": len(self._memory),
            "directory": str(self.directory) if self.directory is not None else None,
            "backend": self.backend.describe(),
        }

    def gauges(self) -> CacheStats:
        """This cache's current state gauges, with zero counters (see CacheStats)."""
        usage = self.usage()
        return CacheStats(
            disk_entries=usage["entries"] if self.persistent else 0,
            disk_bytes=usage["disk_bytes"],
            memo_entries=usage["memo_entries"],
            oldest_age_seconds=usage["oldest_age_seconds"] or 0.0,
            # Shared storage (shared directory, remote tier) is reported by
            # every process that mounts it; the flag keeps fleet merges from
            # counting the same bytes once per worker.
            shared_gauges=self.enabled and self.backend.shared,
        )

    def snapshot(self) -> CacheStats:
        """This cache's counters plus its current state gauges."""
        snapshot = self.gauges()
        snapshot.merge(self.stats)
        return snapshot

    def gc(
        self, max_bytes: int | None = None, max_age: float | None = None
    ) -> lifecycle.GCResult:
        """Garbage-collect the backend (LRU-first; see ``CacheManifest.gc``).

        Evicted keys are also dropped from the in-process memo so a bounded
        cache never serves an entry GC decided to retire.  A memory-only or
        disabled cache has nothing to collect and returns an empty result.
        """
        if not self.persistent:
            return lifecycle.GCResult()
        result = self.backend.gc(max_bytes=max_bytes, max_age=max_age)
        for key in result.removed_keys:
            self._memo_drop(key)
        return result

    def clear(self) -> int:
        """Remove every entry (backend and memo); returns backend entries removed."""
        removed = 0
        if self.enabled:
            removed = self.backend.clear()
        self._memory.clear()
        return removed

    def __len__(self) -> int:
        if not self.enabled:
            return 0
        return len(self.backend)
