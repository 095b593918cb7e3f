"""Cache lifecycle: the manifest index, the entry codec, and garbage collection.

The disk cache (:mod:`repro.runtime.cache`) used to be nothing but a directory
of ``<key>.json`` files — unbounded, uncompressed, and only inspectable by
globbing.  This module adds the lifecycle layer around that directory:

* **entry codec** — new entries are written as gzip-compressed
  ``<key>.json.gz`` files (full-preset payloads compress ~10x); reads accept
  both the compressed form and legacy uncompressed ``<key>.json`` entries, so
  a cache populated before the format change keeps hitting after it.
* **manifest** — ``manifest.json`` is a persistent index of the directory
  (per entry: kind, byte size, created/last-used timestamps), maintained
  incrementally on every store/remove so entry counts and disk usage are one
  manifest read instead of an O(N) directory scan.  A missing or corrupted
  manifest is rebuilt from the directory and is therefore never
  authoritative over the entries themselves — losing it loses bookkeeping,
  not results.
* **garbage collection** — :meth:`CacheManifest.gc` enforces a byte cap
  and/or a maximum entry age, evicting least-recently-used entries first.
* **clear** — :meth:`CacheManifest.clear` deletes every entry plus the
  manifest.

Concurrency: the manifest is written atomically (temp file + rename) and
every save first merges the copy on disk, so concurrent processes appending
entries to one shared cache directory keep each other's bookkeeping.  On
POSIX the read-merge-replace holds an exclusive ``flock`` on the directory,
so two processes storing at the same moment cannot drop each other's
records.  Where no lock is available a record can lose that race, and every
loss self-heals: an unindexed entry is re-indexed the next time it is read,
a record whose file was removed behind our back is dropped at the next save,
and a missing/corrupted manifest is rebuilt outright.  Last-used
timestamps are also mirrored into file mtimes, which is what a rebuild falls
back to, so LRU order survives (approximately) even across a manifest loss.
``docs/runtime.md`` documents the on-disk layout and the GC policy.
"""

from __future__ import annotations

import contextlib
import gzip
import json
import os
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

try:
    import fcntl
except ImportError:  # not POSIX: manifest saves run unlocked
    fcntl = None

__all__ = [
    "COMPRESSED_SUFFIX",
    "LEGACY_SUFFIX",
    "TENSOR_SUFFIX",
    "MANIFEST_NAME",
    "CacheManifest",
    "GCResult",
    "entry_path",
    "find_entry",
    "read_entry",
    "tensor_path",
    "write_entry",
]

#: Preferred on-disk form of new entries.
COMPRESSED_SUFFIX = ".json.gz"

#: Uncompressed entries written before the format change; still readable.
LEGACY_SUFFIX = ".json"

#: Raw numpy tensor artifacts (the trace fabric,
#: :mod:`repro.runtime.trace_cache`).  Deliberately *not* gzip-wrapped: the
#: whole point of the format is that ``np.load(..., mmap_mode="r")`` maps the
#: file read-only without copying it, so N processes share one physical copy.
TENSOR_SUFFIX = ".npy"

#: Index file inside the cache directory (never itself a cache entry).
MANIFEST_NAME = "manifest.json"

#: Format version of the manifest; mismatches trigger a rebuild.
MANIFEST_SCHEMA = 1

#: LRU bookkeeping granularity: implicit (real-time) uses within this many
#: seconds of the recorded ``last_used`` are no-ops, so hot entries cost one
#: timestamp update per window instead of one per hit.
USE_GRANULARITY = 60.0

#: Minimum seconds between manifest writes triggered by *uses*.  Stores and
#: removals always persist immediately; use-only updates are batched so a
#: warm run re-reading N entries does not rewrite the manifest N times.
SAVE_INTERVAL = 5.0


# ------------------------------------------------------------------ entry codec
def entry_path(directory: Path, key: str) -> Path:
    """Where a *new* entry for ``key`` is written (compressed form)."""
    return directory / f"{key}{COMPRESSED_SUFFIX}"


def legacy_path(directory: Path, key: str) -> Path:
    """Where the pre-compression format stored ``key``."""
    return directory / f"{key}{LEGACY_SUFFIX}"


def tensor_path(directory: Path, key: str) -> Path:
    """Where a raw ``.npy`` tensor artifact for ``key`` lives."""
    return directory / f"{key}{TENSOR_SUFFIX}"


def find_entry(directory: Path, key: str) -> Path | None:
    """The existing on-disk file of ``key`` (compressed preferred), or ``None``."""
    for path in (
        entry_path(directory, key),
        legacy_path(directory, key),
        tensor_path(directory, key),
    ):
        if path.exists():
            return path
    return None


def read_entry(path: Path) -> dict:
    """Decode one entry file, transparently handling both formats.

    Raises ``OSError`` / ``ValueError`` on unreadable or malformed content —
    the cache treats either as corruption.
    """
    data = path.read_bytes()
    if data[:2] == b"\x1f\x8b":  # gzip magic; suffix-agnostic on purpose
        data = gzip.decompress(data)
    entry = json.loads(data.decode("utf-8"))
    if not isinstance(entry, dict):
        raise ValueError("cache entry is not an object")
    return entry


def write_entry(directory: Path, key: str, entry: dict) -> int:
    """Atomically write ``entry`` compressed; returns its on-disk byte size.

    A leftover legacy uncompressed copy of the same key is removed so the
    directory never holds two generations of one entry.  Raises ``OSError``
    on write failure (the caller degrades to its in-memory copy).
    """
    data = gzip.compress(
        json.dumps(entry, sort_keys=True).encode("utf-8"), mtime=0
    )
    tmp_name = None
    try:
        descriptor, tmp_name = tempfile.mkstemp(
            dir=directory, prefix=f".{key[:16]}-", suffix=".tmp"
        )
        with os.fdopen(descriptor, "wb") as handle:
            handle.write(data)
        os.replace(tmp_name, entry_path(directory, key))
    except OSError:
        if tmp_name is not None:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
        raise
    try:
        legacy_path(directory, key).unlink()
    except OSError:
        pass
    return len(data)


def _remove_entry_files(directory: Path, key: str) -> None:
    """Delete every on-disk form of ``key`` (best effort).

    Unlinking a ``.npy`` a live process has mapped is safe on POSIX — the
    inode (and the mapping) survives until the last reader unmaps it; only
    the name disappears, and the next fetch re-materializes the artifact.
    """
    for path in (
        entry_path(directory, key),
        legacy_path(directory, key),
        tensor_path(directory, key),
    ):
        try:
            path.unlink()
        except OSError:
            pass


# -------------------------------------------------------------------- manifest
@dataclass
class GCResult:
    """Outcome of one garbage-collection pass."""

    removed_entries: int = 0
    removed_bytes: int = 0
    remaining_entries: int = 0
    remaining_bytes: int = 0
    removed_keys: list[str] = field(default_factory=list)

    def summary(self) -> str:
        return (
            f"evicted {self.removed_entries} entries ({self.removed_bytes} bytes); "
            f"{self.remaining_entries} entries ({self.remaining_bytes} bytes) remain"
        )


@contextlib.contextmanager
def _directory_lock(directory: Path):
    """Hold an exclusive advisory lock on ``directory`` across processes."""
    try:
        descriptor = os.open(directory, os.O_RDONLY)
    except OSError:  # no directory yet: the save fails (and is swallowed) anyway
        descriptor = None
    try:
        if descriptor is not None and fcntl is not None:
            fcntl.flock(descriptor, fcntl.LOCK_EX)
        yield
    finally:
        if descriptor is not None:
            os.close(descriptor)


class CacheManifest:
    """Persistent, incrementally-maintained index of one cache directory.

    One record per entry::

        key -> {"kind": str | None, "size": int, "created": float, "last_used": float}

    All methods are thread-safe (the serve worker pool drives one shared
    cache from many threads).  The manifest is loaded lazily; a missing or
    corrupted file triggers :meth:`rebuild` from a directory scan (``kind``
    is unknown after a rebuild, sizes and LRU order come from ``stat``).
    """

    def __init__(self, directory: str | Path) -> None:
        self.directory = Path(directory)
        self.path = self.directory / MANIFEST_NAME
        self.rebuilds = 0
        self._lock = threading.RLock()
        self._entries: dict[str, dict] | None = None
        self._removed: set[str] = set()
        self._dirty = False
        self._last_save = 0.0  # time.monotonic() of the last _save()

    # ------------------------------------------------------------- persistence
    def _load(self) -> dict[str, dict]:
        """The in-memory index, loading (or rebuilding) it on first use."""
        if self._entries is None:
            loaded = self._read_file()
            if loaded is None:
                self._entries = self._scan()
                self.rebuilds += 1
                self._save()
            else:
                self._entries = loaded
        return self._entries

    def _read_file(self) -> dict[str, dict] | None:
        """The manifest file's entries, or ``None`` when missing/corrupted."""
        try:
            raw = json.loads(self.path.read_text(encoding="utf-8"))
            if raw["schema"] != MANIFEST_SCHEMA:
                raise ValueError("manifest schema mismatch")
            entries = raw["entries"]
            if not isinstance(entries, dict) or not all(
                isinstance(meta, dict) and isinstance(meta.get("size"), int)
                for meta in entries.values()
            ):
                raise ValueError("manifest entries malformed")
        except (OSError, ValueError, KeyError, TypeError):
            return None
        return entries

    def _scan(self) -> dict[str, dict]:
        """Rebuild the index from the entry files actually present."""
        entries: dict[str, dict] = {}
        try:
            names = sorted(os.listdir(self.directory))
        except OSError:
            return entries
        for name in names:
            if name == MANIFEST_NAME or name.startswith("."):
                continue
            if name.endswith(COMPRESSED_SUFFIX):
                key = name[: -len(COMPRESSED_SUFFIX)]
            elif name.endswith(LEGACY_SUFFIX):
                key = name[: -len(LEGACY_SUFFIX)]
            elif name.endswith(TENSOR_SUFFIX):
                key = name[: -len(TENSOR_SUFFIX)]
            else:
                continue
            try:
                info = (self.directory / name).stat()
            except OSError:
                continue
            known = entries.get(key)
            record = {
                "kind": None,
                "size": info.st_size,
                "created": info.st_mtime,
                "last_used": info.st_mtime,
            }
            # Both generations present: index the compressed (preferred) one.
            if known is None or name.endswith(COMPRESSED_SUFFIX):
                entries[key] = record
        return entries

    def _save(self) -> None:
        """Atomically persist the index, merging concurrent writers' records.

        Entries present only in the on-disk manifest (another process stored
        them since we loaded) are adopted — except keys this instance
        removed; for keys we track, our record is authoritative.  A key we
        track that the disk manifest has dropped is re-verified against the
        directory, so records for entries another process gc'd or cleared
        are not resurrected as ghosts.  Failures are swallowed: the manifest
        is bookkeeping, and a rebuild recovers it.
        """
        assert self._entries is not None
        with _directory_lock(self.directory):
            disk = self._read_file() or {}
            for key, meta in disk.items():
                if key not in self._removed and key not in self._entries:
                    self._entries[key] = meta
            for key in [key for key in self._entries if key not in disk]:
                if find_entry(self.directory, key) is None:
                    del self._entries[key]
            payload = {"schema": MANIFEST_SCHEMA, "entries": self._entries}
            tmp_name = None
            try:
                descriptor, tmp_name = tempfile.mkstemp(
                    dir=self.directory, prefix=".manifest-", suffix=".tmp"
                )
                with os.fdopen(descriptor, "w", encoding="utf-8") as handle:
                    json.dump(payload, handle, sort_keys=True)
                os.replace(tmp_name, self.path)
            except OSError:
                if tmp_name is not None:
                    try:
                        os.unlink(tmp_name)
                    except OSError:
                        pass
        self._dirty = False
        self._last_save = time.monotonic()

    # ----------------------------------------------------------------- updates
    def record_store(
        self, key: str, kind: str, size: int, now: float | None = None
    ) -> None:
        """Index a freshly-written entry (persisted immediately)."""
        now = time.time() if now is None else now
        with self._lock:
            entries = self._load()
            entries[key] = {"kind": kind, "size": size, "created": now, "last_used": now}
            self._removed.discard(key)
            self._save()

    def record_use(self, key: str, now: float | None = None) -> None:
        """Refresh an entry's LRU timestamp (manifest and file mtime).

        Implicit (real-time) uses are maintained at ``USE_GRANULARITY`` and
        their manifest writes batched at ``SAVE_INTERVAL`` — this sits on the
        warm lookup path, so it must stay O(1)-ish per hit.  An explicit
        ``now`` (tests, tooling) always takes effect and persists at once.
        """
        explicit = now is not None
        now = time.time() if now is None else now
        with self._lock:
            meta = self._load().get(key)
            if meta is None:
                # Entry written by another process after our load: index it.
                path = find_entry(self.directory, key)
                if path is None:
                    return
                try:
                    size = path.stat().st_size
                except OSError:
                    return
                meta = {"kind": None, "size": size, "created": now, "last_used": now}
                self._entries[key] = meta
            elif not explicit and now - meta.get("last_used", 0) < USE_GRANULARITY:
                return  # hot entry, timestamp fresh enough
            self._removed.discard(key)
            meta["last_used"] = now
            path = find_entry(self.directory, key)
            if path is not None:
                try:
                    os.utime(path, (now, now))
                except OSError:
                    pass
            self._dirty = True
            if explicit or time.monotonic() - self._last_save >= SAVE_INTERVAL:
                self._save()

    def record_remove(self, key: str) -> None:
        """Drop an entry from the index (its file is already gone)."""
        with self._lock:
            self._load().pop(key, None)
            self._removed.add(key)
            self._save()

    # ------------------------------------------------------------- observation
    def refresh(self) -> None:
        """Drop the in-memory index so the next read reloads from disk.

        Used after pool workers (separate processes) have been writing to the
        shared directory: their saves merged into the file, not into this
        process's loaded copy.
        """
        with self._lock:
            if self._dirty and self._entries is not None:
                self._save()  # do not silently drop deferred use-updates
            self._entries = None
            self._removed.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._load())

    def total_bytes(self) -> int:
        with self._lock:
            return sum(meta["size"] for meta in self._load().values())

    def entries(self) -> dict[str, dict]:
        """A snapshot copy of the index."""
        with self._lock:
            return {key: dict(meta) for key, meta in self._load().items()}

    def stats(self, now: float | None = None) -> dict:
        """Aggregate usage: counts, bytes, and entry-age extremes (seconds)."""
        now = time.time() if now is None else now
        with self._lock:
            entries = self._load()
            created = [meta["created"] for meta in entries.values()]
            used = [meta["last_used"] for meta in entries.values()]
            return {
                "entries": len(entries),
                "bytes": sum(meta["size"] for meta in entries.values()),
                "oldest_age_seconds": round(now - min(created), 3) if created else None,
                "lru_age_seconds": round(now - min(used), 3) if used else None,
                "rebuilds": self.rebuilds,
            }

    # -------------------------------------------------------------- collection
    def gc(
        self,
        max_bytes: int | None = None,
        max_age: float | None = None,
        now: float | None = None,
    ) -> GCResult:
        """Evict entries until the cache fits ``max_bytes`` and ``max_age``.

        ``max_age`` (seconds since last use) is applied first; the byte cap
        then evicts least-recently-used entries until the total fits.  Either
        bound may be ``None`` (not enforced).  Evicted entry files are
        deleted; the manifest is saved once at the end.
        """
        now = time.time() if now is None else now
        result = GCResult()
        with self._lock:
            entries = self._load()
            by_lru = sorted(entries.items(), key=lambda item: item[1]["last_used"])
            total = sum(meta["size"] for meta in entries.values())
            for key, meta in by_lru:
                expired = max_age is not None and now - meta["last_used"] > max_age
                over_cap = max_bytes is not None and total > max_bytes
                if not expired and not over_cap:
                    continue
                _remove_entry_files(self.directory, key)
                entries.pop(key, None)
                self._removed.add(key)
                total -= meta["size"]
                result.removed_entries += 1
                result.removed_bytes += meta["size"]
                result.removed_keys.append(key)
            result.remaining_entries = len(entries)
            result.remaining_bytes = total
            if result.removed_entries:
                self._save()
        return result

    def clear(self) -> int:
        """Delete every entry (and the manifest itself); returns entries removed.

        Unlike :meth:`gc`, clearing scans the directory: it is the one
        explicitly-O(N) operation, and must also remove entry files a lost
        manifest race left unindexed.
        """
        with self._lock:
            keys = set(self._load())
            keys.update(self._scan())
            for key in keys:
                _remove_entry_files(self.directory, key)
                self._removed.add(key)
            self._entries.clear()
            try:
                self.path.unlink()
            except OSError:
                pass
        return len(keys)
