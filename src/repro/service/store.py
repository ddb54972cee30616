""":class:`KernelStore` — the content-addressed on-disk kernel cache.

A cold process pays the full preprocessing bill (ε-elimination,
unrolling, lowering, count tables) before its first answer; a warm one
should not.  The store persists kernel snapshots keyed by
``(fingerprint, n, mode)`` so any later process — or a sibling worker in
the :class:`~repro.service.engine.Engine` pool — starts from the
finished artifact:

* **content-addressed**: the key's fingerprint half is the canonical
  SHA-256 (:mod:`repro.service.fingerprint`) of what every stored
  artifact is built from: a witness set's plan, or else its ε-free
  trimmed automaton.  Structurally identical instances share an entry
  no matter who wrote it, so do automata that differ only in useless
  states, and a stale entry for a *different* automaton is impossible
  by construction;
* **one pointer layer**: an *alias* maps a wire spec's key
  (:func:`repro.service.protocol.spec_key`) to the fingerprint the spec
  built, so a restart finds its kernels without building or
  fingerprinting the automaton.  An alias records the version of the
  code that computed it (``FINGERPRINT_VERSION`` and the protocol's
  ``SPEC_VERSION``); one of another version is a miss and is rewritten.
  A witness set that later builds its automaton anyway recomputes the
  fingerprint, and a mismatch counts the alias as corrupt and replaces
  it before anything is written under the wrong fingerprint;
* **atomic writes**: snapshots, sidecars and aliases are written to a
  temp file in the same directory and ``os.replace``-d into place, so
  concurrent readers and writers (the multiprocess engine) never observe
  half a file;
* **LRU size bounding**: when the store grows past ``max_bytes``, the
  least-recently-*used* entries (access bumps mtime) are evicted, then
  the sidecars and aliases of fingerprints with no snapshot left;
* **corruption recovery**: an unreadable entry, sidecar or alias
  (truncated write, bad magic, garbage, a snapshot of another format
  version) is quarantined — deleted and counted — and the caller simply
  rebuilds, as for a miss;
* **stats**: hits / misses / stores / evictions / corrupt / skipped /
  mmap-hit / alias-hit / alias-miss counts on :attr:`KernelStore.stats`.
"""

from __future__ import annotations

import json
import os
import re
import tempfile
import threading
import time
from pathlib import Path
from typing import TYPE_CHECKING, Any, NamedTuple

from repro.obs import add_stage
from repro.obs import names as metric_names
from repro.service.snapshot import SnapshotError, kernel_from_mmap, kernel_to_bytes

if TYPE_CHECKING:
    from repro.core.kernel import CompiledDAG

#: Default size bound: plenty for thousands of mid-size kernels.
DEFAULT_MAX_BYTES = 256 * 1024 * 1024

#: Environment variable naming the default store directory.
STORE_ENV = "REPRO_KERNEL_STORE"

_SUFFIX = ".kern"
_META_SUFFIX = ".meta.json"
_ALIAS_SUFFIX = ".alias"

#: What an alias must hold: a SHA-256 fingerprint in lowercase hex.
_FINGERPRINT = re.compile("[0-9a-f]{64}")


#: Store counter → the ``repro_store_*_total`` series
#: :meth:`~repro.service.engine.Engine.aggregate_stats` writes it as.
#: ``mmap_hits`` counts the subset of ``hits`` served zero-copy.
STORE_SERIES = {
    "hits": metric_names.STORE_HITS,
    "misses": metric_names.STORE_MISSES,
    "stores": metric_names.STORE_STORES,
    "evictions": metric_names.STORE_EVICTIONS,
    "corrupt": metric_names.STORE_CORRUPT,
    "skipped": metric_names.STORE_SKIPPED,
    "mmap_hits": metric_names.STORE_MMAP_HITS,
    "alias_hits": metric_names.STORE_ALIAS_HITS,
    "alias_misses": metric_names.STORE_ALIAS_MISSES,
}


class Alias(NamedTuple):
    """A witness set's alias in a store: the spec key it sits under, the
    version of the code behind it, and the fingerprint it held when the
    set was built (None on a miss, until the set writes one)."""

    key: str
    version: str
    fingerprint: str | None


class StoreStats:
    """Counters for one :class:`KernelStore` instance.

    One dict of counts under ``_lock``, and :meth:`inc` is its only
    writer: a store is shared across threads (the facade's process
    default is hit from the engine's executor thread and the caller's),
    so every bump is one atomic read-modify-write.  The counts are
    functional state, exact whatever ``REPRO_OBS`` says, and this is
    their only record: the engine's stats summary sums them across
    workers and writes them as the :data:`STORE_SERIES`.
    """

    __slots__ = ("_counts", "_lock")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counts = dict.fromkeys(STORE_SERIES, 0)  # guarded-by: _lock

    def inc(self, series: str, delta: int = 1) -> None:
        """Atomically bump one counter."""
        with self._lock:
            self._counts[series] += delta

    def _read(self, series: str) -> int:
        with self._lock:
            return self._counts[series]

    hits = property(lambda self: self._read("hits"))
    misses = property(lambda self: self._read("misses"))
    stores = property(lambda self: self._read("stores"))
    evictions = property(lambda self: self._read("evictions"))
    corrupt = property(lambda self: self._read("corrupt"))
    mmap_hits = property(lambda self: self._read("mmap_hits"))
    alias_hits = property(lambda self: self._read("alias_hits"))
    alias_misses = property(lambda self: self._read("alias_misses"))

    def as_dict(self) -> dict[str, int]:
        with self._lock:
            return dict(self._counts)

    def __repr__(self) -> str:  # pragma: no cover - diagnostics
        return f"StoreStats({self.as_dict()!r})"


class KernelStore:
    """Content-addressed kernel snapshots under one root directory.

    Parameters
    ----------
    root:
        Directory holding the snapshots (created on demand).  Safe to
        share between processes: writes are atomic and keys are
        content-addressed.
    max_bytes:
        Total snapshot size bound; exceeding it evicts least-recently
        used entries after each store.
    mmap:
        When True, :meth:`get` restores kernels as zero-copy views over
        a memory map of the snapshot file — a warm start pages CSR
        arrays in lazily.  Safe alongside eviction on POSIX (an
        unlinked mapping stays valid).  When False, :meth:`get` copies
        the kernel out of the mapping and closes it, so the kernel
        holds no file open.  Either way, a snapshot of another format
        version is quarantined like any unreadable entry, and the
        caller lowers the kernel again.
    """

    root: Path
    max_bytes: int
    mmap: bool
    stats: StoreStats

    def __init__(
        self,
        root: str | os.PathLike[str],
        max_bytes: int = DEFAULT_MAX_BYTES,
        mmap: bool = False,
    ) -> None:
        self.root = Path(root)
        self.max_bytes = max_bytes
        self.mmap = mmap
        self.stats = StoreStats()

    # ------------------------------------------------------------------
    # Keys and paths
    # ------------------------------------------------------------------

    def path_for(self, fingerprint: str, n: int, trimmed: bool) -> Path:
        """The snapshot path for ``(fingerprint, n, mode)``.

        Two-level fan-out (first byte of the fingerprint) keeps
        directories small under many entries.
        """
        mode = "trimmed" if trimmed else "reachable"
        return self.root / fingerprint[:2] / f"{fingerprint}-n{n}-{mode}{_SUFFIX}"

    # ------------------------------------------------------------------
    # Get / put
    # ------------------------------------------------------------------

    def get(self, fingerprint: str, n: int, trimmed: bool) -> CompiledDAG | None:
        """The stored kernel, or ``None`` on miss / corrupt entry.

        A hit bumps the entry's mtime (the LRU clock).  A corrupt entry
        is deleted so the subsequent :meth:`put` heals the store.
        """
        started = time.perf_counter()
        try:
            return self._get(fingerprint, n, trimmed)
        finally:
            add_stage(metric_names.STAGE_STORE_FETCH, time.perf_counter() - started)

    def _get(self, fingerprint: str, n: int, trimmed: bool) -> CompiledDAG | None:
        path = self.path_for(fingerprint, n, trimmed)
        try:
            kernel = kernel_from_mmap(path, borrow=self.mmap)
        except OSError:
            self.stats.inc("misses")
            return None
        except SnapshotError:
            self._quarantine(path)
            self.stats.inc("misses")
            return None
        if kernel._borrow_owner is not None:
            self.stats.inc("mmap_hits")
        self.stats.inc("hits")
        try:
            os.utime(path)
        except OSError:  # pragma: no cover - entry may have been evicted
            pass
        return kernel

    def put(self, fingerprint: str, n: int, trimmed: bool, kernel: CompiledDAG) -> bool:
        """Persist ``kernel`` under ``(fingerprint, n, mode)``; atomic.

        Returns False (and counts ``skipped``) when the kernel has no
        snapshot serialization — callers treat the store as best-effort.
        """
        try:
            data = kernel_to_bytes(kernel)
        except SnapshotError:
            self.stats.inc("skipped")
            return False
        self._write_atomic(self.path_for(fingerprint, n, trimmed), data)
        self.stats.inc("stores")
        self._evict_over_budget()
        return True

    def _write_atomic(self, path: Path, data: bytes) -> None:
        """Write ``data`` to ``path`` through a temp file and ``os.replace``."""
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp_name = tempfile.mkstemp(
            dir=path.parent, prefix=path.name, suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(data)
            os.replace(tmp_name, path)
        except OSError:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise

    def _quarantine(self, path: Path) -> None:
        """Delete an unreadable file and count it as corrupt."""
        self.stats.inc("corrupt")
        try:
            path.unlink()
        except OSError:  # pragma: no cover - racing unlink is fine
            pass

    # ------------------------------------------------------------------
    # Per-fingerprint metadata (tiny JSON sidecars, e.g. the ambiguity
    # certificate — a property of the source, not of any single n)
    # ------------------------------------------------------------------

    def meta_path_for(self, fingerprint: str) -> Path:
        return self.root / fingerprint[:2] / f"{fingerprint}{_META_SUFFIX}"

    def get_meta(self, fingerprint: str) -> dict[str, Any] | None:
        """The metadata dict recorded for ``fingerprint`` (None if absent
        or unreadable — unreadable sidecars are quarantined like corrupt
        snapshots)."""
        path = self.meta_path_for(fingerprint)
        try:
            data = path.read_bytes()
        except OSError:
            return None
        try:
            meta = json.loads(data)
            if not isinstance(meta, dict):
                raise ValueError("metadata must be a JSON object")
        except ValueError:
            self._quarantine(path)
            return None
        return meta

    def put_meta(self, fingerprint: str, values: dict[str, Any]) -> None:
        """Merge ``values`` into the fingerprint's metadata (atomic)."""
        merged = dict(self.get_meta(fingerprint) or {})
        merged.update(values)
        self._write_atomic(
            self.meta_path_for(fingerprint), json.dumps(merged).encode("utf-8")
        )

    # ------------------------------------------------------------------
    # Aliases: spec key → fingerprint (see the module docs)
    # ------------------------------------------------------------------

    def alias_path_for(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}{_ALIAS_SUFFIX}"

    def get_alias(self, key: str, version: str) -> str | None:
        """The fingerprint aliased under spec key ``key`` by code of
        ``version``, or None.

        Counts an alias hit or miss.  An alias of another version is a
        miss; an unreadable one (not JSON, or not holding a 64-hex
        fingerprint) is also quarantined.
        """
        path = self.alias_path_for(key)
        try:
            data = path.read_bytes()
        except OSError:
            self.stats.inc("alias_misses")
            return None
        record = _alias_record(data)
        if record is None:
            self._quarantine(path)
        elif record.get("version") == version:
            self.stats.inc("alias_hits")
            return record["fingerprint"]
        self.stats.inc("alias_misses")
        return None

    def put_alias(self, key: str, version: str, fingerprint: str) -> None:
        """Record ``fingerprint`` under spec key ``key`` (atomic; replaces
        any earlier alias of the key)."""
        record = {"version": version, "fingerprint": fingerprint}
        self._write_atomic(self.alias_path_for(key), json.dumps(record).encode("utf-8"))

    # ------------------------------------------------------------------
    # Bounding and introspection
    # ------------------------------------------------------------------

    def _listing(self, pattern: str) -> list[Path]:
        """Matching files, tolerating concurrent deletion mid-listing.

        The store is shared between processes: a sibling's evictor (or
        quarantine, or ``clear``) may unlink entries — or whole fan-out
        directories — while this process is scanning.  A vanished path
        is simply not part of the listing; it must never crash the scan.
        """
        try:
            return [path for path in self.root.glob(pattern) if path.is_file()]
        except OSError:  # pragma: no cover - directory vanished mid-glob
            return []

    def entries(self) -> list[Path]:
        """All snapshot files currently in the store."""
        if not self.root.is_dir():
            return []
        return self._listing(f"*/*{_SUFFIX}")

    def _sidecars(self) -> list[Path]:
        """Metadata sidecars and aliases: the store's small files."""
        if not self.root.is_dir():
            return []
        return self._listing(f"*/*{_META_SUFFIX}") + self._listing(f"*/*{_ALIAS_SUFFIX}")

    def total_bytes(self) -> int:
        """Store footprint: snapshots plus metadata sidecars and aliases.

        An entry deleted between the listing and its ``stat`` (a racing
        evictor in another process) counts as zero, not as a crash.
        """
        total = 0
        for path in self.entries() + self._sidecars():
            try:
                total += path.stat().st_size
            except OSError:
                continue
        return total

    def _evict_over_budget(self) -> None:
        entries: list[tuple[float, int, Path]] = []
        total = 0
        for path in self.entries():
            try:
                stat = path.stat()
            except OSError:  # pragma: no cover - racing eviction
                continue
            entries.append((stat.st_mtime, stat.st_size, path))
            total += stat.st_size
        sidecars = self._sidecars()
        for path in sidecars:
            try:
                total += path.stat().st_size
            except OSError:  # pragma: no cover - racing eviction
                pass
        if total <= self.max_bytes:
            return
        entries.sort()  # oldest access first
        for _, size, path in entries:
            if total <= self.max_bytes:
                break
            try:
                path.unlink()
            except OSError:  # pragma: no cover - racing eviction
                continue
            total -= size
            self.stats.inc("evictions")
        # A sidecar or alias whose every snapshot is gone is stranded:
        # drop it so the directory stays bounded along with the budget.
        live = {path.name.split("-n", 1)[0] for path in self.entries()}
        for path in sidecars:
            if path.name.endswith(_META_SUFFIX):
                fingerprint = path.name[: -len(_META_SUFFIX)]
            else:
                try:
                    record = _alias_record(path.read_bytes())
                except OSError:  # pragma: no cover - racing eviction
                    continue
                fingerprint = record and record["fingerprint"]
            if fingerprint not in live:
                try:
                    path.unlink()
                    self.stats.inc("evictions")
                except OSError:  # pragma: no cover - racing eviction
                    pass

    def clear(self) -> int:
        """Delete every entry (snapshots, metadata sidecars and aliases)."""
        removed = 0
        for path in self.entries() + self._sidecars():
            try:
                path.unlink()
                removed += 1
            except OSError:  # pragma: no cover
                pass
        return removed

    def __repr__(self) -> str:  # pragma: no cover - diagnostics
        return (
            f"<KernelStore root={str(self.root)!r} entries={len(self.entries())} "
            f"stats={self.stats.as_dict()}>"
        )


def _alias_record(data: bytes) -> dict[str, Any] | None:
    """An alias file's record, or None when it holds no fingerprint."""
    try:
        record = json.loads(data)
        fingerprint = record["fingerprint"]
    except (ValueError, KeyError, TypeError):
        return None
    if isinstance(fingerprint, str) and _FINGERPRINT.fullmatch(fingerprint):
        return record
    return None


#: Process-wide default store, memoized per root so stats accumulate.
_default: KernelStore | None = None


def default_store() -> KernelStore | None:
    """The process-default store, from ``$REPRO_KERNEL_STORE`` (or None).

    The facade consults this when no explicit ``store=`` was passed, so
    pointing the environment variable at a directory turns on warm-start
    caching for every WitnessSet in the process — the zero-code-change
    deployment switch.  One instance per process (per root), so its
    stats accumulate across witness sets.
    """
    global _default
    root = os.environ.get(STORE_ENV)
    if not root:
        return None
    if _default is None or Path(root) != _default.root:
        _default = KernelStore(root)
    return _default


__all__ = [
    "Alias",
    "KernelStore",
    "StoreStats",
    "STORE_SERIES",
    "default_store",
    "DEFAULT_MAX_BYTES",
    "STORE_ENV",
]
