"""Artifact stores behind the flow cache.

Two tiers with one contract (``get``/``put`` keyed by content hash):

* :class:`MemoryLRU` — in-process store of *live* Python objects, LRU
  over a bounded entry count.  Holds anything, including artifacts with
  no JSON codec (whole HLS projects).
* :class:`DiskStore` — durable store of JSON payloads, one file
  ``objects/<key>.json`` per entry and no other record of them: the
  file's size is the entry's, its mtime the LRU clock.  Processes may
  share a directory; a damaged object is a miss and is dropped.
  Eviction is size-bounded (least-recently-used payloads leave first).

:class:`FlowCache` is the facade the flow layers use: layered lookup
(memory, then disk), per-layer statistics and telemetry counters
(``cache.hit`` / ``cache.miss`` / ``cache.evict``).
"""

from __future__ import annotations

import fcntl
import json
import os
import tempfile
import threading
import time
from collections import OrderedDict
from contextlib import contextmanager, suppress
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from ..telemetry import Tracer

DEFAULT_MAX_ENTRIES = 1024
DEFAULT_MAX_BYTES = 256 * 1024 * 1024
OBJECTS_DIR = "objects"
STATS_NAME = "stats.json"
STATS_LOCK_NAME = "stats.lock"
#: Age past which a ``*.tmp`` file in ``objects/`` is the leftover of a
#: writer killed before its rename: ``gc`` and ``clear`` remove it.  A
#: live write renames its file within milliseconds, so another process's
#: write in flight is never taken.
ORPHAN_GRACE_S = 600

Decoder = Callable[[Dict[str, Any]], Any]
Encoder = Callable[[Any], Dict[str, Any]]


class CacheStoreError(Exception):
    pass


@dataclass
class LayerStats:
    """Lifetime cache accounting for one producer layer."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    evictions: int = 0

    def to_json(self) -> Dict[str, int]:
        return asdict(self)

    @classmethod
    def from_json(cls, payload: Dict[str, Any]) -> "LayerStats":
        return cls(**{counter.name: int(payload.get(counter.name, 0))
                      for counter in fields(cls)})


class MemoryLRU:
    """Bounded in-process object store, least-recently-used eviction."""

    def __init__(self, max_entries: int = DEFAULT_MAX_ENTRIES) -> None:
        if max_entries <= 0:
            raise CacheStoreError("max_entries must be positive")
        self.max_entries = max_entries
        self._entries: "OrderedDict[str, Any]" = OrderedDict()
        self._lock = threading.Lock()
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: str) -> Tuple[bool, Any]:
        with self._lock:
            if key not in self._entries:
                return False, None
            self._entries.move_to_end(key)
            return True, self._entries[key]

    def put(self, key: str, value: Any) -> int:
        """Store ``value``; returns how many entries were evicted."""
        evicted = 0
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                evicted += 1
            self.evictions += evicted
        return evicted

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()


class DiskStore:
    """Durable JSON object store; the object files are its only index.

    Puts and hits stamp the object's mtime with ``time.time_ns()``.  Writes
    go through a unique temp file and an atomic rename.  Lifetime counters
    live in ``stats.json``, under an exclusive ``flock`` on ``stats.lock``.
    """

    def __init__(self, root: Path,
                 max_bytes: int = DEFAULT_MAX_BYTES) -> None:
        if max_bytes <= 0:
            raise CacheStoreError("max_bytes must be positive")
        self.root = Path(root)
        self.max_bytes = max_bytes
        self._lock = threading.Lock()
        self._objects = self.root / OBJECTS_DIR
        self._objects.mkdir(parents=True, exist_ok=True)
        self._bytes = self.total_bytes()

    # -- files -------------------------------------------------------------

    def _object_path(self, key: str) -> Path:
        return self._objects / f"{key}.json"

    def _scan(self) -> List[Tuple[int, str, int]]:
        """``(mtime_ns, key, bytes)`` of every entry, oldest first."""
        entries = []
        with os.scandir(self._objects) as found:
            for item in found:
                if item.name.endswith(".json"):
                    with suppress(OSError):     # removed meanwhile
                        info = item.stat()
                        entries.append((info.st_mtime_ns, item.name[:-5],
                                        info.st_size))
        entries.sort()
        return entries

    def _remove_orphans(self) -> None:
        """Unlink the temp files older than ``ORPHAN_GRACE_S``."""
        cutoff = time.time_ns() - ORPHAN_GRACE_S * 1_000_000_000
        with os.scandir(self._objects) as found:
            for item in found:
                if item.name.endswith(".tmp"):
                    with suppress(OSError):     # removed meanwhile
                        if item.stat().st_mtime_ns < cutoff:
                            os.unlink(item.path)

    def _write(self, path: Path, text: str) -> None:
        """Replace ``path`` atomically through a unique temp file."""
        fd, tmp = tempfile.mkstemp(dir=self._objects, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as handle:
                handle.write(text)
            os.replace(tmp, path)
        except BaseException:
            Path(tmp).unlink(missing_ok=True)
            raise

    @staticmethod
    def _touch(path: Path) -> None:
        """Stamp ``path``'s LRU clock (another process may evict it)."""
        with suppress(OSError):
            os.utime(path, ns=(time.time_ns(),) * 2)

    def _load(self, key: str) -> Tuple[Optional[Dict[str, Any]], bool]:
        """``(payload, dropped)``: an unreadable object is unlinked."""
        path = self._object_path(key)
        try:
            loaded = json.loads(path.read_text())
        except FileNotFoundError:
            return None, False
        except (OSError, ValueError):
            loaded = None
        if isinstance(loaded, dict):
            return loaded, False
        path.unlink(missing_ok=True)
        return None, True

    # -- lifetime counters -------------------------------------------------

    @contextmanager
    def _stats(self, operation: int
               ) -> Iterator[Tuple[Any, Dict[str, LayerStats]]]:
        """``stats.json`` open and parsed (unreadable: no counters) under
        ``flock(operation)`` on ``stats.lock``.  Created by a rename, then
        rewritten in place (a rename over it makes ext4 flush every call):
        counters only grow, and one write under a page lands whole."""
        lock = os.open(self.root / STATS_LOCK_NAME, os.O_RDWR | os.O_CREAT,
                       0o666)
        try:
            fcntl.flock(lock, operation)
            path = self.root / STATS_NAME
            if not path.exists():
                self._write(path, "{}")
            with open(path, "r+b", buffering=0) as handle:
                try:
                    raw = json.loads(handle.read())
                    stats = {layer: LayerStats.from_json(counters)
                             for layer, counters in raw.items()}
                except (ValueError, TypeError, AttributeError):
                    stats = {}
                yield handle, stats
        finally:
            os.close(lock)

    def _count(self, layer: str, **amounts: int) -> None:
        """Add to ``layer``'s lifetime counters, across processes."""
        with self._stats(fcntl.LOCK_EX) as (handle, stats):
            counters = stats.setdefault(layer, LayerStats())
            for event, amount in amounts.items():
                setattr(counters, event, getattr(counters, event) + amount)
            handle.seek(0)
            handle.write(json.dumps(stats, default=asdict,
                                    sort_keys=True).encode())
            handle.truncate()

    # -- store API ---------------------------------------------------------

    def get(self, key: str, layer: str = "default"
            ) -> Optional[Dict[str, Any]]:
        """Payload for ``key``, or None.  Corrupt objects become misses."""
        with self._lock:
            payload, _ = self._load(key)
            if payload is not None:
                self._touch(self._object_path(key))
        hit = payload is not None
        self._count(layer, hits=hit, misses=not hit)
        return payload

    def put(self, key: str, payload: Dict[str, Any],
            layer: str = "default") -> int:
        """Persist ``payload``; returns number of entries evicted."""
        text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        path = self._object_path(key)
        with self._lock:
            self._write(path, text)
            self._touch(path)
            # Overwrites and drops make this total an overestimate,
            # which only brings the resyncing rescan forward.
            self._bytes += len(text)
            evicted = (self._evict_locked(keep=key)
                       if self._bytes > self.max_bytes else 0)
        self._count(layer, stores=1, evictions=evicted)
        return evicted

    def _evict_locked(self, keep: Optional[str] = None) -> int:
        """Unlink least-recently-used entries until under the size bound,
        in one scan; ``keep`` (default: the newest entry) stays."""
        entries = self._scan()
        self._bytes = sum(size for _, _, size in entries)
        if keep is None and entries:
            keep = entries[-1][1]
        evicted = 0
        for _, key, size in entries:
            if self._bytes <= self.max_bytes:
                break
            if key != keep:
                self._object_path(key).unlink(missing_ok=True)
                self._bytes -= size
                evicted += 1
        return evicted

    # -- maintenance -------------------------------------------------------

    def total_bytes(self) -> int:
        return sum(size for _, _, size in self._scan())

    def entry_count(self) -> int:
        return len(self._scan())

    def stats(self) -> Dict[str, Dict[str, int]]:
        """Per-layer lifetime hit/miss/store/eviction counters."""
        with self._stats(fcntl.LOCK_SH) as (_, stats):
            return {layer: counters.to_json()
                    for layer, counters in sorted(stats.items())}

    def clear(self) -> int:
        """Delete every entry (counters reset too) and the orphaned temp
        files; returns the number of entries."""
        with self._lock:
            self._remove_orphans()
            entries = self._scan()
            for _, key, _ in entries:
                self._object_path(key).unlink(missing_ok=True)
            with self._stats(fcntl.LOCK_EX) as (handle, _):
                handle.truncate(0)
            self._bytes = 0
            return len(entries)

    def gc(self, max_bytes: Optional[int] = None) -> int:
        """Remove orphaned temp files and unreadable or non-object
        entries, then evict down to ``max_bytes`` (default: the configured
        bound); returns the number of entries removed."""
        with self._lock:
            self._remove_orphans()
            removed = sum(self._load(key)[1] for _, key, _ in self._scan())
            if max_bytes is not None:
                self.max_bytes = max_bytes
            return removed + self._evict_locked()


class FlowCache:
    """Layered content-addressed artifact cache for the HERMES flows.

    ``get``/``put`` are namespaced by producer *layer* ("hls", "fabric",
    "characterize", "mega", "service"...).  Values live in the in-memory
    LRU; when the cache has a directory and the caller supplies an
    encoder, a JSON payload is also persisted so later processes can
    warm-start.  Every
    lookup result is counted per layer, both on this object (``stats``)
    and — when a tracer is attached — as ``cache.hit`` / ``cache.miss``
    / ``cache.evict`` telemetry counters.
    """

    def __init__(self, directory: Optional[Path] = None,
                 max_entries: int = DEFAULT_MAX_ENTRIES,
                 max_bytes: int = DEFAULT_MAX_BYTES,
                 tracer: Optional[Tracer] = None) -> None:
        self.memory = MemoryLRU(max_entries=max_entries)
        self.disk: Optional[DiskStore] = (
            DiskStore(Path(directory), max_bytes=max_bytes)
            if directory is not None else None)
        self.tracer = tracer
        self.stats: Dict[str, LayerStats] = {}
        self._lock = threading.Lock()

    # -- accounting --------------------------------------------------------

    def _count(self, layer: str, event: str, amount: int = 1) -> None:
        if amount <= 0:
            return
        with self._lock:
            stats = self.stats.setdefault(layer, LayerStats())
            if event == "hit":
                stats.hits += amount
            elif event == "miss":
                stats.misses += amount
            elif event == "store":
                stats.stores += amount
            else:
                stats.evictions += amount
            if self.tracer is not None and event != "store":
                name = {"hit": "cache.hit", "miss": "cache.miss",
                        "evict": "cache.evict"}[event]
                self.tracer.counter(f"{name}.{layer}", "cache").add(amount)

    def hit_count(self, layer: Optional[str] = None) -> int:
        layers = [layer] if layer else list(self.stats)
        return sum(self.stats[name].hits
                   for name in layers if name in self.stats)

    # -- lookup ------------------------------------------------------------

    def get(self, layer: str, key: str,
            decoder: Optional[Decoder] = None) -> Tuple[bool, Any]:
        """(hit, value) for ``key``; decoder revives disk payloads."""
        found, value = self.memory.get(key)
        if found:
            self._count(layer, "hit")
            return True, value
        if self.disk is not None and decoder is not None:
            payload = self.disk.get(key, layer)
            if payload is not None:
                try:
                    value = decoder(payload)
                except Exception:
                    # Payload decodes but doesn't revive (stale schema):
                    # treat as a miss; the next put overwrites it.
                    self._count(layer, "miss")
                    return False, None
                self.memory.put(key, value)
                self._count(layer, "hit")
                return True, value
        self._count(layer, "miss")
        return False, None

    def put(self, layer: str, key: str, value: Any,
            encoder: Optional[Encoder] = None) -> None:
        evicted = self.memory.put(key, value)
        self._count(layer, "evict", evicted)
        self._count(layer, "store")
        if self.disk is not None and encoder is not None:
            disk_evicted = self.disk.put(key, encoder(value), layer)
            self._count(layer, "evict", disk_evicted)

    def summary(self) -> str:
        parts = []
        for layer in sorted(self.stats):
            stats = self.stats[layer]
            parts.append(f"{layer}: {stats.hits} hit(s), "
                         f"{stats.misses} miss(es)")
        return "; ".join(parts) if parts else "cache idle"
