"""Store tiers: LRU bounds, size eviction, corruption tolerance."""

import json
import os
import time

import pytest

from repro.cache import (
    CacheStoreError,
    DiskStore,
    FlowCache,
    MemoryLRU,
)
from repro.cache.store import ORPHAN_GRACE_S
from repro.telemetry import Tracer


class TestMemoryLRU:
    def test_get_put_roundtrip(self):
        lru = MemoryLRU(max_entries=4)
        lru.put("k", {"v": 1})
        hit, value = lru.get("k")
        assert hit and value == {"v": 1}
        assert lru.get("missing") == (False, None)

    def test_least_recently_used_leaves_first(self):
        lru = MemoryLRU(max_entries=2)
        lru.put("a", 1)
        lru.put("b", 2)
        lru.get("a")            # refresh a; b is now the victim
        evicted = lru.put("c", 3)
        assert evicted == 1
        assert lru.get("b") == (False, None)
        assert lru.get("a") == (True, 1)

    def test_rejects_nonpositive_bound(self):
        with pytest.raises(CacheStoreError):
            MemoryLRU(max_entries=0)


class TestDiskStore:
    def test_roundtrip_survives_reopen(self, tmp_path):
        store = DiskStore(tmp_path / "cache")
        store.put("k1", {"x": 1}, layer="fabric")
        reopened = DiskStore(tmp_path / "cache")
        assert reopened.get("k1", "fabric") == {"x": 1}

    def test_size_bound_evicts_lru(self, tmp_path):
        store = DiskStore(tmp_path / "cache", max_bytes=220)
        store.put("a", {"pad": "x" * 64})
        store.put("b", {"pad": "y" * 64})
        store.get("a")          # refresh a; b becomes the LRU victim
        store.put("c", {"pad": "z" * 64})
        assert store.get("b") is None
        assert store.get("a") is not None
        assert store.total_bytes() <= 220

    def test_corrupt_object_is_a_miss_and_dropped(self, tmp_path):
        store = DiskStore(tmp_path / "cache")
        store.put("k1", {"x": 1})
        object_path = tmp_path / "cache" / "objects" / "k1.json"
        object_path.write_text("{not json")
        assert store.get("k1") is None
        assert not object_path.exists()
        assert store.entry_count() == 0

    def test_corrupt_index_is_rebuilt_from_objects(self, tmp_path):
        store = DiskStore(tmp_path / "cache")
        store.put("k1", {"x": 1})
        (tmp_path / "cache" / "index.json").write_text("garbage")
        reopened = DiskStore(tmp_path / "cache")
        assert reopened.get("k1") == {"x": 1}

    def test_stats_persist_across_processes(self, tmp_path):
        store = DiskStore(tmp_path / "cache")
        store.put("k1", {"x": 1}, layer="radhard")
        store.get("k1", "radhard")
        store.get("nope", "radhard")
        stats = DiskStore(tmp_path / "cache").stats()
        assert stats["radhard"]["hits"] == 1
        assert stats["radhard"]["misses"] == 1
        assert stats["radhard"]["stores"] == 1

    def test_unreadable_stats_read_as_zero(self, tmp_path):
        store = DiskStore(tmp_path / "cache")
        store.put("k1", {"x": 1}, layer="radhard")
        (tmp_path / "cache" / "stats.json").write_text("[garbage")
        assert store.stats() == {}
        assert store.get("k1", "radhard") == {"x": 1}
        assert DiskStore(tmp_path / "cache").stats()["radhard"] == {
            "hits": 1, "misses": 0, "stores": 0, "evictions": 0}

    def test_counters_rewrite_stats_in_place(self, tmp_path):
        store = DiskStore(tmp_path / "cache")
        store.put("k1", {"x": 1}, layer="radhard")
        stats_path = tmp_path / "cache" / "stats.json"
        inode = stats_path.stat().st_ino
        stats_path.write_text("x" * 1000)      # longer than the new text
        store.get("k1", "radhard")
        store.put("k2", {"x": 2}, layer="hls")
        assert stats_path.stat().st_ino == inode
        assert json.loads(stats_path.read_text()) == {
            "hls": {"hits": 0, "misses": 0, "stores": 1, "evictions": 0},
            "radhard": {"hits": 1, "misses": 0, "stores": 0, "evictions": 0}}

    def test_clear_removes_everything(self, tmp_path):
        store = DiskStore(tmp_path / "cache")
        store.put("k1", {"x": 1})
        store.put("k2", {"x": 2})
        assert store.clear() == 2
        assert store.entry_count() == 0
        assert store.get("k1") is None

    def test_gc_removes_unreadable_objects(self, tmp_path):
        store = DiskStore(tmp_path / "cache")
        for key in ("broken", "listed", "gone", "intact"):
            store.put(key, {"key": key})
        objects = tmp_path / "cache" / "objects"
        (objects / "broken.json").write_text("{not json")
        (objects / "listed.json").write_text("[1, 2]")
        (objects / "gone.json").unlink()
        assert store.gc() == 2
        assert sorted(path.name for path in objects.glob("*.json")) \
            == ["intact.json"]
        assert store.get("gone") is None
        assert store.get("intact") == {"key": "intact"}
        assert store.entry_count() == 1

    @pytest.mark.parametrize("sweep", ["gc", "clear"])
    def test_orphaned_temp_files_past_the_grace_period_go(self, tmp_path,
                                                          sweep):
        # A writer killed between its temp file and the rename leaves the
        # temp file behind; a fresh one may be another process's write.
        store = DiskStore(tmp_path / "cache")
        store.put("k1", {"x": 1})
        objects = tmp_path / "cache" / "objects"
        orphan, fresh = objects / "orphan.tmp", objects / "fresh.tmp"
        orphan.write_text("{\"x\": ")
        fresh.write_text("{\"x\": ")
        past = time.time_ns() - (ORPHAN_GRACE_S + 60) * 1_000_000_000
        os.utime(orphan, ns=(past, past))
        getattr(store, sweep)()
        assert not orphan.exists()
        assert fresh.exists()

    def test_lookup_metadata_is_flat_in_entry_count(self, tmp_path):
        def root_bytes(entries):
            root = tmp_path / f"cache-{entries}"
            store = DiskStore(root)
            for index in range(entries):
                store.put(f"k{index:04d}", {"index": index})
            assert store.get("k0000") == {"index": 0}
            return sum(path.stat().st_size for path in root.iterdir()
                       if path.is_file())

        # Only the digits of the lifetime counters may differ.
        assert root_bytes(300) - root_bytes(10) < 10


class TestFlowCache:
    def test_memory_then_disk_lookup(self, tmp_path):
        cache = FlowCache(directory=tmp_path / "cache")
        cache.put("fabric", "k", {"v": 7}, encoder=lambda v: v)
        # A fresh cache over the same directory warm-starts from disk.
        warm = FlowCache(directory=tmp_path / "cache")
        hit, value = warm.get("fabric", "k", decoder=lambda p: p)
        assert hit and value == {"v": 7}

    def test_counters_reach_the_tracer(self, tmp_path):
        tracer = Tracer()
        cache = FlowCache(directory=tmp_path / "cache", tracer=tracer)
        cache.get("fabric", "missing", decoder=lambda p: p)
        cache.put("fabric", "k", {"v": 1}, encoder=lambda v: v)
        cache.get("fabric", "k", decoder=lambda p: p)
        names = {c.name for c in tracer.counters.values()}
        assert "cache.miss.fabric" in names
        assert "cache.hit.fabric" in names
        assert cache.hit_count("fabric") == 1
        assert cache.stats["fabric"].misses == 1

    def test_decoder_failure_is_a_miss(self, tmp_path):
        cache = FlowCache(directory=tmp_path / "cache")
        cache.disk.put("bad", {"schema": "old"}, "fabric")

        def decoder(payload):
            raise KeyError("schema")

        hit, value = cache.get("fabric", "bad", decoder=decoder)
        assert not hit and value is None

    def test_memoryless_values_stay_in_memory(self, tmp_path):
        cache = FlowCache(directory=tmp_path / "cache")
        opaque = object()       # no encoder: memory-tier only
        cache.put("hls", "k", opaque)
        assert cache.get("hls", "k") == (True, opaque)
        assert cache.disk.get("k", "hls") is None
        # json artifacts on disk: only what was encoded
        assert cache.disk.entry_count() == 0

    def test_summary_text(self):
        cache = FlowCache()
        assert cache.summary() == "cache idle"
        cache.get("hls", "k")
        assert "miss" in cache.summary()
