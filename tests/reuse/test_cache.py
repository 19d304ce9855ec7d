"""Unit tests of the lineage cache (Section 4.1, 4.3)."""

import threading

import numpy as np
import pytest

from repro.config import LimaConfig
from repro.data.values import MatrixValue, ScalarValue
from repro.lineage.item import LineageItem
from repro.reuse.cache import LineageCache


def key(tag):
    return LineageItem("tsmm", [LineageItem("input", (), tag)])


def mat(kb=1):
    return MatrixValue(np.ones((kb * 16, 8)))  # kb KiB each


def make_cache(budget=1 << 20, policy="costsize", spill=False):
    cfg = LimaConfig.hybrid().with_(memory_budget=budget,
                                    eviction_policy=policy, spill=spill)
    return LineageCache(cfg)


class TestProbePut:
    def test_miss_then_hit(self):
        cache = make_cache()
        k = key("a")
        assert cache.probe(k) is None
        cache.put(k, mat(), k, 0.5)
        hit = cache.probe(k)
        assert hit is not None
        assert isinstance(hit.value, MatrixValue)

    def test_probe_by_equal_key(self):
        cache = make_cache()
        cache.put(key("a"), mat(), None, 0.1)
        assert cache.probe(key("a")) is not None

    def test_distinct_keys_isolated(self):
        cache = make_cache()
        cache.put(key("a"), mat(), None, 0.1)
        assert cache.probe(key("b")) is None

    def test_stats_counted(self):
        cache = make_cache()
        cache.probe(key("a"))
        cache.put(key("a"), mat(), None, 0.1)
        cache.probe(key("a"))
        assert cache.stats.probes == 2
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1
        assert cache.stats.puts == 1

    def test_uncounted_probe(self):
        cache = make_cache()
        cache.probe(key("a"), count=False)
        assert cache.stats.probes == 0

    def test_too_large_rejected(self):
        cache = make_cache(budget=100)
        k = key("a")
        cache.put(k, mat(), None, 0.1)
        assert cache.probe(k) is None
        assert cache.stats.rejected == 1

    def test_zero_budget_never_admits(self):
        cache = make_cache(budget=0)
        status, _ = cache.acquire(key("a"))
        assert status == "reserved"
        cache.fulfill(key("a"), mat(), None, 0.1)
        assert len(cache) == 0

    def test_saved_compute_time_accumulates(self):
        cache = make_cache()
        k = key("a")
        cache.put(k, mat(), None, 2.0)
        cache.probe(k)
        cache.probe(k)
        assert cache.stats.saved_compute_time == pytest.approx(4.0)

    def test_scalar_values_cacheable(self):
        cache = make_cache()
        k = key("s")
        cache.put(k, ScalarValue(5.0), None, 0.1)
        assert cache.probe(k).value.value == 5.0


class TestAcquireProtocol:
    def test_reserved_then_fulfill(self):
        cache = make_cache()
        k = key("a")
        status, _ = cache.acquire(k)
        assert status == "reserved"
        cache.fulfill(k, mat(), k, 0.2)
        status, out = cache.acquire(k)
        assert status == "hit"
        assert out.lineage == k

    def test_second_acquire_waits(self):
        cache = make_cache()
        k = key("a")
        cache.acquire(k)
        status, entry = cache.acquire(k)
        assert status == "wait"
        cache.fulfill(k, mat(), None, 0.2)
        out = cache.wait_for(entry)
        assert out is not None

    def test_abort_releases_placeholder(self):
        cache = make_cache()
        k = key("a")
        cache.acquire(k)
        cache.abort(k)
        status, _ = cache.acquire(k)
        assert status == "reserved"

    def test_wait_returns_none_on_abort(self):
        cache = make_cache()
        k = key("a")
        cache.acquire(k)
        status, entry = cache.acquire(k)
        cache.abort(k)
        assert cache.wait_for(entry) is None

    def test_concurrent_waiters_unblock(self):
        cache = make_cache()
        k = key("a")
        cache.acquire(k)
        results = []

        def waiter():
            status, entry = cache.acquire(k)
            if status == "wait":
                out = cache.wait_for(entry)
                results.append(out.value.data[0, 0])
            else:
                results.append("hit-direct")

        threads = [threading.Thread(target=waiter) for _ in range(4)]
        for t in threads:
            t.start()
        cache.fulfill(k, mat(), None, 0.2)
        for t in threads:
            t.join(timeout=10)
        assert len(results) == 4


class TestEviction:
    def test_budget_respected(self):
        cache = make_cache(budget=10 * 1024)  # fits ~10 x 1KiB
        for i in range(30):
            cache.put(key(f"k{i}"), mat(1), None, 0.1)
        assert cache.total_size <= 10 * 1024

    def test_eviction_keeps_high_score_costsize(self):
        cache = make_cache(budget=3 * 1024)
        expensive = key("expensive")
        cache.put(expensive, mat(1), None, 100.0)
        cache.probe(expensive)  # give it an access
        for i in range(10):
            cache.put(key(f"cheap{i}"), mat(1), None, 0.0001)
        assert cache.probe(expensive) is not None

    def test_evicted_entry_metadata_survives(self):
        # paper Fig. 8(a): misses on evicted entries raise their score
        cache = make_cache(budget=2 * 1024)
        k = key("victim")
        cache.put(k, mat(1), None, 0.5)
        for i in range(5):
            fk = key(f"filler{i}")
            cache.put(fk, mat(1), None, 50.0)
            cache.probe(fk)  # fillers accumulate accesses, victim does not
        entries = {e.key: e for e in cache.entries()}
        assert k in entries
        assert entries[k].status == "evicted"
        before = entries[k].ref_misses
        assert cache.probe(k) is None  # miss on the evicted entry
        assert entries[k].ref_misses == before + 1

    def test_lru_evicts_oldest(self):
        # budget fits 2.5 entries: adding the third evicts exactly one
        # (down to the 0.8 watermark), and LRU picks the stalest
        cache = make_cache(budget=2 * 1024 + 512, policy="lru")
        old, new = key("old"), key("new")
        cache.put(old, mat(1), None, 0.1)
        cache.put(new, mat(1), None, 0.1)
        cache.probe(old)  # refresh old
        cache.put(key("third"), mat(1), None, 0.1)  # evicts "new"
        assert cache.probe(old) is not None
        assert cache.probe(new) is None

    def test_group_accounting_counts_value_once(self):
        cache = make_cache()
        value = mat(4)
        cache.put(key("op"), value, None, 0.1)
        cache.put(key("func"), value, None, 0.1)
        assert cache.total_size == value.nbytes()

    def test_clear(self):
        cache = make_cache()
        cache.put(key("a"), mat(), None, 0.1)
        cache.clear()
        assert len(cache) == 0
        assert cache.total_size == 0


class TestSpilling:
    def test_spill_and_restore_roundtrip(self, tmp_path):
        cfg = LimaConfig.hybrid().with_(
            memory_budget=2 * 1024, spill=True, spill_dir=str(tmp_path),
            disk_bandwidth=1e12)
        cache = LineageCache(cfg)
        k = key("big")
        original = mat(1)
        cache.put(k, original, None, 10.0)  # expensive => spill-worthy
        cache.probe(k)  # evidence of reuse potential
        for i in range(4):
            cache.put(key(f"f{i}"), mat(1), None, 100.0)
            cache.probe(key(f"f{i}"))
        entries = {e.key: e for e in cache.entries()}
        if entries[k].status == "spilled":
            restored = cache.probe(k)
            np.testing.assert_array_equal(restored.value.data,
                                          original.data)
            assert cache.stats.restores == 1

    def test_never_probed_entries_deleted_not_spilled(self, tmp_path):
        cfg = LimaConfig.hybrid().with_(
            memory_budget=2 * 1024, spill=True, spill_dir=str(tmp_path))
        cache = LineageCache(cfg)
        cache.put(key("dead"), mat(1), None, 100.0)
        for i in range(4):
            cache.put(key(f"f{i}"), mat(1), None, 100.0)
        assert cache.stats.evictions_spilled == 0

    def test_spill_disabled(self):
        cache = make_cache(budget=2 * 1024, spill=False)
        for i in range(5):
            k = key(f"k{i}")
            cache.put(k, mat(1), None, 100.0)
            cache.probe(k)
        assert cache.stats.evictions_spilled == 0
