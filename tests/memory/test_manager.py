"""Unit tests of the unified memory manager's charge ledger, budget
resolution (alias-deduplicated accounting, deprecated config aliases) and
low-water-mark eviction."""

import gc

import numpy as np
import pytest

from repro.config import LimaConfig
from repro.data.values import MatrixValue
from repro.lineage.item import LineageItem
from repro.memory import MemoryManager
from repro.memory.manager import LOW_WATER
from repro.reuse.cache import LineageCache
from repro.runtime.bufferpool import BufferPool
from repro.runtime.context import SymbolTable

MB = 1024 * 1024


def mat(mb=1):
    return MatrixValue(np.ones((mb * 256, 512)))


class TestChargeLedger:
    def test_alias_charged_once(self):
        mgr = MemoryManager(budget=8 * MB)
        value = mat()
        size = value.nbytes()
        mgr.charge(value, size, holder=1)
        mgr.charge(value, size, holder=2)
        assert mgr.total == size
        assert mgr.holders(value) == 2

    def test_charge_freed_by_last_holder(self):
        mgr = MemoryManager(budget=8 * MB)
        value = mat()
        size = value.nbytes()
        mgr.charge(value, size, holder=1)
        mgr.charge(value, size, holder=2)
        assert mgr.release(value, holder=1) == 1
        assert mgr.total == size
        assert mgr.release(value, holder=2) == 0
        assert mgr.total == 0

    def test_duplicate_holder_idempotent(self):
        mgr = MemoryManager(budget=8 * MB)
        value = mat()
        mgr.charge(value, value.nbytes(), holder=1)
        mgr.charge(value, value.nbytes(), holder=1)
        assert mgr.holders(value) == 1

    def test_dead_value_reaped(self):
        mgr = MemoryManager(budget=8 * MB)
        value = mat()
        mgr.charge(value, value.nbytes(), holder=1)
        assert mgr.total > 0
        del value
        gc.collect()
        assert mgr.total == 0

    def test_peak_tracks_high_water_mark(self):
        mgr = MemoryManager(budget=8 * MB)
        a, b = mat(), mat()
        mgr.charge(a, a.nbytes(), holder=1)
        mgr.charge(b, b.nbytes(), holder=1)
        peak = mgr.stats.peak_bytes
        mgr.release(a, holder=1)
        assert mgr.stats.peak_bytes == peak
        assert mgr.total < peak


class TestBudgetResolution:
    def test_explicit_memory_budget(self):
        cfg = LimaConfig.hybrid().with_(memory_budget=7 * MB)
        assert cfg.resolved_memory_budget() == 7 * MB

    def test_memory_budget_enables_pool(self):
        assert LimaConfig.base().with_(memory_budget=MB).buffer_pool_enabled
        assert not LimaConfig.base().buffer_pool_enabled
        # zero budget (the LTP preset) must not enable live-variable
        # pooling: everything would spill immediately
        assert not LimaConfig.ltp().buffer_pool_enabled

    def test_negative_memory_budget_rejected(self):
        with pytest.raises(ValueError):
            LimaConfig.base().with_(memory_budget=-1).validate()

    def test_manager_reads_config(self):
        cfg = LimaConfig.hybrid().with_(memory_budget=7 * MB,
                                        eviction_policy="lru",
                                        spill=False)
        mgr = MemoryManager(cfg)
        assert mgr.budget == 7 * MB
        assert mgr.spill is False


class TestLowWaterMark:
    KB64 = 64 * 1024

    def small(self, fill=1.0):
        return MatrixValue(np.full((64, 128), fill))  # 64 KiB

    def test_cache_evicts_to_low_water_in_one_event(self):
        budget = MB
        cfg = LimaConfig.hybrid().with_(memory_budget=budget)
        mgr = MemoryManager(cfg)
        cache = LineageCache(cfg, memory=mgr)
        i = 0
        while mgr.stats.pressure_events == 0:
            i += 1
            key = LineageItem("tsmm", [LineageItem("input", (), f"e{i}")])
            cache.put(key, self.small(float(i)), None, 0.001)
        assert i == budget // self.KB64 + 1  # the first admit past budget
        assert mgr.stats.pressure_events == 1
        assert mgr.total <= LOW_WATER * budget
        assert mgr.stats.evictions_deleted >= 4

    def test_live_variables_spill_only_to_budget(self):
        pool = BufferPool(budget=MB)
        table = SymbolTable(pool=pool)
        for i in range(MB // self.KB64 + 1):
            table.set(f"v{i}", self.small(float(i)))
        # one spill makes room: no early spills down to the low-water mark
        assert pool.spills == 1
        assert pool.memory.total == MB
        assert pool.memory.total > LOW_WATER * MB
        pool.close()
