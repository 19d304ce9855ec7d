"""Integration tests of the unified memory manager: alias accounting
across regions, cross-region eviction pressure, Table 1 policies under
spilling, and restore admission (no budget overshoot)."""

import numpy as np
import pytest

from repro import LimaConfig, LimaSession
from repro.data.values import MatrixValue
from repro.lineage.item import LineageItem
from repro.memory import MemoryManager
from repro.reuse.cache import LineageCache
from repro.runtime.bufferpool import BufferPool, SpilledHandle
from repro.runtime.context import SymbolTable

MB = 1024 * 1024


def key(tag, height=1):
    item = LineageItem("input", (), tag)
    for _ in range(height):
        item = LineageItem("tsmm", [item])
    return item


def mat(mb=1, fill=1.0):
    return MatrixValue(np.full((mb * 256, 512), fill))


def unified(budget, policy="costsize", spill=True):
    """A manager plus a cache and a pool sharing it."""
    cfg = LimaConfig.hybrid().with_(memory_budget=budget,
                                    eviction_policy=policy, spill=spill)
    mgr = MemoryManager(cfg)
    cache = LineageCache(cfg, memory=mgr)
    pool = BufferPool(memory=mgr)
    return mgr, cache, pool


class TestAliasAccounting:
    def test_value_in_table_and_cache_counted_once(self):
        mgr, cache, pool = unified(8 * MB)
        table = SymbolTable(pool=pool)
        value = mat()
        table.set("v", value)
        cache.put(key("a"), value, None, 0.5)
        assert mgr.total == value.nbytes()
        assert cache.total_size == value.nbytes()

    def test_charge_survives_partial_release(self):
        mgr, cache, pool = unified(8 * MB)
        table = SymbolTable(pool=pool)
        value = mat()
        table.set("v", value)
        cache.put(key("a"), value, None, 0.5)
        table.remove("v")  # cache still holds it
        assert mgr.total == value.nbytes()
        cache.clear()
        assert mgr.total == 0

    def test_aliased_value_not_spilled_by_pool(self):
        # the cache entry is evicted (deleted) first; only then is the
        # live binding worth spilling
        mgr, cache, pool = unified(2 * MB)
        table = SymbolTable(pool=pool)
        shared = mat()
        table.set("v", shared)
        cache.put(key("a"), shared, None, 0.001)
        table.set("w", mat(2))  # pressure: 3 MB charged vs 2 MB budget
        assert mgr.total <= 2 * MB
        # the shared matrix lost its cache entry, not its live binding
        assert cache.probe(key("a"), count=False) is None
        assert isinstance(table._map["w"], (MatrixValue, SpilledHandle))


class TestCrossRegionPressure:
    def test_live_admission_evicts_cache_entries(self):
        mgr, cache, pool = unified(3 * MB)
        table = SymbolTable(pool=pool)
        cache.put(key("a"), mat(), None, 0.001)
        cache.put(key("b"), mat(), None, 0.001)
        assert len(cache) == 2
        table.set("live", mat(2))
        # recomputable cache entries are victimized before live variables
        assert mgr.total <= 3 * MB
        assert len(cache) < 2
        assert isinstance(table._map["live"], MatrixValue)
        assert pool.spills == 0

    def test_cache_admission_spills_live_variables(self):
        # under LRU the older live variable is the victim of a newer
        # cache admission — pressure crosses regions both ways
        mgr, cache, pool = unified(3 * MB, policy="lru")
        table = SymbolTable(pool=pool)
        table.set("old", mat(2))
        cache.put(key("new"), mat(2), None, 5.0)
        assert mgr.total <= 3 * MB
        assert isinstance(table._map["old"], SpilledHandle)
        assert cache.probe(key("new"), count=False) is not None
        assert mgr.stats.pool_spills == 1

    def test_live_variables_never_deleted(self):
        # even with spilling disabled for recomputable objects, live
        # variables survive (by spilling): their data is irreplaceable
        mgr, cache, pool = unified(1 * MB, spill=False)
        table = SymbolTable(pool=pool)
        table.set("a", mat())
        table.set("b", mat())
        value = table.get("a")  # transparently restored if spilled
        assert isinstance(value, MatrixValue)
        assert value.data[0, 0] == 1.0


class TestPoliciesUnderSpilling:
    def expensive_fill(self, cache, tags):
        """Admit 1 MiB entries with reuse evidence and high compute cost,
        so eviction spills rather than deletes."""
        for i, tag in enumerate(tags):
            k = key(tag, height=i + 1)
            cache.put(k, mat(fill=float(i)), k, 100.0 + i)
            assert cache.probe(k, count=False) is not None

    @pytest.mark.parametrize("policy", ["lru", "dagheight", "costsize"])
    def test_spilled_victim_restores_exactly(self, policy):
        mgr, cache, pool = unified(2 * MB, policy=policy)
        self.expensive_fill(cache, ["a", "b"])
        # the incoming entry scores high under every policy (newest
        # access, shallow lineage, very costly), so an older entry —
        # spill-worthy on all counts — is the victim
        cache.put(key("c", height=0), mat(fill=9.0), None, 300.0)
        assert mgr.stats.cache_spills >= 1
        assert mgr.total <= 2 * MB
        spilled = [e for e in cache.entries() if e.status == "spilled"]
        assert spilled
        victim = spilled[0]
        hit = cache.probe(victim.key)
        assert hit is not None
        assert cache.stats.restores >= 1
        # restoring re-applies pressure: still within budget
        assert mgr.total <= 2 * MB

    def test_costsize_evicts_cheapest_per_byte(self):
        mgr, cache, pool = unified(2 * MB)
        cheap, costly = key("cheap"), key("costly")
        cache.put(cheap, mat(), cheap, 0.001)
        cache.put(costly, mat(), costly, 50.0)
        cache.probe(cheap, count=False)
        cache.probe(costly, count=False)
        cache.put(key("next"), mat(), None, 1.0)
        statuses = {e.key: e.status for e in cache.entries()}
        assert statuses[costly] in ("cached", "spilled")
        assert statuses[cheap] in ("evicted", "spilled")

    def test_lru_evicts_oldest_across_regions(self):
        mgr, cache, pool = unified(2 * MB + MB // 2, policy="lru")
        self.expensive_fill(cache, ["a", "b"])
        cache.probe(key("a", height=1), count=False)  # refresh a
        cache.put(key("c"), mat(), None, 100.0)
        by_tag = {e.key: e.status for e in cache.entries()}
        assert by_tag[key("b", height=2)] == "spilled"
        assert by_tag[key("a", height=1)] == "cached"


class TestSpillRestoreLineage:
    def test_round_trip_preserves_lineage_root(self):
        mgr, cache, pool = unified(2 * MB)
        k = key("traced")
        root = LineageItem("mm", [k, key("other")])
        cache.put(k, mat(fill=3.0), root, 100.0)
        assert cache.probe(k, count=False) is not None
        # competitors score higher (more accesses, higher cost), making
        # the traced entry the victim; its reuse evidence and high
        # recompute cost make spilling — not deletion — the choice
        for tag in ("p1", "p2"):
            p = key(tag)
            cache.put(p, mat(), None, 500.0)
            cache.probe(p, count=False)
            cache.probe(p, count=False)
        entry = next(e for e in cache.entries() if e.key == k)
        assert entry.status == "spilled"
        # the lineage root survives on disk round-trips *by identity*
        hit = cache.probe(k)
        assert hit.lineage is root
        assert hit.value.data[0, 0] == 3.0


class TestRestoreAdmission:
    def test_restore_does_not_overshoot_budget(self):
        pool = BufferPool(budget=2 * MB)
        table = SymbolTable(pool=pool)
        table.set("a", mat(fill=1.0))
        table.set("b", mat(fill=2.0))
        table.set("c", mat(fill=3.0))
        assert pool.spills == 1  # a (LRU) was spilled
        restored = table.get("a")
        assert restored.data[0, 0] == 1.0
        # the restore itself went through admission: something else was
        # spilled instead of letting residency reach 3 MiB
        assert pool.memory.total <= 2 * MB
        assert pool.spills == 2
        pool.close()

    def test_restore_rebinds_every_alias(self):
        pool = BufferPool(budget=2 * MB)
        table = SymbolTable(pool=pool)
        value = mat(fill=4.0)
        table.set("x", value)
        table.set("y", value)  # alias: same object, two names
        table.set("filler", mat(2))
        assert isinstance(table._map["x"], SpilledHandle)
        assert table._map["x"] is table._map["y"]
        restored = table.get("x")
        # both names now hold the restored matrix: no dangling handle
        # pointing at an unlinked spill file
        assert table._map["y"] is restored
        assert table.get("y").data[0, 0] == 4.0
        pool.close()


class TestEndToEnd:
    SCRIPT = """
    total = 0;
    for (i in 1:6) {
      M = X * i;
      total = total + as.scalar(M[1, 1]);
    }
    out = total + sum(X) * 0;
    """

    def test_unified_budget_script_correct(self, rng):
        x = rng.standard_normal((256, 512))  # 1 MiB
        base = LimaSession(LimaConfig.base()).run(
            self.SCRIPT, inputs={"X": x}, seed=5).get("out")
        cfg = LimaConfig.hybrid().with_(memory_budget=3 * MB)
        sess = LimaSession(cfg)
        got = sess.run(self.SCRIPT, inputs={"X": x}, seed=5).get("out")
        assert got == base
        stats = sess.memory_stats
        assert stats.peak_bytes > 0
        assert stats.pressure_events > 0

    CHURN_SCRIPT = """
    total = 0;
    for (i in 1:250) {
      G = t(X) %*% X;
      M = X * i + sum(G);
      total = total + as.scalar(M[1, 1]);
    }
    out = total;
    """

    def test_churn_evicts_many_victims_per_pressure_event(self):
        # 250 iterations admit two distinct 64 KiB intermediates each,
        # well over 200 of them past the 4 MiB budget; evicting to the
        # low-water mark makes each pressure event free room for many
        # admits instead of one
        x = np.random.default_rng(3).standard_normal((64, 128))
        base = LimaSession(LimaConfig.base()).run(
            self.CHURN_SCRIPT, inputs={"X": x}, seed=5).get("out")
        sess = LimaSession(LimaConfig.hybrid().with_(memory_budget=4 * MB))
        got = sess.run(self.CHURN_SCRIPT, inputs={"X": x}, seed=5).get("out")
        assert got == base
        stats = sess.memory_stats
        assert stats.pressure_events * 10 <= stats.evictions_deleted
        # the loop-invariant t(X) and tsmm hit in iterations 2..250
        assert sess.stats.hits == 498

    def test_memory_stats_flow_into_profiler(self, rng):
        from repro.runtime.profiler import OpProfiler
        x = rng.standard_normal((256, 512))
        sess = LimaSession(LimaConfig.hybrid().with_(memory_budget=3 * MB))
        profiler = OpProfiler()
        sess.attach_profiler(profiler)
        sess.run(self.SCRIPT, inputs={"X": x}, seed=5)
        assert profiler.memory_stats is sess.memory.stats
        assert "MemoryStats" in profiler.report()

    def test_cli_size_parser(self):
        from repro.cli import _parse_size
        assert _parse_size("1024") == 1024
        assert _parse_size("256M") == 256 * MB
        assert _parse_size("2g") == 2 << 30
        assert _parse_size("64KB") == 64 * 1024
        with pytest.raises(Exception):
            _parse_size("lots")
