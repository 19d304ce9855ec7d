"""Tests of the live-variable buffer pool (paper Fig. 2 substrate)."""

import numpy as np
import pytest

from repro import LimaConfig, LimaSession
from repro.data.values import MatrixValue, ScalarValue
from repro.runtime.bufferpool import (MIN_SPILL_BYTES, BufferPool,
                                      SpilledHandle)
from repro.runtime.context import SymbolTable

MB = 1024 * 1024


def big(fill, rows=256):
    """A ~1 MiB matrix (participates in pooling)."""
    return MatrixValue(np.full((rows, 512), float(fill)))


class TestPoolPrimitives:
    def test_spill_on_overflow(self, tmp_path):
        pool = BufferPool(budget=2 * MB, directory=str(tmp_path))
        table = SymbolTable(pool=pool)
        table.set("a", big(1))
        table.set("b", big(2))
        table.set("c", big(3))  # over budget: oldest spills
        assert pool.spills >= 1
        assert pool.total_resident() <= 2 * MB

    def test_restore_on_access(self, tmp_path):
        pool = BufferPool(budget=2 * MB, directory=str(tmp_path))
        table = SymbolTable(pool=pool)
        table.set("a", big(7))
        table.set("b", big(8))
        table.set("c", big(9))
        value = table.get("a")  # was spilled; restored transparently
        assert isinstance(value, MatrixValue)
        assert value.data[0, 0] == 7.0
        assert pool.restores >= 1

    def test_lru_order(self, tmp_path):
        pool = BufferPool(budget=2 * MB, directory=str(tmp_path))
        table = SymbolTable(pool=pool)
        table.set("a", big(1))
        table.set("b", big(2))
        table.get("a")          # refresh a
        table.set("c", big(3))  # b is the LRU victim
        assert isinstance(table._map["b"], SpilledHandle)
        assert isinstance(table._map["a"], MatrixValue)

    def test_small_matrices_exempt(self, tmp_path):
        pool = BufferPool(budget=1024, directory=str(tmp_path))
        table = SymbolTable(pool=pool)
        for i in range(10):
            table.set(f"s{i}", MatrixValue(np.ones((4, 4))))
        assert pool.spills == 0

    def test_scalars_ignored(self, tmp_path):
        pool = BufferPool(budget=1024, directory=str(tmp_path))
        table = SymbolTable(pool=pool)
        table.set("x", ScalarValue(1.0))
        assert pool.total_resident() == 0

    def test_remove_releases_accounting(self, tmp_path):
        pool = BufferPool(budget=8 * MB, directory=str(tmp_path))
        table = SymbolTable(pool=pool)
        table.set("a", big(1))
        before = pool.total_resident()
        table.remove("a")
        assert pool.total_resident() < before

    def test_min_spill_threshold_sane(self):
        assert MIN_SPILL_BYTES >= 1024


class TestEndToEnd:
    SCRIPT = """
    total = 0;
    for (i in 1:6) {
      M = X * i;
      total = total + as.scalar(M[1, 1]);
    }
    # touch an early variable again after pressure
    out = total + sum(X) * 0;
    """

    def test_script_correct_under_tiny_pool(self, rng):
        x = rng.standard_normal((256, 512))  # 1 MiB
        base = LimaSession(LimaConfig.base()).run(
            self.SCRIPT, inputs={"X": x}, seed=5).get("out")
        cfg = LimaConfig.base().with_(memory_budget=2 * MB)
        sess = LimaSession(cfg)
        pooled = sess.run(self.SCRIPT, inputs={"X": x}, seed=5).get("out")
        assert pooled == base

    def test_pool_with_reuse_configs(self, rng):
        x = rng.standard_normal((256, 512))
        base = LimaSession(LimaConfig.base()).run(
            self.SCRIPT, inputs={"X": x}, seed=5).get("out")
        cfg = LimaConfig.hybrid().with_(memory_budget=2 * MB)
        sess = LimaSession(cfg)
        got = sess.run(self.SCRIPT, inputs={"X": x}, seed=5).get("out")
        assert got == base

    def test_pool_actually_spills_in_script(self, rng):
        x = rng.standard_normal((512, 512))  # 2 MiB
        cfg = LimaConfig.base().with_(memory_budget=3 * MB)
        sess = LimaSession(cfg)
        script = """
        A = X * 1; B = X * 2; C = X * 3; D = X * 4;
        out = as.scalar(A[1, 1]) + as.scalar(D[1, 1]);
        """
        interp_out = sess.run(script, inputs={"X": x}, seed=5)
        expected = float(x[0, 0] * 1 + x[0, 0] * 4)
        assert np.isclose(interp_out.get("out"), expected)
