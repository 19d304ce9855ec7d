"""Unit tests for LimaConfig presets and validation."""

import pytest

from repro.config import LimaConfig
from repro.runtime.instructions import (DataGenInstruction,
                                        IndexInstruction,
                                        LeftIndexInstruction, ListInstruction)
from repro.runtime.ops import OPS


class TestPresets:
    def test_base_has_nothing_enabled(self):
        cfg = LimaConfig.base()
        assert not cfg.lineage and not cfg.reuse_enabled and not cfg.dedup

    def test_lt_traces_only(self):
        cfg = LimaConfig.lt()
        assert cfg.lineage and not cfg.reuse_enabled

    def test_ltp_probes_with_zero_budget(self):
        cfg = LimaConfig.ltp()
        assert cfg.reuse_full and cfg.memory_budget == 0

    def test_ltd_dedups(self):
        assert LimaConfig.ltd().dedup

    def test_full_vs_multilevel_vs_hybrid(self):
        assert not LimaConfig.full().reuse_multilevel
        assert LimaConfig.multilevel().reuse_multilevel
        hybrid = LimaConfig.hybrid()
        assert hybrid.reuse_full and hybrid.reuse_partial \
            and hybrid.reuse_multilevel

    def test_ca_adds_compiler_assist(self):
        assert LimaConfig.ca().compiler_assist
        assert not LimaConfig.hybrid().compiler_assist

    def test_default_eviction_is_cost_size(self):
        assert LimaConfig.hybrid().eviction_policy == "costsize"


class TestValidation:
    def test_reuse_without_lineage_rejected(self):
        with pytest.raises(ValueError):
            LimaConfig(reuse_full=True).validate()

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            LimaConfig(eviction_policy="fifo").validate()

    def test_presets_validate(self):
        for preset in (LimaConfig.base, LimaConfig.lt, LimaConfig.ltp,
                       LimaConfig.ltd, LimaConfig.full,
                       LimaConfig.multilevel, LimaConfig.hybrid,
                       LimaConfig.ca):
            preset().validate()


class TestMemoryBudget:
    def test_unset_budget_defaults(self):
        # memory_budget=None: 256 MiB for the cache when reuse is on,
        # nothing otherwise, and never a live-variable buffer pool
        assert LimaConfig.hybrid().memory_budget is None
        assert LimaConfig.hybrid().resolved_memory_budget() == 256 << 20
        assert LimaConfig.base().resolved_memory_budget() == 0
        assert not LimaConfig.hybrid().buffer_pool_enabled
        assert not LimaConfig.base().buffer_pool_enabled


class TestWith:
    def test_with_returns_modified_copy(self):
        cfg = LimaConfig.hybrid()
        other = cfg.with_(memory_budget=1)
        assert other.memory_budget == 1
        assert cfg.memory_budget != 1
        assert other.reuse_partial


class TestReusableOpcodes:
    """The reusable opcode set (Section 4.1): the opcode table's
    ``reusable`` column; instructions without a row declare it on their
    class."""

    def test_heavy_ops_included(self):
        for opcode in ("mm", "tsmm", "solve", "eigen", "cbind"):
            assert OPS[opcode].reusable
        assert IndexInstruction.opcode == "rightIndex"
        assert IndexInstruction.reusable

    def test_cheap_metadata_ops_excluded(self):
        for opcode in ("nrow", "ncol", "length", "as.scalar"):
            assert not OPS[opcode].reusable
        for opcode, cls in (("rand", DataGenInstruction),
                            ("leftIndex", LeftIndexInstruction),
                            ("list", ListInstruction)):
            assert opcode not in OPS and not cls.reusable
