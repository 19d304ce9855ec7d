"""Tests of lineage-cache persistence (cross-process reuse, Section 4.5)."""

import numpy as np
import pytest

from repro import LimaConfig, LimaSession
from repro.errors import ResilienceWarning
from repro.reuse.cache import LineageCache
from repro.reuse.persist import load_cache, save_cache


@pytest.fixture
def archive(tmp_path):
    return str(tmp_path / "cache.limacache")


class TestSaveLoad:
    def test_roundtrip_warm_start(self, archive, small_x, small_y):
        script = "B = lmDS(X, y, 1, 0.01, FALSE);"
        inputs = {"X": small_x, "y": small_y}

        producer = LimaSession(LimaConfig.hybrid())
        result = producer.run(script, inputs=inputs)
        written = save_cache(producer.cache, archive)
        assert written > 0

        consumer = LimaSession(LimaConfig.hybrid())
        load_cache(consumer.cache, archive)
        replay = consumer.run(script, inputs=inputs)
        np.testing.assert_array_equal(replay.get("B"), result.get("B"))
        # the whole run is served from the warm cache
        assert consumer.stats.hits > 0
        assert consumer.stats.hits >= consumer.stats.misses

    def test_equal_content_different_array_objects_hit(self, archive,
                                                       small_x):
        producer = LimaSession(LimaConfig.hybrid())
        producer.run("G = t(X) %*% X;", inputs={"X": small_x})
        save_cache(producer.cache, archive)

        consumer = LimaSession(LimaConfig.hybrid())
        load_cache(consumer.cache, archive)
        consumer.run("G = t(X) %*% X;", inputs={"X": small_x.copy()})
        assert consumer.stats.hits >= 1

    def test_scalar_entries_roundtrip(self, archive, small_x):
        producer = LimaSession(LimaConfig.hybrid())
        producer.run("s = sum(t(X) %*% X);", inputs={"X": small_x})
        save_cache(producer.cache, archive)
        consumer = LimaSession(LimaConfig.hybrid())
        admitted = load_cache(consumer.cache, archive)
        assert admitted >= 2  # tsmm matrix + sum scalar

    def test_min_compute_time_filter(self, archive, small_x):
        producer = LimaSession(LimaConfig.hybrid())
        producer.run("G = t(X) %*% X; H = G + 1;", inputs={"X": small_x})
        written_all = save_cache(producer.cache, archive)
        written_none = save_cache(producer.cache, archive,
                                  min_compute_time=1e9)
        assert written_none == 0 < written_all

    def test_block_level_entries_skipped(self, archive, small_x, small_y):
        producer = LimaSession(LimaConfig.multilevel())
        producer.run("B = lmDS(X, y, 0, 0.01, FALSE);",
                     inputs={"X": small_x, "y": small_y})
        save_cache(producer.cache, archive)
        consumer = LineageCache(LimaConfig.hybrid())
        load_cache(consumer, archive)
        assert all("bcall" != e.key.opcode for e in consumer.entries())

    def test_function_level_entries_roundtrip(self, archive, small_x,
                                              small_y):
        script = "B = lmDS(X, y, 0, 0.01, FALSE);"
        inputs = {"X": small_x, "y": small_y}
        producer = LimaSession(LimaConfig.multilevel())
        producer.run(script, inputs=inputs)
        save_cache(producer.cache, archive)

        consumer = LimaSession(LimaConfig.multilevel())
        load_cache(consumer.cache, archive)
        consumer.run(script, inputs=inputs)
        assert consumer.stats.multilevel_hits >= 1

    def test_bad_archive_falls_back_to_cold_start(self, tmp_path):
        bogus = tmp_path / "bogus.zip"
        import zipfile
        with zipfile.ZipFile(bogus, "w") as zf:
            zf.writestr("random.txt", "nope")
        cache = LineageCache(LimaConfig.hybrid())
        with pytest.warns(ResilienceWarning, match="cold cache"):
            admitted = load_cache(cache, str(bogus))
        assert admitted == 0
        assert len(cache) == 0

    def test_budget_respected_on_load(self, archive, small_x):
        producer = LimaSession(LimaConfig.hybrid())
        producer.run("G = t(X) %*% X; H = X %*% G;",
                     inputs={"X": small_x})
        save_cache(producer.cache, archive)
        tiny = LineageCache(LimaConfig.hybrid().with_(memory_budget=128))
        load_cache(tiny, archive)
        assert tiny.total_size <= 128
