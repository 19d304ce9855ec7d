"""Tests of the public LimaSession / RunResult API."""

import hashlib

import numpy as np
import pytest

from repro import LimaConfig, LimaError, LimaSession
from repro.api import input_leaf_item
from repro.data.values import MatrixValue


class TestSessionBasics:
    def test_run_and_get(self, small_x):
        sess = LimaSession(LimaConfig.base())
        result = sess.run("out = sum(X);", inputs={"X": small_x})
        assert np.isclose(result.get("out"), small_x.sum())

    def test_scalar_string_and_list_export(self):
        sess = LimaSession(LimaConfig.base())
        result = sess.run(
            "s = 1 + 1; t = toString(s); l = list(1, 2);")
        assert result.get("s") == 2
        assert result.get("t") == "2"
        assert result.get("l") == [1, 2]

    def test_stdout_per_run(self):
        sess = LimaSession(LimaConfig.base())
        r1 = sess.run("print('one');")
        r2 = sess.run("print('two');")
        assert r1.stdout == ["one"]
        assert r2.stdout == ["two"]

    def test_program_compiled_once(self, small_x):
        sess = LimaSession(LimaConfig.base())
        sess.run("out = sum(X);", inputs={"X": small_x})
        assert sess.compile("out = sum(X);") is sess.compile("out = sum(X);")

    def test_config_validated(self):
        with pytest.raises(ValueError):
            LimaSession(LimaConfig(reuse_full=True))  # reuse without lineage

    def test_variables_listing(self, small_x):
        sess = LimaSession(LimaConfig.base())
        result = sess.run("a = 1; b = 2;")
        assert {"a", "b"} <= set(result.variables())

    def test_scalar_inputs(self):
        sess = LimaSession(LimaConfig.base())
        result = sess.run("out = n * 2;", inputs={"n": 21})
        assert result.get("out") == 42


class TestLineageApi:
    def test_lineage_and_log(self, small_x):
        sess = LimaSession(LimaConfig.lt())
        result = sess.run("out = X + 1;", inputs={"X": small_x})
        assert result.lineage("out").opcode == "+"
        assert "input" in result.lineage_log("out")

    def test_recompute_via_log(self, small_x):
        sess = LimaSession(LimaConfig.lt())
        result = sess.run("out = colSums(X * 2);", inputs={"X": small_x})
        again = sess.recompute(result.lineage_log("out"),
                               inputs={"X": small_x})
        np.testing.assert_array_equal(again, result.get("out"))

    def test_input_fingerprint_stable_across_runs(self, small_x):
        sess = LimaSession(LimaConfig.lt())
        r1 = sess.run("out = X;", inputs={"X": small_x})
        r2 = sess.run("out = X;", inputs={"X": small_x})
        assert r1.lineage("out") == r2.lineage("out")

    def test_equal_content_different_objects_same_lineage(self, small_x):
        sess = LimaSession(LimaConfig.lt())
        r1 = sess.run("out = X;", inputs={"X": small_x})
        r2 = sess.run("out = X;", inputs={"X": small_x.copy()})
        assert r1.lineage("out") == r2.lineage("out")

    @pytest.mark.parametrize("layout", ["C", "F", "T", "cols"])
    def test_input_digest_matches_copied_bytes(self, layout):
        base = np.arange(48.0).reshape(6, 8)
        data = {"C": base, "F": np.asfortranarray(base), "T": base.T,
                "cols": base[:, 2:5]}[layout]
        digest = hashlib.sha1(
            np.ascontiguousarray(data).tobytes()).hexdigest()[:16]
        item = input_leaf_item("X", MatrixValue(data))
        assert item.data == f"X:{digest}"

    def test_reuse_across_runs_through_shared_cache(self, small_x):
        sess = LimaSession(LimaConfig.hybrid())
        sess.run("out = t(X) %*% X;", inputs={"X": small_x})
        before = sess.stats.hits
        sess.run("out = t(X) %*% X;", inputs={"X": small_x})
        assert sess.stats.hits > before

    def test_clear_cache(self, small_x):
        sess = LimaSession(LimaConfig.hybrid())
        sess.run("out = t(X) %*% X;", inputs={"X": small_x})
        sess.clear_cache()
        hits_before = sess.stats.hits
        sess.run("out = t(X) %*% X;", inputs={"X": small_x})
        assert sess.stats.hits == hits_before

    def test_stats_without_cache_is_empty(self):
        sess = LimaSession(LimaConfig.base())
        assert sess.stats.probes == 0


class TestDebuggingStory:
    """The paper's Example 3: lineage logs exchanged between environments."""

    def test_logs_reproduce_across_sessions(self, small_x, small_y):
        production = LimaSession(LimaConfig.lt())
        result = production.run(
            "B = lmDS(X, y, 1, 0.01, FALSE);",
            inputs={"X": small_x, "y": small_y})
        log = result.lineage_log("B")

        # the log is exchanged (a string) and replayed elsewhere
        dev = LimaSession(LimaConfig.lt())
        replayed = dev.recompute(log, inputs={"X": small_x, "y": small_y})
        np.testing.assert_array_equal(replayed, result.get("B"))

    def test_logs_differ_when_parameters_differ(self, small_x, small_y):
        sess = LimaSession(LimaConfig.lt())
        good = sess.run("B = lmDS(X, y, 1, 0.01, FALSE);",
                        inputs={"X": small_x, "y": small_y})
        # the "broken deployment" silently uses a default parameter
        bad = sess.run("B = lmDS(X, y, 0, 0.01, FALSE);",
                       inputs={"X": small_x, "y": small_y})
        assert good.lineage("B") != bad.lineage("B")
