"""Targeted tests for remaining rarely-exercised paths."""

import numpy as np
import pytest

from repro import LimaConfig, LimaSession
from repro.errors import LimaSyntaxError


class TestParforFallbacks:
    def test_vector_index_leftindex_merge(self, small_x):
        """Vector-index updates cannot be expressed as literal lineage;
        the merge falls back but values stay exact."""
        script = """
        out = matrix(0, nrow(X), 4);
        parfor (i in 1:4) {
          idx = seq(1, 10) + (i - 1) * 10;
          out[idx, i] = X[idx, 1] * i;
        }
        """
        seq = LimaSession(LimaConfig.base()).run(
            script.replace("parfor", "for"), inputs={"X": small_x},
            seed=3)
        par = LimaSession(LimaConfig.lt()).run(
            script, inputs={"X": small_x}, seed=3)
        np.testing.assert_allclose(par.get("out"), seq.get("out"))

    def test_parfor_empty_range_noop(self):
        sess = LimaSession(LimaConfig.base())
        result = sess.run("out = 5; parfor (i in 2:2) out = i;")
        assert result.get("out") == 2

    def test_parfor_worker_count_config(self, small_x):
        cfg = LimaConfig.base().with_(parfor_workers=2)
        sess = LimaSession(cfg)
        result = sess.run("""
        out = matrix(0, 6, 1);
        parfor (i in 1:6) out[i, 1] = i;
        """, inputs={"X": small_x})
        np.testing.assert_array_equal(result.get("out").ravel(),
                                      np.arange(1.0, 7.0))


class TestMultiReturnReusePartialHit:
    def test_one_output_evicted_recomputes_both(self, small_x):
        """If only some outputs of eigen are cached, the instruction
        re-executes and re-admits all of them."""
        cfg = LimaConfig.full().with_(memory_budget=1 << 30)
        sess = LimaSession(cfg)
        sess.run("C = t(X) %*% X; [v, e] = eigen(C);",
                 inputs={"X": small_x})
        # evict one of the two outputs by hand
        entries = [entry for entry in sess.cache.entries()
                   if entry.key.opcode == "mrout"]
        assert len(entries) == 2
        victim = entries[0]
        sess.cache._evict(victim)
        result = sess.run("C = t(X) %*% X; [v, e] = eigen(C); out = v;",
                          inputs={"X": small_x})
        recon = result.get("e") @ np.diag(
            result.get("v").ravel()) @ result.get("e").T
        np.testing.assert_allclose(recon, small_x.T @ small_x, atol=1e-8)


class TestVisualizeDedup:
    def test_dot_renders_dedup_shape(self, small_x):
        from repro.lineage.visualize import to_dot
        sess = LimaSession(LimaConfig.ltd())
        result = sess.run(
            "out = X; for (i in 1:4) { out = out * 2 + i; }",
            inputs={"X": small_x})
        dot = to_dot(result.lineage("out"))
        assert "doubleoctagon" in dot

    def test_diff_between_dedup_and_plain(self, small_x):
        from repro.lineage.visualize import diff
        script = "out = X; for (i in 1:4) { out = out * 2 + i; }"
        dd = LimaSession(LimaConfig.ltd()).run(
            script, inputs={"X": small_x}).lineage("out")
        plain = LimaSession(LimaConfig.lt()).run(
            script, inputs={"X": small_x}).lineage("out")
        # structurally equal overall, so resolved diff is empty
        only_a, only_b = diff(dd.resolve(), plain)
        assert only_a == [] and only_b == []


class TestKernelOddities:
    def test_rev_reverses_rows_not_columns(self):
        sess = LimaSession(LimaConfig.base())
        out = sess.run("out = rev(X);",
                       inputs={"X": np.array([[1.0, 2.0],
                                              [3.0, 4.0]])}).get("out")
        np.testing.assert_array_equal(out, [[3, 4], [1, 2]])

    def test_ifelse_matrix_condition_scalar_branches(self):
        sess = LimaSession(LimaConfig.base())
        out = sess.run("out = ifelse(X > 0, 1, -1);",
                       inputs={"X": np.array([[2.0, -2.0]])}).get("out")
        np.testing.assert_array_equal(out, [[1, -1]])

    def test_power_of_matrix_elementwise(self):
        sess = LimaSession(LimaConfig.base())
        out = sess.run("out = X ^ 2;",
                       inputs={"X": np.array([[2.0, 3.0]])}).get("out")
        np.testing.assert_array_equal(out, [[4, 9]])

    def test_integer_division_and_modulo_chain(self):
        sess = LimaSession(LimaConfig.base())
        assert sess.run("out = 17 %/% 5 * 10 + 17 %% 5;").get("out") == 32


class TestErrorFormatting:
    def test_syntax_error_includes_position(self):
        with pytest.raises(LimaSyntaxError) as err:
            LimaSession(LimaConfig.base()).run("x = 1;\ny = $;")
        assert "line 2" in str(err.value)

    def test_compile_error_names_function(self):
        from repro.errors import LimaCompileError
        with pytest.raises(LimaCompileError, match="rand"):
            LimaSession(LimaConfig.base()).run("x = rand(rows=1);")


class TestStatsSnapshot:
    def test_snapshot_and_reset(self, small_x):
        sess = LimaSession(LimaConfig.hybrid())
        sess.run("a = t(X) %*% X; b = t(X) %*% X;", inputs={"X": small_x})
        snap = sess.stats.snapshot()
        assert snap["hits"] >= 1
        sess.stats.reset()
        assert sess.stats.hits == 0
        assert sess.stats.saved_compute_time == 0.0
