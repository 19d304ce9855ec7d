"""Tests of runtime error reporting with script source context."""

import numpy as np
import pytest

from repro import LimaConfig, LimaSession
from repro.errors import LimaRuntimeError, LimaValueError


def run(script, inputs=None, config=None):
    sess = LimaSession(config or LimaConfig.base())
    return sess.run(script, inputs=inputs or {})


class TestErrorContext:
    def test_shape_mismatch_carries_line(self, small_x):
        script = "a = 1;\nb = 2;\nbad = X %*% X;\n"
        with pytest.raises(LimaRuntimeError, match=r"line 3 \(mm\)"):
            run(script, {"X": small_x})

    def test_singular_solve_carries_line(self):
        script = "A = matrix(1, 3, 3);\nB = solve(A, A);\n"
        with pytest.raises(LimaRuntimeError, match=r"line 2 \(solve\)"):
            run(script)

    def test_out_of_bounds_index_carries_line(self, small_x):
        with pytest.raises(LimaRuntimeError, match=r"rightIndex"):
            run("z = X[1:9999, ];", {"X": small_x})

    def test_no_double_wrapping(self, small_x):
        with pytest.raises(LimaRuntimeError) as err:
            run("a = 1;\nz = X[1:9999, ];", {"X": small_x})
        assert str(err.value).count("line ") == 1

    def test_stop_message_preserved(self):
        with pytest.raises(LimaRuntimeError, match="custom message"):
            run("stop('custom message');")

    def test_error_inside_function_reports_function_line(self, small_x):
        script = """
        f = function(A) return (B) {
          B = solve(A, A);
        }
        out = f(X[1:3, 1:3] * 0);
        """
        with pytest.raises(LimaRuntimeError, match="solve"):
            run(script, {"X": small_x})

    def test_error_with_reuse_enabled(self, small_x):
        # the reserve/abort path must still surface located errors
        with pytest.raises(LimaRuntimeError, match=r"\(mm\)"):
            run("bad = X %*% X;", {"X": small_x},
                config=LimaConfig.hybrid())

    @pytest.mark.parametrize("preset", ["base", "hybrid"])
    @pytest.mark.parametrize("script, located", [
        ('a = 1;\nx = sqrt("a");', r"line 2 \(sqrt\)"),
        ("y = as.scalar(matrix(1, 2, 2));", r"line 1 \(as\.scalar\)"),
        ('a = 1;\nb = "x" < 1;', r"line 2 \(<\)"),
    ])
    def test_value_errors_carry_line(self, preset, script, located):
        # type and shape errors keep their class and gain the location
        with pytest.raises(LimaValueError, match=located) as err:
            run(script, config=getattr(LimaConfig, preset)())
        assert str(err.value).count("line ") == 1

    def test_failed_reservation_is_released(self, small_x):
        # after an aborted computation, the same key can be retried
        sess = LimaSession(LimaConfig.hybrid())
        with pytest.raises(LimaRuntimeError):
            sess.run("bad = X %*% X;", inputs={"X": small_x})
        result = sess.run("good = X %*% t(X); out = nrow(good);",
                          inputs={"X": small_x})
        assert result.get("out") == small_x.shape[0]
