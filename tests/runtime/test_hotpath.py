"""Hot-path machinery: compiled dispatch, in-place kernels, profiler.

Compiled dispatch must produce the NumPy-reference value and a lineage
trace that recomputes it under every tracing/reuse preset, in-place
elementwise execution must be bit-identical to out-of-place, and the
opcode profiler must account for every executed instruction and every
cache probe.
"""

import numpy as np
import pytest

from repro import LimaConfig, LimaSession
from repro.compiler.compiler import compile_script
from repro.compiler.program import BasicBlock
from repro.data.values import MatrixValue
from repro.errors import LimaRuntimeError
from repro.lineage.reconstruct import recompute
from repro.runtime import interpreter as interp_mod
from repro.runtime import kernels as K
from repro.runtime.ops import OPS
from repro.runtime.profiler import OpProfiler

SCRIPT = """
s = 0;
for (k in 1:10) {
  Y = ((X + X) * k - X) / (k + 1);
  Y = exp(Y / 100);
  s = s + sum(Y);
}
out = s;
"""

X = np.arange(12.0).reshape(3, 4)


def _numpy_reference(x):
    """``out`` of SCRIPT, evaluated directly in NumPy."""
    s = 0
    for k in range(1, 11):
        y = ((x + x) * k - x) / (k + 1)
        y = np.exp(y / 100)
        s = s + y.sum()
    return s


def _run(config, script=SCRIPT, inputs=None, var="out"):
    sess = LimaSession(config)
    return sess.run(script, inputs=inputs or {"X": X}).get(var)


class TestCompiledDispatch:
    @pytest.mark.parametrize("preset", ["base", "lt", "ltd", "hybrid"])
    def test_matches_numpy_reference(self, preset):
        assert _run(getattr(LimaConfig, preset)()) == _numpy_reference(X)

    def test_error_location_preserved(self):
        sess = LimaSession(LimaConfig.base())
        script = "A = matrix(1, 2, 3);\nB = matrix(1, 4, 5);\nC = A %*% B;"
        with pytest.raises(LimaRuntimeError) as info:
            sess.run(script)
        assert "line 3" in str(info.value)
        assert "mm" in str(info.value)

    def test_handlers_cached_per_block(self):
        sess = LimaSession(LimaConfig.base())
        program = sess.compile("out = 1 + 2;")
        interp = interp_mod.Interpreter(program, sess.config)
        ctx = interp.new_root_context()
        block = program.blocks[0]
        assert isinstance(block, BasicBlock)
        interp.execute_basic(ctx, block)
        first = block.handlers[interp._profile]
        interp.execute_basic(ctx, block)
        assert block.handlers[interp._profile] is first

    def test_interpreters_share_handlers_per_profile(self):
        sess = LimaSession(LimaConfig.base())
        program = sess.compile("out = 1 + 2;")
        block = program.blocks[0]
        lists = []
        for _ in range(2):
            interp = interp_mod.Interpreter(program, sess.config)
            interp.execute_basic(interp.new_root_context(), block)
            lists.append(block.handlers[interp._profile][1])
        assert lists[0] is lists[1]

    @pytest.mark.parametrize("preset", ["base", "hybrid"])
    def test_handlers_compiled_once_per_session_script(self, preset,
                                                       monkeypatch):
        calls = []
        compile_handler = interp_mod._compile_handler

        def counting(*args):
            calls.append(args[0])
            return compile_handler(*args)

        monkeypatch.setattr(interp_mod, "_compile_handler", counting)
        sess = LimaSession(getattr(LimaConfig, preset)())
        sess.run(SCRIPT, inputs={"X": X})
        after_first = len(calls)
        assert after_first > 0
        for _ in range(4):
            assert sess.run(SCRIPT, inputs={"X": X}).get("out") == \
                _numpy_reference(X)
        assert len(calls) == after_first

    def test_lt_trace_recomputes_value(self):
        result = LimaSession(LimaConfig.lt()).run(SCRIPT, inputs={"X": X})
        recomputed = recompute(result.lineage("out"), {"X": X})
        assert recomputed.value == result.get("out") == _numpy_reference(X)


class TestInPlaceKernels:
    def test_marked_slots_on_chain_temps(self):
        program = compile_script(
            "Y = ((X + X) * 2 - X) / 4;", LimaConfig.base())
        marked = [inst for block in program.blocks
                  if isinstance(block, BasicBlock)
                  for inst in block.instructions
                  if getattr(inst, "inplace_slots", ())]
        # every op past the first consumes a dying fresh temp
        assert len(marked) >= 3

    def test_binary_into_writes_in_place(self):
        left = MatrixValue(np.full((3, 3), 2.0))
        right = MatrixValue(np.full((3, 3), 5.0))
        buf = left.data
        result = K.binary_into(np.add, left, right, 0)
        assert result is not None
        assert result.data is buf
        np.testing.assert_array_equal(result.data, np.full((3, 3), 7.0))

    def test_binary_into_respects_target_side(self):
        left = MatrixValue(np.full((2, 2), 9.0))
        right = MatrixValue(np.full((2, 2), 3.0))
        result = K.binary_into(np.divide, left, right, 1)
        assert result is not None
        assert result.data is right.data
        np.testing.assert_array_equal(result.data, np.full((2, 2), 3.0))

    def test_comparison_opcodes_not_inplace(self):
        for op in ("==", "!=", "<", ">", "<=", ">=", "&", "|", "!"):
            assert OPS[op].inplace is None
        program = compile_script("Y = (X + 1) == X;", LimaConfig.base())
        assert not any(getattr(inst, "inplace_slots", ())
                       for inst in program.blocks[0].instructions)

    def test_bit_identical_with_and_without_inplace(self):
        x = np.random.default_rng(3).standard_normal((8, 6))
        with_inplace = _run(LimaConfig.base(), inputs={"X": x})
        # ltp attaches a cache, which disables in-place execution
        without = _run(LimaConfig.ltp(), inputs={"X": x})
        assert with_inplace == without

    def test_inputs_not_mutated(self):
        x = np.arange(6.0).reshape(2, 3)
        original = x.copy()
        _run(LimaConfig.base(), inputs={"X": x})
        np.testing.assert_array_equal(x, original)


class TestProfiler:
    def test_counts_every_instruction(self):
        profiler = OpProfiler()
        sess = LimaSession(LimaConfig.base())
        sess.attach_profiler(profiler)
        sess.run("out = 1 + 2;")
        assert profiler.op_count.get("+") == 1
        assert profiler.total_count() >= 1
        assert profiler.total_time() >= 0.0

    def test_disabled_profiler_records_nothing(self):
        profiler = OpProfiler(enabled=False)
        sess = LimaSession(LimaConfig.base())
        sess.attach_profiler(profiler)
        sess.run("out = 1 + 2;")
        assert profiler.total_count() == 0

    def test_cache_counters_single_source(self):
        profiler = OpProfiler()
        sess = LimaSession(LimaConfig.hybrid())
        sess.attach_profiler(profiler)
        x = np.ones((4, 4))
        sess.run("out = t(X) %*% X;", inputs={"X": x})
        sess.run("out = t(X) %*% X;", inputs={"X": x})
        stats = sess.stats
        assert sum(profiler.cache_hits.values()) == stats.hits
        assert sum(profiler.cache_misses.values()) == stats.misses
        # the cache rewrites t(X) %*% X into the tsmm compound, so the
        # hit is attributed to that opcode
        assert profiler.cache_hits.get("tsmm", 0) >= 1

    def test_report_lists_opcodes(self):
        profiler = OpProfiler()
        sess = LimaSession(LimaConfig.base())
        sess.attach_profiler(profiler)
        sess.run("out = exp(matrix(1, 2, 2));")
        report = profiler.report()
        assert "exp" in report
        assert "TOTAL" in report

    def test_snapshot_and_reset(self):
        profiler = OpProfiler()
        profiler.record("+", 0.5)
        profiler.record_cache("+", True)
        snap = profiler.snapshot()
        assert snap["+"]["count"] == 1
        assert snap["+"]["cache_hits"] == 1
        profiler.reset()
        assert profiler.snapshot() == {}
