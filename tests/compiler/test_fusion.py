"""Tests of operator fusion and its lineage-patch expansion (Section 3.3)."""

import numpy as np
import pytest

from repro import LimaConfig, LimaSession
from repro.compiler import compile_script
from repro.compiler.program import BasicBlock
from repro.runtime.instructions.fused import (FusedInstruction,
                                              evaluate_template,
                                              template_signature)


def fused_of(text):
    cfg = LimaConfig.base().with_(fusion=True)
    program = compile_script(text, cfg)
    block = program.blocks[0]
    assert isinstance(block, BasicBlock)
    return [i for i in block.instructions
            if isinstance(i, FusedInstruction)]


class TestFusionPass:
    def test_chain_fused_into_one(self):
        fused = fused_of("x = (a + b) * c - d;")
        assert len(fused) == 1
        assert fused[0].output == "x"
        # signature covers the whole chain
        assert fused[0].signature.startswith("-(")

    def test_single_op_not_fused(self):
        assert fused_of("x = a + b;") == []

    def test_multi_use_intermediate_not_absorbed(self):
        # the a+b temp feeds two consumers, so it must stay materialized
        fused = fused_of("x = (a + b) * (a + b) + e;")
        program_ops = [f.signature for f in fused]
        assert all("$0" in sig for sig in program_ops)

    def test_nonelementwise_breaks_chain(self):
        fused = fused_of("x = (a %*% b) + c * d;")
        # only the c*d/+ part can fuse; the matmul stays separate
        assert len(fused) == 1

    def test_literals_embedded(self):
        fused = fused_of("x = a * 2 + 1;")
        assert len(fused) == 1
        assert "2" in fused[0].signature

    def test_unary_ops_fuse(self):
        fused = fused_of("x = exp(a * b);")
        assert len(fused) == 1
        assert fused[0].signature.startswith("exp(")


class TestFusedExecution:
    def test_values_match_unfused(self, small_x):
        script = "out = exp((X + 1) * 0.5) - X / 3;"
        plain = LimaSession(LimaConfig.base()).run(
            script, inputs={"X": small_x})
        fused = LimaSession(LimaConfig.base().with_(fusion=True)).run(
            script, inputs={"X": small_x})
        np.testing.assert_allclose(fused.get("out"), plain.get("out"))

    def test_scalar_broadcast_in_template(self):
        template = ("+", ("*", ("in", 0), ("lit", 2.0)), ("in", 1))
        out = evaluate_template(template, [np.ones((2, 2)), 3.0])
        np.testing.assert_array_equal(out, np.full((2, 2), 5.0))

    def test_bool_root_matches_unfused(self):
        """A fused scalar template rooted in a comparison or logical
        yields a boolean, exactly as the unfused kernels do (regression:
        fused execution printed 1/0 where base printed TRUE/FALSE)."""
        script = ("a = 3; b = 2; c = (a + 1) > b; d = !(a > b); "
                  "e = (a * 2) == 6; print(c); print(d); print(e);")
        assert fused_of(script), "the chains must actually fuse"
        runs = []
        for cfg in (LimaConfig.base(), LimaConfig(fusion=True),
                    LimaConfig.hybrid().with_(fusion=True)):
            result = LimaSession(cfg).run(script)
            runs.append((result.stdout,
                         [type(result.get(v)) for v in "cde"]))
        assert runs[0] == (["TRUE", "FALSE", "TRUE"], [bool] * 3)
        assert runs[1] == runs[0] and runs[2] == runs[0]

    def test_template_signature_stable(self):
        template = ("+", ("in", 0), ("lit", 1))
        assert template_signature(template) == "+($0,1)"


class TestFusedLineage:
    def test_lineage_identical_to_unfused(self, small_x):
        script = "out = (X + 1) * 2 - X;"
        plain = LimaSession(LimaConfig.lt()).run(
            script, inputs={"X": small_x})
        fused = LimaSession(LimaConfig.lt().with_(fusion=True)).run(
            script, inputs={"X": small_x})
        assert fused.lineage("out") == plain.lineage("out")
        assert fused.lineage("out").opcode == "-"

    def test_fused_lineage_recomputes(self, small_x):
        cfg = LimaConfig.lt().with_(fusion=True)
        sess = LimaSession(cfg)
        result = sess.run("out = (X + 1) * 2 - X;", inputs={"X": small_x})
        recomputed = sess.recompute(result.lineage("out"),
                                    inputs={"X": small_x})
        np.testing.assert_array_equal(recomputed, result.get("out"))

    def test_reuse_aware_fusion_keeps_invariant_chain(self, small_x):
        """Inside a loop, the loop-invariant elementwise chain stays one
        (reusable) fused unit; the loop-variant tail is not merged into
        it (Section 3.3 "reuse-aware fusion")."""
        script = """
        s = 0;
        for (i in 1:10) {
          Y = ((X + 1) * 0.5 - X / 3) + i;
          s = s + as.scalar(Y[1, 1]);
        }
        """
        cfg = LimaConfig.hybrid().with_(fusion=True)
        sess = LimaSession(cfg)
        sess.run(script, inputs={"X": small_x}, seed=7)
        # the invariant chain is computed once and hit 9 times
        assert sess.stats.hits >= 9

    def test_reuse_aware_fusion_values_correct(self, small_x):
        script = """
        s = 0;
        for (i in 1:6) {
          Y = ((X + 1) * 0.5 - X / 3) * (X - 0.25) + i;
          s = s + sum(Y);
        }
        """
        base = LimaSession(LimaConfig.base()).run(
            script, inputs={"X": small_x}, seed=7).get("s")
        fused = LimaSession(LimaConfig.hybrid().with_(fusion=True)).run(
            script, inputs={"X": small_x}, seed=7).get("s")
        assert base == pytest.approx(fused, rel=1e-12)

    def test_plain_fusion_without_reuse_still_greedy(self, small_x):
        """Without reuse, fusion has no reason to hold back: the whole
        chain including the loop-variant tail fuses into one operator."""
        from repro.compiler import compile_script
        from repro.compiler.program import ForBlock
        cfg = LimaConfig.base().with_(fusion=True)
        program = compile_script(
            "for (i in 1:3) { Y = (X + 1) * 2 + i; s = sum(Y); }", cfg)
        loop = next(b for b in program.blocks if isinstance(b, ForBlock))
        fused = [inst for block in loop.body
                 if isinstance(block, BasicBlock)
                 for inst in block.instructions
                 if isinstance(inst, FusedInstruction)]
        assert len(fused) == 1
        assert "$1" in fused[0].signature  # i absorbed as second input

    def test_reuse_across_fusion_boundary(self, small_x):
        # an unfused run populates the cache; a fused run reuses it
        # because the expanded lineage is identical
        cfg = LimaConfig.hybrid().with_(fusion=True)
        sess = LimaSession(cfg)
        sess.run("out = (X + 1) * 2;", inputs={"X": small_x})
        before = sess.stats.hits
        sess.run("out = (X + 1) * 2;", inputs={"X": small_x})
        assert sess.stats.hits > before
