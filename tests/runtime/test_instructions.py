"""Unit tests for instruction classes (operands, metadata, execution)."""

import numpy as np
import pytest

from repro.config import LimaConfig
from repro.compiler.program import Program
from repro.data.values import (ListValue, MatrixValue, ScalarValue,
                               StringValue)
from repro.errors import LimaRuntimeError
from repro.lineage.item import LineageItem
from repro.runtime.context import ExecutionContext
from repro.runtime.instructions.base import Operand
from repro.runtime.instructions.cp import (ComputeInstruction,
                                           DataGenInstruction,
                                           IndexInstruction,
                                           LeftIndexInstruction,
                                           ListInstruction,
                                           MultiReturnInstruction,
                                           PrintInstruction,
                                           VariableInstruction)
from repro.runtime.interpreter import Interpreter
from repro.runtime.ops import MULTI, lookup


@pytest.fixture
def ctx():
    interp = Interpreter(Program(), LimaConfig.lt())
    context = interp.new_root_context()
    context.symbols.set("X", MatrixValue(np.arange(12.0).reshape(3, 4)))
    context.lineage.set("X", LineageItem("input", (), "X:t"))
    context.symbols.set("s", ScalarValue(2))
    context.lineage.set("s", context.lineage.literal(2))
    return context


class TestOperand:
    def test_var_resolution(self, ctx):
        operand = Operand.var("X")
        assert isinstance(operand.resolve(ctx), MatrixValue)
        assert operand.lineage(ctx).opcode == "input"

    def test_literal_resolution(self, ctx):
        operand = Operand.lit(3.5)
        assert operand.resolve(ctx).value == 3.5
        assert operand.lineage(ctx).opcode == "L"

    def test_undefined_var_raises(self, ctx):
        with pytest.raises(LimaRuntimeError):
            Operand.var("ghost").resolve(ctx)

    def test_repr(self):
        assert "lit" in repr(Operand.lit(1))
        assert "var" in repr(Operand.var("a"))


class TestComputeInstruction:
    def test_execute_and_lineage(self, ctx):
        inst = ComputeInstruction("+", [Operand.var("X"), Operand.lit(1)],
                                  "out")
        items = inst.lineage(ctx, None)
        inst.execute(ctx, None)
        np.testing.assert_array_equal(
            ctx.symbols.get("out").data,
            np.arange(12.0).reshape(3, 4) + 1)
        assert items["out"].opcode == "+"
        assert items["out"].inputs[1].opcode == "L"

    def test_input_names_skip_literals(self):
        inst = ComputeInstruction("+", [Operand.var("a"), Operand.lit(1)],
                                  "out")
        assert inst.input_names() == ["a"]

    def test_unknown_opcode_rejected_at_construction(self):
        with pytest.raises(LimaRuntimeError):
            ComputeInstruction("bogus", [], "out")

    def test_compute_rows_looked_up(self):
        assert lookup("mm").kind == "special"
        assert lookup("colSums").kind == "aggregate"
        for opcode in ("fcall", "eigen"):  # no row / not a compute row
            with pytest.raises(LimaRuntimeError):
                lookup(opcode)
        assert lookup("eigen", MULTI).returns == 2

    def test_compute_kernel_dispatch(self):
        inst = ComputeInstruction("tsmm", [Operand.var("x")], "out")
        x = MatrixValue(np.eye(2) * 2)
        np.testing.assert_array_equal(inst.row.kernel(x).data, np.eye(2) * 4)

    def test_reusable_flag(self):
        inst = ComputeInstruction("mm", [Operand.var("a"),
                                         Operand.var("b")], "out")
        assert inst.reusable and not inst.unmarked


class TestDataGenInstruction:
    def make(self, seed_operand=None):
        operands = [Operand.lit(3), Operand.lit(2), Operand.lit(0.0),
                    Operand.lit(1.0), Operand.lit(1.0),
                    Operand.lit("uniform")]
        return DataGenInstruction("rand", operands, "out",
                                  seed_operand=seed_operand)

    def test_system_seed_marked(self, ctx):
        inst = self.make()
        state = inst.preprocess(ctx)
        assert state["system"] is True
        items = inst.lineage(ctx, state)
        assert items["out"].inputs[-1].opcode == "SL"

    def test_explicit_seed_unmarked(self, ctx):
        inst = self.make(seed_operand=Operand.lit(99))
        state = inst.preprocess(ctx)
        assert state == {"seed": 99, "system": False}
        items = inst.lineage(ctx, state)
        assert items["out"].inputs[-1].opcode == "L"

    def test_execute_shape(self, ctx):
        inst = self.make(seed_operand=Operand.lit(1))
        state = inst.preprocess(ctx)
        inst.execute(ctx, state)
        assert ctx.symbols.get("out").shape == (3, 2)

    def test_not_reusable(self, ctx):
        assert self.make().reusable is False


class TestIndexInstruction:
    def test_lineage_data_encodes_spec_shape(self, ctx):
        inst = IndexInstruction(
            Operand.var("X"), ("r", Operand.lit(1), Operand.lit(2)),
            ("i", Operand.lit(3)), "out")
        items = inst.lineage(ctx, None)
        assert items["out"].data == "ri"
        assert len(items["out"].inputs) == 4

    def test_execute_all_dims(self, ctx):
        inst = IndexInstruction(Operand.var("X"), None, None, "out")
        inst.execute(ctx, None)
        np.testing.assert_array_equal(ctx.symbols.get("out").data,
                                      ctx.symbols.get("X").data)

    def test_resolve_spec_forms(self, ctx):
        assert IndexInstruction.resolve_spec(None, ctx) is None
        assert IndexInstruction.resolve_spec(("i", Operand.lit(2)),
                                             ctx) == 2
        assert IndexInstruction.resolve_spec(
            ("r", Operand.lit(1), Operand.lit(3)), ctx) == (1, 3)


class TestLeftIndexInstruction:
    def test_copy_on_write(self, ctx):
        before = ctx.symbols.get("X").data.copy()
        inst = LeftIndexInstruction(
            Operand.var("X"), Operand.lit(99), ("i", Operand.lit(1)),
            ("i", Operand.lit(1)), "Y")
        inst.execute(ctx, None)
        np.testing.assert_array_equal(ctx.symbols.get("X").data, before)
        assert ctx.symbols.get("Y").data[0, 0] == 99

    def test_not_reusable(self):
        inst = LeftIndexInstruction(Operand.var("X"), Operand.lit(0),
                                    None, None, "X")
        assert inst.reusable is False


class TestMultiReturnInstruction:
    def test_outputs_and_lineage(self, ctx):
        ctx.symbols.set("C", MatrixValue(np.eye(3)))
        ctx.lineage.set("C", LineageItem("input", (), "C:t"))
        inst = MultiReturnInstruction("eigen", Operand.var("C"),
                                      ["vals", "vecs"])
        items = inst.lineage(ctx, None)
        inst.execute(ctx, None)
        assert set(items) == {"vals", "vecs"}
        assert items["vals"].inputs[0] == items["vecs"].inputs[0]
        assert ctx.symbols.get("vecs").shape == (3, 3)


class TestVariableInstruction:
    def test_mvvar(self, ctx):
        VariableInstruction("mvvar", Operand.var("X"), "Z").execute(
            ctx, None)
        assert not ctx.symbols.contains("X")
        assert ctx.symbols.contains("Z")
        assert ctx.lineage.contains("Z")

    def test_cpvar(self, ctx):
        VariableInstruction("cpvar", Operand.var("X"), "Z").execute(
            ctx, None)
        assert ctx.symbols.get("Z") is ctx.symbols.get("X")

    def test_rmvar(self, ctx):
        VariableInstruction("rmvar", None, "X").execute(ctx, None)
        assert not ctx.symbols.contains("X")
        assert not ctx.lineage.contains("X")

    def test_assignvar(self, ctx):
        VariableInstruction("assignvar", Operand.lit(7), "n").execute(
            ctx, None)
        assert ctx.symbols.get("n").value == 7
        assert ctx.lineage.get("n").opcode == "L"

    def test_unknown_kind(self, ctx):
        with pytest.raises(LimaRuntimeError):
            VariableInstruction("teleport", None, "X").execute(ctx, None)


class TestListAndPrint:
    def test_list_instruction_names(self, ctx):
        inst = ListInstruction([Operand.var("X"), Operand.lit(2)],
                               ["A", None], "l")
        inst.execute(ctx, None)
        lst = ctx.symbols.get("l")
        assert isinstance(lst, ListValue)
        assert lst.get_by_name("A") is ctx.symbols.get("X")

    def test_print_appends_to_output(self, ctx):
        PrintInstruction(Operand.lit("hello")).execute(ctx, None)
        assert ctx.output == ["hello"]
