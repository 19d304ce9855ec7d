"""Concrete CP (single-node) instruction classes.

The bulk of the instruction set is covered by :class:`ComputeInstruction`,
a thin wrapper around the kernel its row in the opcode table
(:mod:`repro.runtime.ops`) binds.  Instructions with special semantics get
their own classes: data generation (seeded), indexing (spec-shaped
lineage), multi-return builtins, function calls, ``eval``, variable
management, I/O, and ``print``/``stop``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.data.values import (ListValue, MatrixValue, ScalarValue,
                               StringValue, Value)
from repro.errors import LimaRuntimeError
from repro.lineage.item import LineageItem, literal_item
from repro.runtime import kernels as K
from repro.runtime.instructions.base import Instruction, Operand
from repro.runtime.ops import MULTI, lookup

if TYPE_CHECKING:
    from repro.runtime.context import ExecutionContext


class ComputeInstruction(Instruction):
    """Generic pure computation: n operands in, one output."""

    def __init__(self, opcode: str, operands: list[Operand], output: str,
                 line: int = 0):
        super().__init__(line)
        #: the opcode's row in the opcode table, resolved once here
        self.row = lookup(opcode)
        self.reusable = self.row.reusable
        self.opcode = opcode
        self.operands = operands
        self.output = output
        #: operand slots the liveness pass proved safe to overwrite in
        #: place (single-use fresh temporaries); the runtime additionally
        #: gates on ``ctx.allow_inplace``
        self.inplace_slots: tuple[int, ...] = ()

    @property
    def outputs(self) -> list[str]:
        return [self.output]

    def input_names(self) -> list[str]:
        return [op.name for op in self.operands if not op.is_literal]

    def lineage(self, ctx, state) -> dict[str, LineageItem]:
        inputs = [op.lineage(ctx) for op in self.operands]
        return {self.output: LineageItem(self.opcode, inputs)}

    def execute(self, ctx, state) -> None:
        values = [op.resolve(ctx) for op in self.operands]
        if self.inplace_slots and ctx.allow_inplace:
            result = self._execute_inplace(values)
            if result is not None:
                ctx.symbols.set(self.output, result)
                return
        ctx.symbols.set(self.output, self.row.kernel(*values))

    def _execute_inplace(self, values: list[Value]) -> Value | None:
        ufunc = self.row.inplace
        if len(values) == 2:
            for slot in self.inplace_slots:
                result = K.binary_into(ufunc, values[0], values[1], slot)
                if result is not None:
                    return result
            return None
        if len(values) == 1:
            return K.unary_into(ufunc, values[0])
        return None


class DataGenInstruction(Instruction):
    """Seeded data generation: ``rand`` and ``sample``.

    When the script does not pass an explicit seed, a system seed is drawn
    in :meth:`preprocess` and recorded as a seed-literal lineage input,
    making the operation deterministic w.r.t. its lineage (Section 3.1,
    "capturing non-determinism").
    """

    reusable = False  # non-deterministic across runs unless seed is fixed

    def __init__(self, opcode: str, operands: list[Operand], output: str,
                 seed_operand: Operand | None = None, line: int = 0):
        super().__init__(line)
        self.opcode = opcode  # "rand" | "sample"
        self.operands = operands
        self.seed_operand = seed_operand
        self.output = output

    @property
    def outputs(self) -> list[str]:
        return [self.output]

    def input_names(self) -> list[str]:
        names = [op.name for op in self.operands if not op.is_literal]
        if self.seed_operand is not None and not self.seed_operand.is_literal:
            names.append(self.seed_operand.name)
        return names

    def preprocess(self, ctx) -> dict:
        if self.seed_operand is not None:
            value = self.seed_operand.resolve(ctx)
            seed = int(K.as_scalar(value).as_float())
            return {"seed": seed, "system": False}
        return {"seed": ctx.next_seed(), "system": True}

    def lineage(self, ctx, state) -> dict[str, LineageItem]:
        inputs = [op.lineage(ctx) for op in self.operands]
        inputs.append(literal_item(state["seed"], seed=state["system"]))
        return {self.output: LineageItem(self.opcode, inputs)}

    def execute(self, ctx, state) -> None:
        values = [op.resolve(ctx) for op in self.operands]
        seed = state["seed"]
        if self.opcode == "rand":
            rows, cols, min_v, max_v, sparsity, pdf = values
            out = K.rand(K.as_scalar(rows).as_int(),
                         K.as_scalar(cols).as_int(),
                         K.as_scalar(min_v).as_float(),
                         K.as_scalar(max_v).as_float(),
                         K.as_scalar(sparsity).as_float(),
                         pdf.value if isinstance(pdf, StringValue) else "uniform",
                         seed)
        elif self.opcode == "sample":
            range_n, size, replace_ = values
            out = K.sample(K.as_scalar(range_n).as_int(),
                           K.as_scalar(size).as_int(),
                           K.as_scalar(replace_).as_bool(), seed)
        else:
            raise LimaRuntimeError(f"unknown datagen opcode {self.opcode!r}")
        ctx.symbols.set(self.output, out)


class IndexInstruction(Instruction):
    """Right indexing ``out = X[rows, cols]``.

    The lineage data string encodes the spec shape (``a`` all, ``s`` scalar
    position, ``r`` range, ``v`` index vector) and the spec operands are
    lineage inputs, so distinct slices get distinct lineage — which is what
    lets mini-batch slices be cached and reused across epochs (Section 4.3).
    """

    opcode = "rightIndex"
    reusable = True

    def __init__(self, obj: Operand, row_spec, col_spec, output: str,
                 line: int = 0):
        # specs: None | ("s", op) | ("r", lo_op, hi_op) | ("v", op)
        super().__init__(line)
        self.obj = obj
        self.row_spec = row_spec
        self.col_spec = col_spec
        self.output = output

    @property
    def outputs(self) -> list[str]:
        return [self.output]

    def _spec_operands(self) -> list[Operand]:
        ops = []
        for spec in (self.row_spec, self.col_spec):
            if spec is not None:
                ops.extend(spec[1:])
        return ops

    def input_names(self) -> list[str]:
        names = [] if self.obj.is_literal else [self.obj.name]
        names.extend(op.name for op in self._spec_operands()
                     if not op.is_literal)
        return names

    @staticmethod
    def _spec_kind(spec) -> str:
        return "a" if spec is None else spec[0]

    def lineage(self, ctx, state) -> dict[str, LineageItem]:
        data = self._spec_kind(self.row_spec) + self._spec_kind(self.col_spec)
        inputs = [self.obj.lineage(ctx)]
        inputs.extend(op.lineage(ctx) for op in self._spec_operands())
        return {self.output: LineageItem(self.opcode, inputs, data)}

    @staticmethod
    def resolve_spec(spec, ctx):
        """Spec → kernel argument (None / int / (lo, hi) / MatrixValue)."""
        if spec is None:
            return None
        kind = spec[0]
        if kind == "s":
            return K.as_scalar(spec[1].resolve(ctx)).as_int()
        if kind == "r":
            lo = K.as_scalar(spec[1].resolve(ctx)).as_int()
            hi = K.as_scalar(spec[2].resolve(ctx)).as_int()
            return (lo, hi)
        value = spec[1].resolve(ctx)
        if isinstance(value, ScalarValue):
            return value.as_int()
        return value  # index vector matrix

    def execute(self, ctx, state) -> None:
        target = self.obj.resolve(ctx)
        rows = self.resolve_spec(self.row_spec, ctx)
        cols = self.resolve_spec(self.col_spec, ctx)
        ctx.symbols.set(self.output, K.right_index(target, rows, cols))


class LeftIndexInstruction(Instruction):
    """Copy-on-write left indexing ``out = X; out[rows, cols] = src``."""

    opcode = "leftIndex"
    reusable = False  # excluded from caching for update-in-place safety

    def __init__(self, target: Operand, source: Operand, row_spec, col_spec,
                 output: str, line: int = 0):
        super().__init__(line)
        self.target = target
        self.source = source
        self.row_spec = row_spec
        self.col_spec = col_spec
        self.output = output

    @property
    def outputs(self) -> list[str]:
        return [self.output]

    def _spec_operands(self) -> list[Operand]:
        ops = []
        for spec in (self.row_spec, self.col_spec):
            if spec is not None:
                ops.extend(spec[1:])
        return ops

    def input_names(self) -> list[str]:
        names = []
        for op in (self.target, self.source, *self._spec_operands()):
            if not op.is_literal:
                names.append(op.name)
        return names

    def lineage(self, ctx, state) -> dict[str, LineageItem]:
        data = (IndexInstruction._spec_kind(self.row_spec)
                + IndexInstruction._spec_kind(self.col_spec))
        inputs = [self.target.lineage(ctx), self.source.lineage(ctx)]
        inputs.extend(op.lineage(ctx) for op in self._spec_operands())
        return {self.output: LineageItem(self.opcode, inputs, data)}

    def execute(self, ctx, state) -> None:
        target = self.target.resolve(ctx)
        source = self.source.resolve(ctx)
        rows = IndexInstruction.resolve_spec(self.row_spec, ctx)
        cols = IndexInstruction.resolve_spec(self.col_spec, ctx)
        ctx.symbols.set(self.output,
                        K.left_index(target, source, rows, cols))


class MultiReturnInstruction(Instruction):
    """Multi-return builtins: ``eigen`` and ``svd``."""

    def __init__(self, opcode: str, operand: Operand, outputs: list[str],
                 line: int = 0):
        super().__init__(line)
        self.row = lookup(opcode, MULTI)
        self.reusable = self.row.reusable
        self.opcode = opcode
        self.operand = operand
        self._outputs = outputs

    @property
    def outputs(self) -> list[str]:
        return list(self._outputs)

    def input_names(self) -> list[str]:
        return [] if self.operand.is_literal else [self.operand.name]

    def lineage(self, ctx, state) -> dict[str, LineageItem]:
        call = LineageItem(self.opcode, [self.operand.lineage(ctx)])
        return {name: LineageItem("mrout", [call], str(i))
                for i, name in enumerate(self._outputs)}

    def execute(self, ctx, state) -> None:
        results = self.row.kernel(self.operand.resolve(ctx))
        for name, result in zip(self._outputs, results):
            ctx.symbols.set(name, result)


class ListInstruction(Instruction):
    """``out = list(a, b, name=c, ...)``."""

    opcode = "list"
    reusable = False

    def __init__(self, operands: list[Operand], names: list[str | None],
                 output: str, line: int = 0):
        super().__init__(line)
        self.operands = operands
        self.names = names
        self.output = output

    @property
    def outputs(self) -> list[str]:
        return [self.output]

    def input_names(self) -> list[str]:
        return [op.name for op in self.operands if not op.is_literal]

    def lineage(self, ctx, state) -> dict[str, LineageItem]:
        inputs = [op.lineage(ctx) for op in self.operands]
        data = ",".join(n or "" for n in self.names)
        return {self.output: LineageItem(self.opcode, inputs, data)}

    def execute(self, ctx, state) -> None:
        items = [op.resolve(ctx) for op in self.operands]
        names = (list(self.names) if any(n is not None for n in self.names)
                 else None)
        if names is not None:
            names = [n or "" for n in names]
        ctx.symbols.set(self.output, ListValue(items, names))


class FunctionCallInstruction(Instruction):
    """Call of a script-level function; intercepted by the interpreter."""

    opcode = "fcall"
    reusable = False

    def __init__(self, fname: str, operands: list[Operand],
                 outputs: list[str], line: int = 0):
        super().__init__(line)
        self.fname = fname
        self.operands = operands
        self._outputs = outputs

    @property
    def outputs(self) -> list[str]:
        return list(self._outputs)

    def input_names(self) -> list[str]:
        return [op.name for op in self.operands if not op.is_literal]

    def execute(self, ctx, state) -> None:
        ctx.interpreter.execute_function_call(ctx, self)


class EvalInstruction(Instruction):
    """``out = eval(fname, args_list)`` — dynamic second-order call."""

    opcode = "eval"
    reusable = False

    def __init__(self, fname: Operand, args: Operand, output: str,
                 line: int = 0):
        super().__init__(line)
        self.fname = fname
        self.args = args
        self.output = output

    @property
    def outputs(self) -> list[str]:
        return [self.output]

    def input_names(self) -> list[str]:
        names = []
        for op in (self.fname, self.args):
            if not op.is_literal:
                names.append(op.name)
        return names

    def execute(self, ctx, state) -> None:
        ctx.interpreter.execute_eval(ctx, self)


class VariableInstruction(Instruction):
    """Variable management: ``mvvar``, ``rmvar``, ``cpvar``, ``assignvar``.

    These only modify the symbol table and the lineage map (Section 3.1).
    """

    reusable = False

    def __init__(self, kind: str, src: Operand | None = None,
                 dst: str | None = None, line: int = 0):
        super().__init__(line)
        self.kind = kind
        self.opcode = kind
        self.src = src
        self.dst = dst

    @property
    def outputs(self) -> list[str]:
        return [self.dst] if self.dst and self.kind != "rmvar" else []

    def input_names(self) -> list[str]:
        if self.src is not None and not self.src.is_literal:
            return [self.src.name]
        return []

    def execute(self, ctx, state) -> None:
        if self.kind == "rmvar":
            ctx.symbols.remove(self.dst)
            if ctx.lineage_active:
                ctx.lineage.remove(self.dst)
        elif self.kind == "mvvar":
            ctx.symbols.move(self.src.name, self.dst)
            if ctx.lineage_active:
                ctx.lineage.move(self.src.name, self.dst)
        elif self.kind == "cpvar":
            ctx.symbols.copy_var(self.src.name, self.dst)
            if ctx.lineage_active:
                ctx.lineage.copy_var(self.src.name, self.dst)
        elif self.kind == "assignvar":
            ctx.symbols.set(self.dst, self.src.resolve(ctx))
            if ctx.lineage_active:
                ctx.lineage.set(self.dst, self.src.lineage(ctx))
        else:
            raise LimaRuntimeError(f"unknown variable op {self.kind!r}")


class ReadInstruction(Instruction):
    """``out = read(path)`` — CSV or ``.npy`` matrix read (leaf lineage)."""

    opcode = "read"
    reusable = False

    def __init__(self, path: Operand, output: str, line: int = 0):
        super().__init__(line)
        self.path = path
        self.output = output

    @property
    def outputs(self) -> list[str]:
        return [self.output]

    def input_names(self) -> list[str]:
        return [] if self.path.is_literal else [self.path.name]

    def _path_str(self, ctx) -> str:
        value = self.path.resolve(ctx)
        if not isinstance(value, StringValue):
            raise LimaRuntimeError("read() requires a string path")
        return value.value

    def lineage(self, ctx, state) -> dict[str, LineageItem]:
        return {self.output:
                LineageItem(self.opcode, (), self._path_str(ctx))}

    def execute(self, ctx, state) -> None:
        path = self._path_str(ctx)
        if path.endswith(".npy"):
            data = np.load(path)
        else:
            data = np.loadtxt(path, delimiter=",", ndmin=2)
        ctx.symbols.set(self.output, MatrixValue(data))


class WriteInstruction(Instruction):
    """``write(X, path)`` — writes the matrix and its lineage log."""

    opcode = "write"
    reusable = False

    def __init__(self, source: Operand, path: Operand, line: int = 0):
        super().__init__(line)
        self.source = source
        self.path = path

    def input_names(self) -> list[str]:
        names = []
        for op in (self.source, self.path):
            if not op.is_literal:
                names.append(op.name)
        return names

    def execute(self, ctx, state) -> None:
        from repro.lineage.serialize import serialize
        value = self.source.resolve(ctx)
        path_v = self.path.resolve(ctx)
        if not isinstance(path_v, StringValue):
            raise LimaRuntimeError("write() requires a string path")
        path = path_v.value
        if not isinstance(value, MatrixValue):
            raise LimaRuntimeError("write() currently supports matrices")
        if path.endswith(".npy"):
            np.save(path, value.data)
        else:
            np.savetxt(path, value.data, delimiter=",")
        if ctx.lineage_active and not self.source.is_literal:
            item = ctx.lineage.get_or_none(self.source.name)
            if item is not None:
                with open(path + ".lineage", "w", encoding="utf-8") as fh:
                    fh.write(serialize(item))


class PrintInstruction(Instruction):
    """``print(x)`` — appends to the session's output buffer."""

    opcode = "print"
    reusable = False

    def __init__(self, operand: Operand, line: int = 0):
        super().__init__(line)
        self.operand = operand

    def input_names(self) -> list[str]:
        return [] if self.operand.is_literal else [self.operand.name]

    def execute(self, ctx, state) -> None:
        value = self.operand.resolve(ctx)
        ctx.emit(K.to_string(value).value
                 if not isinstance(value, StringValue) else value.value)


class LineageOfInstruction(Instruction):
    """``out = lineage(X)`` — serialized lineage of a live variable.

    The user-facing entry point to the lineage log (Section 3.1).
    """

    opcode = "lineageOf"
    reusable = False

    def __init__(self, operand: Operand, output: str, line: int = 0):
        super().__init__(line)
        self.operand = operand
        self.output = output

    @property
    def outputs(self) -> list[str]:
        return [self.output]

    def input_names(self) -> list[str]:
        return [] if self.operand.is_literal else [self.operand.name]

    def execute(self, ctx, state) -> None:
        from repro.lineage.serialize import serialize
        if not ctx.lineage_active:
            raise LimaRuntimeError(
                "lineage(X) requires lineage tracing to be enabled")
        item = self.operand.lineage(ctx)
        ctx.symbols.set(self.output, StringValue(serialize(item)))


class StopIfInstruction(Instruction):
    """``stopIf(cond, msg)`` — conditional abort (assertion helper)."""

    opcode = "stopIf"
    reusable = False

    def __init__(self, cond: Operand, message: Operand, line: int = 0):
        super().__init__(line)
        self.cond = cond
        self.message = message

    def input_names(self) -> list[str]:
        names = []
        for op in (self.cond, self.message):
            if not op.is_literal:
                names.append(op.name)
        return names

    def execute(self, ctx, state) -> None:
        cond = self.cond.resolve(ctx)
        if K.as_scalar(cond).as_bool():
            message = self.message.resolve(ctx)
            text = (message.value if isinstance(message, StringValue)
                    else str(message))
            raise LimaRuntimeError(f"stop: {text}")


class StopInstruction(Instruction):
    """``stop(msg)`` — aborts execution with an error."""

    opcode = "stop"
    reusable = False

    def __init__(self, operand: Operand, line: int = 0):
        super().__init__(line)
        self.operand = operand

    def input_names(self) -> list[str]:
        return [] if self.operand.is_literal else [self.operand.name]

    def execute(self, ctx, state) -> None:
        value = self.operand.resolve(ctx)
        message = value.value if isinstance(value, StringValue) else str(value)
        raise LimaRuntimeError(f"stop: {message}")
