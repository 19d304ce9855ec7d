"""Re-computation of intermediates from lineage (Section 3.1).

:func:`reconstruct_program` generates a runtime program from a lineage DAG
that — given the same inputs — computes exactly the same intermediate.  The
reconstructed program contains no control flow, only the operations that
produced the value; recorded system seeds make ``rand``/``sample`` replay
deterministically.

:func:`recompute` builds and immediately executes that program.
"""

from __future__ import annotations

from repro.data.values import MatrixValue, Value, wrap
from repro.errors import LineageError
from repro.lineage.item import LineageItem, parse_literal
from repro.runtime.instructions.base import Operand
from repro.runtime.instructions.cp import (ComputeInstruction,
                                           DataGenInstruction,
                                           IndexInstruction,
                                           LeftIndexInstruction,
                                           ListInstruction,
                                           MultiReturnInstruction,
                                           ReadInstruction)
from repro.runtime.ops import MULTI, OPS


def reconstruct_program(root: LineageItem):
    """Build a runtime program computing the value traced by ``root``.

    Returns ``(program, output variable, input bindings)`` where the input
    bindings map program variable names to the session input names they
    must be bound to before execution (for ``input``-leaf lineage).
    """
    from repro.compiler.program import BasicBlock, Program
    root = root.resolve()
    order = topological_order(root)
    instructions = []
    var_of: dict[int, Operand] = {}
    bindings: dict[str, str] = {}
    mr_emitted: dict[int, list[str]] = {}
    counter = 0

    def new_var() -> str:
        nonlocal counter
        counter += 1
        return f"_r{counter}"

    for item in order:
        if item.opcode in ("L", "SL"):
            var_of[id(item)] = Operand.lit(parse_literal(item.data))
            continue
        if item.opcode == "input":
            name = item.data.split(":", 1)[0]
            var = new_var()
            bindings[var] = name
            var_of[id(item)] = Operand.var(var)
            continue
        if item.opcode == "read":
            out = new_var()
            instructions.append(
                ReadInstruction(Operand.lit(item.data), out))
            var_of[id(item)] = Operand.var(out)
            continue
        if item.opcode == "mrout":
            parent = item.inputs[0]
            outs = mr_emitted.get(id(parent))
            if outs is None:
                row = OPS.get(parent.opcode)
                if row is None or row.kind != MULTI:
                    raise LineageError(
                        f"mrout under unknown builtin {parent.opcode!r}")
                outs = [new_var() for _ in range(row.returns)]
                operand = var_of[id(parent.inputs[0])]
                instructions.append(
                    MultiReturnInstruction(parent.opcode, operand, outs))
                mr_emitted[id(parent)] = outs
            var_of[id(item)] = Operand.var(outs[int(item.data)])
            continue
        row = OPS.get(item.opcode)
        if row is not None and row.kind == MULTI:
            continue  # materialized via its mrout consumers
        operands = [var_of[id(inp)] for inp in item.inputs]
        out = new_var()
        if item.opcode in ("rand", "sample"):
            seed = operands[-1]
            instructions.append(DataGenInstruction(
                item.opcode, operands[:-1], out, seed_operand=seed))
        elif item.opcode == "rightIndex":
            obj, specs = _decode_specs(item.data, operands)
            instructions.append(IndexInstruction(obj, specs[0], specs[1],
                                                 out))
        elif item.opcode == "leftIndex":
            target = operands[0]
            _, specs = _decode_specs(item.data, operands[1:])
            instructions.append(LeftIndexInstruction(
                target, operands[1], specs[0], specs[1], out))
        elif item.opcode == "list":
            names = [n or None for n in (item.data or "").split(",")]
            if len(names) != len(operands):
                names = [None] * len(operands)
            instructions.append(ListInstruction(operands, names, out))
        elif row is not None:
            instructions.append(ComputeInstruction(item.opcode, operands,
                                                   out))
        else:
            raise LineageError(
                f"cannot reconstruct opcode {item.opcode!r}")
        var_of[id(item)] = Operand.var(out)

    result = var_of[id(root)]
    if result.is_literal:
        # a literal root still needs a program variable to return
        out = new_var()
        from repro.runtime.instructions.cp import VariableInstruction
        instructions.append(VariableInstruction("assignvar", result, out))
        result = Operand.var(out)
    program = Program(blocks=[BasicBlock(instructions=instructions)])
    return program, result.name, bindings


def _decode_specs(data: str, operands: list[Operand]):
    """Decode index-spec operands from the lineage data string.

    The first operand is the indexed object; the remaining operands are
    consumed by the row and column spec kinds encoded in ``data``.
    """
    obj = operands[0]
    pos = 1
    specs = []
    for kind in data:
        if kind == "a":
            specs.append(None)
        elif kind == "i":
            specs.append(("i", operands[pos]))
            pos += 1
        elif kind == "r":
            specs.append(("r", operands[pos], operands[pos + 1]))
            pos += 2
        else:
            raise LineageError(f"unknown index spec kind {kind!r}")
    if len(specs) != 2:
        raise LineageError(f"malformed index spec data {data!r}")
    return obj, specs


def topological_order(root: LineageItem) -> list[LineageItem]:
    """Items of the DAG under ``root``, every input before its consumer."""
    order: list[LineageItem] = []
    seen: set[int] = set()
    stack: list[tuple[LineageItem, bool]] = [(root, False)]
    while stack:
        item, expanded = stack.pop()
        if expanded:
            if id(item) not in seen:
                seen.add(id(item))
                order.append(item)
            continue
        if id(item) in seen:
            continue
        stack.append((item, True))
        for child in item.inputs:
            if id(child) not in seen:
                stack.append((child, False))
        # mrout parents need their own input materialized first
        if item.opcode == "mrout":
            grand = item.inputs[0].inputs[0]
            if id(grand) not in seen:
                stack.append((grand, False))
    return order


def recompute(root: LineageItem, inputs: dict[str, object] | None = None) \
        -> Value:
    """Execute the reconstructed program and return the recomputed value.

    ``inputs`` maps session input names (for ``input``-leaf lineage) to
    arrays/scalars.
    """
    from repro.config import LimaConfig
    from repro.runtime.context import ExecutionContext
    from repro.runtime.interpreter import Interpreter

    program, out_var, bindings = reconstruct_program(root)
    interpreter = Interpreter(program, LimaConfig.base())
    ctx = interpreter.new_root_context()
    inputs = inputs or {}
    for var, name in bindings.items():
        if name not in inputs:
            raise LineageError(
                f"recompute requires input {name!r} to be provided")
        ctx.symbols.set(var, wrap(inputs[name]))
    interpreter.execute_blocks(ctx, program.blocks)
    return ctx.symbols.get(out_var)
