"""Fused cell-wise operators produced by the codegen pass (Section 3.3).

A fused operator evaluates a whole tree of elementwise operations in one
instruction, avoiding materialized intermediates.  Fusion normally loses
operator semantics for lineage; LIMA's fix is to construct the *lineage
patch* of the fused operator at compilation time and expand it during
tracing, so the traced lineage is identical to unfused execution.

The template is a tree of nodes::

    ("in", slot)           — the slot-th input operand
    ("lit", value)         — a literal
    (opcode, child...)     — a unary or binary elementwise op

Templates are evaluated directly on NumPy arrays.
"""

from __future__ import annotations

import numpy as np

from repro.data.values import MatrixValue, ScalarValue, Value
from repro.errors import LimaRuntimeError
from repro.lineage.item import LineageItem, literal_item
from repro.runtime.instructions.base import Instruction, Operand
from repro.runtime.ops import OPS


def template_signature(template) -> str:
    """Stable textual signature of a fusion template (for lineage data)."""
    kind = template[0]
    if kind == "in":
        return f"${template[1]}"
    if kind == "lit":
        return repr(template[1])
    children = ",".join(template_signature(c) for c in template[1:])
    return f"{kind}({children})"


def evaluate_template(template, inputs: list) -> np.ndarray | float:
    """Evaluate a template on raw ndarray/scalar inputs."""
    kind = template[0]
    if kind == "in":
        return inputs[template[1]]
    if kind == "lit":
        return template[1]
    row = OPS.get(kind)
    if row is None or not row.elementwise:
        raise LimaRuntimeError(f"unfusable opcode {kind!r}")
    result = row.fn(*[evaluate_template(c, inputs) for c in template[1:]])
    if row.bool_result:
        # comparisons and logicals feed their parent as 0/1 doubles, as
        # unfused values do (NumPy bools would add as a logical or)
        return (result.astype(np.float64) if isinstance(result, np.ndarray)
                else float(result))
    return result


def _evaluate_values(template, inputs: list[Value]) -> Value:
    """Evaluate a template stepwise on runtime values.

    Slow path for non-numeric inputs: the opcodes' value-level kernels
    keep the unfused semantics (notably string ``+`` concatenation).
    """
    kind = template[0]
    if kind == "in":
        return inputs[template[1]]
    if kind == "lit":
        from repro.data.values import wrap
        return wrap(template[1])
    return OPS[kind].kernel(*[_evaluate_values(c, inputs)
                              for c in template[1:]])


def expand_template(template, input_items: list[LineageItem],
                    literal_cache: dict) -> LineageItem:
    """Expand a fusion template into plain lineage items.

    This is the lineage-patch expansion of Section 3.3: the traced lineage
    of a fused operator equals the lineage of the unfused operations.
    """
    kind = template[0]
    if kind == "in":
        return input_items[template[1]]
    if kind == "lit":
        value = template[1]
        key = (type(value).__name__, value)
        item = literal_cache.get(key)
        if item is None:
            item = literal_item(value)
            literal_cache[key] = item
        return item
    children = [expand_template(c, input_items, literal_cache)
                for c in template[1:]]
    return LineageItem(kind, children)


class FusedInstruction(Instruction):
    """A code-generated cell-wise fused operator."""

    opcode = "fused"
    reusable = True

    def __init__(self, template, operands: list[Operand], output: str,
                 line: int = 0):
        super().__init__(line)
        self.template = template
        self.operands = operands
        self.output = output
        self.signature = template_signature(template)
        # a scalar result is typed by the root opcode, as unfused: a
        # comparison or logical yields a boolean, anything else a float
        self._scalar = bool if OPS[template[0]].bool_result else float

    @property
    def outputs(self) -> list[str]:
        return [self.output]

    def input_names(self) -> list[str]:
        return [op.name for op in self.operands if not op.is_literal]

    def lineage(self, ctx, state) -> dict[str, LineageItem]:
        input_items = [op.lineage(ctx) for op in self.operands]
        item = expand_template(self.template, input_items, {})
        return {self.output: item}

    def execute(self, ctx, state) -> None:
        raw = []
        values = []
        fallback = False
        for op in self.operands:
            value = op.resolve(ctx)
            values.append(value)
            if isinstance(value, MatrixValue):
                raw.append(value.data)
            elif isinstance(value, ScalarValue):
                raw.append(value.as_float())
            else:
                # a non-numeric input (e.g. a string variable flowing
                # into a "+" concat): evaluate the template stepwise
                # through the semantic kernels instead
                fallback = True
        if fallback:
            ctx.symbols.set(self.output,
                            _evaluate_values(self.template, values))
            return
        result = evaluate_template(self.template, raw)
        if isinstance(result, np.ndarray) and result.ndim >= 1:
            out: Value = MatrixValue(result.astype(np.float64, copy=False))
        else:
            out = ScalarValue(self._scalar(result))
        ctx.symbols.set(self.output, out)
