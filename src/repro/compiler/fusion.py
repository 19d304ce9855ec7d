"""Operator fusion of cell-wise chains (codegen, Section 3.3).

A post-compilation pass over basic blocks that greedily merges chains of
elementwise operations whose intermediates are single-use temporaries into
:class:`~repro.runtime.instructions.fused.FusedInstruction` operators.
The fused operator's lineage patch (its template) is constructed here at
compilation time, so runtime tracing can expand it into plain lineage
items — the traced lineage is identical with and without fusion.
"""

from __future__ import annotations

from repro.compiler.liveness import loop_carried_vars
from repro.compiler.program import (BasicBlock, ForBlock, IfBlock,
                                    ProgramBlock, WhileBlock)
from repro.runtime.instructions.base import Operand
from repro.runtime.instructions.cp import ComputeInstruction
from repro.runtime.instructions.fused import FusedInstruction


def fuse_program_blocks(blocks: list[ProgramBlock],
                        reuse_aware: bool = False,
                        carried: set[str] | None = None) -> None:
    """Apply fusion to every basic block in a block hierarchy, in place.

    With ``reuse_aware`` (the paper's Section 3.3 "reuse-aware fusion",
    here implemented as an extension), inside loop bodies a loop-invariant
    producer is *not* absorbed into a loop-variant consumer: absorbing it
    would make the fused operator's lineage vary per iteration and destroy
    the producer's reuse across iterations.
    """
    for block in blocks:
        if isinstance(block, BasicBlock):
            block.instructions = fuse_block(
                block.instructions,
                carried if reuse_aware else None)
        elif isinstance(block, IfBlock):
            fuse_program_blocks(block.then_blocks, reuse_aware, carried)
            fuse_program_blocks(block.else_blocks, reuse_aware, carried)
        elif isinstance(block, (ForBlock, WhileBlock)):
            inner = loop_carried_vars(block.body) if reuse_aware else None
            if inner is not None:
                inner = set(inner)
                if isinstance(block, ForBlock):
                    inner.add(block.var)
                if carried:
                    inner |= carried
            fuse_program_blocks(block.body, reuse_aware, inner)


def fuse_block(instructions: list,
               variant_vars: set[str] | None = None) -> list:
    """Fuse elementwise chains within one instruction sequence.

    An instruction is absorbed into its consumer when (1) both are
    elementwise, (2) its output is a single-use temporary, and (3) no other
    instruction intervenes in the use of that temporary.  When
    ``variant_vars`` is given (reuse-aware mode inside a loop), a producer
    whose inputs are all loop-invariant is kept unfused if its consumer
    (transitively) reads a loop-variant variable.
    """
    use_count: dict[str, int] = {}
    for inst in instructions:
        for name in inst.input_names():
            use_count[name] = use_count.get(name, 0) + 1

    # producer map: temp name -> index of the (fusable) defining instruction
    producer: dict[str, int] = {}
    absorbed: set[int] = set()
    templates: dict[int, tuple] = {}
    operand_lists: dict[int, list[Operand]] = {}
    # reuse-aware mode: variables whose value varies per loop iteration
    variant_names: set[str] = set(variant_vars or ())

    def is_fusable(inst) -> bool:
        # string-literal "+" is concatenation, not an elementwise add:
        # fusing it would embed the string into a numeric template
        return (isinstance(inst, ComputeInstruction)
                and inst.row.elementwise
                and not any(op.is_literal and isinstance(op.value, str)
                            for op in inst.operands))

    def is_variant(inst) -> bool:
        return any(n in variant_names for n in inst.input_names())

    def operand_template(pos: int, op: Operand, consumer_variant: bool):
        """Template node for one operand, absorbing its producer if legal."""
        if op.is_literal:
            return ("lit", op.value), []
        name = op.name
        prod = producer.get(name)
        if (prod is not None and name.startswith("_t")
                and use_count.get(name, 0) == 1):
            if (variant_vars is not None and consumer_variant
                    and name not in variant_names):
                # reuse-aware: keep the loop-invariant producer
                # materialized so it stays reusable across iterations
                return None, [op]
            absorbed.add(prod)
            return templates[prod], operand_lists[prod]
        return None, [op]

    result = []
    for pos, inst in enumerate(instructions):
        if variant_vars is not None and is_variant(inst):
            variant_names.update(inst.outputs)
        if is_fusable(inst):
            consumer_variant = (variant_vars is not None
                                and is_variant(inst))
            template_children = []
            operands: list[Operand] = []
            for op in inst.operands:
                child, ops = operand_template(pos, op, consumer_variant)
                if child is None:
                    child = ("in", None)  # placeholder, slot fixed below
                template_children.append((child, ops))
                operands.extend(ops)
            # assign input slots in operand order
            slot = 0
            children = []
            for child, ops in template_children:
                children.append(_assign_slots(child, ops, slot))
                slot += len(ops)
            template = (inst.opcode, *children)
            templates[pos] = template
            operand_lists[pos] = operands
            producer[inst.output] = pos
        result.append(inst)

    # materialize: emit FusedInstruction for non-absorbed fusable roots
    # that actually absorbed at least one producer; drop absorbed ones
    out = []
    for pos, inst in enumerate(result):
        if pos in absorbed:
            continue
        if pos in templates and _template_depth(templates[pos]) > 1:
            out.append(FusedInstruction(templates[pos], operand_lists[pos],
                                        inst.output, line=inst.line))
        else:
            out.append(inst)
    return out


def _assign_slots(template, operands: list[Operand], base: int):
    """Renumber ``("in", ...)`` leaves of a template to absolute slots."""
    if template[0] == "in":
        return ("in", base)
    if template[0] == "lit":
        return template
    children = []
    offset = 0
    for child in template[1:]:
        n = _count_inputs(child)
        children.append(_assign_slots(child, operands, base + offset))
        offset += n
    return (template[0], *children)


def _count_inputs(template) -> int:
    if template[0] == "in":
        return 1
    if template[0] == "lit":
        return 0
    return sum(_count_inputs(c) for c in template[1:])


def _template_depth(template) -> int:
    if template[0] in ("in", "lit"):
        return 0
    return 1 + max(_template_depth(c) for c in template[1:])
