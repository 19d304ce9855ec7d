"""Live-variable analysis over program blocks.

The compiler uses use/def information to

* compute block and loop-body ``inputs``/``outputs`` (needed for lineage
  deduplication placeholders and block-level reuse, Sections 3.2, 4.1),
* insert ``rmvar`` instructions after the last use of temporaries
  (paper Fig. 2),
* detect loop-carried variables for the unmarking rewrite (Section 4.4),
  and
* mark single-use temporary operands of elementwise compute instructions
  for in-place execution (:func:`mark_inplace`), eliding one matrix
  allocation per op in elementwise chains.

The analysis is intentionally conservative: ``inputs`` of a region are all
variables read before being (re)defined inside it; ``outputs`` are all
variables assigned anywhere inside it.
"""

from __future__ import annotations

from repro.compiler.program import (BasicBlock, ForBlock, IfBlock,
                                    ProgramBlock, WhileBlock)


def block_uses_defs(block: ProgramBlock) -> tuple[set[str], set[str]]:
    """(use-before-def, defs) for one program block."""
    if isinstance(block, BasicBlock):
        return _straightline_uses_defs(block.instructions)
    if isinstance(block, IfBlock):
        cond_uses, cond_defs = _straightline_uses_defs(
            block.cond_block.instructions)
        then_uses, then_defs = region_uses_defs(block.then_blocks)
        else_uses, else_defs = region_uses_defs(block.else_blocks)
        uses = cond_uses | ((then_uses | else_uses) - cond_defs)
        defs = cond_defs | then_defs | else_defs
        return uses, defs
    if isinstance(block, ForBlock):
        seq_uses, seq_defs = _straightline_uses_defs(
            block.seq_block.instructions)
        body_uses, body_defs = region_uses_defs(block.body)
        # the body may consume its own defs from previous iterations, so
        # loop-carried variables count as uses of the surrounding scope
        uses = seq_uses | (body_uses - seq_defs - {block.var})
        defs = seq_defs | body_defs | {block.var}
        return uses, defs
    if isinstance(block, WhileBlock):
        cond_uses, cond_defs = _straightline_uses_defs(
            block.cond_block.instructions)
        body_uses, body_defs = region_uses_defs(block.body)
        uses = cond_uses | (body_uses - cond_defs)
        defs = cond_defs | body_defs
        return uses, defs
    return set(), set()


def region_uses_defs(blocks: list[ProgramBlock]) -> tuple[set[str], set[str]]:
    """(use-before-def, defs) across a block sequence."""
    uses: set[str] = set()
    defs: set[str] = set()
    for block in blocks:
        b_uses, b_defs = block_uses_defs(block)
        uses |= b_uses - defs
        defs |= b_defs
    return uses, defs


def _straightline_uses_defs(instructions) -> tuple[set[str], set[str]]:
    uses: set[str] = set()
    defs: set[str] = set()
    for inst in instructions:
        for name in inst.input_names():
            if name not in defs:
                uses.add(name)
        defs.update(inst.outputs)
    return uses, defs


def annotate(blocks: list[ProgramBlock]) -> None:
    """Set ``inputs``/``outputs`` on every block in the hierarchy."""
    for block in blocks:
        uses, defs = block_uses_defs(block)
        block.inputs = frozenset(uses)
        block.outputs = frozenset(defs)
        if isinstance(block, IfBlock):
            annotate(block.then_blocks)
            annotate(block.else_blocks)
        elif isinstance(block, ForBlock):
            annotate(block.body)
        elif isinstance(block, WhileBlock):
            annotate(block.body)


def loop_carried_vars(body: list[ProgramBlock]) -> set[str]:
    """Variables both consumed from a previous iteration and redefined.

    These are the "fully updated local variables that depend recursively on
    previous loop iterations" that the unmarking rewrite targets
    (Section 4.4): caching them only pollutes the cache because their
    lineage changes every iteration.
    """
    uses, defs = region_uses_defs(body)
    return uses & defs


def mark_inplace(block: BasicBlock, protected: set[str]) -> None:
    """Mark operand slots eligible for in-place elementwise execution.

    The consumer's opcode row needs an ``inplace`` ufunc.  A slot
    qualifies when the operand is a compiler temporary (``_t*``) that is
    (a) produced earlier in the same basic block by an instruction
    guaranteed to bind a fresh value (a ``fresh`` row or data generation;
    aliasing producers such as ``as.matrix`` or scalar-condition
    ``ifelse`` are not fresh), (b) used exactly once in the block —
    by this instruction — and (c) not protected (kept alive for the
    enclosing control block).  Such a temporary dies at this instruction,
    so the kernel may overwrite its buffer instead of allocating.  The
    runtime additionally requires that no value can outlive its binding
    (``ExecutionContext.allow_inplace``: no lineage cache, no buffer
    pool).
    """
    from repro.runtime.instructions.cp import (ComputeInstruction,
                                               DataGenInstruction)

    use_count: dict[str, int] = {}
    def_count: dict[str, int] = {}
    producer: dict[str, int] = {}
    for pos, inst in enumerate(block.instructions):
        for name in inst.input_names():
            use_count[name] = use_count.get(name, 0) + 1
        for name in inst.outputs:
            def_count[name] = def_count.get(name, 0) + 1
        fresh = (isinstance(inst, ComputeInstruction) and inst.row.fresh) \
            or isinstance(inst, DataGenInstruction)
        if fresh:
            for name in inst.outputs:
                producer[name] = pos

    for pos, inst in enumerate(block.instructions):
        if not isinstance(inst, ComputeInstruction) \
                or inst.row.inplace is None:
            continue
        slots = []
        for slot, op in enumerate(inst.operands):
            name = op.name
            if op.is_literal or not name.startswith("_t") \
                    or name in protected:
                continue
            if (use_count.get(name) == 1 and def_count.get(name) == 1
                    and producer.get(name, len(block.instructions)) < pos):
                slots.append(slot)
        if slots:
            inst.inplace_slots = tuple(slots)


def mark_inplace_all(blocks: list[ProgramBlock]) -> None:
    """Run :func:`mark_inplace` over a block hierarchy.

    Mirrors the protected sets of rmvar insertion: condition predicates,
    range operands, and sequence temps outlive their basic block and must
    not be overwritten.
    """
    for block in blocks:
        if isinstance(block, BasicBlock):
            mark_inplace(block, set())
        elif isinstance(block, IfBlock):
            protected = ({block.pred.name}
                         if not block.pred.is_literal else set())
            mark_inplace(block.cond_block, protected)
            mark_inplace_all(block.then_blocks)
            mark_inplace_all(block.else_blocks)
        elif isinstance(block, ForBlock):
            protected = {op.name for op in (block.range_ops or ())
                         if not op.is_literal}
            if block.seq_var:
                protected.add(block.seq_var)
            mark_inplace(block.seq_block, protected)
            mark_inplace_all(block.body)
        elif isinstance(block, WhileBlock):
            protected = ({block.pred.name}
                         if not block.pred.is_literal else set())
            mark_inplace(block.cond_block, protected)
            mark_inplace_all(block.body)


def insert_rmvar(block: BasicBlock, protected: set[str]) -> None:
    """Insert ``rmvar`` for temporaries after their last use (Fig. 2).

    Only compiler temporaries (``_t*``) are removed; user variables are
    scoped by the interpreter.  Variables in ``protected`` (e.g. the
    predicate temp of a condition block) are kept alive.
    """
    from repro.runtime.instructions.base import Operand
    from repro.runtime.instructions.cp import VariableInstruction

    last_use: dict[str, int] = {}
    for pos, inst in enumerate(block.instructions):
        for name in inst.input_names():
            if name.startswith("_t"):
                last_use[name] = pos
        for name in inst.outputs:
            if name.startswith("_t"):
                # an unused output still dies at its definition point
                last_use.setdefault(name, pos)

    by_pos: dict[int, list[str]] = {}
    for name, pos in last_use.items():
        if name not in protected:
            by_pos.setdefault(pos, []).append(name)

    result = []
    for pos, inst in enumerate(block.instructions):
        result.append(inst)
        for name in sorted(by_pos.get(pos, ())):
            if name in inst.outputs and name not in inst.input_names():
                # output defined here and never used: still remove it
                pass
            result.append(VariableInstruction("rmvar", None, name))
    block.instructions = result
