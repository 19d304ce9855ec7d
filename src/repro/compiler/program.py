"""Compiled program representation: a hierarchy of program blocks.

Mirrors SystemDS program compilation (Section 2.2): a script compiles into
a hierarchy of program blocks where every last-level block contains a
linearized sequence of runtime instructions, and control flow (``if``,
``for``, ``parfor``, ``while``) plus function scoping are handled by the
system itself — which is precisely what enables multi-level lineage
tracing, deduplication, and block/function reuse.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

from repro.runtime.instructions.base import Instruction, Operand


class ProgramBlock:
    """Base class of program blocks."""

    #: variables read from the surrounding scope (live-variable analysis)
    inputs: frozenset[str] = frozenset()
    #: variables (re)defined by this block
    outputs: frozenset[str] = frozenset()
    #: True when the block contains no unseeded data generation or
    #: non-deterministic function calls — the precondition for block- and
    #: function-level reuse (Section 4.1)
    deterministic: bool = True


@dataclass
class BasicBlock(ProgramBlock):
    """A last-level block: a straight-line instruction sequence."""

    instructions: list[Instruction] = field(default_factory=list)
    inputs: frozenset[str] = frozenset()
    outputs: frozenset[str] = frozenset()
    deterministic: bool = True
    #: eligible for block-level reuse probing (set by the compiler for
    #: blocks that are deterministic and compute-heavy)
    reuse_candidate: bool = False
    #: compiled dispatch, built by the interpreter on first execution:
    #: static profile -> (config, handler list).  Shared by every
    #: interpreter that runs this program; a published entry is only
    #: ever replaced, never mutated.
    handlers: dict = field(default_factory=dict, repr=False, compare=False)

    def __repr__(self) -> str:
        return f"BasicBlock(n={len(self.instructions)})"


@dataclass
class IfBlock(ProgramBlock):
    """``if (cond) { then } else { else }``."""

    cond_block: BasicBlock        # computes the predicate
    pred: Operand                 # predicate operand (often a temp)
    then_blocks: list[ProgramBlock]
    else_blocks: list[ProgramBlock]
    inputs: frozenset[str] = frozenset()
    outputs: frozenset[str] = frozenset()
    deterministic: bool = True
    #: branch position id for dedup path bitvectors (Section 3.2)
    branch_id: int = -1

    def __repr__(self) -> str:
        return (f"IfBlock(branch={self.branch_id}, "
                f"then={len(self.then_blocks)}, else={len(self.else_blocks)})")


@dataclass
class ForBlock(ProgramBlock):
    """``for``/``parfor`` loop.

    The iteration domain is either an integer range (``range_ops`` holds
    ``(from, to, step)`` operands evaluated once via ``seq_block``) or a
    vector (``seq_var``), iterated row-wise.
    """

    var: str
    seq_block: BasicBlock
    range_ops: tuple[Operand, Operand, Operand] | None
    seq_var: str | None
    body: list[ProgramBlock] = field(default_factory=list)
    parallel: bool = False
    inputs: frozenset[str] = frozenset()
    outputs: frozenset[str] = frozenset()
    deterministic: bool = True
    #: body contains no nested loops/function calls → dedup-eligible
    last_level: bool = False
    #: number of if-branches in the body (dedup path bitvector width)
    num_branches: int = 0

    def __repr__(self) -> str:
        tag = "parfor" if self.parallel else "for"
        return f"ForBlock({tag} {self.var}, body={len(self.body)})"


@dataclass
class WhileBlock(ProgramBlock):
    """``while (cond) { body }``; the condition block re-runs per test."""

    cond_block: BasicBlock
    pred: Operand
    body: list[ProgramBlock] = field(default_factory=list)
    inputs: frozenset[str] = frozenset()
    outputs: frozenset[str] = frozenset()
    deterministic: bool = True
    last_level: bool = False
    num_branches: int = 0

    def __repr__(self) -> str:
        return f"WhileBlock(body={len(self.body)})"


@dataclass
class FunctionProgram:
    """A compiled script-level function."""

    name: str
    params: list[str]
    defaults: dict[str, object]   # literal defaults (python values)
    outputs: list[str]
    blocks: list[ProgramBlock] = field(default_factory=list)
    deterministic: bool = True
    #: body has no loops or function calls → dedup-eligible (Section 3.2)
    last_level: bool = False
    num_branches: int = 0

    def __repr__(self) -> str:
        det = "det" if self.deterministic else "nondet"
        return f"FunctionProgram({self.name}, {det})"


@dataclass
class Program:
    """A compiled script: top-level blocks plus its function dictionary."""

    blocks: list[ProgramBlock] = field(default_factory=list)
    functions: dict[str, FunctionProgram] = field(default_factory=dict)
    #: guards on-demand builtin-function compilation into ``functions``.
    #: Lives on the program (not the interpreter) because the service
    #: shares one compiled Program across concurrent sessions — which is
    #: also what makes block-level reuse keys (``id(block)``) line up
    #: across sessions.
    compile_lock: threading.Lock = field(default_factory=threading.Lock,
                                         repr=False, compare=False)

    def all_blocks(self):
        """Yield every program block in the hierarchy (pre-order)."""
        stack: list[ProgramBlock] = list(self.blocks)
        for func in self.functions.values():
            stack.extend(func.blocks)
        while stack:
            block = stack.pop()
            yield block
            if isinstance(block, IfBlock):
                stack.extend(block.then_blocks)
                stack.extend(block.else_blocks)
                stack.append(block.cond_block)
            elif isinstance(block, ForBlock):
                stack.extend(block.body)
                stack.append(block.seq_block)
            elif isinstance(block, WhileBlock):
                stack.extend(block.body)
                stack.append(block.cond_block)
