"""The opcode table (``runtime/ops.py``) is the only place opcode facts
live: every opcode the compiler emits has a row and every row is emitted,
the in-place column agrees with the kernels it names, and no module that
used to keep its own opcode collection has grown one back."""

import ast
import os

import numpy as np
import pytest

from repro.compiler import compile_script
from repro.compiler import compiler as compiler_mod
from repro.compiler.program import BasicBlock
from repro.config import LimaConfig
from repro.runtime.instructions.cp import (ComputeInstruction,
                                           MultiReturnInstruction)
from repro.runtime.ops import MULTI, OPS

_SRC = os.path.join(os.path.dirname(__file__), "..", "..", "src", "repro")


def _emitting_script() -> str:
    """One statement per compiler path that emits a compute or
    multi-return instruction."""
    lines = [f"v{i} = X {op} X;"
             for i, op in enumerate(compiler_mod._BINOP_OPCODES)]
    for name, (_, params) in compiler_mod._SIMPLE_BUILTINS.items():
        required = sum(default is compiler_mod._REQUIRED
                       for _, default in params)
        lines.append(f"w = {name}({', '.join(['X'] * required)});")
    lines += ["u = -X;", "u = !X;", "u = min(X);", "u = max(X);",
              "u = min(X, X);", "u = max(X, X);", "u = cbind(X, X);",
              "u = rbind(X, X);", "u = 1:3;", "u = t(X) %*% X;",
              "[a, b] = eigen(X);", "[c, d, e] = svd(X);"]
    return "\n".join(lines)


def _emitted_opcodes() -> set[str]:
    program = compile_script(_emitting_script(), LimaConfig.base())
    return {inst.opcode for block in program.all_blocks()
            if isinstance(block, BasicBlock)
            for inst in block.instructions
            if isinstance(inst, (ComputeInstruction,
                                 MultiReturnInstruction))}


def _static_compute_opcodes() -> set[str]:
    """Opcodes the compiler modules pass to ``ComputeInstruction`` as
    string literals, plus the surface-syntax maps."""
    found = set(compiler_mod._BINOP_OPCODES.values())
    found |= {opcode for opcode, _ in compiler_mod._SIMPLE_BUILTINS.values()}
    for module in ("compiler.py", "rewrites.py"):
        with open(os.path.join(_SRC, "compiler", module)) as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call)
                    and getattr(node.func, "id", None) == "ComputeInstruction"
                    and node.args):
                found |= {c.value for c in ast.walk(node.args[0])
                          if isinstance(c, ast.Constant)
                          and isinstance(c.value, str)}
    return found


def test_compiler_opcodes_and_rows_agree():
    emitted = _emitted_opcodes()
    assert _static_compute_opcodes() <= set(OPS)
    assert emitted <= set(OPS)
    assert set(OPS) - emitted == set(), "rows no compiler path emits"


def _same_dtype_ufunc(fn) -> bool:
    if not isinstance(fn, np.ufunc):
        return False
    with np.errstate(all="ignore"):
        out = fn(*[np.full((2, 2), 1.5)] * fn.nin)
    return out.dtype == np.float64


@pytest.mark.parametrize("opcode", sorted(OPS))
def test_inplace_rows_are_fresh_elementwise_same_dtype_ufuncs(opcode):
    row = OPS[opcode]
    eligible = (row.fresh and row.elementwise
                and _same_dtype_ufunc(row.fn))
    assert (row.inplace is not None) == eligible
    if row.inplace is not None:
        assert row.inplace is row.fn


def test_multi_return_rows():
    assert {o: r.returns for o, r in OPS.items() if r.kind == MULTI} \
        == {"eigen": 2, "svd": 3}
    assert all(r.returns == 1 for r in OPS.values() if r.kind != MULTI)


#: modules that once kept private opcode collections
_SCANNED = ["runtime/instructions/cp.py", "runtime/kernels.py",
            "runtime/instructions/fused.py", "compiler/fusion.py",
            "compiler/liveness.py", "config.py", "lineage/reconstruct.py",
            "lineage/autodiff.py"]


@pytest.mark.parametrize("module", _SCANNED)
def test_no_opcode_collection_outside_the_table(module):
    with open(os.path.join(_SRC, module)) as fh:
        tree = ast.parse(fh.read())
    offenders = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Set, ast.Tuple, ast.List)):
            elements = node.elts
        elif isinstance(node, ast.Dict):
            elements = [k for k in node.keys if k is not None] + node.values
        else:
            continue
        opcodes = [e.value for e in elements
                   if isinstance(e, ast.Constant) and e.value in OPS]
        if len(opcodes) >= 3:
            offenders.append((node.lineno, opcodes))
    assert offenders == [], f"{module} keeps its own opcode collection"
