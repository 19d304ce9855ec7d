"""AST-to-program compiler.

Compiles a parsed :class:`~repro.lang.ast.Script` into a
:class:`~repro.compiler.program.Program`: a hierarchy of program blocks
whose last-level blocks hold linearized instruction sequences (Fig. 2).

Responsibilities:

* expression compilation into temporaries (``_t<n>``) with ``rmvar``
  insertion after last use,
* builtin resolution (including the ``t(X) %*% X`` → ``tsmm`` pattern that
  the partial-reuse rewrites rely on),
* resolution of script functions and the builtin script library
  (:mod:`repro.scripts`), loaded on demand,
* post passes: compiler assistance (Section 4.4), operator fusion
  (Section 3.3), liveness annotation, determinism tagging, and dedup
  eligibility (branch counting and last-level detection, Section 3.2).
"""

from __future__ import annotations

from repro.compiler import fusion as fusion_pass
from repro.compiler import rewrites as assist_pass
from repro.compiler.liveness import (annotate, insert_rmvar,
                                     mark_inplace_all)
from repro.compiler.program import (BasicBlock, ForBlock, FunctionProgram,
                                    IfBlock, Program, ProgramBlock,
                                    WhileBlock)
from repro.config import LimaConfig
from repro.errors import LimaCompileError
from repro.lang import ast, parse
from repro.runtime.instructions.base import Operand
from repro.runtime.instructions.cp import (ComputeInstruction,
                                           DataGenInstruction,
                                           EvalInstruction,
                                           FunctionCallInstruction,
                                           IndexInstruction,
                                           LeftIndexInstruction,
                                           LineageOfInstruction,
                                           ListInstruction,
                                           MultiReturnInstruction,
                                           PrintInstruction, ReadInstruction,
                                           StopInstruction, StopIfInstruction,
                                           VariableInstruction,
                                           WriteInstruction)
from repro.runtime.ops import MULTI, OPS

_REQUIRED = object()

#: builtins mapping to a single ComputeInstruction:
#: surface name -> (opcode, [(param, default), ...])
_SIMPLE_BUILTINS: dict[str, tuple[str, list[tuple[str, object]]]] = {
    "t": ("t", [("target", _REQUIRED)]),
    "rev": ("rev", [("target", _REQUIRED)]),
    "diag": ("diag", [("target", _REQUIRED)]),
    "inv": ("inv", [("target", _REQUIRED)]),
    "solve": ("solve", [("a", _REQUIRED), ("b", _REQUIRED)]),
    "table": ("table", [("a", _REQUIRED), ("b", _REQUIRED)]),
    "order": ("order", [("target", _REQUIRED), ("by", 1),
                        ("decreasing", False), ("index.return", False)]),
    "replace": ("replace", [("target", _REQUIRED), ("pattern", _REQUIRED),
                            ("replacement", _REQUIRED)]),
    "seq": ("seq", [("from", _REQUIRED), ("to", _REQUIRED), ("by", 0)]),
    "matrix": ("matrix", [("data", _REQUIRED), ("rows", _REQUIRED),
                          ("cols", _REQUIRED)]),
    "as.scalar": ("as.scalar", [("target", _REQUIRED)]),
    "as.matrix": ("as.matrix", [("target", _REQUIRED)]),
    "as.integer": ("as.integer", [("target", _REQUIRED)]),
    "as.double": ("as.double", [("target", _REQUIRED)]),
    "as.logical": ("as.logical", [("target", _REQUIRED)]),
    "nrow": ("nrow", [("target", _REQUIRED)]),
    "ncol": ("ncol", [("target", _REQUIRED)]),
    "length": ("length", [("target", _REQUIRED)]),
    "toString": ("toString", [("target", _REQUIRED)]),
    "ifelse": ("ifelse", [("test", _REQUIRED), ("yes", _REQUIRED),
                          ("no", _REQUIRED)]),
    "sigmoid": ("sigmoid", [("target", _REQUIRED)]),
    "ceiling": ("ceil", [("target", _REQUIRED)]),
    "lappend": ("lappend", [("l", _REQUIRED), ("name", _REQUIRED),
                            ("value", _REQUIRED)]),
    "recodeEncode": ("recodeEncode", [("target", _REQUIRED)]),
    "binEncode": ("binEncode", [("target", _REQUIRED), ("bins", 10)]),
    "oneHotEncode": ("oneHotEncode", [("target", _REQUIRED)]),
}

for _name in ("exp", "log", "sqrt", "abs", "round", "floor", "sign"):
    _SIMPLE_BUILTINS[_name] = (_name, [("target", _REQUIRED)])

for _name in ("sum", "mean", "var", "sd", "trace",
              "colSums", "rowSums", "colMeans", "rowMeans",
              "colMins", "colMaxs", "rowMins", "rowMaxs",
              "colVars", "colSds", "rowIndexMax", "cumsum"):
    _SIMPLE_BUILTINS[_name] = (_name, [("target", _REQUIRED)])

#: operators compiling directly to a binary compute opcode
_BINOP_OPCODES = {
    "+": "+", "-": "-", "*": "*", "/": "/", "^": "^",
    "%%": "%%", "%/%": "%/%", "%*%": "mm",
    "==": "==", "!=": "!=", "<": "<", ">": ">", "<=": "<=", ">=": ">=",
    "&": "&", "|": "|",
}


def compile_script(text: str, config: LimaConfig | None = None) -> Program:
    """Parse and compile a script under the given configuration."""
    return compile_program(parse(text), config or LimaConfig())


def compile_program(script: ast.Script,
                    config: LimaConfig | None = None) -> Program:
    return _Compiler(config or LimaConfig()).compile(script)


class _Compiler:
    def __init__(self, config: LimaConfig):
        self.config = config
        self.program = Program()
        self._temp_counter = 0
        self._signatures: dict[str, ast.FuncDef] = {}
        self._compiling: set[str] = set()

    # ------------------------------------------------------------------

    def new_temp(self) -> str:
        self._temp_counter += 1
        return f"_t{self._temp_counter}"

    def compile(self, script: ast.Script) -> Program:
        self._signatures.update(script.functions)
        for fdef in script.functions.values():
            self._compile_function(fdef)
        self.program.blocks = self._compile_stmts(script.statements)
        self._run_post_passes()
        return self.program

    def _run_post_passes(self) -> None:
        all_block_lists = [self.program.blocks] + [
            f.blocks for f in self.program.functions.values()]
        for blocks in all_block_lists:
            annotate(blocks)
        if self.config.compiler_assist:
            for blocks in all_block_lists:
                assist_pass.apply_compiler_assistance(blocks, self.new_temp)
        if self.config.fusion:
            # with reuse enabled, fusion is reuse-aware: loop-invariant
            # producers are kept unfused so they remain cacheable
            for blocks in all_block_lists:
                fusion_pass.fuse_program_blocks(
                    blocks, reuse_aware=self.config.reuse_enabled)
        for blocks in all_block_lists:
            mark_inplace_all(blocks)
            _insert_rmvar_all(blocks)
            annotate(blocks)
        _tag_determinism(self.program)
        _tag_dedup_eligibility(self.program)
        _mark_reuse_candidates(self.program)

    # ------------------------------------------------------------------
    # functions
    # ------------------------------------------------------------------

    def _resolve_function(self, name: str) -> FunctionProgram | None:
        """Resolve a function by name, loading builtin scripts on demand."""
        if name in self.program.functions:
            return self.program.functions[name]
        if name in self._signatures:
            return self._compile_function(self._signatures[name])
        from repro.scripts import lookup_builtin_function
        fdef = lookup_builtin_function(name)
        if fdef is not None:
            self._signatures[name] = fdef
            return self._compile_function(fdef)
        return None

    def _compile_function(self, fdef: ast.FuncDef) -> FunctionProgram:
        if fdef.name in self.program.functions:
            return self.program.functions[fdef.name]
        if fdef.name in self._compiling:
            # recursive call: register a shell first
            return self.program.functions.get(fdef.name)
        self._compiling.add(fdef.name)
        defaults = {}
        for param in fdef.params:
            if param.default is not None:
                defaults[param.name] = _literal_value(param.default, fdef.name)
        func = FunctionProgram(
            name=fdef.name,
            params=[p.name for p in fdef.params],
            defaults=defaults,
            outputs=list(fdef.outputs),
        )
        self.program.functions[fdef.name] = func
        func.blocks = self._compile_stmts(fdef.body)
        self._compiling.discard(fdef.name)
        return func

    # ------------------------------------------------------------------
    # statements → blocks
    # ------------------------------------------------------------------

    def _compile_stmts(self, stmts: list[ast.Stmt]) -> list[ProgramBlock]:
        blocks: list[ProgramBlock] = []
        current: list = []

        def flush():
            if current:
                blocks.append(BasicBlock(instructions=list(current)))
                current.clear()

        for stmt in stmts:
            if isinstance(stmt, ast.If):
                flush()
                blocks.append(self._compile_if(stmt))
            elif isinstance(stmt, ast.For):
                flush()
                blocks.append(self._compile_for(stmt))
            elif isinstance(stmt, ast.While):
                flush()
                blocks.append(self._compile_while(stmt))
            elif isinstance(stmt, ast.FuncDef):
                raise LimaCompileError(
                    f"nested function definition {stmt.name!r} not supported")
            else:
                self._compile_simple(stmt, current)
        flush()
        return blocks

    def _compile_simple(self, stmt: ast.Stmt, out: list) -> None:
        if isinstance(stmt, ast.Assign):
            self._compile_assign(stmt, out)
        elif isinstance(stmt, ast.IndexedAssign):
            self._compile_indexed_assign(stmt, out)
        elif isinstance(stmt, ast.MultiAssign):
            self._compile_multi_assign(stmt, out)
        elif isinstance(stmt, ast.ExprStmt):
            self._compile_expr_stmt(stmt, out)
        else:
            raise LimaCompileError(f"unsupported statement {type(stmt)}")

    def _compile_assign(self, stmt: ast.Assign, out: list) -> None:
        operand = self.compile_expr(stmt.expr, out, preferred=stmt.target)
        self._bind(operand, stmt.target, out, stmt.line)

    def _bind(self, operand: Operand, target: str, out: list,
              line: int) -> None:
        """Bind a compiled operand to a target variable name."""
        if operand.is_literal:
            out.append(VariableInstruction(
                "assignvar", operand, target, line))
            return
        if operand.name == target:
            return  # already written directly by the producing instruction
        if operand.name.startswith("_t") and out and \
                target not in _transitive_writers(out, operand.name):
            # rename the producing instruction's output when safe
            for inst in reversed(out):
                if operand.name in inst.outputs:
                    _rename_output(inst, operand.name, target)
                    return
        out.append(VariableInstruction(
            "cpvar", Operand.var(operand.name), target, line))

    def _compile_indexed_assign(self, stmt: ast.IndexedAssign,
                                out: list) -> None:
        source = self.compile_expr(stmt.expr, out)
        rows = self._compile_spec(stmt.rows, out)
        cols = self._compile_spec(stmt.cols, out)
        out.append(LeftIndexInstruction(
            Operand.var(stmt.target), source, rows, cols, stmt.target,
            stmt.line))

    def _compile_multi_assign(self, stmt: ast.MultiAssign, out: list) -> None:
        call = stmt.call
        row = OPS.get(call.name)
        if row is not None and row.kind == MULTI:
            expected = row.returns
            if len(stmt.targets) != expected:
                raise LimaCompileError(
                    f"{call.name} returns {expected} outputs, "
                    f"got {len(stmt.targets)} targets")
            operand = self._single_arg(call, out)
            out.append(MultiReturnInstruction(
                call.name, operand, list(stmt.targets), call.line))
            return
        func = self._resolve_function(call.name)
        if func is None:
            raise LimaCompileError(
                f"unknown function {call.name!r} in multi-assignment")
        operands = self._bind_call_args(call, func, out)
        out.append(FunctionCallInstruction(
            call.name, operands, list(stmt.targets), call.line))

    def _compile_expr_stmt(self, stmt: ast.ExprStmt, out: list) -> None:
        expr = stmt.expr
        if isinstance(expr, ast.Call):
            if expr.name == "print":
                operand = self._single_arg(expr, out)
                out.append(PrintInstruction(operand, expr.line))
                return
            if expr.name == "stop":
                operand = self._single_arg(expr, out)
                out.append(StopInstruction(operand, expr.line))
                return
            if expr.name == "write":
                args = [self.compile_expr(a, out) for a in expr.args]
                if len(args) != 2:
                    raise LimaCompileError("write(X, path) takes 2 arguments")
                out.append(WriteInstruction(args[0], args[1], expr.line))
                return
        # generic expression statement: compute and discard
        self.compile_expr(expr, out)

    # ------------------------------------------------------------------
    # control flow
    # ------------------------------------------------------------------

    def _compile_cond(self, expr: ast.Expr) -> tuple[BasicBlock, Operand]:
        instructions: list = []
        operand = self.compile_expr(expr, instructions)
        return BasicBlock(instructions=instructions), operand

    def _compile_if(self, stmt: ast.If) -> IfBlock:
        cond_block, pred = self._compile_cond(stmt.cond)
        return IfBlock(
            cond_block=cond_block,
            pred=pred,
            then_blocks=self._compile_stmts(stmt.then_body),
            else_blocks=self._compile_stmts(stmt.else_body),
        )

    def _compile_for(self, stmt: ast.For) -> ForBlock:
        instructions: list = []
        range_ops = None
        seq_var = None
        if isinstance(stmt.seq, ast.RangeExpr):
            lo = self.compile_expr(stmt.seq.lo, instructions)
            hi = self.compile_expr(stmt.seq.hi, instructions)
            # step 0 = auto direction (+1 ascending, -1 descending)
            range_ops = (lo, hi, Operand.lit(0))
        else:
            operand = self.compile_expr(stmt.seq, instructions)
            if operand.is_literal:
                range_ops = (Operand.lit(1), operand, Operand.lit(1))
            else:
                seq_var = operand.name
        return ForBlock(
            var=stmt.var,
            seq_block=BasicBlock(instructions=instructions),
            range_ops=range_ops,
            seq_var=seq_var,
            body=self._compile_stmts(stmt.body),
            parallel=stmt.parallel,
        )

    def _compile_while(self, stmt: ast.While) -> WhileBlock:
        cond_block, pred = self._compile_cond(stmt.cond)
        return WhileBlock(
            cond_block=cond_block,
            pred=pred,
            body=self._compile_stmts(stmt.body),
        )

    # ------------------------------------------------------------------
    # expressions
    # ------------------------------------------------------------------

    def compile_expr(self, expr: ast.Expr, out: list,
                     preferred: str | None = None) -> Operand:
        """Compile an expression, emitting instructions into ``out``.

        ``preferred`` names the final output variable when the caller is an
        assignment, avoiding a trailing ``mvvar``.
        """
        if isinstance(expr, ast.NumLit):
            value = int(expr.value) if expr.is_int else expr.value
            return Operand.lit(value)
        if isinstance(expr, ast.StrLit):
            return Operand.lit(expr.value)
        if isinstance(expr, ast.BoolLit):
            return Operand.lit(expr.value)
        if isinstance(expr, ast.Var):
            return Operand.var(expr.name)
        if isinstance(expr, ast.BinOp):
            return self._compile_binop(expr, out, preferred)
        if isinstance(expr, ast.UnaryOp):
            return self._compile_unary(expr, out, preferred)
        if isinstance(expr, ast.Call):
            return self._compile_call(expr, out, preferred)
        if isinstance(expr, ast.Index):
            return self._compile_index(expr, out, preferred)
        if isinstance(expr, ast.RangeExpr):
            lo = self.compile_expr(expr.lo, out)
            hi = self.compile_expr(expr.hi, out)
            output = preferred or self.new_temp()
            out.append(ComputeInstruction(
                "seq", [lo, hi, Operand.lit(0)], output, expr.line))
            return Operand.var(output)
        raise LimaCompileError(f"unsupported expression {type(expr)}")

    def _compile_binop(self, expr: ast.BinOp, out: list,
                       preferred: str | None) -> Operand:
        opcode = _BINOP_OPCODES.get(expr.op)
        if opcode is None:
            raise LimaCompileError(f"unsupported operator {expr.op!r}")
        # t(X) %*% X → tsmm(X): the dsyrk pattern of the partial rewrites
        if (opcode == "mm" and isinstance(expr.left, ast.Call)
                and expr.left.name == "t" and len(expr.left.args) == 1
                and not expr.left.named_args
                and isinstance(expr.left.args[0], ast.Var)
                and isinstance(expr.right, ast.Var)
                and expr.left.args[0].name == expr.right.name):
            output = preferred or self.new_temp()
            out.append(ComputeInstruction(
                "tsmm", [Operand.var(expr.right.name)], output, expr.line))
            return Operand.var(output)
        left = self.compile_expr(expr.left, out)
        right = self.compile_expr(expr.right, out)
        output = preferred or self.new_temp()
        out.append(ComputeInstruction(opcode, [left, right], output,
                                      expr.line))
        return Operand.var(output)

    def _compile_unary(self, expr: ast.UnaryOp, out: list,
                       preferred: str | None) -> Operand:
        operand = self.compile_expr(expr.operand, out)
        output = preferred or self.new_temp()
        if expr.op == "-":
            out.append(ComputeInstruction(
                "*", [operand, Operand.lit(-1)], output, expr.line))
        elif expr.op == "!":
            out.append(ComputeInstruction("!", [operand], output, expr.line))
        else:
            raise LimaCompileError(f"unsupported unary {expr.op!r}")
        return Operand.var(output)

    def _compile_index(self, expr: ast.Index, out: list,
                       preferred: str | None) -> Operand:
        obj = self.compile_expr(expr.obj, out)
        rows = self._compile_spec(expr.rows, out)
        cols = self._compile_spec(expr.cols, out)
        output = preferred or self.new_temp()
        out.append(IndexInstruction(obj, rows, cols, output, expr.line))
        return Operand.var(output)

    def _compile_spec(self, spec: ast.IndexSpec, out: list):
        if spec.all:
            return None
        if spec.is_range:
            lo = self.compile_expr(spec.lo, out)
            hi = self.compile_expr(spec.hi, out)
            return ("r", lo, hi)
        return ("i", self.compile_expr(spec.index, out))

    # ------------------------------------------------------------------
    # calls
    # ------------------------------------------------------------------

    def _single_arg(self, call: ast.Call, out: list) -> Operand:
        if len(call.args) != 1 or call.named_args:
            raise LimaCompileError(
                f"{call.name}() takes exactly one argument")
        return self.compile_expr(call.args[0], out)

    def _compile_call(self, call: ast.Call, out: list,
                      preferred: str | None) -> Operand:
        name = call.name
        output = preferred or self.new_temp()

        if name in ("min", "max"):
            if len(call.args) == 2:
                left = self.compile_expr(call.args[0], out)
                right = self.compile_expr(call.args[1], out)
                out.append(ComputeInstruction(
                    "min2" if name == "min" else "max2", [left, right],
                    output, call.line))
                return Operand.var(output)
            if len(call.args) == 1:
                operand = self.compile_expr(call.args[0], out)
                out.append(ComputeInstruction(name, [operand], output,
                                              call.line))
                return Operand.var(output)
            raise LimaCompileError(f"{name}() takes 1 or 2 arguments")

        if name in ("cbind", "rbind"):
            if len(call.args) < 2:
                raise LimaCompileError(f"{name}() takes 2+ arguments")
            operands = [self.compile_expr(a, out) for a in call.args]
            out.append(ComputeInstruction(name, operands, output, call.line))
            return Operand.var(output)

        if name in _SIMPLE_BUILTINS:
            opcode, spec = _SIMPLE_BUILTINS[name]
            operands = self._bind_named_args(call, spec, out)
            out.append(ComputeInstruction(opcode, operands, output,
                                          call.line))
            return Operand.var(output)

        if name == "rand":
            spec = [("rows", _REQUIRED), ("cols", _REQUIRED),
                    ("min", 0.0), ("max", 1.0), ("sparsity", 1.0),
                    ("pdf", "uniform")]
            operands, seed = self._bind_datagen_args(call, spec, out)
            out.append(DataGenInstruction("rand", operands, output, seed,
                                          call.line))
            return Operand.var(output)

        if name == "sample":
            spec = [("range", _REQUIRED), ("size", _REQUIRED),
                    ("replace", False)]
            operands, seed = self._bind_datagen_args(call, spec, out)
            out.append(DataGenInstruction("sample", operands, output, seed,
                                          call.line))
            return Operand.var(output)

        if name == "list":
            operands = [self.compile_expr(a, out) for a in call.args]
            names: list[str | None] = [None] * len(operands)
            for key, value in call.named_args.items():
                operands.append(self.compile_expr(value, out))
                names.append(key)
            out.append(ListInstruction(operands, names, output, call.line))
            return Operand.var(output)

        if name == "read":
            operand = self._single_arg(call, out)
            out.append(ReadInstruction(operand, output, call.line))
            return Operand.var(output)

        if name == "eval":
            if len(call.args) != 2:
                raise LimaCompileError("eval(fname, args) takes 2 arguments")
            fname = self.compile_expr(call.args[0], out)
            args = self.compile_expr(call.args[1], out)
            out.append(EvalInstruction(fname, args, output, call.line))
            return Operand.var(output)

        if name == "lineage":
            operand = self._single_arg(call, out)
            out.append(LineageOfInstruction(operand, output, call.line))
            return Operand.var(output)

        if name == "stopIf":
            if len(call.args) != 2:
                raise LimaCompileError("stopIf(cond, msg) takes 2 arguments")
            cond = self.compile_expr(call.args[0], out)
            msg = self.compile_expr(call.args[1], out)
            out.append(StopIfInstruction(cond, msg, call.line))
            return Operand.lit(0)

        if name in ("print", "stop", "write"):
            raise LimaCompileError(
                f"{name}() is a statement, not an expression")

        func = self._resolve_function(name)
        if func is None:
            raise LimaCompileError(f"unknown function {name!r}")
        operands = self._bind_call_args(call, func, out)
        out.append(FunctionCallInstruction(name, operands, [output],
                                           call.line))
        return Operand.var(output)

    def _bind_named_args(self, call: ast.Call,
                         spec: list[tuple[str, object]],
                         out: list) -> list[Operand]:
        """Resolve positional + named args against a builtin signature."""
        slots: list[Operand | None] = [None] * len(spec)
        if len(call.args) > len(spec):
            raise LimaCompileError(
                f"{call.name}() takes at most {len(spec)} arguments")
        for i, arg in enumerate(call.args):
            slots[i] = self.compile_expr(arg, out)
        names = [s[0] for s in spec]
        for key, value in call.named_args.items():
            if key not in names:
                raise LimaCompileError(
                    f"{call.name}() has no parameter {key!r}")
            idx = names.index(key)
            if slots[idx] is not None:
                raise LimaCompileError(
                    f"{call.name}() got duplicate argument {key!r}")
            slots[idx] = self.compile_expr(value, out)
        operands: list[Operand] = []
        for (pname, default), slot in zip(spec, slots):
            if slot is not None:
                operands.append(slot)
            elif default is _REQUIRED:
                raise LimaCompileError(
                    f"{call.name}() missing required argument {pname!r}")
            else:
                operands.append(Operand.lit(default))
        return operands

    def _bind_datagen_args(self, call: ast.Call,
                           spec: list[tuple[str, object]],
                           out: list) -> tuple[list[Operand], Operand | None]:
        """Like :meth:`_bind_named_args` plus an optional ``seed``.

        The AST is shared across compilations (builtin scripts are parsed
        once per process), so the call node must not be mutated.
        """
        named = dict(call.named_args)
        seed_expr = named.pop("seed", None)
        args = list(call.args)
        if len(args) == len(spec) + 1:  # trailing positional seed
            seed_expr = args.pop()
        call = ast.Call(call.name, args, named, call.line)
        operands = self._bind_named_args(call, spec, out)
        seed = (self.compile_expr(seed_expr, out)
                if seed_expr is not None else None)
        return operands, seed

    def _bind_call_args(self, call: ast.Call, func: FunctionProgram,
                        out: list) -> list[Operand]:
        """Resolve args against a script function's parameter list."""
        slots: dict[str, Operand] = {}
        if len(call.args) > len(func.params):
            raise LimaCompileError(
                f"{call.name}() takes at most {len(func.params)} arguments, "
                f"got {len(call.args)}")
        for pname, arg in zip(func.params, call.args):
            slots[pname] = self.compile_expr(arg, out)
        for key, value in call.named_args.items():
            if key not in func.params:
                raise LimaCompileError(
                    f"{call.name}() has no parameter {key!r}")
            if key in slots:
                raise LimaCompileError(
                    f"{call.name}() got duplicate argument {key!r}")
            slots[key] = self.compile_expr(value, out)
        operands: list[Operand] = []
        for pname in func.params:
            if pname in slots:
                operands.append(slots[pname])
            elif pname in func.defaults:
                operands.append(Operand.lit(func.defaults[pname]))
            else:
                raise LimaCompileError(
                    f"{call.name}() missing required argument {pname!r}")
        return operands


def compile_function_into(program: Program, name: str,
                          config: LimaConfig) -> FunctionProgram | None:
    """Compile a builtin-script function into an existing program.

    Used by the interpreter for ``eval``'s dynamic dispatch: the callee may
    not have been reachable at compile time.  Newly added functions (the
    callee plus its transitive dependencies) get the same post passes as a
    regular compile; existing blocks are left untouched.
    """
    comp = _Compiler(config)
    comp.program = program
    existing = set(program.functions)
    func = comp._resolve_function(name)
    if func is None:
        return None
    new_names = set(program.functions) - existing
    new_lists = [program.functions[n].blocks for n in new_names]
    for blocks in new_lists:
        annotate(blocks)
    if config.compiler_assist:
        for blocks in new_lists:
            assist_pass.apply_compiler_assistance(blocks, comp.new_temp)
    if config.fusion:
        for blocks in new_lists:
            fusion_pass.fuse_program_blocks(
                blocks, reuse_aware=config.reuse_enabled)
    for blocks in new_lists:
        mark_inplace_all(blocks)
        _insert_rmvar_all(blocks)
        annotate(blocks)
    _tag_determinism(program)
    _tag_dedup_eligibility(program)
    _mark_reuse_candidates(program)
    return func


# ---------------------------------------------------------------------------
# helpers and post passes
# ---------------------------------------------------------------------------

def _literal_value(expr: ast.Expr, fname: str):
    if isinstance(expr, ast.NumLit):
        return int(expr.value) if expr.is_int else expr.value
    if isinstance(expr, ast.StrLit):
        return expr.value
    if isinstance(expr, ast.BoolLit):
        return expr.value
    raise LimaCompileError(
        f"function {fname!r}: parameter defaults must be literals")


def _rename_output(inst, old: str, new: str) -> None:
    if hasattr(inst, "output") and inst.output == old:
        inst.output = new
        return
    if hasattr(inst, "_outputs"):
        inst._outputs = [new if o == old else o for o in inst._outputs]
        return
    if hasattr(inst, "dst") and inst.dst == old:
        inst.dst = new
        return
    raise LimaCompileError(f"cannot rename output {old!r} on {inst!r}")


def _transitive_writers(instructions: list, name: str) -> set[str]:
    """Names of variables read by the instruction producing ``name``."""
    for inst in reversed(instructions):
        if name in inst.outputs:
            return set(inst.input_names())
    return set()


def _insert_rmvar_all(blocks: list[ProgramBlock]) -> None:
    for block in blocks:
        if isinstance(block, BasicBlock):
            insert_rmvar(block, protected=set())
        elif isinstance(block, IfBlock):
            protected = ({block.pred.name}
                         if not block.pred.is_literal else set())
            insert_rmvar(block.cond_block, protected)
            _insert_rmvar_all(block.then_blocks)
            _insert_rmvar_all(block.else_blocks)
        elif isinstance(block, ForBlock):
            protected = {op.name for op in (block.range_ops or ())
                         if not op.is_literal}
            if block.seq_var:
                protected.add(block.seq_var)
            insert_rmvar(block.seq_block, protected)
            _insert_rmvar_all(block.body)
        elif isinstance(block, WhileBlock):
            protected = ({block.pred.name}
                         if not block.pred.is_literal else set())
            insert_rmvar(block.cond_block, protected)
            _insert_rmvar_all(block.body)


def _block_nondeterministic(block: ProgramBlock,
                            nondet_funcs: set[str]) -> bool:
    if isinstance(block, BasicBlock):
        for inst in block.instructions:
            if isinstance(inst, DataGenInstruction) and \
                    inst.seed_operand is None:
                return True
            if isinstance(inst, EvalInstruction):
                return True  # callee unknown at compile time
            if isinstance(inst, FunctionCallInstruction) and \
                    inst.fname in nondet_funcs:
                return True
        return False
    if isinstance(block, IfBlock):
        return (any(_block_nondeterministic(b, nondet_funcs)
                    for b in block.then_blocks + block.else_blocks)
                or _block_nondeterministic(block.cond_block, nondet_funcs))
    if isinstance(block, ForBlock):
        return (any(_block_nondeterministic(b, nondet_funcs)
                    for b in block.body)
                or _block_nondeterministic(block.seq_block, nondet_funcs))
    if isinstance(block, WhileBlock):
        return (any(_block_nondeterministic(b, nondet_funcs)
                    for b in block.body)
                or _block_nondeterministic(block.cond_block, nondet_funcs))
    return False


def _tag_determinism(program: Program) -> None:
    """Tag functions and blocks deterministic/non-deterministic (fixpoint)."""
    nondet: set[str] = set()
    changed = True
    while changed:
        changed = False
        for func in program.functions.values():
            if func.name in nondet:
                continue
            if any(_block_nondeterministic(b, nondet) for b in func.blocks):
                nondet.add(func.name)
                changed = True
    for func in program.functions.values():
        func.deterministic = func.name not in nondet
    for block in program.all_blocks():
        block.deterministic = not _block_nondeterministic(block, nondet)


def _count_branches(blocks: list[ProgramBlock], next_id: int) -> int:
    """Assign depth-first branch ids for dedup path bitvectors."""
    for block in blocks:
        if isinstance(block, IfBlock):
            block.branch_id = next_id
            next_id += 1
            next_id = _count_branches(block.then_blocks, next_id)
            next_id = _count_branches(block.else_blocks, next_id)
    return next_id


def _is_last_level(blocks: list[ProgramBlock]) -> bool:
    """True when the region contains no loops, function calls, or eval."""
    for block in blocks:
        if isinstance(block, (ForBlock, WhileBlock)):
            return False
        if isinstance(block, BasicBlock):
            for inst in block.instructions:
                if isinstance(inst, (FunctionCallInstruction,
                                     EvalInstruction)):
                    return False
        if isinstance(block, IfBlock):
            if not _is_last_level(block.then_blocks + block.else_blocks
                                  + [block.cond_block]):
                return False
    return True


def _mark_reuse_candidates(program: Program) -> None:
    """Flag basic blocks that are worth block-level reuse probing.

    A candidate is a deterministic straight-line block with at least two
    instructions including one compute-heavy operation — small blocks are
    cheaper to re-execute than to probe, and caching them pollutes the
    cache (Section 4.1).
    """
    for block in program.all_blocks():
        if not isinstance(block, BasicBlock) or not block.deterministic:
            continue
        compute = [inst for inst in block.instructions
                   if isinstance(inst, (ComputeInstruction,
                                        MultiReturnInstruction))]
        heavy = any(inst.row.heavy for inst in compute)
        unsafe = any(isinstance(inst, (FunctionCallInstruction,
                                       EvalInstruction, ReadInstruction,
                                       WriteInstruction, PrintInstruction,
                                       StopInstruction, StopIfInstruction,
                                       LineageOfInstruction))
                     for inst in block.instructions)
        block.reuse_candidate = heavy and len(compute) >= 2 and not unsafe


def _tag_dedup_eligibility(program: Program) -> None:
    for block in program.all_blocks():
        if isinstance(block, (ForBlock, WhileBlock)):
            block.last_level = _is_last_level(block.body)
            if block.last_level:
                block.num_branches = _count_branches(block.body, 0)
    for func in program.functions.values():
        func.last_level = _is_last_level(func.blocks)
        if func.last_level:
            func.num_branches = _count_branches(func.blocks, 0)
