"""The instruction interpreter with integrated lineage tracing and reuse.

Executes compiled programs block by block.  Per instruction, the main code
path is (Sections 3.1 and 4.1):

1. ``preprocess`` — fix non-determinism (draw system seeds),
2. trace lineage *before* execution,
3. probe the lineage cache for **full reuse** (acquire/fulfill protocol so
   concurrent parfor workers block on placeholders instead of recomputing),
4. probe **partial-reuse** rewrites with compensation plans,
5. execute the kernel, measure its time, and admit the output.

The interpreter also drives multi-level reuse (function and block level),
lineage deduplication of last-level loops (local tracing over placeholder
leaves, control-path bitvectors, fast mode once all paths have patches),
and hands ``parfor`` loops to the task-parallel executor.
"""

from __future__ import annotations

import time

from repro.compiler.program import (BasicBlock, ForBlock, FunctionProgram,
                                    IfBlock, Program, ProgramBlock,
                                    WhileBlock)
from repro.config import LimaConfig
from repro.data.values import (ListValue, ScalarValue, StringValue, Value,
                               wrap)
from repro.errors import LimaRuntimeError, LimaValueError
from repro.lineage.dedup import DedupTracker, make_dedup_items
from repro.lineage.item import LineageItem, traced_item
from repro.lineage.lmap import LineageMap
from repro.resilience.recovery import ResilienceManager
from repro.reuse.cache import LineageCache
from repro.reuse.multilevel import (block_call_item, block_output_item,
                                    function_call_item, function_output_item)
from repro.reuse.partial import try_partial_reuse
from repro.runtime import kernels as K
from repro.runtime.context import ExecutionContext, SeedSource
from repro.runtime.instructions.base import Operand
from repro.runtime.instructions.cp import (ComputeInstruction,
                                           DataGenInstruction,
                                           EvalInstruction,
                                           FunctionCallInstruction,
                                           IndexInstruction,
                                           LeftIndexInstruction,
                                           MultiReturnInstruction,
                                           VariableInstruction)

#: dedup is skipped for bodies with more branches than this — the number
#: of potential patches is exponential in the branch count (Section 3.2)
_MAX_DEDUP_BRANCHES = 10


class Interpreter:
    """Executes a compiled :class:`Program` under a :class:`LimaConfig`.

    The interpreter builds none of the shared machinery: the lineage
    cache, memory manager, buffer pool and reuse oracle are the ones it
    is given (``None`` means none; :class:`~repro.api.LimaSession` owns
    them).  Only the resilience manager has a private default.
    """

    def __init__(self, program: Program, config: LimaConfig,
                 cache: LineageCache | None = None,
                 output: list[str] | None = None,
                 base_seed: int = 42,
                 pool=None, memory=None, resilience=None, verifier=None,
                 budget=None):
        config.validate()
        self.program = program
        self.config = config
        #: optional RequestBudget: deadline/cancellation checks are
        #: compiled into the dispatch handlers only when one is armed,
        #: so unbudgeted runs keep the bare hot path
        self.budget = budget
        self.cache = cache
        self.output = output if output is not None else []
        self.base_seed = base_seed
        # scalar value-numbering: when reuse is on, a computed scalar's
        # lineage is rebound to its literal value (as in SystemDS), so
        # value-equal hyper-parameters match regardless of how they were
        # computed — this is what lets lmDS calls with the same (reg,
        # icpt) reuse across different tol configs (paper Section 2.3)
        self._scalarize = config.reuse_enabled
        self.buffer_pool = pool
        self.memory = memory
        self.resilience = (resilience if resilience is not None
                           else ResilienceManager(config))
        #: reuse-correctness oracle checking sampled hits (verify_reuse)
        self.verifier = verifier
        #: armed exec.instruction fault site (None = zero-cost hot path)
        self._exec_site = self.resilience.site("exec.instruction")
        #: the per-run facts compiled into dispatch handlers besides the
        #: config: (cache present, budget armed, fault site armed).  Runs
        #: with equal profiles share one handler list per block.
        self._profile = (cache is not None, budget is not None,
                         self._exec_site is not None)
        # dedup trackers persist per loop block, so re-entering a loop
        # (e.g. per epoch) reuses its lineage patches instead of re-tracing
        self._dedup_trackers: dict[int, DedupTracker] = {}
        #: optional OpProfiler recording per-opcode counts and times
        self.profiler = None

    # ------------------------------------------------------------------
    # entry points
    # ------------------------------------------------------------------

    def new_root_context(self) -> ExecutionContext:
        return ExecutionContext(self,
                                seeds=SeedSource(self.base_seed),
                                output=self.output)

    # ------------------------------------------------------------------
    # block dispatch
    # ------------------------------------------------------------------

    def execute_blocks(self, ctx: ExecutionContext,
                       blocks: list[ProgramBlock]) -> None:
        for block in blocks:
            self.execute_block(ctx, block)

    def execute_block(self, ctx: ExecutionContext,
                      block: ProgramBlock) -> None:
        if isinstance(block, BasicBlock):
            self.execute_basic(ctx, block)
        elif isinstance(block, IfBlock):
            self.execute_if(ctx, block)
        elif isinstance(block, ForBlock):
            self.execute_for(ctx, block)
        elif isinstance(block, WhileBlock):
            self.execute_while(ctx, block)
        else:
            raise LimaRuntimeError(f"unknown block type {type(block)}")

    # ------------------------------------------------------------------
    # basic blocks (with block-level multi-level reuse)
    # ------------------------------------------------------------------

    def execute_basic(self, ctx: ExecutionContext,
                      block: BasicBlock) -> None:
        if (self.config.reuse_multilevel and self.cache is not None
                and ctx.lineage_active and ctx.dedup_tracker is None
                and block.reuse_candidate and block.deterministic):
            if self._execute_block_with_reuse(ctx, block):
                return
        self._execute_instructions(ctx, block)

    @staticmethod
    def _cacheable_outputs(block: ProgramBlock) -> list[str]:
        return sorted(o for o in block.outputs if not o.startswith("_t"))

    def _execute_block_with_reuse(self, ctx: ExecutionContext,
                                  block: BasicBlock) -> bool:
        """Probe/execute a block under block-level reuse; True if handled."""
        input_names = sorted(block.inputs)
        input_items = []
        for name in input_names:
            item = ctx.lineage.get_or_none(name)
            if item is None:
                return False
            input_items.append(item)
        outputs = self._cacheable_outputs(block)
        if not outputs:
            return False
        call_item = block_call_item(f"b{id(block)}", input_items)
        out_items = {o: block_output_item(call_item, o) for o in outputs}
        hits = {}
        for name, item in out_items.items():
            hit = self.cache.probe(item)
            if hit is None:
                hits = None
                break
            hits[name] = hit
        if hits is not None:
            self.cache.stats.multilevel_hits += 1
            for name, hit in hits.items():
                if self.verifier is not None:
                    self.verifier.check("multilevel", out_items[name],
                                        hit.value, hit.lineage)
                ctx.symbols.set(name, hit.value)
                ctx.lineage.set(name, hit.lineage)
            return True
        start = time.perf_counter()
        self._execute_instructions(ctx, block)
        elapsed = time.perf_counter() - start
        for name, item in out_items.items():
            value = ctx.symbols.get_or_none(name)
            root = ctx.lineage.get_or_none(name)
            if value is not None and root is not None:
                self._admit(item, value, root, elapsed)
        return True

    # ------------------------------------------------------------------
    # instructions
    # ------------------------------------------------------------------

    def _execute_instructions(self, ctx: ExecutionContext,
                              block: BasicBlock) -> None:
        """Run a basic block's instructions through compiled dispatch.

        Handlers are compiled once per block and static profile (the
        config plus :attr:`_profile`) and shared by every interpreter
        that runs the program: every instruction gets a specialized
        closure with its class dispatch and static config decisions
        pre-resolved (see :func:`_compile_handler`).  Subsequent
        executions of the block, in any session, are a flat loop of
        indirect calls.
        """
        entry = block.handlers.get(self._profile)
        if entry is None or entry[0] is not self.config:
            # concurrent first runs may both compile; the last writer
            # wins and a published list is never mutated
            entry = (self.config,
                     [_compile_handler(inst, self.config, self._profile)
                      for inst in block.instructions])
            block.handlers[self._profile] = entry
        handlers = entry[1]
        instructions = block.instructions
        profiler = self.profiler
        if profiler is None or not profiler.enabled:
            for pos, handler in enumerate(handlers):
                try:
                    handler(ctx)
                except (LimaRuntimeError, LimaValueError, ValueError,
                        FloatingPointError, ZeroDivisionError) as exc:
                    self._raise_located(instructions[pos], exc)
            return
        perf = time.perf_counter
        record = profiler.record
        for pos, handler in enumerate(handlers):
            start = perf()
            try:
                handler(ctx)
            except (LimaRuntimeError, LimaValueError, ValueError,
                    FloatingPointError, ZeroDivisionError) as exc:
                self._raise_located(instructions[pos], exc)
            record(instructions[pos].opcode, perf() - start)

    @staticmethod
    def _raise_located(inst, exc) -> None:
        """Re-raise an execution failure with script source context.

        :class:`LimaValueError` and subclasses of
        :class:`LimaRuntimeError` (worker crashes in particular) are
        preserved, so callers that dispatch on the error type — the
        parfor retry ladder — still see what happened.
        """
        cls = LimaRuntimeError
        if isinstance(exc, (LimaRuntimeError, LimaValueError)):
            if getattr(exc, "located", False) or not inst.line:
                raise exc
            cls = type(exc)
        error = cls(f"line {inst.line} ({inst.opcode}): {exc}")
        error.located = True
        raise error from exc

    def _bind_lineage(self, ctx, name: str, item: LineageItem) -> None:
        """Bind an output's lineage, value-numbering scalars under reuse.

        Skipped inside dedup tracing: patches must stay parameterized in
        the loop inputs rather than baking per-iteration scalar values.
        """
        if self._scalarize and ctx.dedup_tracker is None:
            value = ctx.symbols.get_or_none(name)
            if isinstance(value, ScalarValue):
                item = ctx.lineage.literal(value.value)
            elif isinstance(value, StringValue):
                item = ctx.lineage.literal(value.value)
        ctx.lineage.set(name, item)

    def _execute_with_full_reuse(self, ctx, inst, state, items) -> None:
        out = inst.outputs[0]
        item = items[out]
        status, payload = self.cache.acquire(item)
        if status == "hit":
            if self.verifier is not None:
                self.verifier.check("full", item, payload.value,
                                    payload.lineage)
            ctx.symbols.set(out, payload.value)
            self._bind_lineage(ctx, out, payload.lineage or item)
            return
        if status == "wait":
            result = self.cache.wait_for(payload, budget=self.budget)
            if result is not None:
                if self.verifier is not None:
                    self.verifier.check("full", item, result.value,
                                        result.lineage)
                ctx.symbols.set(out, result.value)
                self._bind_lineage(ctx, out, result.lineage or item)
                return
            # the producer aborted: compute locally without caching
            inst.execute(ctx, state)
            self._bind_lineage(ctx, out, item)
            return
        # reserved: we are the producer
        try:
            if (self.config.reuse_partial
                    and isinstance(inst, ComputeInstruction)):
                values = [op.resolve(ctx) for op in inst.operands]
                start = time.perf_counter()
                partial = try_partial_reuse(item, values, self.cache)
                if partial is not None:
                    elapsed = time.perf_counter() - start
                    if self.verifier is not None:
                        self.verifier.check("partial", item, partial)
                    ctx.symbols.set(out, partial)
                    self._bind_lineage(ctx, out, item)
                    self._admit(item, partial, item, elapsed, reserved=True)
                    return
            start = time.perf_counter()
            inst.execute(ctx, state)
            elapsed = time.perf_counter() - start
            # the output fetch and admission stay inside the guard: a
            # buffer-pool restore failure (or a budget trip) after the
            # kernel used to orphan the placeholder and hang waiters
            value = ctx.symbols.get(out)
            self._bind_lineage(ctx, out, item)
            self._admit(item, value, item, elapsed, reserved=True)
        except BaseException:
            # abort is a no-op once the entry is fulfilled, so this is
            # safe wherever the exception originated
            self.cache.abort(item)
            raise

    def _admit(self, item, value, root, elapsed, reserved=False) -> None:
        """Admit a computed value, honoring the session's memory share.

        When the per-session share is spent the value is simply not
        cached — a held reservation is aborted so waiters recompute.
        """
        budget = self.budget
        if budget is not None and not budget.allow_admission(value.nbytes()):
            if reserved:
                self.cache.abort(item)
            return
        self.cache.fulfill(item, value, root, elapsed)

    def _execute_multireturn_with_reuse(self, ctx, inst, state,
                                        items) -> None:
        hits = {}
        for name, item in items.items():
            hit = self.cache.probe(item)
            if hit is None:
                hits = None
                break
            hits[name] = (item, hit)
        if hits is not None:
            for name, (item, hit) in hits.items():
                if self.verifier is not None:
                    self.verifier.check("full", item, hit.value, hit.lineage)
                ctx.symbols.set(name, hit.value)
                self._bind_lineage(ctx, name, hit.lineage or item)
            return
        start = time.perf_counter()
        inst.execute(ctx, state)
        elapsed = time.perf_counter() - start
        for name, item in items.items():
            value = ctx.symbols.get_or_none(name)
            self._bind_lineage(ctx, name, item)
            if value is not None:
                self._admit(item, value, item, elapsed)

    # ------------------------------------------------------------------
    # function calls and eval
    # ------------------------------------------------------------------

    def get_function(self, name: str) -> FunctionProgram:
        """Resolve a function, compiling builtin scripts on demand."""
        func = self.program.functions.get(name)
        if func is not None:
            return func
        from repro.compiler.compiler import compile_function_into
        # the lock lives on the (possibly shared) Program: concurrent
        # sessions running the same compiled script must not race on its
        # function dictionary
        with self.program.compile_lock:
            func = self.program.functions.get(name)
            if func is None:
                func = compile_function_into(self.program, name, self.config)
        if func is None:
            raise LimaRuntimeError(f"unknown function {name!r}")
        return func

    def execute_function_call(self, ctx: ExecutionContext,
                              inst: FunctionCallInstruction) -> None:
        func = self.get_function(inst.fname)
        arg_values = [op.resolve(ctx) for op in inst.operands]
        arg_items = ([op.lineage(ctx) for op in inst.operands]
                     if ctx.lineage_active else None)
        self.call_function(ctx, func, arg_values, arg_items, inst.outputs)

    def call_function(self, ctx: ExecutionContext, func: FunctionProgram,
                      arg_values: list[Value],
                      arg_items: list[LineageItem] | None,
                      out_names: list[str]) -> None:
        """Invoke a function with multi-level reuse (Section 4.1)."""
        if len(out_names) > len(func.outputs):
            raise LimaRuntimeError(
                f"{func.name}() returns {len(func.outputs)} values, "
                f"{len(out_names)} requested")
        reuse = (self.config.reuse_multilevel and self.cache is not None
                 and arg_items is not None and func.deterministic
                 and ctx.dedup_tracker is None)
        out_items = None
        if reuse:
            call_item = function_call_item(func.name, arg_items)
            out_items = {o: function_output_item(call_item, o)
                         for o in func.outputs}
            hits = {}
            for name, item in out_items.items():
                hit = self.cache.probe(item)
                if hit is None:
                    hits = None
                    break
                hits[name] = hit
            if hits is not None:
                self.cache.stats.multilevel_hits += 1
                for fo, target in zip(func.outputs, out_names):
                    if self.verifier is not None:
                        self.verifier.check("multilevel", out_items[fo],
                                            hits[fo].value, hits[fo].lineage)
                    ctx.symbols.set(target, hits[fo].value)
                    if ctx.lineage_active:
                        ctx.lineage.set(target, hits[fo].lineage)
                return

        frame = ctx.child_frame()
        frame.lineage_suppressed = ctx.lineage_suppressed
        frame.dedup_tracker = ctx.dedup_tracker
        frame.leftindex_log = None
        frame.in_parfor_worker = ctx.in_parfor_worker
        for pname, value, pos in zip(func.params, arg_values,
                                     range(len(arg_values))):
            frame.symbols.set(pname, value)
            if frame.lineage_active:
                frame.lineage.set(pname, arg_items[pos])
        start = time.perf_counter()
        self.execute_blocks(frame, func.blocks)
        elapsed = time.perf_counter() - start

        for fo, target in zip(func.outputs, out_names):
            value = frame.symbols.get_or_none(fo)
            if value is None:
                raise LimaRuntimeError(
                    f"{func.name}() did not assign output {fo!r}")
            ctx.symbols.set(target, value)
            if ctx.lineage_active:
                ctx.lineage.set(target, frame.lineage.get(fo))
        if reuse:
            for fo in func.outputs:
                value = frame.symbols.get_or_none(fo)
                root = frame.lineage.get_or_none(fo)
                if value is not None and root is not None:
                    self._admit(out_items[fo], value, root, elapsed)

    def execute_eval(self, ctx: ExecutionContext,
                     inst: EvalInstruction) -> None:
        """``eval(fname, args)`` — dynamic dispatch by function name."""
        fname_v = inst.fname.resolve(ctx)
        if not isinstance(fname_v, StringValue):
            raise LimaRuntimeError("eval() requires a string function name")
        func = self.get_function(fname_v.value)
        args_v = inst.args.resolve(ctx)
        if not isinstance(args_v, ListValue):
            raise LimaRuntimeError("eval() requires a list of arguments")
        list_item = (ctx.lineage.get_or_none(inst.args.name)
                     if ctx.lineage_active and not inst.args.is_literal
                     else None)
        elem_items = (_list_element_items(list_item)
                      if list_item is not None else None)
        if ctx.lineage_active and (elem_items is None
                                   or len(elem_items) != len(args_v.items)):
            raise LimaRuntimeError(
                "eval() over a list with opaque lineage is not supported "
                "while lineage tracing is enabled")

        # map list elements (by name when present, else positionally)
        values: dict[str, Value] = {}
        items: dict[str, LineageItem] = {}
        for pos, value in enumerate(args_v.items):
            if args_v.names is not None and args_v.names[pos]:
                pname = args_v.names[pos]
            elif pos < len(func.params):
                pname = func.params[pos]
            else:
                raise LimaRuntimeError(
                    f"eval: too many arguments for {func.name!r}")
            values[pname] = value
            if elem_items is not None and ctx.lineage_active:
                items[pname] = elem_items[pos]

        arg_values = []
        arg_items: list[LineageItem] | None = \
            [] if ctx.lineage_active else None
        for pname in func.params:
            if pname in values:
                arg_values.append(values[pname])
                if arg_items is not None:
                    arg_items.append(items[pname])
            elif pname in func.defaults:
                default = func.defaults[pname]
                arg_values.append(_wrap_literal(default))
                if arg_items is not None:
                    arg_items.append(ctx.lineage.literal(default))
            else:
                raise LimaRuntimeError(
                    f"eval: missing argument {pname!r} for {func.name!r}")
        self.call_function(ctx, func, arg_values, arg_items, [inst.output])

    # ------------------------------------------------------------------
    # control flow
    # ------------------------------------------------------------------

    def _cleanup_temp(self, ctx: ExecutionContext, operand: Operand) -> None:
        if not operand.is_literal and operand.name.startswith("_t"):
            ctx.symbols.remove(operand.name)
            if ctx.lineage_active:
                ctx.lineage.remove(operand.name)

    def execute_if(self, ctx: ExecutionContext, block: IfBlock) -> None:
        self._execute_instructions(ctx, block.cond_block)
        taken = K.as_scalar(block.pred.resolve(ctx)).as_bool()
        if ctx.dedup_tracker is not None:
            ctx.dedup_tracker.record_branch(block.branch_id, taken)
        self._cleanup_temp(ctx, block.pred)
        self.execute_blocks(ctx, block.then_blocks if taken
                            else block.else_blocks)

    def _loop_values(self, ctx: ExecutionContext,
                     block: ForBlock) -> list[float]:
        self._execute_instructions(ctx, block.seq_block)
        if block.range_ops is not None:
            lo_op, hi_op, step_op = block.range_ops
            lo = K.as_scalar(lo_op.resolve(ctx)).as_int()
            hi = K.as_scalar(hi_op.resolve(ctx)).as_int()
            step = K.as_scalar(step_op.resolve(ctx)).as_int()
            if step == 0:  # auto direction, R-style: 3:1 iterates 3,2,1
                step = 1 if hi >= lo else -1
            values = list(range(lo, hi + (1 if step > 0 else -1), step))
            for op in block.range_ops:
                self._cleanup_temp(ctx, op)
            return values
        seq = ctx.symbols.get(block.seq_var)
        values = [float(v) for v in K.as_matrix(seq).data.ravel()]
        if block.seq_var.startswith("_t"):
            ctx.symbols.remove(block.seq_var)
            if ctx.lineage_active:
                ctx.lineage.remove(block.seq_var)
        return values

    def bind_loop_var(self, ctx: ExecutionContext, var: str,
                      value: float) -> None:
        scalar = int(value) if float(value).is_integer() else float(value)
        ctx.symbols.set(var, ScalarValue(scalar))
        if ctx.lineage_active:
            ctx.lineage.set(var, ctx.lineage.literal(scalar))

    def execute_for(self, ctx: ExecutionContext, block: ForBlock) -> None:
        values = self._loop_values(ctx, block)
        if not values:
            return
        if block.parallel and len(values) > 1:
            from repro.runtime.parfor import execute_parfor
            execute_parfor(self, ctx, block, values)
            return
        tracker = self._dedup_tracker(ctx, block, block.var)
        budget = self.budget
        for value in values:
            if budget is not None:
                budget.check()
            self.bind_loop_var(ctx, block.var, value)
            if tracker is None:
                self.execute_blocks(ctx, block.body)
            else:
                self._dedup_iteration(ctx, tracker, block)

    def execute_while(self, ctx: ExecutionContext,
                      block: WhileBlock) -> None:
        tracker = self._dedup_tracker(ctx, block)
        budget = self.budget
        while True:
            # loop-head budget check: guarantees a cancellation point per
            # iteration even when the condition block compiles to nothing
            if budget is not None:
                budget.check()
            self._execute_instructions(ctx, block.cond_block)
            taken = K.as_scalar(block.pred.resolve(ctx)).as_bool()
            self._cleanup_temp(ctx, block.pred)
            if not taken:
                return
            if tracker is None:
                self.execute_blocks(ctx, block.body)
            else:
                self._dedup_iteration(ctx, tracker, block)

    # ------------------------------------------------------------------
    # lineage deduplication of last-level loops (Section 3.2)
    # ------------------------------------------------------------------

    def _dedup_tracker(self, ctx: ExecutionContext, block,
                       loop_var: str | None = None) -> DedupTracker | None:
        """The loop's dedup tracker, or None when the loop runs plain.

        Trackers persist per loop block and are reused across loop
        entries (epochs).  The loop variable needs no lineage on entry:
        every iteration binds it before the body runs.
        """
        if not (self.config.dedup and self.config.lineage
                and block.last_level
                and block.num_branches <= _MAX_DEDUP_BRANCHES
                and ctx.dedup_tracker is None
                and not ctx.lineage_suppressed
                and not ctx.in_parfor_worker
                and not getattr(block, "parallel", False)):
            return None
        input_names = sorted(block.inputs if loop_var is None
                             else {*block.inputs, loop_var})
        if not all(name == loop_var or ctx.lineage.contains(name)
                   for name in input_names):
            return None
        tracker = self._dedup_trackers.get(id(block))
        if tracker is None or tracker.input_names != input_names:
            tracker = DedupTracker(input_names, block.num_branches)
            self._dedup_trackers[id(block)] = tracker
        return tracker

    def _dedup_iteration(self, ctx: ExecutionContext, tracker: DedupTracker,
                         block) -> None:
        tracker.begin_iteration()
        # capture actual input lineage before the iteration mutates anything
        actual_inputs = [ctx.lineage.get(name)
                         for name in tracker.input_names]
        outer_lineage = ctx.lineage
        roots = None
        try:
            ctx.dedup_tracker = tracker
            if tracker.fast_mode:
                ctx.lineage_suppressed = True
                self.execute_blocks(ctx, block.body)
            else:
                local = LineageMap()
                for pos, name in enumerate(tracker.input_names):
                    local.set(name, tracker.placeholders[pos])
                ctx.lineage = local
                self.execute_blocks(ctx, block.body)
                roots = {}
                for name in self._cacheable_outputs(block):
                    item = local.get_or_none(name)
                    if item is not None:
                        roots[name] = item
        finally:
            ctx.lineage = outer_lineage
            ctx.lineage_suppressed = False
            ctx.dedup_tracker = None

        patch, seeds = tracker.finish_iteration(roots)
        _, douts = make_dedup_items(patch, actual_inputs, seeds)
        for name, item in douts.items():
            ctx.lineage.set(name, item)


# ----------------------------------------------------------------------
# handler compilation
# ----------------------------------------------------------------------
#
# Handlers are shared by every interpreter that runs a program, so they
# close over the instruction and the static profile only.  Per-run state
# — cache, verifier, budget, memory share, fault site — is read through
# ``ctx.interpreter`` at execution time.

def _compile_handler(inst, config: LimaConfig, profile: tuple):
    """Bind one instruction to a specialized execution closure.

    ``profile`` is the interpreter's ``(cache present, budget armed,
    fault site armed)``.  The ``exec.instruction`` fault site and the
    :class:`RequestBudget` checks are compiled in only when armed:
    unarmed, unbudgeted runs (the only kind outside chaos testing and
    the service) get the bare handler with no per-execution check at
    all.  With a budget, every instruction boundary is a cooperative
    cancellation point: the running session's ``budget.tick`` counts the
    instruction and raises ``DeadlineExceeded`` / ``SessionCancelled``
    when the budget has tripped.
    """
    cached, budgeted, faulted = profile
    handler = _build_handler(inst, config, cached)
    if faulted:
        handler = _fire_first(handler)
    if budgeted:
        handler = _tick_first(handler)
    return handler


def _fire_first(handler):
    """``handler`` behind the running session's fault site."""
    def run(ctx):
        ctx.interpreter._exec_site.fire()
        handler(ctx)
    return run


def _tick_first(handler):
    """``handler`` behind the running session's budget check."""
    def run(ctx):
        ctx.interpreter.budget.tick()
        handler(ctx)
    return run


def _reuse_eligible(inst, config: LimaConfig, cached: bool) -> bool:
    """Can full reuse ever apply to ``inst`` under this profile?"""
    return (cached and config.reuse_full
            and inst.reusable and not inst.unmarked)


def _build_handler(inst, config: LimaConfig, cached: bool):
    """Specialize one instruction's execution closure.

    Static facts — the instruction's class, whether lineage tracing is
    configured at all, whether full reuse can ever apply to this
    instruction under this profile — are resolved here, once.  Only
    genuinely dynamic state (active dedup tracker, lineage suppression in
    dedup fast mode) is checked per execution.
    """
    if isinstance(inst, VariableInstruction):
        execute = inst.execute
        return lambda ctx: execute(ctx, None)
    if isinstance(inst, FunctionCallInstruction):
        return lambda ctx: ctx.interpreter.execute_function_call(ctx, inst)
    if isinstance(inst, EvalInstruction):
        return lambda ctx: ctx.interpreter.execute_eval(ctx, inst)

    preprocess = inst.preprocess
    execute = inst.execute
    is_leftindex = isinstance(inst, LeftIndexInstruction)

    if isinstance(inst, ComputeInstruction):
        handler = _compile_compute_handler(inst, config, cached)
        if handler is not None:
            return handler

    if not config.lineage:
        # static untraced path: no lineage, hence no reuse and no
        # dedup; left-index updates are still recorded for parfor
        if is_leftindex:
            def run_untraced(ctx):
                execute(ctx, preprocess(ctx))
                if ctx.leftindex_log is not None:
                    _record_leftindex(ctx, inst)
            return run_untraced

        def run_plain(ctx):
            execute(ctx, preprocess(ctx))
        return run_plain

    lineage = inst.lineage
    is_datagen = isinstance(inst, DataGenInstruction)
    reuse_ok = _reuse_eligible(inst, config, cached)
    single_out = len(inst.outputs) == 1

    def run_traced(ctx):
        state = preprocess(ctx)
        tracker = ctx.dedup_tracker
        if is_datagen and tracker is not None and state.get("system"):
            tracker.record_seed(state["seed"])
        items = lineage(ctx, state) if ctx.lineage_active else None
        if reuse_ok and items is not None and tracker is None:
            if single_out:
                ctx.interpreter._execute_with_full_reuse(
                    ctx, inst, state, items)
            else:
                ctx.interpreter._execute_multireturn_with_reuse(
                    ctx, inst, state, items)
            return
        execute(ctx, state)
        if items:
            bind = ctx.interpreter._bind_lineage
            for name, item in items.items():
                bind(ctx, name, item)
        if is_leftindex and ctx.leftindex_log is not None:
            _record_leftindex(ctx, inst)
    return run_traced


def _compile_compute_handler(inst, config: LimaConfig, cached: bool):
    """Fused fast path for :class:`ComputeInstruction`.

    Pure n-in/1-out computations dominate elementwise workloads, so
    their three-phase protocol (``preprocess``/``lineage``/``execute``)
    is collapsed into one closure over prebound operand accessors and
    the kernel.  Instructions that may go through the reuse machinery
    keep the generic handler (``None`` is returned), as do data-gen,
    indexing, and multi-return instructions.
    """
    if _reuse_eligible(inst, config, cached):
        return None
    opcode = inst.opcode
    out = inst.output
    kernel = inst.row.kernel
    inplace_slots = inst.inplace_slots
    execute_inplace = inst._execute_inplace
    traced = config.lineage
    # operand specs: (variable name | None, prewrapped literal value,
    # raw literal value).  Literal operands are wrapped once here —
    # wrapped values are immutable by convention and in-place slots
    # never point at literals (see liveness.mark_inplace)
    specs = [(None if op.is_literal else op.name,
              wrap(op.value) if op.is_literal else None,
              op.value)
             for op in inst.operands]

    # lineage binding specializes on the static scalarize flag
    # (``config.reuse_enabled``, see Interpreter._scalarize):
    # value-numbering needs the full _bind_lineage, plain tracing is a
    # direct store into the lineage map.  Missing operand lineage
    # surfaces through LineageMap.get for the proper error.
    if config.reuse_enabled:
        def store(ctx, lmap, item):
            ctx.interpreter._bind_lineage(ctx, out, item)
    else:
        def store(ctx, lmap, item):
            lmap._map[out] = item

    if len(specs) == 2:
        (n0, w0, r0), (n1, w1, r1) = specs

        def run_binary(ctx):
            symbols = ctx.symbols
            v0 = w0 if n0 is None else symbols.get(n0)
            v1 = w1 if n1 is None else symbols.get(n1)
            result = None
            if inplace_slots and ctx.allow_inplace:
                result = execute_inplace([v0, v1])
            if result is None:
                result = kernel(v0, v1)
            symbols.set(out, result)
            if traced and not ctx.lineage_suppressed:
                lmap = ctx.lineage
                m = lmap._map
                i0 = lmap.literal(r0) if n0 is None else m.get(n0)
                i1 = lmap.literal(r1) if n1 is None else m.get(n1)
                if i0 is None or i1 is None:
                    i0 = lmap.get(n0) if i0 is None else i0
                    i1 = lmap.get(n1) if i1 is None else i1
                store(ctx, lmap, traced_item(opcode, (i0, i1)))
        return run_binary

    if len(specs) == 1:
        n0, w0, r0 = specs[0]

        def run_unary(ctx):
            symbols = ctx.symbols
            v0 = w0 if n0 is None else symbols.get(n0)
            result = None
            if inplace_slots and ctx.allow_inplace:
                result = execute_inplace([v0])
            if result is None:
                result = kernel(v0)
            symbols.set(out, result)
            if traced and not ctx.lineage_suppressed:
                lmap = ctx.lineage
                i0 = (lmap.literal(r0) if n0 is None
                      else lmap._map.get(n0))
                if i0 is None:
                    i0 = lmap.get(n0)
                store(ctx, lmap, traced_item(opcode, (i0,)))
        return run_unary

    def run_compute(ctx):
        symbols = ctx.symbols
        values = [w if n is None else symbols.get(n)
                  for n, w, _ in specs]
        if inplace_slots and ctx.allow_inplace:
            result = execute_inplace(values)
            if result is None:
                result = kernel(*values)
        else:
            result = kernel(*values)
        symbols.set(out, result)
        if traced and not ctx.lineage_suppressed:
            lmap = ctx.lineage
            lget = lmap.get
            item = traced_item(
                opcode,
                tuple(lmap.literal(raw) if n is None else lget(n)
                      for n, _, raw in specs))
            store(ctx, lmap, item)
    return run_compute


def _record_leftindex(ctx, inst: LeftIndexInstruction) -> None:
    """Record a left-index update for parfor result merge."""
    rows = IndexInstruction.resolve_spec(inst.row_spec, ctx)
    cols = IndexInstruction.resolve_spec(inst.col_spec, ctx)
    source = inst.source.resolve(ctx)
    if ctx.lineage_active and not inst.source.is_literal:
        src_item = ctx.lineage.get_or_none(inst.source.name)
    elif inst.source.is_literal:
        src_item = ctx.lineage.literal(inst.source.value) \
            if ctx.lineage_active else None
    else:
        src_item = None
    ctx.leftindex_log.append(
        (inst.output, rows, cols, source, src_item))


def _wrap_literal(value) -> Value:
    if isinstance(value, str):
        return StringValue(value)
    return ScalarValue(value)


def _list_element_items(item: LineageItem) -> list[LineageItem] | None:
    """Per-element lineage items of a list lineage (``list``/``lappend``)."""
    if item.opcode == "list":
        return list(item.inputs)
    if item.opcode == "lappend":
        head = _list_element_items(item.inputs[0])
        if head is None:
            return None
        return head + [item.inputs[2]]
    return None
