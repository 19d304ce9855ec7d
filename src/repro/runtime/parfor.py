"""Task-parallel ``parfor`` execution with result merge (Section 3.3).

Each iteration runs in an isolated worker context: a shallow copy of the
parent symbol table (values are immutable by convention), a worker-local
lineage map sharing the common input lineage, and an independently spawned
seed source so execution is deterministic regardless of scheduling.

Workers share the session's lineage cache; placeholder entries make
concurrent workers block on a key being computed instead of recomputing it
(Section 4.1).

Result merge (in iteration order, so semantics match the sequential loop):

* variables updated via left-indexing in the body are merged by replaying
  each worker's recorded ``(rows, cols, value)`` updates onto the parent's
  copy — the common ``B[, i] = ...`` accumulation pattern,
* any other variable assigned in the body takes the last iteration's value
  (and its worker-traced lineage root), linearizing the lineage graph.

Fault tolerance: each iteration's outcome (a completed worker context or
the exception that killed it) is collected individually, so one crashing
worker never abandons its siblings.  Failed iterations are retried on
*fresh* worker contexts — ``worker_copy(k)`` spawns seeds as a pure
function of the iteration index, so a retry replays the iteration
bit-identically — up to ``parfor_retries`` rounds, then once more
sequentially in the calling thread.  Iterations still failing after
every tier raise a structured :class:`~repro.errors.ParforError` naming
exactly which iterations were lost and why.  Worker print output is
buffered per iteration and flushed in iteration order only after the
loop completes, so retries never duplicate output.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from typing import TYPE_CHECKING

from repro.data.values import MatrixValue
from repro.errors import LimaRuntimeError, ParforError, SessionAborted
from repro.lineage.item import LineageItem
from repro.runtime import kernels as K
from repro.runtime.context import ExecutionContext
from repro.service.budget import activate_budget

if TYPE_CHECKING:
    from repro.compiler.program import ForBlock
    from repro.runtime.interpreter import Interpreter


def execute_parfor(interpreter: "Interpreter", ctx: ExecutionContext,
                   block: "ForBlock", values: list[float]) -> None:
    workers = (interpreter.config.parfor_workers
               or min(len(values), _default_workers()))
    resilience = getattr(interpreter, "resilience", None)
    site = (resilience.site("parfor.iteration")
            if resilience is not None else None)
    stats = resilience.stats if resilience is not None else None
    retries = resilience.parfor_retries if resilience is not None else 0
    n = len(values)

    def fresh_context(k: int) -> ExecutionContext:
        # worker_copy(k) spawns seeds as a pure function of k, so a
        # context built for a retry replays the iteration bit-identically
        wctx = ctx.worker_copy(k)
        wctx.output = []  # buffered; flushed in iteration order at the end
        interpreter.bind_loop_var(wctx, block.var, values[k])
        return wctx

    budget = interpreter.budget

    def attempt(k: int) -> ExecutionContext | Exception:
        """Run one iteration; its outcome is the context or the error."""
        # re-activate the owning session's budget on this worker thread,
        # so spill waits and placeholder waits deep inside the iteration
        # observe the session's deadline/cancellation
        previous = activate_budget(budget)
        try:
            if budget is not None:
                budget.check()
            wctx = fresh_context(k)
            if site is not None:
                site.fire()
            interpreter.execute_blocks(wctx, block.body)
            return wctx
        except Exception as exc:
            return exc
        finally:
            activate_budget(previous)

    def sweep(indices: list[int]) -> list:
        if workers <= 1 or len(indices) <= 1:
            return [attempt(k) for k in indices]
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(attempt, indices))

    def check_aborted(outcome_list: list) -> None:
        # a tripped budget is not a fault to retry: surface it now so the
        # session unwinds (releasing its placeholders on the way out)
        for outcome in outcome_list:
            if isinstance(outcome, SessionAborted):
                raise outcome

    outcomes: list = sweep(list(range(n)))
    check_aborted(outcomes)
    failed = [k for k in range(n)
              if not isinstance(outcomes[k], ExecutionContext)]

    # retry rounds on fresh worker contexts
    for _ in range(retries):
        if not failed:
            break
        if stats is not None:
            stats.parfor_retries += len(failed)
        for k, outcome in zip(failed, sweep(failed)):
            outcomes[k] = outcome
            if isinstance(outcome, ExecutionContext) and stats is not None:
                stats.parfor_recovered += 1
        check_aborted(outcomes)
        failed = [k for k in failed
                  if not isinstance(outcomes[k], ExecutionContext)]

    # last tier: sequential re-execution in the calling thread
    if failed:
        if stats is not None:
            stats.parfor_sequential_fallbacks += 1
        for k in list(failed):
            outcome = attempt(k)
            outcomes[k] = outcome
            if isinstance(outcome, ExecutionContext) and stats is not None:
                stats.parfor_recovered += 1
        check_aborted(outcomes)
        failed = [k for k in failed
                  if not isinstance(outcomes[k], ExecutionContext)]

    if failed:
        if stats is not None:
            stats.parfor_failed_iterations += len(failed)
        causes = [outcomes[k] for k in failed]
        detail = "; ".join(
            f"iteration {k}: {type(c).__name__}: {c}"
            for k, c in zip(failed, causes))
        raise ParforError(
            f"{len(failed)} of {n} parfor iteration(s) failed after "
            f"{retries} retry round(s) and a sequential fallback "
            f"({detail})", iterations=failed, causes=causes)

    contexts: list[ExecutionContext] = outcomes
    for wctx in contexts:
        ctx.output.extend(wctx.output)
    _merge_results(ctx, block, contexts)


def _default_workers() -> int:
    import os
    return max(2, (os.cpu_count() or 4))


def _merge_results(ctx: ExecutionContext, block: "ForBlock",
                   contexts: list[ExecutionContext]) -> None:
    merged_vars = [o for o in sorted(block.outputs)
                   if not o.startswith("_t") and o != block.var]
    # group the update logs by target once (iteration order is preserved:
    # contexts are in iteration order and each worker log is in program
    # order), instead of rescanning every worker's log per variable
    updates_by_var: dict[str, list] = {}
    for wctx in contexts:
        for record in wctx.leftindex_log:
            updates_by_var.setdefault(record[0], []).append(record)

    # 1) left-indexed result variables: replay updates in iteration order
    for var in merged_vars:
        updates = updates_by_var.get(var)
        if updates is None:
            continue
        base = ctx.symbols.get_or_none(var)
        if base is None or not isinstance(base, MatrixValue):
            raise LimaRuntimeError(
                f"parfor result variable {var!r} must exist as a matrix "
                "before the loop")
        running = base
        running_item = (ctx.lineage.get_or_none(var)
                        if ctx.lineage_active else None)
        for _target, rows, cols, source, src_item in updates:
            running = K.left_index(running, source, rows, cols)
            if running_item is not None and src_item is not None:
                running_item = _chain_leftindex(
                    running_item, src_item, rows, cols)
        ctx.symbols.set(var, running)
        if ctx.lineage_active:
            if running_item is not None:
                ctx.lineage.set(var, running_item)
            else:
                last = _last_writer(contexts, var)
                if last is not None:
                    ctx.lineage.set(var, last)

    # 2) plain assignments: last iteration wins
    for var in merged_vars:
        if var in updates_by_var:
            continue
        for wctx in reversed(contexts):
            value = wctx.symbols.get_or_none(var)
            if value is not None:
                ctx.symbols.set(var, value)
                if ctx.lineage_active:
                    item = wctx.lineage.get_or_none(var)
                    if item is not None:
                        ctx.lineage.set(var, item)
                break

    # the loop variable holds its final value, as in the sequential loop
    last_ctx = contexts[-1]
    final = last_ctx.symbols.get_or_none(block.var)
    if final is not None:
        ctx.symbols.set(block.var, final)
        if ctx.lineage_active:
            item = last_ctx.lineage.get_or_none(block.var)
            if item is not None:
                ctx.lineage.set(block.var, item)


def _chain_leftindex(running: LineageItem, src_item: LineageItem,
                     rows, cols) -> LineageItem | None:
    """Chain one left-index update onto a running lineage root.

    Returns None when a spec cannot be expressed as literals (index-vector
    updates), in which case the caller falls back to the last worker's
    lineage.
    """
    from repro.lineage.item import literal_item
    inputs = [running, src_item]
    kinds = ""
    for spec in (rows, cols):
        if spec is None:
            kinds += "a"
        elif isinstance(spec, tuple):
            kinds += "r"
            inputs.append(literal_item(int(spec[0])))
            inputs.append(literal_item(int(spec[1])))
        elif isinstance(spec, int):
            kinds += "i"
            inputs.append(literal_item(spec))
        else:
            return None
    return LineageItem("leftIndex", inputs, kinds)


def _last_writer(contexts, var) -> LineageItem | None:
    for wctx in reversed(contexts):
        item = wctx.lineage.get_or_none(var)
        if item is not None:
            return item
    return None
