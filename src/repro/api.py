"""Public API: :class:`LimaSession` and :class:`RunResult`.

A session owns a configuration, a process-wide lineage cache shared across
``run()`` invocations (Section 4.5: the reuse cache is designed for
process-wide sharing, e.g. collaborative notebooks), and a print buffer.

Quickstart::

    import numpy as np
    from repro import LimaSession, LimaConfig

    sess = LimaSession(LimaConfig.hybrid())
    result = sess.run(
        "B = lm(X, y, 0, 0.001, 0.0000001, 0, FALSE);",
        inputs={"X": X, "y": y}, outputs=["B"])
    beta = result.get("B")              # numpy array
    log = result.lineage_log("B")       # serialized lineage
    again = sess.recompute(log)         # bit-identical re-computation
"""

from __future__ import annotations

import hashlib
import os
import threading

import numpy as np

from repro.compiler import compile_script
from repro.compiler.program import Program
from repro.config import LimaConfig
from repro.data.values import (FrameValue, ListValue, MatrixValue,
                               ScalarValue, StringValue, Value, wrap)
from repro.errors import LimaError, SessionAborted
from repro.lineage.item import LineageItem
from repro.lineage.reconstruct import recompute as _recompute
from repro.lineage.serialize import deserialize, serialize
from repro.reuse.cache import LineageCache
from repro.reuse.stats import CacheStats
from repro.runtime.bufferpool import BufferPool
from repro.runtime.context import ExecutionContext
from repro.runtime.interpreter import Interpreter
from repro.service.budget import activate_budget


def input_leaf_item(name: str, value: Value) -> LineageItem:
    """Content-fingerprinted ``input`` leaf lineage item for a binding.

    The same array content under the same name always yields the same
    item — the property that enables reuse across invocations *and*
    across concurrent service sessions.  :meth:`LimaSession.execute`
    memoizes fingerprints per (name, array object) on top of this.
    """
    if isinstance(value, MatrixValue):
        # hashes the C-order buffer in place: the same bytes as
        # ``tobytes()``, without copying an already-contiguous input
        digest = hashlib.sha1(
            np.ascontiguousarray(value.data)).hexdigest()[:16]
        return LineageItem("input", (), f"{name}:{digest}")
    if isinstance(value, FrameValue):
        payload = "\x1f".join(str(cell) for cell in value.data.ravel())
        digest = hashlib.sha1(payload.encode()).hexdigest()[:16]
        return LineageItem("input", (), f"{name}:{digest}")
    if isinstance(value, ScalarValue):
        return LineageItem("input", (), f"{name}:{value.value!r}")
    if isinstance(value, StringValue):
        digest = hashlib.sha1(value.value.encode()).hexdigest()[:16]
        return LineageItem("input", (), f"{name}:{digest}")
    raise LimaError(f"unsupported input kind {value.kind}")


class RunResult:
    """Outputs, lineage, and printed text of one ``LimaSession.run``."""

    def __init__(self, ctx: ExecutionContext, stdout_start: int):
        self._ctx = ctx
        self._stdout_start = stdout_start
        self._stdout_end = len(ctx.output)

    def value(self, name: str) -> Value:
        """The raw runtime value of a variable."""
        return self._ctx.symbols.get(name)

    def get(self, name: str):
        """The value of a variable as a NumPy array / Python scalar."""
        value = self._ctx.symbols.get(name)
        if isinstance(value, (MatrixValue, FrameValue)):
            return value.data
        if isinstance(value, (ScalarValue, StringValue)):
            return value.value
        if isinstance(value, ListValue):
            return [v.data if isinstance(v, MatrixValue) else v.value
                    for v in value.items]
        raise LimaError(f"cannot export value of kind {value.kind}")

    def lineage(self, name: str) -> LineageItem:
        """The lineage DAG root of a variable."""
        return self._ctx.lineage.get(name)

    def lineage_log(self, name: str) -> str:
        """The serialized lineage log of a variable (Section 3.1)."""
        return serialize(self._ctx.lineage.get(name))

    @property
    def stdout(self) -> list[str]:
        """Lines printed by the script during this run."""
        return self._ctx.output[self._stdout_start:self._stdout_end]

    def variables(self) -> list[str]:
        return self._ctx.symbols.names()


class LimaSession:
    """A LIMA execution session: compile once, run many, reuse across runs.

    The session is also the one session core of the concurrent
    :class:`~repro.service.service.Service`: its workers call
    :meth:`execute`, which shares the program memo, the input-fingerprint
    registry, the cache, the memory manager and the reuse oracle with
    :meth:`run`.
    """

    def __init__(self, config: LimaConfig | None = None, seed: int = 42):
        self.config = config or LimaConfig.base()
        # the LIMA_VERIFY_REUSE environment variable arms the reuse
        # oracle session-wide (mirrors LIMA_INJECT_FAULT), e.g. for CI
        # runs that verify every hit of an existing test suite
        env_rate = os.environ.get("LIMA_VERIFY_REUSE")
        if env_rate and self.config.reuse_enabled \
                and self.config.verify_reuse == 0.0:
            self.config = self.config.with_(verify_reuse=float(env_rate))
        self.config.validate()
        self.seed = seed
        # one session-wide memory manager: the lineage cache and the
        # live-variable buffer pool share a single budget, spill backend,
        # and eviction engine (unified replacement for the paper's static
        # Section 4.5 partitioning)
        # one resilience manager (fault injector + recovery policies +
        # stats) spans the whole session; the memory manager, the cache,
        # and every interpreter share it
        from repro.resilience.recovery import ResilienceManager
        self.resilience = ResilienceManager(self.config)
        if self.config.reuse_enabled or self.config.buffer_pool_enabled:
            from repro.memory.manager import MemoryManager
            self.memory = MemoryManager(self.config,
                                        resilience=self.resilience)
        else:
            self.memory = None
        self.cache = (LineageCache(self.config, memory=self.memory)
                      if self.config.reuse_enabled else None)
        # one reuse-correctness oracle spans the session, so its
        # verified-once memo covers cross-run hits too
        if self.config.verify_reuse > 0 and self.cache is not None:
            from repro.reuse.verify import ReuseVerifier
            self.verifier = ReuseVerifier(self.config, self.resilience,
                                          seed=seed)
        else:
            self.verifier = None
        self.output: list[str] = []
        self._programs: dict[str, Program] = {}
        self._compile_lock = threading.Lock()
        self._run_counter = 0
        #: (name, id(value.data)) -> (value.data, leaf item); the held
        #: array keeps its id from being recycled
        self._input_items: dict[tuple, tuple[object, LineageItem]] = {}
        self._profiler = None

    def attach_profiler(self, profiler) -> None:
        """Profile opcode timings and cache hit rates for later runs.

        Pass an :class:`~repro.runtime.profiler.OpProfiler`; counters from
        every subsequent :meth:`run` accumulate into it (``None``
        detaches).
        """
        self._profiler = profiler
        if self.cache is not None:
            self.cache.stats.attach_profiler(profiler)
        if profiler is not None and self.memory is not None:
            profiler.memory_stats = self.memory.stats
        if profiler is not None:
            profiler.resilience_stats = self.resilience.stats

    # ------------------------------------------------------------------

    def compile(self, script: str) -> Program:
        """Compile (and memoize) a script under this session's config.

        Every caller gets the same :class:`Program` object, so block-level
        reuse keys (which embed ``id(block)``) line up across runs and
        across concurrent service sessions.
        """
        program = self._programs.get(script)
        if program is None:
            with self._compile_lock:
                program = self._programs.get(script)
                if program is None:
                    program = compile_script(script, self.config)
                    self._programs[script] = program
        return program

    def run(self, script: str, inputs: dict | None = None,
            seed: int | None = None, budget=None) -> RunResult:
        """Execute a script; ``inputs`` binds arrays/scalars by name.

        Input matrices get content-fingerprinted leaf lineage, so the same
        array yields the same lineage across runs — which is what enables
        cross-invocation reuse through the shared cache.

        ``budget`` optionally arms a
        :class:`~repro.service.budget.RequestBudget`: the run is then
        checked cooperatively at every instruction boundary and raises
        :class:`~repro.errors.DeadlineExceeded` /
        :class:`~repro.errors.SessionCancelled` when it trips.
        """
        self._run_counter += 1
        base_seed = (seed if seed is not None
                     else self.seed * 1_000_003 + self._run_counter)
        if budget is not None:
            budget.start()
        stdout_start = len(self.output)
        ctx = self.execute(script, inputs, seed=base_seed, output=self.output,
                           budget=budget, profiler=self._profiler)
        return RunResult(ctx, stdout_start)

    def execute(self, script: str, inputs: dict | None, *, seed: int,
                output: list[str], budget=None, passthrough: bool = False,
                profiler=None) -> ExecutionContext:
        """Run one script on the shared core; safe to call concurrently.

        ``passthrough`` runs without the cache, the memory budget and the
        buffer pool.  ``budget`` is activated on this thread for the run
        but not started: its owner decides when the clock starts.  A
        tripped budget's :class:`~repro.errors.SessionAborted` carries the
        lineage of everything the run defined before it stopped.
        ``profiler`` receives per-opcode timings only; cache counters
        reach the profiler given to :meth:`attach_profiler`.
        """
        program = self.compile(script)
        cache = None if passthrough else self.cache
        memory = None if passthrough else self.memory
        pool = (BufferPool(memory=memory)
                if memory is not None and self.config.buffer_pool_enabled
                else None)
        interpreter = Interpreter(program, self.config, cache=cache,
                                  output=output, base_seed=seed, pool=pool,
                                  memory=memory, resilience=self.resilience,
                                  verifier=self.verifier, budget=budget)
        interpreter.profiler = profiler
        ctx = interpreter.new_root_context()
        for name, obj in (inputs or {}).items():
            value = wrap(obj)
            item = self._input_item(name, value)
            ctx.symbols.set(name, value)
            if self.config.lineage:
                ctx.lineage.set(name, item)
            # inputs double as the base of the recovery log; the
            # digest-keyed token keeps recovery correct when sessions
            # bind different arrays to one name
            self.resilience.register_input(name, value, token=item.data)
        previous = activate_budget(budget)
        try:
            interpreter.execute_blocks(ctx, program.blocks)
        except SessionAborted as exc:
            # temporaries excluded: the replayable partial work
            exc.partial_lineage = {
                name: item for name, item in ctx.lineage._map.items()
                if not name.startswith("_t")}
            raise
        finally:
            activate_budget(previous)
        return ctx

    def _input_item(self, name: str, value: Value) -> LineageItem:
        """Content-fingerprinted leaf lineage item, memoized per
        (name, matrix array object)."""
        if not isinstance(value, MatrixValue):
            return input_leaf_item(name, value)
        data = value.data
        key = (name, id(data))
        cached = self._input_items.get(key)
        if cached is not None and cached[0] is data:
            return cached[1]
        item = input_leaf_item(name, value)
        self._input_items[key] = (data, item)
        return item

    # ------------------------------------------------------------------

    def recompute(self, lineage: str | LineageItem,
                  inputs: dict | None = None):
        """Re-compute an intermediate from its lineage (Section 3.1).

        ``lineage`` is a lineage log string or a root item; ``inputs``
        re-binds session inputs referenced by the lineage.
        """
        root = (deserialize(lineage) if isinstance(lineage, str)
                else lineage)
        value = _recompute(root, inputs or {})
        if isinstance(value, MatrixValue):
            return value.data
        if isinstance(value, (ScalarValue, StringValue)):
            return value.value
        return value

    @property
    def stats(self) -> CacheStats:
        """Lineage cache statistics (zeros when reuse is disabled)."""
        if self.cache is None:
            return CacheStats()
        return self.cache.stats

    @property
    def memory_stats(self):
        """Unified memory-manager statistics (zeros with no manager)."""
        if self.memory is None:
            from repro.reuse.stats import MemoryStats
            return MemoryStats()
        return self.memory.stats

    def clear_cache(self) -> None:
        if self.cache is not None:
            self.cache.clear()
