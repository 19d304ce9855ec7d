"""The concurrent session service: many scripts, one shared reuse cache.

A :class:`Service` runs DML scripts concurrently against **one** shared
:class:`~repro.reuse.cache.LineageCache` and
:class:`~repro.memory.manager.MemoryManager` — the multi-tenant setting
of paper Sections 2.3/4.5 (a reuse cache shared across exploratory
sessions).  A service is one :class:`~repro.api.LimaSession` core plus a
queue, worker threads, admission control and session handles: workers
run every session through :meth:`LimaSession.execute`.  Each session
gets an isolated symbol table, execution context, print buffer, and seed
source; the cache, memory budget, resilience manager, reuse oracle,
compiled-program memo and input-fingerprint registry belong to the core.
Sharing the compiled :class:`Program` is deliberate: block-level reuse
keys embed ``id(block)``, so two sessions running the same script hit
each other's block-level entries only when they execute the *same*
program object.

Robustness properties:

* **Budgets** — every session carries a
  :class:`~repro.service.budget.RequestBudget` (wall-clock deadline
  starting at submission, instruction-count watchdog, optional memory
  share).  The interpreter checks it cooperatively at instruction
  boundaries, loop heads, parfor workers, spill-retry backoffs, and
  placeholder waits; a tripped budget raises
  :class:`~repro.errors.DeadlineExceeded` /
  :class:`~repro.errors.SessionCancelled` carrying the session's partial
  lineage, and the unwind aborts any cache placeholders the session
  holds, so no other session is ever left blocked on them.
* **Admission control** — a bounded queue gives natural backpressure;
  under *sustained* memory pressure (``pressure_sustained`` consecutive
  submissions observing ``memory.pressure() >= pressure_high_water``)
  new sessions are degraded to pass-through: no cache, no memory budget
  (the :class:`~repro.errors.ResilienceWarning` path) and a full queue
  rejects instead of blocking.  The ``service.admit`` /
  ``service.cancel`` fault points make both paths chaos-testable.
* **Graceful shutdown** — stop admitting, drain in-flight sessions (or
  cancel them), optionally persist the shared cache for warm starts.
"""

from __future__ import annotations

import queue
import threading
import time
import warnings

from repro.api import LimaSession, RunResult
# re-exported, not called: sessions compile through repro.api's global,
# and span tracers patch this name alongside that one
from repro.compiler import compile_script  # noqa: F401
from repro.config import LimaConfig
from repro.errors import (ResilienceWarning, ServiceClosedError,
                          ServiceOverloadedError, SessionAborted,
                          SessionCancelled)
from repro.runtime.profiler import OpProfiler
from repro.service.budget import RequestBudget
from repro.service.stats import ServiceStats, SessionStats

_STOP = object()


class SessionResult(RunResult):
    """A completed session's outputs plus its per-session stats."""

    def __init__(self, ctx, stdout_start: int, stats: SessionStats):
        super().__init__(ctx, stdout_start)
        self.stats = stats
        self.session_id = stats.session_id


class SessionHandle:
    """Client-side handle to one submitted session."""

    def __init__(self, session_id: str, script: str, inputs: dict,
                 outputs, budget: RequestBudget, passthrough: bool,
                 seed: int):
        self.session_id = session_id
        self.script = script
        self.inputs = inputs
        self.outputs = outputs
        self.budget = budget
        self.passthrough = passthrough
        self.seed = seed
        self.stats = SessionStats(session_id=session_id,
                                  passthrough=passthrough)
        self.enqueued_at = time.monotonic()
        self._done = threading.Event()
        self._result: SessionResult | None = None
        self._error: BaseException | None = None
        self._callbacks: list = []

    # -- completion ----------------------------------------------------

    def done(self) -> bool:
        return self._done.is_set()

    def wait(self, timeout: float | None = None) -> bool:
        return self._done.wait(timeout)

    def result(self, timeout: float | None = None) -> SessionResult:
        """Block for completion; raises the session's error if it failed."""
        if not self._done.wait(timeout):
            raise TimeoutError(
                f"session {self.session_id} not done after {timeout}s")
        if self._error is not None:
            raise self._error
        return self._result

    @property
    def error(self) -> BaseException | None:
        self._done.wait()
        return self._error

    def add_done_callback(self, fn) -> None:
        """Call ``fn(handle)`` when the session completes (immediately if
        it already has)."""
        if self._done.is_set():
            fn(self)
            return
        self._callbacks.append(fn)
        if self._done.is_set() and fn in self._callbacks:
            # raced with completion: _finish may have missed it
            self._callbacks.remove(fn)
            fn(self)

    def _finish(self, result=None, error=None) -> None:
        self._result = result
        self._error = error
        self._done.set()
        callbacks, self._callbacks = self._callbacks, []
        for fn in callbacks:
            try:
                fn(self)
            except Exception:  # callbacks must never kill a worker
                pass

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "done" if self.done() else "pending"
        return f"SessionHandle({self.session_id}, {state})"


class Service:
    """Concurrent session executor over one shared reuse cache."""

    def __init__(self, config: LimaConfig | None = None, *,
                 workers: int = 4, queue_size: int = 32, seed: int = 42,
                 default_deadline: float | None = None,
                 default_max_instructions: int | None = None,
                 pressure_high_water: float = 0.95,
                 pressure_sustained: int = 3,
                 persist_path: str | None = None):
        self._core = LimaSession(config or LimaConfig.hybrid(), seed=seed)
        self.config = self._core.config
        self.resilience = self._core.resilience
        self.memory = self._core.memory
        self.cache = self._core.cache
        self.verifier = self._core.verifier
        self.seed = seed
        self.default_deadline = default_deadline
        self.default_max_instructions = default_max_instructions
        self.pressure_high_water = pressure_high_water
        self.pressure_sustained = max(1, int(pressure_sustained))
        self.persist_path = persist_path
        self.stats = ServiceStats()
        self._admit_site = self.resilience.site("service.admit")
        self._cancel_site = self.resilience.site("service.cancel")

        self._lock = threading.Lock()
        self._queue: queue.Queue = queue.Queue(maxsize=queue_size)
        self._sessions: dict[str, SessionHandle] = {}
        self._session_counter = 0
        self._pressure_streak = 0
        self._closed = False
        self._profiler = None

        if persist_path is not None and self.cache is not None:
            from repro.reuse.persist import load_cache
            import os
            if os.path.exists(persist_path):
                load_cache(self.cache, persist_path)

        self.workers = max(1, int(workers))
        self._threads = [
            threading.Thread(target=self._worker_loop,
                             name=f"lima-service-{i}", daemon=True)
            for i in range(self.workers)]
        for thread in self._threads:
            thread.start()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def __enter__(self) -> "Service":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown(drain=exc == (None, None, None))

    def attach_profiler(self, profiler) -> None:
        """Aggregate opcode/cache profiles across all sessions.

        Cache hit/miss counters feed the profiler under the cache lock;
        per-opcode timings are recorded into a private per-session
        profiler and merged under the service lock when each session
        completes, so concurrent sessions never race on the counters.
        """
        self._profiler = profiler
        self._core.attach_profiler(profiler)

    def shutdown(self, drain: bool = True,
                 timeout: float | None = None) -> None:
        """Stop the service.

        ``drain=True`` finishes every queued and in-flight session first;
        ``drain=False`` cancels queued sessions immediately and requests
        cooperative cancellation of running ones.  Either way the worker
        threads are joined and — when ``persist_path`` is set — the
        shared cache is persisted for the next warm start.  Idempotent.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
        if not drain:
            # flush the queue: sessions that never started are cancelled
            while True:
                try:
                    handle = self._queue.get_nowait()
                except queue.Empty:
                    break
                if handle is _STOP:
                    continue
                self._reject_cancelled(handle, "service shutdown")
            with self._lock:
                pending = [h for h in self._sessions.values()
                           if not h.done()]
            for handle in pending:
                handle.budget.cancel("service shutdown")
        for _ in self._threads:
            self._queue.put(_STOP)
        deadline = (time.monotonic() + timeout
                    if timeout is not None else None)
        for thread in self._threads:
            remaining = (None if deadline is None
                         else max(0.0, deadline - time.monotonic()))
            thread.join(remaining)
        if self.persist_path is not None and self.cache is not None:
            from repro.reuse.persist import save_cache
            save_cache(self.cache, self.persist_path)
        if self.memory is not None:
            self.memory.close()

    def _reject_cancelled(self, handle: SessionHandle, reason: str) -> None:
        handle.budget.cancel(reason)
        handle.stats.outcome = "cancelled"
        with self._lock:
            self.stats.cancellations += 1
            self.stats.failed += 1
        handle._finish(error=SessionCancelled(
            f"session {handle.session_id} {reason}",
            session_id=handle.session_id))

    # ------------------------------------------------------------------
    # submission / admission control
    # ------------------------------------------------------------------

    def submit(self, script: str, inputs: dict | None = None, *,
               outputs=None, deadline: float | None = None,
               max_instructions: int | None = None,
               memory_share: int | None = None,
               session_id: str | None = None,
               seed: int | None = None,
               block: bool = True,
               timeout: float | None = None) -> SessionHandle:
        """Admit one script for execution; returns a  handle.

        The deadline clock starts *now* — queue wait counts against it.
        ``block=False`` (or sustained memory pressure) turns a full
        queue into an immediate :class:`ServiceOverloadedError` instead
        of blocking the submitter.
        """
        if self._closed:
            raise ServiceClosedError("service is shut down")
        with self._lock:
            self.stats.submitted += 1
            self._session_counter += 1
            sid = session_id or f"s{self._session_counter}"
        if self._admit_site is not None:
            try:
                self._admit_site.fire()
            except Exception as exc:
                with self._lock:
                    self.stats.rejected_fault += 1
                raise ServiceOverloadedError(
                    f"admission failed for session {sid}: {exc}") from exc
        sustained = self._sample_pressure()
        passthrough = sustained and self.cache is not None
        budget = RequestBudget(
            deadline=(deadline if deadline is not None
                      else self.default_deadline),
            max_instructions=(max_instructions if max_instructions is not None
                              else self.default_max_instructions),
            memory_share=memory_share, session_id=sid)
        budget.start()
        handle = SessionHandle(sid, script, dict(inputs or {}), outputs,
                               budget, passthrough,
                               self.seed if seed is None else seed)
        if passthrough:
            with self._lock:
                self.stats.passthrough_sessions += 1
            warnings.warn(
                f"session {sid} admitted in pass-through mode: sustained "
                f"memory pressure (>= {self.pressure_high_water:.0%} of "
                "budget); its results are not cached",
                ResilienceWarning, stacklevel=2)
        try:
            if block and not sustained:
                self._queue.put(handle, timeout=timeout)
            else:
                self._queue.put_nowait(handle)
        except queue.Full:
            with self._lock:
                self.stats.rejected_queue_full += 1
            handle.stats.outcome = "rejected"
            raise ServiceOverloadedError(
                f"session {sid} rejected: queue full "
                f"({self._queue.maxsize} pending)"
                + (" under sustained memory pressure" if sustained else "")
            ) from None
        with self._lock:
            self._sessions[sid] = handle
            self.stats.admitted += 1
        return handle

    def run(self, script: str, inputs: dict | None = None,
            **kwargs) -> SessionResult:
        """Submit and block for the result (convenience wrapper)."""
        timeout = kwargs.pop("result_timeout", None)
        return self.submit(script, inputs, **kwargs).result(timeout)

    def cancel(self, session_id: str,
               reason: str = "cancelled by client") -> bool:
        """Request cooperative cancellation of a session.

        Returns ``False`` when the session is unknown or already done.
        An injected ``service.cancel`` fault is counted but never blocks
        the cancellation itself — cancel must stay reliable under chaos.
        """
        with self._lock:
            handle = self._sessions.get(session_id)
        if handle is None or handle.done():
            return False
        if self._cancel_site is not None:
            try:
                self._cancel_site.fire()
            except Exception:
                pass  # the injector counted the fault; cancel anyway
        handle.budget.cancel(reason)
        return True

    def _sample_pressure(self) -> bool:
        """One admission-time pressure sample; True once sustained."""
        level = self.memory.pressure() if self.memory is not None else 0.0
        with self._lock:
            if level >= self.pressure_high_water:
                self._pressure_streak += 1
            else:
                self._pressure_streak = 0
            return self._pressure_streak >= self.pressure_sustained

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------

    def _worker_loop(self) -> None:
        while True:
            handle = self._queue.get()
            if handle is _STOP:
                return
            try:
                self._execute(handle)
            except BaseException as exc:  # defensive: worker must survive
                if not handle.done():
                    handle.stats.outcome = "error"
                    handle._finish(error=exc)

    def _execute(self, handle: SessionHandle) -> None:
        budget = handle.budget
        stats = handle.stats
        stats.queue_wait = time.monotonic() - handle.enqueued_at
        with self._lock:
            self.stats.queue_wait_total += stats.queue_wait
            self.stats.queue_wait_max = max(self.stats.queue_wait_max,
                                            stats.queue_wait)
        # timings only: cache counters flow into the master profiler
        # under the cache lock (see attach_profiler)
        session_profiler = OpProfiler() if self._profiler is not None else None
        label_prev = (self.cache.set_session(handle.session_id)
                      if self.cache is not None else None)
        started = time.perf_counter()
        try:
            budget.check()  # fail fast: cancelled/expired while queued
            ctx = self._core.execute(
                handle.script, handle.inputs, seed=handle.seed, output=[],
                budget=budget, passthrough=handle.passthrough,
                profiler=session_profiler)
            stats.outcome = "ok"
            stats.run_time = time.perf_counter() - started
            stats.instructions = budget.instructions
            stats.admitted_bytes = budget.admitted_bytes
            with self._lock:
                self.stats.completed += 1
            handle._finish(result=SessionResult(ctx, 0, stats))
        except SessionAborted as exc:
            stats.outcome = ("cancelled"
                            if isinstance(exc, SessionCancelled)
                            else "deadline")
            stats.run_time = time.perf_counter() - started
            stats.instructions = budget.instructions
            with self._lock:
                self.stats.failed += 1
                if isinstance(exc, SessionCancelled):
                    self.stats.cancellations += 1
                else:
                    self.stats.deadline_hits += 1
            handle._finish(error=exc)
        except BaseException as exc:
            stats.outcome = "error"
            stats.run_time = time.perf_counter() - started
            stats.instructions = budget.instructions
            with self._lock:
                self.stats.failed += 1
            handle._finish(error=exc)
        finally:
            if self.cache is not None:
                self.cache.set_session(label_prev)
            if session_profiler is not None:
                with self._lock:
                    self._profiler.merge(session_profiler)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    def session(self, session_id: str) -> SessionHandle | None:
        with self._lock:
            return self._sessions.get(session_id)

    def service_stats(self) -> ServiceStats:
        """A snapshot of the aggregate stats, with the cache-side
        counters (cross-session hits, rescues) mirrored in."""
        with self._lock:
            snap = ServiceStats(**self.stats.snapshot())
        if self.cache is not None:
            cstats = self.cache.stats
            snap.cross_session_hits = cstats.cross_session_hits
            snap.placeholder_rescues = cstats.placeholder_rescues
            snap.cache_hits = cstats.hits
            snap.cache_probes = cstats.probes
        return snap

    def describe(self) -> str:
        lines = [str(self.service_stats())]
        if self.cache is not None:
            lines.append(str(self.cache.stats))
        if self.memory is not None:
            lines.append(self.memory.describe())
        lines.append(self.resilience.describe())
        return "\n".join(lines)
