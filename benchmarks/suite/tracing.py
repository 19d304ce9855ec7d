"""Benchmark-side span tracing around the public layer entry points.

Nothing under ``src/`` is edited: :meth:`Tracer.instrument` replaces a
handful of public callables (``LineageCache.probe``/``acquire``/
``fulfill``, ``MemoryManager.evict_to_fit``, ``SpillBackend.write``/
``read``, ``compile_script``) with timing wrappers for the duration of
one traced unit and :meth:`Tracer.restore` puts the originals back.

A span is ``(id, name, parent, session, start, end)``.  Spans stay in
memory and are written once, at the end of the run.  A layer's *self
time* is its spans' duration minus the part of that interval its child
spans cover, so the self times of one unit's span tree add up to the
unit's wall time by construction.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext

COLUMNS = ("id", "name", "parent", "session", "start_s", "end_s")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._ids = itertools.count()
        self._local = threading.local()
        #: span id of the span opened for each session id, so a worker
        #: thread's ``service.execute`` span can name its cross-thread parent
        self._session_span: dict[str, int] = {}
        self._patched: list[tuple[object, str, object, bool]] = []
        self._t0 = time.perf_counter()

    # -- recording -----------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _begin(self, name: str, session=None, parent=None) -> list:
        stack = self._stack()
        if stack:
            top = stack[-1]
            if parent is None:
                parent = top[0]
            if session is None:
                session = top[3]
        span = [next(self._ids), name, -1 if parent is None else parent,
                session, time.perf_counter() - self._t0, 0.0]
        stack.append(span)
        return span

    def _end(self) -> None:
        span = self._stack().pop()
        span[5] = time.perf_counter() - self._t0
        self.spans.append(span)

    @contextmanager
    def span(self, name: str, session=None):
        span = self._begin(name, session)
        if session is not None:
            self._session_span[session] = span[0]
        try:
            yield span
        finally:
            self._end()

    # -- wrappers ------------------------------------------------------

    def _patch(self, owner, attr: str, replacement) -> None:
        own = attr in vars(owner)
        self._patched.append((owner, attr, getattr(owner, attr), own))
        setattr(owner, attr, replacement)

    def wrap(self, owner, attr: str, name: str) -> None:
        """Time every call of ``owner.attr`` as a span called ``name``."""
        inner = getattr(owner, attr)
        begin, end = self._begin, self._end

        def traced(*args, **kwargs):
            begin(name)
            try:
                return inner(*args, **kwargs)
            finally:
                end()
        self._patch(owner, attr, traced)

    def _wrap_set_session(self, cache) -> None:
        """Bracket a Service worker's execution of one session.

        ``Service._execute`` labels the worker thread with the session id
        through the public ``LineageCache.set_session`` and resets it to
        the previous label (``None``) when the session ends.
        """
        inner = cache.set_session

        def traced(label):
            if label is not None:
                self._begin("service.execute", session=label,
                            parent=self._session_span.get(label))
            elif self._stack():
                self._end()
            return inner(label)
        self._patch(cache, "set_session", traced)

    def instrument(self, owner) -> None:
        """Install the wrappers on a fresh ``LimaSession`` or ``Service``."""
        import repro.api
        import repro.service.service
        self.wrap(repro.api, "compile_script", "compiler.compile")
        self.wrap(repro.service.service, "compile_script", "compiler.compile")
        cache, memory = owner.cache, owner.memory
        if cache is not None:
            self.wrap(cache, "probe", "reuse.probe")
            self.wrap(cache, "acquire", "reuse.probe")
            # put() delegates to fulfill(), so one wrapper covers both
            self.wrap(cache, "fulfill", "reuse.admit")
            self._wrap_set_session(cache)
        if memory is not None:
            self.wrap(memory, "evict_to_fit", "memory.evict")
            self.wrap(memory.backend, "write", "memory.spill_write")
            self.wrap(memory.backend, "read", "memory.spill_read")

    def restore(self) -> None:
        for owner, attr, original, own in reversed(self._patched):
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)    # uncover the class attribute
        self._patched.clear()

    # -- analysis ------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Self seconds per span name, over every recorded span."""
        children = defaultdict(list)
        for span in self.spans:
            children[span[2]].append(span)
        totals: dict[str, float] = defaultdict(float)
        for span in self.spans:
            start, end = span[4], span[5]
            covered = 0.0
            # children of one span run one after another (same thread, or
            # the single worker-side child of a session), so their clamped
            # intervals do not overlap
            for child in children[span[0]]:
                covered += max(0.0, min(end, child[5]) - max(start, child[4]))
            totals[span[1]] += (end - start) - covered
        return dict(totals)

    def root_total(self) -> float:
        """Seconds of the parentless spans: what the self times add up to."""
        return sum(s[5] - s[4] for s in self.spans if s[2] == -1)

    def total(self, name: str) -> float:
        """Inclusive seconds of every span called ``name``."""
        return sum(s[5] - s[4] for s in self.spans if s[1] == name)

    def write(self, path, header: dict) -> None:
        spans = sorted(([*s[:4], round(s[4], 7), round(s[5], 7)] for s in self.spans),
                       key=lambda s: s[4])
        with open(path, "w") as fh:
            json.dump({**header, "columns": COLUMNS, "spans": spans}, fh)


class NoTrace:
    """Stand-in used by the untraced rounds: records nothing."""

    def span(self, name: str, session=None):
        return nullcontext()

    def instrument(self, owner) -> None:
        pass

    def restore(self) -> None:
        pass
