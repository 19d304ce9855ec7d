"""Buffer pool for live variables (paper Fig. 2, Section 4.5).

SystemDS manages live matrices through a buffer pool that can evict them
to disk under memory pressure.  The paper's Section 4.5 notes the static
partitioning between that pool and the lineage cache as a limitation —
here both are *regions* of the unified
:class:`~repro.memory.MemoryManager`: the pool contributes live
symbol-table matrices as eviction candidates (scored as non-recomputable,
i.e. ∞-costly — they are only ever spilled, never deleted, and only after
every recomputable cached object), shares the manager's byte budget and
:class:`~repro.memory.SpillBackend`, and benefits from alias-deduplicated
accounting: a matrix referenced by both a live variable and a cache entry
is charged once, and never spilled while the other holder would keep it
in memory anyway.

Only matrices above a small size threshold participate, as before.
Restores route back through the manager's admission path, so restoring a
large matrix can itself trigger eviction instead of silently overshooting
the budget.
"""

from __future__ import annotations

import weakref

from repro.data.values import MatrixValue, Value
from repro.errors import LimaRuntimeError, SpillError
from repro.memory.manager import MemoryManager, MemoryRegion

#: matrices smaller than this never participate (spilling them costs more
#: than it frees)
MIN_SPILL_BYTES = 64 * 1024


class SpilledHandle(Value):
    """Placeholder stored in a symbol table for a spilled matrix."""

    kind = "spilled"
    __slots__ = ("path", "size")

    def __init__(self, path: str, size: int):
        self.path = path
        self.size = size

    def nbytes(self) -> int:
        return 64

    def __repr__(self) -> str:
        return f"SpilledHandle({self.path})"


class _LiveRecord:
    """Residency record; doubles as the manager's eviction candidate.

    ``compute_time = None`` marks the value as non-recomputable (no
    lineage to replay), which the scoring functions map to an ∞-like
    cost; ``ref_misses = 1`` keeps Cost&Size arithmetic well-defined.
    """

    __slots__ = ("ref", "size", "last_access",
                 "compute_time", "ref_hits", "ref_misses", "height")

    def __init__(self, ref: weakref.ref, size: int, tick: int):
        self.ref = ref
        self.size = size
        self.last_access = tick
        self.compute_time = None
        self.ref_hits = 0
        self.ref_misses = 1
        self.height = 0


class BufferPool(MemoryRegion):
    """Live-matrix region of the unified memory manager."""

    name = "pool"

    def __init__(self, budget: int | None = None,
                 directory: str | None = None,
                 memory: MemoryManager | None = None):
        if memory is None:
            memory = MemoryManager(budget=budget or 0, spill_dir=directory)
            self._owns_memory = True
        else:
            self._owns_memory = False
        self.memory = memory
        self._lock = memory.lock
        # id(value) -> _LiveRecord (weak: a value dying drops its record
        # and, via the manager's own weakref, its charge)
        self._resident: dict[int, _LiveRecord] = {}
        # symbol tables whose bindings this pool may rewrite on spill
        self._tables: list[weakref.ref] = []
        self.spills = 0
        self.restores = 0
        memory.register_region(self)

    @property
    def budget(self) -> int:
        return self.memory.budget

    # ------------------------------------------------------------------
    # symbol-table integration
    # ------------------------------------------------------------------

    def attach_table(self, table) -> None:
        """Register a symbol table (weakly) for spill rebinding."""
        with self._lock:
            self._tables = [t for t in self._tables if t() is not None]
            if not any(t() is table for t in self._tables):
                self._tables.append(weakref.ref(table))

    def _live_tables(self) -> list:
        return [table for t in self._tables if (table := t()) is not None]

    def on_set(self, value: Value) -> None:
        """Account a value bound into a symbol table; apply pressure."""
        if not isinstance(value, MatrixValue):
            return
        size = value.nbytes()
        if size < MIN_SPILL_BYTES:
            return
        with self._lock:
            tick = self.memory.next_tick()
            record = self._resident.get(id(value))
            if record is not None:
                record.last_access = tick
            else:
                key = id(value)
                record = _LiveRecord(
                    weakref.ref(value, self._make_reaper(key)), size, tick)
                self._resident[key] = record
                self.memory.charge(value, size, id(self))
            self.memory.evict_to_fit()

    def _make_reaper(self, key: int):
        pool = weakref.ref(self)

        def reap(_ref):
            self_ = pool()
            if self_ is not None:
                with self_._lock:
                    self_._resident.pop(key, None)
        return reap

    def on_get(self, value: Value):
        """Touch (and possibly restore) a value read from a symbol table.

        Returns the value to hand out: the same object for resident
        matrices, a restored :class:`MatrixValue` for spilled handles.
        """
        if isinstance(value, SpilledHandle):
            return self.restore(value)
        with self._lock:
            record = self._resident.get(id(value))
            if record is not None:
                record.last_access = self.memory.next_tick()
        return value

    def total_resident(self) -> int:
        """Bytes of live matrices currently tracked by this region."""
        with self._lock:
            return sum(r.size for r in self._resident.values()
                       if r.ref() is not None)

    # ------------------------------------------------------------------
    # the memory-region protocol
    # ------------------------------------------------------------------

    def eviction_candidates(self) -> list[_LiveRecord]:
        return [r for r in self._resident.values() if r.ref() is not None]

    def evict(self, record: _LiveRecord, spill: bool) -> bool:
        """Spill one live matrix (manager-selected victim)."""
        value = record.ref()
        if value is None:
            self._resident.pop(id(record), None)
            return False
        if self.memory.holders(value) > 1:
            # also charged by a cache entry: spilling the live binding
            # would cost I/O without freeing a byte (the entry keeps the
            # array alive).  The entry is its own — cheaper — candidate.
            return False
        names: list[tuple[object, str]] = []
        for table in self._live_tables():
            for name, bound in table.raw_items():
                if bound is value:
                    names.append((table, name))
        key = id(value)
        if not names:
            # stale record: the value left every table without a
            # release() (move/replace churn); uncharge and drop it
            self._resident.pop(key, None)
            return self.memory.release(value, id(self)) == 0
        path = self.memory.backend.write(value.data, tag="p")
        handle = SpilledHandle(path, record.size)
        for table, name in names:
            table.replace_raw(name, handle)
        self._resident.pop(key, None)
        self.memory.release(value, id(self))
        self.spills += 1
        self.memory.stats.pool_spills += 1
        return True

    def restore(self, handle: SpilledHandle) -> MatrixValue:
        """Load a spilled matrix back through the admission path.

        Every binding of the handle — across all attached tables — is
        rebound to the restored value, and admission pressure is applied,
        so a restore can evict/spill other objects instead of pushing the
        manager over budget (the old pool restored unconditionally).

        Restores go through the resilience manager's retry policy, but a
        live variable has no lineage to recompute from: a spill file that
        stays unreadable after the retries is genuinely lost, which is
        the one unrecoverable failure in the system.
        """
        with self._lock:
            try:
                data = self.memory.resilience.read_spill(
                    self.memory.backend, handle.path)
            except (OSError, SpillError) as exc:
                error = LimaRuntimeError(
                    f"live variable lost: spill file {handle.path!r} is "
                    f"unreadable ({exc}) and live values have no lineage "
                    "to recompute from")
                raise error from exc
            value = MatrixValue(data)
            key = id(value)
            record = _LiveRecord(
                weakref.ref(value, self._make_reaper(key)),
                handle.size, self.memory.next_tick())
            self._resident[key] = record
            self.memory.charge(value, handle.size, id(self))
            self.restores += 1
            self.memory.stats.pool_restores += 1
            for table in self._live_tables():
                for name, bound in table.raw_items():
                    if bound is handle:
                        table.replace_raw(name, value)
            self.memory.evict_to_fit()
            return value

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def release(self, value: Value) -> None:
        """Drop accounting for a value removed from a symbol table."""
        with self._lock:
            self._resident.pop(id(value), None)
            self.memory.release(value, id(self))

    def clear(self) -> None:
        """Forget all residency; with a private manager, also remove the
        spill directory (re-created lazily on the next spill)."""
        with self._lock:
            for record in self._resident.values():
                value = record.ref()
                if value is not None:
                    self.memory.release(value, id(self))
            self._resident.clear()
        if self._owns_memory:
            self.memory.backend.clear()

    def close(self) -> None:
        self.clear()
        if self._owns_memory:
            self.memory.close()
