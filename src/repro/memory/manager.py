"""The unified memory manager: one budget, one ledger, one eviction engine.

Replaces the two private budgets of ``reuse/cache.py`` and
``runtime/bufferpool.py`` (the static partitioning the paper's Section 4.5
names as a limitation) with a single subsystem:

* **Charge ledger** — identity-based, alias-deduplicated accounting.  A
  value charged by several holders (an operation-level and a
  function-level cache entry; a cache entry and a live symbol-table
  binding) is counted once, and the charge is dropped when the last
  holder releases it.  A weak reference per charge is the safety net: a
  value that dies with holders outstanding (a run's context being
  garbage-collected) is uncharged automatically, so long-lived sessions
  never leak budget to dead runs.
* **Regions** — the lineage cache and the buffer pool register as
  :class:`MemoryRegion` instances.  Under pressure the manager scores
  *all* candidates from *all* regions with the configured Table 1 policy
  (`reuse/eviction.py`) and evicts globally: pressure from live variables
  can evict cache entries and vice versa.  Live variables score as
  ∞-costly (no recompute path), so recomputable cached objects are always
  victimized first, and live variables are only ever spilled, never
  deleted.
* **Spill decisions** — evict-vs-spill per object, using the shared
  :class:`~repro.memory.spill.SpillBackend` bandwidth estimate: a cached
  object is spilled only when its re-computation time exceeds the
  estimated I/O time and it has shown reuse evidence (Section 4.3).
"""

from __future__ import annotations

import threading
import warnings
import weakref
from typing import Any, Iterable

from repro.errors import ResilienceWarning
from repro.resilience.recovery import ResilienceManager
from repro.reuse.eviction import get_policy
from repro.reuse.stats import MemoryStats
from repro.memory.spill import SpillBackend

#: share of the budget that recomputable cache entries are evicted down
#: to once pressure hits, so one scoring pass serves many admits
LOW_WATER = 0.8


class MemoryRegion:
    """A memory region under the manager's budget (cache, buffer pool).

    Regions expose their evictable objects and perform the actual
    eviction when the manager selects a victim.  Candidates must carry
    the scoring attributes consumed by ``reuse/eviction.py``:
    ``size``, ``last_access``, ``height``, ``ref_hits``, ``ref_misses``,
    and ``compute_time`` (``None`` marks a non-recomputable live value).
    """

    #: short region tag used in reports
    name = "region"

    def eviction_candidates(self) -> Iterable[Any]:
        raise NotImplementedError

    def evict(self, candidate: Any, spill: bool) -> bool:
        """Evict ``candidate`` (spilling when ``spill``); False = skipped."""
        raise NotImplementedError

    def shed(self) -> None:
        """Drop whatever the region can safely drop when the manager
        degrades (recomputable objects only); default is a no-op."""


class _Charge:
    """One ledger entry: a tracked value and the holders charging it."""

    __slots__ = ("ref", "size", "holders")

    def __init__(self, ref: weakref.ref, size: int, holder: int):
        self.ref = ref
        self.size = size
        self.holders = {holder}


class MemoryManager:
    """One byte budget and eviction engine shared by all regions."""

    def __init__(self, config=None, *, budget: int | None = None,
                 policy: str | None = None, spill: bool | None = None,
                 spill_dir: str | None = None,
                 bandwidth: float | None = None,
                 backend: SpillBackend | None = None,
                 resilience: ResilienceManager | None = None):
        if config is not None:
            if budget is None:
                budget = config.resolved_memory_budget()
            if policy is None:
                policy = config.eviction_policy
            if spill is None:
                spill = config.spill
            if spill_dir is None:
                spill_dir = config.spill_dir
            if bandwidth is None:
                bandwidth = config.disk_bandwidth
        self.budget = int(budget) if budget is not None else 0
        #: spill recomputable objects at all (live variables always may)
        self.spill = True if spill is None else bool(spill)
        self.backend = backend if backend is not None else SpillBackend(
            spill_dir, bandwidth if bandwidth is not None
            else 512.0 * 1024 * 1024)
        self.resilience = (resilience if resilience is not None
                           else ResilienceManager(config))
        self.backend.attach_injector(self.resilience.injector)
        #: graceful-degradation flag: caching is pass-through when set
        self.degraded = False
        self.degrade_reason: str | None = None
        self.stats = MemoryStats()
        #: one lock shared with every region — cross-region eviction then
        #: never takes a second lock, which rules out ordering deadlocks
        self.lock = threading.RLock()
        self._score = get_policy(policy or "costsize")
        self._charges: dict[int, _Charge] = {}
        self._total = 0
        self._tick = 0
        self._regions: list[weakref.ref] = []

    # ------------------------------------------------------------------
    # regions and clock
    # ------------------------------------------------------------------

    def register_region(self, region: MemoryRegion) -> None:
        """Attach a region (held weakly: dead runs' pools fall away)."""
        with self.lock:
            self._regions = [r for r in self._regions if r() is not None]
            if not any(r() is region for r in self._regions):
                self._regions.append(weakref.ref(region))

    def regions(self) -> list[MemoryRegion]:
        with self.lock:
            return [region for r in self._regions
                    if (region := r()) is not None]

    def next_tick(self) -> int:
        """Advance the shared access clock (LRU across all regions)."""
        with self.lock:
            self._tick += 1
            return self._tick

    # ------------------------------------------------------------------
    # the charge ledger (alias-deduplicated accounting)
    # ------------------------------------------------------------------

    def charge(self, value: Any, size: int, holder: int) -> None:
        """Charge ``value`` on behalf of ``holder`` (an identity token).

        The same value charged by several holders is counted once; the
        charge persists until the last holder releases it (or the value
        itself dies, whichever comes first).
        """
        with self.lock:
            key = id(value)
            charge = self._charges.get(key)
            if charge is not None:
                charge.holders.add(holder)
                return
            self._charges[key] = _Charge(
                weakref.ref(value, self._make_reaper(key)), size, holder)
            self._total += size
            if self._total > self.stats.peak_bytes:
                self.stats.peak_bytes = self._total
            self.stats.charged_bytes = self._total

    def _make_reaper(self, key: int):
        """Weakref callback dropping a charge when its value dies."""
        manager = weakref.ref(self)

        def reap(_ref):
            self_ = manager()
            if self_ is None:
                return
            with self_.lock:
                charge = self_._charges.pop(key, None)
                if charge is not None:
                    self_._total -= charge.size
                    self_.stats.charged_bytes = self_._total
        return reap

    def release(self, value: Any, holder: int) -> int:
        """Drop one holder; returns the number of holders remaining."""
        with self.lock:
            key = id(value)
            charge = self._charges.get(key)
            if charge is None:
                return 0
            charge.holders.discard(holder)
            remaining = len(charge.holders)
            if remaining == 0:
                del self._charges[key]
                self._total -= charge.size
                self.stats.charged_bytes = self._total
            return remaining

    def holders(self, value: Any) -> int:
        """Number of holders currently charging ``value`` (0 = untracked)."""
        with self.lock:
            charge = self._charges.get(id(value))
            return len(charge.holders) if charge is not None else 0

    @property
    def total(self) -> int:
        """Bytes currently charged, each aliased value counted once."""
        with self.lock:
            return self._total

    # ------------------------------------------------------------------
    # pressure-triggered eviction (the admission path)
    # ------------------------------------------------------------------

    def evict_to_fit(self) -> int:
        """Evict across all regions from one sorted snapshot per
        pressure event.

        Candidates from every region are ranked together by the
        configured policy score (ties broken by last access, so live
        variables — all ∞ under Cost&Size — spill in LRU order).
        Recomputable cache entries are evicted down to the low-water
        mark (``LOW_WATER * budget``), so the next admits fit without
        another scoring pass; live variables spill only down to the
        budget, since spilling them early costs real I/O.  Each eviction
        may free nothing when the object is aliased elsewhere; the loop
        re-checks the deduplicated total before every victim.
        """
        with self.lock:
            if self.degraded or self._total <= self.budget:
                return 0
            self.stats.pressure_events += 1
            score = self._score
            candidates = []
            for region in self.regions():
                for cand in region.eviction_candidates():
                    # the enumeration index is the final tie-break:
                    # deterministic (registration + insertion order),
                    # unlike object ids
                    candidates.append((score(cand), cand.last_access,
                                       len(candidates), region, cand))
            candidates.sort(key=lambda entry: entry[:3])
            evicted = 0
            low_water = LOW_WATER * self.budget
            for _, _, _, region, cand in candidates:
                if self._total <= (self.budget if cand.compute_time is None
                                   else low_water):
                    break
                try:
                    if region.evict(cand, self.should_spill(cand)):
                        evicted += 1
                except (OSError, MemoryError) as exc:
                    # the pressure-relief path itself failed (spill dir
                    # full, allocation failure during eviction): stop
                    # trying to enforce the budget and keep executing
                    self.degrade(f"eviction failed: {exc}")
                    break
            return evicted

    def degrade(self, reason: str) -> None:
        """Flip to graceful degradation: caching becomes pass-through.

        Recomputable cached objects are shed (their lineage can rebuild
        them later), live variables stay in memory untouched, the budget
        is no longer enforced, and execution continues.  Idempotent.
        """
        with self.lock:
            if self.degraded:
                return
            self.degraded = True
            self.degrade_reason = reason
            self.resilience.stats.degraded_events += 1
            for region in self.regions():
                region.shed()
        warnings.warn(
            f"memory manager degraded to pass-through mode: {reason}; "
            "caching is disabled, live variables stay in memory",
            ResilienceWarning, stacklevel=2)

    def should_spill(self, candidate: Any) -> bool:
        """Evict-vs-spill for one candidate, via the bandwidth model.

        Live variables (``compute_time is None``) must always be spilled:
        deleting them would lose data.  Recomputable cached objects are
        spilled only when spilling is enabled, they have shown reuse
        evidence beyond their creation miss, and their measured recompute
        time exceeds the estimated I/O time.
        """
        if candidate.compute_time is None:
            return True
        if not self.spill:
            return False
        if candidate.ref_hits + candidate.ref_misses <= 1:
            # never probed after admission: no evidence of reuse
            # potential, so deletion beats the spill I/O
            return False
        io_time = candidate.size / max(self.backend.bandwidth, 1.0)
        return candidate.compute_time > io_time

    def pressure(self) -> float:
        """Instantaneous memory-pressure signal for admission control.

        The ratio of charged bytes to the budget: ``>= 1.0`` means the
        manager is at or over budget (eviction is working), ``inf``
        once it has degraded to pass-through, ``0.0`` with no budget
        configured (nothing to be under pressure about).
        """
        with self.lock:
            if self.degraded:
                return float("inf")
            if self.budget <= 0:
                return 0.0
            return self._total / self.budget

    # ------------------------------------------------------------------

    def describe(self) -> str:
        """One-line human-readable summary for CLI stats output."""
        stats = self.stats
        if self.degraded:
            return (f"memory: DEGRADED ({self.degrade_reason}) "
                    f"charged={stats.charged_bytes} peak={stats.peak_bytes}")
        return (f"memory: budget={self.budget} charged={stats.charged_bytes}"
                f" peak={stats.peak_bytes}"
                f" pressure={stats.pressure_events}"
                f" evict_del={stats.evictions_deleted}"
                f" cache_spill={stats.cache_spills}/{stats.cache_restores}"
                f" pool_spill={stats.pool_spills}/{stats.pool_restores}"
                f" bw={self.backend.bandwidth / (1 << 20):.0f}MiB/s")

    def close(self) -> None:
        """Release the spill backend (directory removal included)."""
        self.backend.close()
