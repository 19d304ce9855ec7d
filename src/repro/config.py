"""Runtime configuration for lineage tracing and lineage-based reuse.

Mirrors the configuration surface described in the LIMA paper (Section 4.1
and Section 5.1): reuse types (none / full / partial / hybrid), multi-level
reuse, eviction policy, memory budget, disk spilling, lineage deduplication,
operator fusion, and compiler assistance.

The named presets used throughout the paper's experiments are exposed as
constructors:

==============  =============================================================
Preset          Meaning in the paper
==============  =============================================================
``base()``      plain SystemDS: no lineage tracing, no reuse
``lt()``        lineage tracing only (Fig. 6 "LT")
``ltp()``       lineage tracing + reuse probing, empty cache (Fig. 6 "LTP")
``ltd()``       lineage tracing with deduplication (Fig. 6 "LTD")
``full()``      full operation reuse (Fig. 7(b) "LIMA-FR")
``multilevel()``full + multi-level function/block reuse ("LIMA-MLR")
``hybrid()``    full + partial reuse, multi-level, C&S eviction — the
                default "LIMA" configuration of Section 5
``ca()``        ``hybrid()`` plus compiler assistance (Fig. 7(a) "LIMA-CA")
==============  =============================================================
"""

from __future__ import annotations

from dataclasses import dataclass, replace

#: cache budget when ``memory_budget`` is unset and reuse is on (the paper
#: defaults to 5% of heap; 256 MiB plays that role on a laptop-scale build)
DEFAULT_CACHE_BYTES = 256 * 1024 * 1024


@dataclass
class LimaConfig:
    """Configuration of lineage tracing and the lineage cache.

    Attributes map one-to-one to the knobs discussed in the paper; see the
    module docstring for the preset constructors used in experiments.
    """

    #: trace lineage of executed instructions
    lineage: bool = False
    #: deduplicate lineage of last-level loops and functions (Section 3.2)
    dedup: bool = False
    #: probe/populate the lineage cache for full operation reuse
    reuse_full: bool = False
    #: probe partial-reuse rewrites with compensation plans (Section 4.2)
    reuse_partial: bool = False
    #: multi-level reuse of function and block outputs (Section 4.1)
    reuse_multilevel: bool = False
    #: compiler assistance: unmarking + reuse-aware rewrites (Section 4.4)
    compiler_assist: bool = False
    #: enable operator fusion of cell-wise chains (Section 3.3)
    fusion: bool = False
    #: eviction policy for the unified memory manager: "lru", "dagheight",
    #: or "costsize" (Table 1)
    eviction_policy: str = "costsize"
    #: unified memory budget in bytes shared by the lineage cache and the
    #: live-variable buffer pool; a positive value also enables the pool.
    #: ``None`` = :data:`DEFAULT_CACHE_BYTES` for the cache when reuse is
    #: on, 0 otherwise, buffer pool off
    memory_budget: int | None = None
    #: spill evicted entries to disk when recompute cost exceeds I/O cost
    spill: bool = True
    #: directory for spill files (None = a per-manager temp directory)
    spill_dir: str | None = None
    #: number of parfor worker threads (None = os.cpu_count())
    parfor_workers: int | None = None
    #: assumed disk bandwidth (bytes/s) seeding the adaptive I/O estimate
    disk_bandwidth: float = 512.0 * 1024 * 1024
    #: fault-injection specs (``point:kind[:rate=R,seed=S,times=N]``
    #: strings or FaultSpec objects); empty = no instrumented faults
    fault_specs: tuple = ()
    #: failed parfor iterations are retried on fresh worker contexts this
    #: many rounds before the sequential fallback
    parfor_retries: int = 2
    #: transient spill-read failures are retried this many times with
    #: bounded exponential backoff before lineage recovery takes over
    spill_retries: int = 3
    #: initial delay (seconds) of the spill-read retry backoff
    retry_backoff: float = 0.01
    #: reuse-correctness oracle: fraction of cache hits and partial-reuse
    #: compensations whose value is recomputed from its lineage trace and
    #: compared against the reused value (0.0 = off, 1.0 = every hit).
    #: Mismatches raise :class:`~repro.errors.ReuseVerificationError`.
    verify_reuse: float = 0.0

    # ------------------------------------------------------------------
    # presets
    # ------------------------------------------------------------------

    @staticmethod
    def base() -> "LimaConfig":
        """Plain execution: no lineage, no reuse (paper baseline *Base*)."""
        return LimaConfig()

    @staticmethod
    def lt() -> "LimaConfig":
        """Lineage tracing only (*LT* in Fig. 6)."""
        return LimaConfig(lineage=True)

    @staticmethod
    def ltp() -> "LimaConfig":
        """Lineage tracing plus cache probing (*LTP* in Fig. 6).

        The memory budget is zero, so nothing is ever admitted and every
        probe misses — isolating the probing overhead.
        """
        return LimaConfig(lineage=True, reuse_full=True, memory_budget=0)

    @staticmethod
    def ltd() -> "LimaConfig":
        """Lineage tracing with deduplication (*LTD* in Fig. 6)."""
        return LimaConfig(lineage=True, dedup=True)

    @staticmethod
    def full() -> "LimaConfig":
        """Full operation-level reuse (*LIMA-FR* in Fig. 7(b))."""
        return LimaConfig(lineage=True, reuse_full=True)

    @staticmethod
    def multilevel() -> "LimaConfig":
        """Full + multi-level reuse (*LIMA-MLR* in Fig. 7(b))."""
        return LimaConfig(lineage=True, reuse_full=True,
                          reuse_multilevel=True)

    @staticmethod
    def hybrid() -> "LimaConfig":
        """The default *LIMA* configuration: full + partial + multi-level."""
        return LimaConfig(lineage=True, reuse_full=True, reuse_partial=True,
                          reuse_multilevel=True)

    @staticmethod
    def ca() -> "LimaConfig":
        """*LIMA-CA*: hybrid reuse plus compiler assistance (Fig. 7(a))."""
        return LimaConfig(lineage=True, reuse_full=True, reuse_partial=True,
                          reuse_multilevel=True, compiler_assist=True)

    # ------------------------------------------------------------------

    def with_(self, **kwargs) -> "LimaConfig":
        """Return a copy with the given fields replaced."""
        return replace(self, **kwargs)

    @property
    def reuse_enabled(self) -> bool:
        """True when any reuse mode requires a lineage cache."""
        return self.reuse_full or self.reuse_partial or self.reuse_multilevel

    @property
    def buffer_pool_enabled(self) -> bool:
        """True when live variables participate in memory management.

        Opt-in by setting a (positive) unified ``memory_budget``.
        """
        return self.memory_budget is not None and self.memory_budget > 0

    def resolved_memory_budget(self) -> int:
        """The unified byte budget the memory manager enforces."""
        if self.memory_budget is not None:
            return self.memory_budget
        return DEFAULT_CACHE_BYTES if self.reuse_enabled else 0

    def validate(self) -> None:
        """Raise ``ValueError`` on inconsistent settings."""
        if self.eviction_policy not in ("lru", "dagheight", "costsize"):
            raise ValueError(
                f"unknown eviction policy: {self.eviction_policy!r}")
        if self.reuse_enabled and not self.lineage:
            raise ValueError("reuse requires lineage tracing to be enabled")
        if self.memory_budget is not None and self.memory_budget < 0:
            raise ValueError("memory_budget must be >= 0")
        if self.parfor_retries < 0:
            raise ValueError("parfor_retries must be >= 0")
        if self.spill_retries < 0:
            raise ValueError("spill_retries must be >= 0")
        if self.retry_backoff < 0:
            raise ValueError("retry_backoff must be >= 0")
        if not 0.0 <= self.verify_reuse <= 1.0:
            raise ValueError("verify_reuse must be in [0, 1]")
        if self.fault_specs:
            from repro.resilience.faults import FaultSpec, parse_fault_spec
            for spec in self.fault_specs:
                if not isinstance(spec, FaultSpec):
                    parse_fault_spec(spec)  # raises ValueError when invalid

