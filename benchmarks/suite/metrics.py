"""The fixed metric names of the suite: units, direction, bounds.

Later issues cite these names verbatim, so renaming one is a breaking
change of the instrument.  ``BENCHMARK.json`` at the repository root
lists the same names; ``python -m benchmarks.suite`` refuses to run when
the two disagree.

``Metric.moves`` records, for a per-layer metric, which end-to-end
metric it is expected to move and on which workload -- written down
before measuring, so a later change can be checked against it.
``Metric.exact`` marks counters that must repeat bit-for-bit under a
fixed seed on the three single-client script workloads.
"""

from __future__ import annotations

from dataclasses import dataclass

WORKLOADS = {
    "minibatch_trace":
        "Fig. 6(a) mini-batch loop of tiny elementwise ops with nothing to reuse: "
        "dispatch, lineage-item construction and probe-miss do the work, cache and kernels none",
    "gridsearch_reuse":
        "Fig. 9(b) gridSearch over lm, 36 configs: about half the probes hit, so time is "
        "big kernels plus cache reads; lineage and dispatch are negligible",
    "autoencoder_churn":
        "autoencoder builtin under default hybrid(): nearly every probe misses, so the cache "
        "does writes (admit, charge, evict_to_fit) and LIMA is slower than Base",
    "service_mix":
        "closed-loop Service sessions, Zipf-skewed over 6 datasets x 3 templates: queueing, "
        "cross-session hits and per-session fixed costs are on the blocking path",
}

SCRIPT_WORKLOADS = ("minibatch_trace", "gridsearch_reuse", "autoencoder_churn")


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str                 # "lower" | "higher"
    bound: float | None = None  # end-to-end only: tolerated relative worsening
    exact: bool = False
    moves: str = ""


END_TO_END = (
    Metric("setup_s", "s", "lower", 0.25),
    Metric("lima_wall_s", "s", "lower", 0.10),
    Metric("base_wall_s", "s", "lower", 0.15),
    Metric("sessions_per_s", "1/s", "higher", 0.10),
    Metric("session_p50_s", "s", "lower", 0.15),
    Metric("session_p95_s", "s", "lower", 0.20),
    Metric("peak_rss_mb", "MB", "lower", 0.10),
)

_SESSION = "session_p50_s on service_mix; ~0 elsewhere"
_DISPATCH = "base_wall_s and lima_wall_s on minibatch_trace"
_KERNEL = ("base_wall_s and lima_wall_s on gridsearch_reuse and autoencoder_churn; "
           "not on minibatch_trace")
_LINEAGE = ("lima_wall_s and peak_rss_mb on minibatch_trace; "
            "no movement on gridsearch_reuse")
_HIT = "lima_wall_s on gridsearch_reuse; session_p50_s on service_mix"
_EVICT = ("lima_wall_s on autoencoder_churn; zero on minibatch_trace (budget 0) "
          "and gridsearch_reuse (fits)")
_FAULT = "must be 0 in these fault-free runs; non-zero means failed is about to move"
_QUEUE = "session_p95_s on service_mix"
_THROUGHPUT = "sessions_per_s on service_mix"

PER_LAYER = (
    Metric("failed_share", "share", "lower",
           moves="every end-to-end metric: failed units carry no timing sample"),
    # lang / compiler / api: the per-session fixed costs
    Metric("lang.parse_s", "s", "lower", moves=_SESSION),
    Metric("compiler.compile_s", "s", "lower", moves=_SESSION),
    Metric("compiler.instructions", "count", "lower", exact=True, moves=_SESSION),
    Metric("compiler.assist_wall_s", "s", "lower",
           moves="lima_wall_s on autoencoder_churn, if unmarking became the default"),
    Metric("api.fingerprint_s", "s", "lower", moves=_SESSION),
    Metric("api.lima_over_base", "ratio", "lower",
           moves="none: the ratio of two gated metrics, reported so it is never gated"),
    # runtime: interpreter dispatch and kernels, from the traced Base unit
    Metric("runtime.instructions", "count", "lower", exact=True, moves=_DISPATCH),
    Metric("runtime.base_ns_per_instr", "ns", "lower", moves=_DISPATCH),
    Metric("runtime.kernel_s", "s", "lower", moves=_KERNEL),
    Metric("runtime.dispatch_s", "s", "lower", moves=_DISPATCH),
    Metric("runtime.op.mm_s", "s", "lower", moves=_KERNEL),
    Metric("runtime.op.tsmm_s", "s", "lower", moves=_KERNEL),
    Metric("runtime.op.solve_s", "s", "lower", moves=_KERNEL),
    Metric("runtime.op.ewise_s", "s", "lower", moves=_KERNEL),
    Metric("runtime.op.index_s", "s", "lower", moves=_KERNEL),
    # lineage: tracing tax and trace size
    Metric("lineage.trace_s", "s", "lower", moves=_LINEAGE),
    Metric("lineage.dedup_trace_s", "s", "lower", moves=_LINEAGE),
    Metric("lineage.items", "count", "lower", exact=True, moves=_LINEAGE),
    Metric("lineage.items_dedup", "count", "lower", exact=True, moves=_LINEAGE),
    Metric("lineage.bytes_per_item", "B", "lower", moves=_LINEAGE),
    Metric("lineage.serialize_s", "s", "lower", moves=_LINEAGE),
    Metric("lineage.deserialize_s", "s", "lower", moves=_LINEAGE),
    Metric("lineage.log_bytes", "B", "lower", exact=True, moves=_LINEAGE),
    Metric("lineage.recompute_s", "s", "lower", moves=_LINEAGE),
    # reuse: the lineage cache, read side and write side
    Metric("reuse.probes", "count", "lower", exact=True, moves=_HIT),
    Metric("reuse.hits", "count", "higher", exact=True, moves=_HIT),
    Metric("reuse.hit_rate", "share", "higher", exact=True, moves=_HIT),
    Metric("reuse.multilevel_hits", "count", "higher", exact=True, moves=_HIT),
    Metric("reuse.partial_probes", "count", "lower", exact=True, moves=_HIT),
    Metric("reuse.partial_hits", "count", "higher", exact=True, moves=_HIT),
    Metric("reuse.puts", "count", "lower", exact=True, moves=_EVICT),
    Metric("reuse.rejected", "count", "lower", exact=True, moves=_EVICT),
    Metric("reuse.probe_miss_s", "s", "lower", moves="lima_wall_s on minibatch_trace"),
    Metric("reuse.probe_s", "s", "lower", moves=_HIT),
    Metric("reuse.admit_s", "s", "lower", moves="lima_wall_s on autoencoder_churn"),
    Metric("reuse.saved_compute_s", "s", "higher", moves=_HIT),
    Metric("reuse.persist_save_s", "s", "lower", moves="none: Service shutdown/warm start"),
    Metric("reuse.persist_load_s", "s", "lower", moves="none: Service shutdown/warm start"),
    Metric("reuse.persist_bytes", "B", "lower", moves="none: Service shutdown/warm start"),
    # memory: the unified manager and its spill backend
    Metric("memory.peak_bytes", "B", "lower", moves="peak_rss_mb on every reuse workload"),
    Metric("memory.pressure_events", "count", "lower", moves=_EVICT),
    Metric("memory.evictions", "count", "lower", moves=_EVICT),
    Metric("memory.evict_s", "s", "lower", moves=_EVICT),
    Metric("memory.evict_us_per_victim", "us", "lower", moves=_EVICT),
    Metric("memory.spills", "count", "lower", moves=_EVICT),
    Metric("memory.restores", "count", "lower", moves=_EVICT),
    Metric("memory.spill_write_mb_s", "MB/s", "higher", moves=_EVICT),
    Metric("memory.spill_read_mb_s", "MB/s", "higher", moves=_EVICT),
    # resilience
    Metric("resilience.recomputes", "count", "lower", moves=_FAULT),
    Metric("resilience.spill_read_retries", "count", "lower", moves=_FAULT),
    Metric("resilience.degraded_events", "count", "lower", moves=_FAULT),
    # service: queueing and cross-session reuse (service_mix only)
    Metric("service.queue_wait_mean_s", "s", "lower", moves=_QUEUE),
    Metric("service.queue_wait_max_s", "s", "lower", moves=_QUEUE),
    Metric("service.run_time_p50_s", "s", "lower", moves=_SESSION),
    Metric("service.overhead_p50_s", "s", "lower", moves=_THROUGHPUT),
    Metric("service.cross_session_hit_rate", "share", "higher", moves=_THROUGHPUT),
    Metric("service.placeholder_waits", "count", "lower", moves=_QUEUE),
    Metric("service.placeholder_rescues", "count", "lower", moves=_QUEUE),
    Metric("service.rejected", "count", "lower", moves=_FAULT),
    Metric("service.passthrough_sessions", "count", "lower", moves=_THROUGHPUT),
    # so nobody mistakes traced numbers for end-to-end ones
    Metric("trace.overhead_ratio", "ratio", "lower",
           moves="none: traced lima_wall_s over untraced, per workload"),
)


def benchmark_json(command: list[str], paths: list[str], run_seconds: int) -> dict:
    """The document ``BENCHMARK.json`` must equal."""
    return {
        "command": command,
        "paths": paths,
        "run_seconds": run_seconds,
        "workloads": [{"name": name, "why": why} for name, why in WORKLOADS.items()],
        "end_to_end": [{"name": m.name, "unit": m.unit, "better": m.better,
                        "bound": m.bound} for m in END_TO_END],
        "per_layer": [{"name": m.name, "unit": m.unit, "better": m.better}
                      for m in PER_LAYER],
    }
