"""The measuring procedure every workload goes through.

One process measures one workload.  *Set-up* builds the seeded inputs and
the NumPy reference (several times; the median counts) and runs one
discarded warm-up round, whose Base outputs are checked against the
reference.  Then interleaved rounds run until ``seconds`` have passed:
each round executes one cold unit under every preset back to back, so
drift hits every config equally; ``gc.collect()`` runs before each unit
and the collector stays *on* inside it (scanning a growing lineage DAG is
a real LIMA cost); LIMA outputs are compared with the same round's Base
outputs.

:func:`measure_end_to_end` reports what a user sees and never traces.
:func:`measure_layers` is the separate traced pass: half its time goes
to the same untraced rounds (for the metrics that are differences of
presets), then one Base unit runs under ``OpProfiler`` and one LIMA unit
under ``OpProfiler`` plus the span wrappers of :mod:`tracing`, followed
by direct calls into single layers.
"""

from __future__ import annotations

import gc
import os
import resource
import statistics
import sys
import time
from collections import defaultdict

import numpy as np

from repro.api import input_leaf_item
from repro.compiler import BasicBlock, compile_program
from repro.data.values import wrap
from repro.lang import parse
from repro.memory.spill import SpillBackend
from repro.reuse.cache import LineageCache
from repro.reuse.persist import load_cache, save_cache
from repro.runtime.profiler import OpProfiler

from benchmarks.suite.metrics import PER_LAYER
from benchmarks.suite.tracing import NoTrace, Tracer
from benchmarks.suite.workloads import (E2E_PRESETS, Unit, lineage_metrics,
                                        median_time, mismatches)

SETUP_REPEATS = 3
SPILL_MB, SPILL_REPEATS = 8, 20
PERSIST_BYTES = 16 << 20
#: opcodes whose profiler time already contains their callees'
CONTAINERS = {"fcall", "eval"}
EWISE = {"+", "-", "*", "/", "^", "%%", "min2", "max2", "==", "!=", "<", ">", "<=", ">=",
         "&", "|", "!", "exp", "log", "sqrt", "abs", "round", "floor", "ceil", "sign",
         "sigmoid", "fused"}
INDEX = {"rightIndex", "leftIndex"}


def environment(seed: int) -> dict:
    return {"seed": seed, "nproc": os.cpu_count(), "loadavg": os.getloadavg(),
            "python": sys.version.split()[0], "numpy": np.__version__,
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS")}


def release(unit: Unit | None) -> None:
    """Drop a unit's cache contents and spill files before the next one."""
    if unit is None:
        return
    if unit.owner.cache is not None:
        unit.owner.cache.clear()
    if unit.owner.memory is not None:
        unit.owner.memory.close()


class Tally:
    """Units attempted and failed, with what the failures said."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def unit(self, run) -> Unit | None:
        """Run one unit; a unit that raises is one failed attempt."""
        gc.collect()
        try:
            unit = run()
        except Exception as exc:
            self.attempted += 1
            self.fail(1, repr(exc))
            return None
        self.attempted += unit.attempted
        self.failed += unit.failed
        self.errors.extend(unit.errors)
        return unit

    def fail(self, count: int, why: str) -> None:
        if count:
            self.failed += count
            self.errors.append(why)


def set_up(workload, seed: int, smoke: bool, presets, tally: Tally,
           repeats: int = 1) -> dict:
    """Build inputs and reference, then one discarded warm-up round."""
    builds = []
    for _ in range(repeats):
        start = time.perf_counter()
        workload.build(seed, smoke)
        builds.append(time.perf_counter() - start)
    start = time.perf_counter()
    base = None
    for preset in presets:
        unit = tally.unit(lambda: workload.run_unit(preset, NoTrace()))
        if unit is None:
            continue
        if preset == "base":
            base = unit.outputs
            tally.fail(workload.check_reference(unit),
                       "Base differs from the NumPy reference")
        elif base is not None:
            tally.fail(mismatches(unit.outputs, base, workload.rtol),
                       f"{preset} differs from Base in the warm-up round")
        release(unit)
    # read here, after one cold unit per preset in a fresh process: later
    # rounds only add what the allocator failed to hand back, which varies
    return {"build_s": statistics.median(builds), "build_samples": len(builds),
            "warmup_s": time.perf_counter() - start, "peak_rss_mb": peak_rss_mb()}


def rounds(workload, presets, seconds: float, min_rounds: int, tally: Tally) -> dict:
    """Interleaved cold units until ``seconds`` have passed."""
    walls = defaultdict(list)
    latencies = defaultdict(list)
    rates = defaultdict(list)       # correct sub-units per second, per unit
    start = time.perf_counter()
    done = 0
    while done < min_rounds or time.perf_counter() - start < seconds:
        base = None
        for preset in presets:
            unit = tally.unit(lambda: workload.run_unit(preset, NoTrace()))
            if unit is None:
                continue
            wrong = 0
            if preset == "base":
                base = unit.outputs
            elif base is not None:
                wrong = mismatches(unit.outputs, base, workload.rtol)
                tally.fail(wrong, f"{preset} differs from Base in round {done}")
            walls[preset].append(unit.wall_s)
            latencies[preset].extend(unit.latencies)
            rates[preset].append((unit.attempted - unit.failed - wrong) / unit.wall_s)
            release(unit)
            del unit
        done += 1
    return {"rounds": done, "walls": dict(walls), "latencies": dict(latencies),
            "rates": dict(rates)}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure_end_to_end(workload, seed: int, seconds: float, smoke: bool,
                       import_s: float) -> tuple[dict, Tally, dict]:
    tally = Tally()
    setup = set_up(workload, seed, smoke, E2E_PRESETS, tally,
                   1 if smoke else SETUP_REPEATS)
    measured = rounds(workload, E2E_PRESETS, seconds, 1 if smoke else 3, tally)
    lima_walls, base_walls = measured["walls"]["lima"], measured["walls"]["base"]
    lima_latencies = measured["latencies"]["lima"]
    metrics = {
        "setup_s": import_s + setup["build_s"] + setup["warmup_s"],
        "lima_wall_s": statistics.median(lima_walls),
        "base_wall_s": statistics.median(base_walls),
        "sessions_per_s": statistics.median(measured["rates"]["lima"]),
        "session_p50_s": float(np.percentile(lima_latencies, 50)),
        "session_p95_s": float(np.percentile(lima_latencies, 95)),
        "peak_rss_mb": setup["peak_rss_mb"],
    }
    detail = {"import_s": import_s, **setup, "rounds": measured["rounds"],
              "samples": {"lima_wall_s": len(lima_walls), "base_wall_s": len(base_walls),
                          "session_p50_s": len(lima_latencies),
                          "session_p95_s": len(lima_latencies)},
              "walls": measured["walls"]}
    return metrics, tally, detail


# ----------------------------------------------------------------------
# the traced pass
# ----------------------------------------------------------------------

def _frontend(workload) -> dict:
    """Direct, unmemoized calls into lang, compiler and api."""
    config = workload.presets["lima"]()
    scripts = workload.scripts()
    asts = [parse(text) for text in scripts]
    programs = [compile_program(tree, config) for tree in asts]
    values = {name: wrap(array) for name, array in workload.matrix_inputs().items()}
    return {
        "lang.parse_s": median_time(lambda: [parse(text) for text in scripts]),
        "compiler.compile_s": median_time(
            lambda: [compile_program(tree, config) for tree in asts]),
        "compiler.instructions": sum(
            len(block.instructions) for program in programs
            for block in program.all_blocks() if isinstance(block, BasicBlock)),
        "api.fingerprint_s": median_time(
            lambda: [input_leaf_item(name, value) for name, value in values.items()]),
    }


def _runtime(profiler: OpProfiler, base_unit: Unit, base_wall_s: float) -> dict:
    """Interpreter and kernels, from the profiled Base unit."""
    def op_time(opcodes):
        return sum(t for op, t in profiler.op_time.items() if op in opcodes)
    kernel_s = sum(t for op, t in profiler.op_time.items() if op not in CONTAINERS)
    instructions = profiler.total_count()
    return {
        "runtime.instructions": instructions,
        "runtime.base_ns_per_instr": base_wall_s / max(instructions, 1) * 1e9,
        "runtime.kernel_s": kernel_s,
        "runtime.dispatch_s": base_unit.busy_s - kernel_s,
        "runtime.op.mm_s": op_time({"mm"}),
        "runtime.op.tsmm_s": op_time({"tsmm"}),
        "runtime.op.solve_s": op_time({"solve"}),
        "runtime.op.ewise_s": op_time(EWISE),
        "runtime.op.index_s": op_time(INDEX),
    }


def _counters(lima_unit: Unit, tracer: Tracer, self_times: dict) -> dict:
    """The public counters of the traced LIMA unit, and its spans."""
    owner = lima_unit.owner
    cache, memory, fault = owner.cache.stats, owner.memory.stats, owner.resilience.stats
    victims = memory.evictions_deleted + memory.cache_spills + memory.pool_spills
    evict_s = tracer.total("memory.evict")
    return {
        "reuse.probes": cache.probes,
        "reuse.hits": cache.hits,
        "reuse.hit_rate": cache.hits / max(cache.probes, 1),
        "reuse.multilevel_hits": cache.multilevel_hits,
        "reuse.partial_probes": cache.partial_probes,
        "reuse.partial_hits": cache.partial_hits,
        "reuse.puts": cache.puts,
        "reuse.rejected": cache.rejected,
        "reuse.probe_s": self_times.get("reuse.probe", 0.0),
        "reuse.admit_s": self_times.get("reuse.admit", 0.0),
        "reuse.saved_compute_s": cache.saved_compute_time,
        "memory.peak_bytes": memory.peak_bytes,
        "memory.pressure_events": memory.pressure_events,
        "memory.evictions": victims,
        "memory.evict_s": evict_s,
        "memory.evict_us_per_victim": evict_s / victims * 1e6 if victims else 0.0,
        "memory.spills": memory.cache_spills + memory.pool_spills,
        "memory.restores": memory.cache_restores + memory.pool_restores,
        "resilience.recomputes": fault.recomputes,
        "resilience.spill_read_retries": fault.spill_read_retries,
        "resilience.degraded_events": fault.degraded_events,
    }


def _persist(lima_unit: Unit, scratch: str) -> dict:
    """``save_cache``/``load_cache`` on a bounded sample of the unit's cache.

    Archiving the whole 256 MiB cache takes ~10 s; the first
    ``PERSIST_BYTES`` of cached values (insertion order) are copied into a
    cache of their own and that one is saved and loaded.
    """
    config = lima_unit.owner.config
    sample = LineageCache(config)
    taken = 0
    for entry in lima_unit.owner.cache.entries():
        if entry.status != "cached" or taken + entry.size > PERSIST_BYTES:
            continue
        taken += entry.size
        sample.put(entry.key, entry.output.value, entry.output.lineage, entry.compute_time)
    path = os.path.join(scratch, "persist.zip")
    warm = LineageCache(config)
    try:
        start = time.perf_counter()
        save_cache(sample, path)
        save_s = time.perf_counter() - start
        size = os.path.getsize(path)
        start = time.perf_counter()
        load_cache(warm, path)
        load_s = time.perf_counter() - start
    finally:
        for cache in (sample, warm):
            cache.clear()
            cache.memory.close()
        if os.path.exists(path):
            os.unlink(path)
    return {"reuse.persist_save_s": save_s, "reuse.persist_load_s": load_s,
            "reuse.persist_bytes": size}


def _spill_bandwidth(scratch: str) -> dict:
    """Direct ``SpillBackend.write``/``read`` of a fixed array."""
    backend = SpillBackend(os.path.join(scratch, "spill"))
    array = np.random.default_rng(0).standard_normal(SPILL_MB * (1 << 20) // 8)
    write_s, read_s = [], []
    try:
        for _ in range(SPILL_REPEATS):
            start = time.perf_counter()
            path = backend.write(array)
            write_s.append(time.perf_counter() - start)
            start = time.perf_counter()
            backend.read(path)
            read_s.append(time.perf_counter() - start)
    finally:
        backend.close()
    return {"memory.spill_write_mb_s": SPILL_MB / statistics.median(write_s),
            "memory.spill_read_mb_s": SPILL_MB / statistics.median(read_s)}


def measure_layers(workload, seed: int, seconds: float, smoke: bool,
                   scratch: str, trace_path: str) -> tuple[dict, Tally, dict]:
    tally = Tally()
    presets = E2E_PRESETS + workload.extra
    set_up(workload, seed, smoke, presets, tally)
    measured = rounds(workload, presets, seconds / 2, 1 if smoke else 2, tally)
    wall = {p: statistics.median(w) for p, w in measured["walls"].items()}
    metrics = dict.fromkeys((m.name for m in PER_LAYER), 0.0)
    metrics["api.lima_over_base"] = wall["lima"] / wall["base"]
    if "lt" in wall:
        metrics["lineage.trace_s"] = wall["lt"] - wall["base"]
        metrics["lineage.dedup_trace_s"] = wall["ltd"] - wall["base"]
        metrics["reuse.probe_miss_s"] = wall["lima"] - wall["lt"]
    if "ca" in wall:
        metrics["compiler.assist_wall_s"] = wall["ca"]
    metrics.update(_frontend(workload))

    profiler = OpProfiler()
    base_unit = tally.unit(lambda: workload.run_unit("base", NoTrace(), profiler))
    if base_unit is not None:
        metrics.update(_runtime(profiler, base_unit, wall["base"]))
        release(base_unit)

    tracer = Tracer()
    lima_unit = tally.unit(lambda: workload.run_unit("lima", tracer, OpProfiler()))
    layers = {}
    if lima_unit is not None:
        layers = tracer.self_times()
        metrics["trace.overhead_ratio"] = lima_unit.wall_s / wall["lima"]
        metrics.update(_counters(lima_unit, tracer, layers))
        metrics.update(lineage_metrics(workload.lineage_root(lima_unit)))
        metrics.update(_persist(lima_unit, scratch))
        try:
            metrics.update(workload.layer_extras(lima_unit))
        except Exception as exc:
            tally.attempted += 1
            tally.fail(1, f"layer_extras: {exc!r}")
        tracer.write(trace_path, {
            "workload": workload.name, "seed": seed, "unit_wall_s": lima_unit.wall_s,
            "untraced_wall_s": wall["lima"], "root_span_s": tracer.root_total(),
            "layer_self_s": layers})
        release(lima_unit)
    metrics.update(_spill_bandwidth(scratch))
    metrics["failed_share"] = tally.failed / max(tally.attempted, 1)
    detail = {"rounds": measured["rounds"], "walls": measured["walls"],
              "layer_self_s": layers,
              "traced_unit_wall_s": lima_unit.wall_s if lima_unit else None}
    return metrics, tally, detail
