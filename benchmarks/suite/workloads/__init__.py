"""The four workloads and what they share.

A workload builds seeded inputs and an independent NumPy reference
(:meth:`build`), and runs one *cold unit of work* under a named config
preset (:meth:`run_unit`): a fresh ``LimaSession`` or ``Service`` with an
empty cache.  The program under test only ever receives the generated
arrays and script text.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, field

import numpy as np

from repro import LimaConfig, LimaSession
from repro.lineage.serialize import deserialize, serialize

#: first-class presets every workload has; the trace pass adds ``extra``
E2E_PRESETS = ("base", "lima")


@dataclass
class Unit:
    """What one cold unit of work produced."""

    wall_s: float
    #: one entry per sub-unit (script workloads: one; service_mix: one per
    #: session, ``None`` where the session failed)
    outputs: list
    #: the ``LimaSession`` / ``Service`` that ran it (cache, memory, stats)
    owner: object
    attempted: int = 1
    failed: int = 0
    #: submit -> result seconds of each successful sub-unit
    latencies: list[float] = field(default_factory=list)
    #: per-session (queue_wait, run_time) of a Service batch
    session_stats: list[tuple[float, float]] = field(default_factory=list)
    #: a result object of the unit, for lineage access
    result: object = None
    #: ``repr`` of what failed sub-units raised
    errors: list[str] = field(default_factory=list)

    @property
    def busy_s(self) -> float:
        """Seconds of execution: thread-seconds for a concurrent batch."""
        if self.session_stats:
            return sum(run for _, run in self.session_stats)
        return self.wall_s


def same(a, b, rtol: float) -> bool:
    """Bit-identical when ``rtol`` is 0, else close relative to ``b``'s scale."""
    a, b = np.asarray(a), np.asarray(b)
    if a.shape != b.shape:
        return False
    if rtol == 0.0:
        return bool(np.array_equal(a, b))
    scale = float(np.max(np.abs(b))) if b.size else 0.0
    return bool(np.allclose(a, b, rtol=rtol, atol=rtol * scale))


def mismatches(got: list, want: list, rtol: float) -> int:
    """Sub-units whose outputs differ (failed sub-units are counted apart)."""
    return sum(1 for g, w in zip(got, want)
               if g is not None and w is not None
               and not all(same(x, y, rtol) for x, y in zip(g, w)))


def median_time(fn, repeats: int = 5) -> float:
    """Median seconds of ``repeats`` direct calls."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def lineage_metrics(root) -> dict[str, float]:
    """Size of one lineage DAG and the cost of its log round trip."""
    log = serialize(root)
    return {
        "lineage.items": root.num_nodes(),
        "lineage.log_bytes": len(log.encode()),
        "lineage.serialize_s": median_time(lambda: serialize(root)),
        "lineage.deserialize_s": median_time(lambda: deserialize(log)),
    }


def regression(rng: np.random.Generator, rows: int, cols: int):
    """A dense linear-regression dataset ``y = Xw + noise``."""
    X = rng.standard_normal((rows, cols))
    y = X @ rng.standard_normal((cols, 1)) + 0.1 * rng.standard_normal((rows, 1))
    return X, y


class ScriptWorkload:
    """One script run through ``LimaSession.run`` per unit."""

    name = ""
    #: preset label -> ``LimaConfig`` factory; "base" and "lima" are required
    presets: dict = {}
    #: presets only the trace pass runs (for the differencing metrics)
    extra: tuple[str, ...] = ()
    #: output variables compared between configs
    outputs: tuple[str, ...] = ()
    #: LIMA-vs-Base tolerance: 0 = bit-identical; 1e-7 where partial-reuse
    #: compensation fires (EXPERIMENTS.md deviation 4)
    rtol = 0.0
    #: NumPy-reference-vs-Base tolerance (different operation order)
    reference_rtol = 1e-6

    script = ""
    inputs: dict = {}
    #: one list of arrays, aligned with ``outputs``
    reference: list = []

    def build(self, seed: int, smoke: bool) -> None:
        raise NotImplementedError

    def scripts(self) -> list[str]:
        return [self.script]

    def matrix_inputs(self) -> dict:
        return {k: v for k, v in self.inputs.items() if isinstance(v, np.ndarray)}

    def run_unit(self, preset: str, tracer, profiler=None) -> Unit:
        start = time.perf_counter()
        session = LimaSession(self.presets[preset](), seed=7)
        if profiler is not None:
            session.attach_profiler(profiler)
        tracer.instrument(session)
        try:
            with tracer.span("api.run", session=f"{self.name}:{preset}"):
                result = session.run(self.script, inputs=self.inputs, seed=7)
            outputs = [result.get(name) for name in self.outputs]
        finally:
            tracer.restore()
        wall = time.perf_counter() - start
        return Unit(wall, [outputs], session, latencies=[wall], result=result)

    def check_reference(self, unit: Unit) -> int:
        return mismatches(unit.outputs, [self.reference], self.reference_rtol)

    def lineage_root(self, unit: Unit):
        """The lineage DAG the ``lineage.*`` size metrics are taken on."""
        return unit.result.lineage(self.outputs[0])

    def layer_extras(self, lima_unit: Unit) -> dict[str, float]:
        """Per-layer metrics only this workload can measure."""
        return {}


def all_workloads() -> dict:
    from benchmarks.suite.workloads.autoencoder_churn import AutoencoderChurn
    from benchmarks.suite.workloads.gridsearch_reuse import GridsearchReuse
    from benchmarks.suite.workloads.minibatch_trace import MinibatchTrace
    from benchmarks.suite.workloads.service_mix import ServiceMix
    return {w.name: w for w in (MinibatchTrace, GridsearchReuse,
                                AutoencoderChurn, ServiceMix)}


__all__ = ["E2E_PRESETS", "LimaConfig", "ScriptWorkload", "Unit", "all_workloads",
           "lineage_metrics", "median_time", "mismatches", "regression", "same"]
