"""``service_mix`` -- many short, overlapping sessions on one shared cache.

A closed loop (each simulated user waits for its reply before sending the
next request -- the human-in-the-loop pattern of HELIX) with
``clients = workers = min(nproc, 4)`` against an in-process
``Service(hybrid())``.  One unit is a batch of sessions over 6 regression
datasets with Zipf-skewed popularity (70 % on the two hot ones) x 3
script templates.  It is the only workload where queueing, admission
sampling, placeholder waits, cross-session hits, per-session
parse/compile and input fingerprinting are on the blocking path: once
reuse makes execution sub-millisecond these fixed costs are what the
user sees.

The mix is stratified: how many sessions each dataset and template gets,
and which hyper-parameters they walk through, is the same for every seed;
the seed draws the data and the arrival order.  That keeps the amount of
cold (first-touch) work, and with it the batch wall and the tail latency,
comparable between seeds -- with randomly drawn hyper-parameters the batch
wall differed by 15 % from seed to seed.
"""

from __future__ import annotations

import itertools
import os
import statistics
import threading
import time

import numpy as np

from repro.service import Service

from benchmarks.suite.workloads import (LimaConfig, Unit, mismatches,
                                        regression)

#: 6 x (5 000 x 100) keeps the shared cache at about two thirds of the
#: default 256 MiB budget.  At 8 000 rows it crosses the 95 % high-water
#: mark and admission degrades half of every batch to pass-through
#: sessions: a bimodal regime whose median does not repeat.
ROWS, COLS, SESSIONS = 5_000, 100, 300
POPULARITY = (0.45, 0.25, 0.12, 0.08, 0.06, 0.04)
GRID = np.logspace(-6, 0, 12)       # the shared lambda grid
KS = (5, 10, 15, 20)
SESSION_TIMEOUT_S = 60.0

SWEEP = """
L = matrix(0, nrow(regs), 1);
for (j in 1:nrow(regs)) {
  B = lm(X, y, 0, as.scalar(regs[j, 1]), 0.0000001, 0, FALSE);
  L[j, 1] = l2norm(X, y, B);
}
"""
CVLM = "L = cvlm(X, y, 4, 0, reg);"
PCALM = """
[R, evects] = pca(X, K);
B = lm(R, y, 0, 0.0001, 0.0000001, 0, FALSE);
L = l2norm(R, y, B);
"""
TEMPLATES = (SWEEP, CVLM, PCALM)


def _ridge_loss(X, y, reg):
    B = np.linalg.solve(X.T @ X + reg * np.eye(X.shape[1]), X.T @ y)
    return float(np.sum((y - X @ B) ** 2))


def reference(script: str, inputs: dict):
    """Closed-form NumPy value of ``L`` for one request."""
    X, y = inputs["X"], inputs["y"]
    if script is SWEEP:
        return np.array([[_ridge_loss(X, y, reg)] for reg in inputs["regs"].ravel()])
    if script is CVLM:
        fold = X.shape[0] // 4
        parts = [(X[i * fold:(i + 1) * fold], y[i * fold:(i + 1) * fold]) for i in range(4)]
        total = 0.0
        for i, (Xi, yi) in enumerate(parts):
            A = sum(Xj.T @ Xj for j, (Xj, _) in enumerate(parts) if j != i)
            b = sum(Xj.T @ yj for j, (Xj, yj) in enumerate(parts) if j != i)
            beta = np.linalg.solve(A + inputs["reg"] * np.eye(COLS), b)
            total += float(np.sum((yi - Xi @ beta) ** 2)) / 4
        return total
    n = X.shape[0]
    sd = X.std(axis=0, ddof=1, keepdims=True)
    sd[sd == 0] = 1.0
    A = (X - X.mean(axis=0, keepdims=True)) / sd
    mu = A.sum(axis=0, keepdims=True) / n
    C = (A.T @ A) / (n - 1) - (n / (n - 1)) * (mu.T @ mu)
    evals, evects = np.linalg.eigh(C)
    R = A @ evects[:, np.argsort(-evals)[:inputs["K"]]]
    # the loss does not depend on the sign of the eigenvectors
    return _ridge_loss(R, y, 0.0001)


class ServiceMix:
    name = "service_mix"
    presets = {"base": LimaConfig.base, "lima": LimaConfig.hybrid}
    extra: tuple[str, ...] = ()
    rtol = 1e-7
    reference_rtol = 1e-6
    #: requests of the warm-up batch whose Base result is checked against NumPy
    REFERENCED = 48

    def build(self, seed: int, smoke: bool) -> None:
        rng = np.random.default_rng(seed)
        rows, sessions = (400, 30) if smoke else (ROWS, SESSIONS)
        self.datasets = [regression(rng, rows, COLS) for _ in POPULARITY]
        self.requests = []
        for d, share in enumerate(POPULARITY):
            X, y = self.datasets[d]
            for j in range(max(3, round(share * sessions))):
                template, turn = TEMPLATES[j % 3], j // 3
                inputs = {"X": X, "y": y}
                if template is SWEEP:
                    inputs["regs"] = GRID[(turn + np.arange(4)) % len(GRID)].reshape(-1, 1)
                elif template is CVLM:
                    inputs["reg"] = float(GRID[turn % len(GRID)])
                else:
                    inputs["K"] = KS[turn % len(KS)]
                self.requests.append((template, inputs))
        rng.shuffle(self.requests)
        self.workers = min(os.cpu_count() or 1, 4)
        self.references = [[reference(s, i)] for s, i in self.requests[:self.REFERENCED]]
        #: the session whose lineage the serialize metrics are taken on
        self.traced_request = next(i for i, (s, _) in enumerate(self.requests) if s is SWEEP)

    def scripts(self) -> list[str]:
        return list(TEMPLATES)

    def matrix_inputs(self) -> dict:
        named = {}
        for d, (X, y) in enumerate(self.datasets):
            named[f"X{d}"], named[f"y{d}"] = X, y
        return named

    def check_reference(self, unit: Unit) -> int:
        return mismatches(unit.outputs, self.references, self.reference_rtol)

    def run_unit(self, preset: str, tracer, profiler=None) -> Unit:
        requests = self.requests
        service = Service(self.presets[preset](), workers=self.workers)
        if profiler is not None:
            service.attach_profiler(profiler)
        tracer.instrument(service)
        outputs = [None] * len(requests)
        results = [None] * len(requests)
        latency = [0.0] * len(requests)
        errors: list[str] = []
        ticket = itertools.count()

        def client():
            while (i := next(ticket)) < len(requests):
                script, inputs = requests[i]
                sid = f"r{i}"
                try:
                    with tracer.span("service.session", session=sid):
                        start = time.perf_counter()
                        result = service.submit(script, inputs, session_id=sid) \
                            .result(SESSION_TIMEOUT_S)
                        latency[i] = time.perf_counter() - start
                    outputs[i] = [result.get("L")]
                    results[i] = result
                except Exception as exc:    # raised, timed out or rejected
                    errors.append(f"{sid}: {exc!r}")

        clients = [threading.Thread(target=client) for _ in range(self.workers)]
        try:
            start = time.perf_counter()
            for thread in clients:
                thread.start()
            for thread in clients:
                thread.join()
            wall = time.perf_counter() - start
        finally:
            service.shutdown()
            tracer.restore()
        ok = [i for i, result in enumerate(results) if result is not None]
        return Unit(wall, outputs, service, attempted=len(requests),
                    failed=len(requests) - len(ok),
                    latencies=[latency[i] for i in ok],
                    session_stats=[(results[i].stats.queue_wait, results[i].stats.run_time)
                                   for i in ok],
                    result=results[self.traced_request], errors=errors)

    def lineage_root(self, unit: Unit):
        return unit.result.lineage("L")

    def layer_extras(self, lima_unit: Unit) -> dict[str, float]:
        stats = lima_unit.owner.service_stats()
        cache = lima_unit.owner.cache.stats
        overhead = [lat - wait - run for lat, (wait, run)
                    in zip(lima_unit.latencies, lima_unit.session_stats)]
        return {
            "service.queue_wait_mean_s": stats.queue_wait_total / max(stats.admitted, 1),
            "service.queue_wait_max_s": stats.queue_wait_max,
            "service.run_time_p50_s": statistics.median(r for _, r in lima_unit.session_stats),
            "service.overhead_p50_s": statistics.median(overhead),
            "service.cross_session_hit_rate": stats.cross_session_hit_rate(),
            "service.placeholder_waits": cache.placeholder_waits,
            "service.placeholder_rescues": cache.placeholder_rescues,
            "service.rejected": stats.rejected,
            "service.passthrough_sessions": stats.passthrough_sessions,
        }
