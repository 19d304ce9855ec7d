"""``gridsearch_reuse`` -- paper Fig. 9(b), the HLM pipeline.

``gridSearch`` over ``lm`` with 4 reg x 3 icpt x 3 tol = 36 configurations
on ``rows x 100``.  ``tol`` is irrelevant on the direct-solve path and
``t(X) %*% X`` / ``t(X) %*% y`` do not depend on ``reg``, so about half
of ~750 probes hit, 51 of them at function level, and the working set
fits the default 256 MiB budget.  Time is big kernels (``tsmm``, ``mm``,
``solve``) plus cache *reads*; lineage and dispatch are negligible here,
which makes this their bypass workload.
"""

from __future__ import annotations

import time

import numpy as np

from benchmarks.suite.workloads import (LimaConfig, ScriptWorkload, Unit,
                                        regression, same)

COLS = 100
SCRIPT = """
[B, opt] = gridSearch(X, y, "lm", "l2norm", list("reg", "icpt", "tol"),
                      list(regs, icpts, tols), ncol(X) + 1, FALSE);
"""


def _scale_and_shift(X: np.ndarray) -> np.ndarray:
    sd = X.std(axis=0, ddof=1, keepdims=True)
    sd[sd == 0] = 1.0
    return (X - X.mean(axis=0, keepdims=True)) / sd


def reference(X, y, regs, icpts):
    """Closed-form ``solve(X'X + reg I, X'y)`` per (reg, icpt); best by loss."""
    ones = np.ones((X.shape[0], 1))
    best_loss, best_B = np.inf, None
    for icpt in icpts.ravel():
        Xi = _scale_and_shift(X) if icpt == 2 else X
        if icpt > 0:
            Xi = np.hstack([Xi, ones])
        A, b = Xi.T @ Xi, Xi.T @ y
        for reg in regs.ravel():
            B = np.linalg.solve(A + reg * np.eye(A.shape[0]), b)
            # l2norm scores on the *unscaled* X, as the builtin does
            Xs = np.hstack([X, ones]) if B.shape[0] > X.shape[1] else X
            loss = float(np.sum((y - Xs @ B) ** 2))
            if loss < best_loss:
                best_loss, best_B = loss, B
    padded = np.zeros((X.shape[1] + 1, 1))
    padded[:best_B.shape[0]] = best_B
    return padded, best_loss


class GridsearchReuse(ScriptWorkload):
    name = "gridsearch_reuse"
    presets = {"base": LimaConfig.base, "lima": LimaConfig.ca}
    outputs = ("B", "opt")
    rtol = 1e-7
    script = SCRIPT

    def build(self, seed: int, smoke: bool) -> None:
        X, y = regression(np.random.default_rng(seed), 2_000 if smoke else 40_000, COLS)
        self.inputs = {"X": X, "y": y,
                       "regs": np.logspace(-5, 0, 4).reshape(-1, 1),
                       "icpts": np.array([[0.0], [1.0], [2.0]]),
                       "tols": np.logspace(-12, -8, 3).reshape(-1, 1)}
        self.reference = list(reference(X, y, self.inputs["regs"], self.inputs["icpts"]))

    def layer_extras(self, lima_unit: Unit) -> dict[str, float]:
        # Section 3.1: re-compute the winning model from its lineage log alone
        log = lima_unit.result.lineage_log("B")
        start = time.perf_counter()
        again = lima_unit.owner.recompute(log, inputs=self.inputs)
        elapsed = time.perf_counter() - start
        if not same(again, lima_unit.outputs[0][0], self.rtol):
            raise AssertionError("recompute from lineage differs from the run's B")
        return {"lineage.recompute_s": elapsed}
