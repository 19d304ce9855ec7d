"""``minibatch_trace`` -- paper Fig. 6(a).

One epoch over ``rows x 784`` in batches of 8; every iteration slices a
batch and runs 40 unrolled elementwise operations on a ~50 KB operand.
Nothing is reusable and the kernels are tiny, so interpreter dispatch,
lineage-item construction/hashing and the probe miss do nearly all the
work; the memory manager and the kernels do almost none.  This is the
workload on which lineage and dispatch optimisations must show and cache
or kernel optimisations must not.
"""

from __future__ import annotations

import gc
import tracemalloc

import numpy as np

from benchmarks.suite.tracing import NoTrace
from benchmarks.suite.workloads import (LimaConfig, ScriptWorkload, Unit,
                                        lineage_metrics)

COLS = 784
BATCH = 8
STEPS = 10      # unrolled script lines, 4 elementwise instructions each

_STEP = "  Xb = ((Xb + Xb) * k - Xb) / (k + 1);\n"
SCRIPT = """
iters = as.integer(floor(nrow(X) / b));
s = 0;
for (k in 1:iters) {
  beg = (k - 1) * b + 1;
  fin = k * b;
  Xb = X[beg:fin, ];
""" + _STEP * STEPS + """
  s = s + as.scalar(Xb[1, 1]);
}
"""


def reference(X: np.ndarray) -> float:
    """The direct NumPy loop the script spells out."""
    s = 0.0
    for k in range(1, X.shape[0] // BATCH + 1):
        xb = X[(k - 1) * BATCH:k * BATCH]
        for _ in range(STEPS):
            xb = ((xb + xb) * k - xb) / (k + 1)
        s += xb[0, 0]
    return s


class MinibatchTrace(ScriptWorkload):
    name = "minibatch_trace"
    presets = {"base": LimaConfig.base, "lima": LimaConfig.ltp,
               "lt": LimaConfig.lt, "ltd": LimaConfig.ltd}
    extra = ("lt", "ltd")
    outputs = ("s",)
    script = SCRIPT

    def build(self, seed: int, smoke: bool) -> None:
        rows = 500 if smoke else 10_000
        X = np.random.default_rng(seed).standard_normal((rows, COLS))
        self.inputs = {"X": X, "b": BATCH}
        self.reference = [reference(X)]

    def layer_extras(self, lima_unit: Unit) -> dict[str, float]:
        # With reuse on, scalars carry literal lineage and the trace of `s` is
        # one node; under LT and LTD it reaches every item of the run.
        ltd = self.run_unit("ltd", NoTrace())
        items_dedup = self.lineage_root(ltd).num_nodes()
        del ltd
        # heap growth of one LT run while its trace is still alive (items are
        # hash-consed, so no earlier LT trace may be)
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            held = self.run_unit("lt", NoTrace())
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        size = lineage_metrics(self.lineage_root(held))
        return {**size, "lineage.items_dedup": items_dedup,
                "lineage.bytes_per_item": grown / size["lineage.items"]}
