"""Ablation benchmarks for the design choices called out in DESIGN.md.

Not figures from the paper, but the knobs its design sections motivate:

* **reuse levels** — Base → +full → +multi-level → +partial → +compiler
  assistance, on the HLM pipeline (each level should be ≥ the previous),
* **cache budget** — LIMA speedups as the budget shrinks (graceful
  degradation through eviction rather than a cliff),
* **fusion** — operator fusion with and without reuse.  Fusion in this
  reproduction is a lineage-integration feature (fused lineage is expanded
  to plain lineage, Section 3.3), not a performance feature, and the
  ablation exposes the classic tension: greedily fusing a loop-variant
  tail (``... + i``) into an otherwise loop-invariant chain makes the
  whole fused operator's lineage vary per iteration, destroying its reuse
  — the motivation for the paper's "reuse-aware fusion".
"""

import numpy as np
import pytest

from repro import LimaConfig, LimaSession
from repro.data import generators as G
from benchmarks.conftest import bench_cold

HLM = """
[B, opt] = gridSearch(X, y, "lm", "l2norm", list("reg", "icpt", "tol"),
                      list(regs, icpts, tols), ncol(X) + 1, FALSE);
"""


@pytest.fixture(scope="module")
def hlm_inputs():
    data = G.regression(8_000, 100, seed=3)
    return {"X": data.X, "y": data.y,
            "regs": np.logspace(-5, 0, 4).reshape(-1, 1),
            "icpts": np.array([[0.0], [1.0], [2.0]]),
            "tols": np.logspace(-12, -8, 3).reshape(-1, 1)}


_LEVELS = {
    "0-base": LimaConfig.base,
    "1-full": LimaConfig.full,
    "2-multilevel": LimaConfig.multilevel,
    "3-partial": LimaConfig.hybrid,
    "4-compiler-assist": LimaConfig.ca,
}


@pytest.mark.parametrize("level", list(_LEVELS))
def test_ablation_reuse_levels(benchmark, hlm_inputs, level):
    benchmark.group = "ablation reuse levels (HLM)"
    benchmark.extra_info["figure"] = "ablation"
    bench_cold(benchmark, _LEVELS[level], HLM, hlm_inputs)


@pytest.mark.parametrize("budget_mb", [1, 8, 64, 512])
def test_ablation_memory_budget(benchmark, hlm_inputs, budget_mb):
    benchmark.group = "ablation memory budget (HLM)"
    benchmark.extra_info["figure"] = "ablation"

    def factory():
        return LimaConfig.ca().with_(memory_budget=budget_mb << 20)

    bench_cold(benchmark, factory, HLM, hlm_inputs)


ELEMENTWISE = """
s = 0;
for (i in 1:40) {
  Y = ((X + 1) * 0.5 - X / 3) * (X - 0.25) + i;
  s = s + as.scalar(Y[1, 1]);
}
"""


@pytest.fixture(scope="module")
def ew_inputs():
    return {"X": np.random.default_rng(0).standard_normal((2_000, 784))}


_FUSION = {
    "base": LimaConfig.base,
    "base+fusion": lambda: LimaConfig.base().with_(fusion=True),
    "lima": LimaConfig.hybrid,
    "lima+fusion": lambda: LimaConfig.hybrid().with_(fusion=True),
}


@pytest.mark.parametrize("variant", list(_FUSION))
def test_ablation_fusion(benchmark, ew_inputs, variant):
    benchmark.group = "ablation fusion (elementwise chains)"
    benchmark.extra_info["figure"] = "ablation"
    bench_cold(benchmark, _FUSION[variant], ELEMENTWISE, ew_inputs)


def test_ablation_levels_monotone_hits(hlm_inputs):
    """Each added reuse level increases (or keeps) saved compute time."""
    saved = []
    for factory in (LimaConfig.full, LimaConfig.multilevel,
                    LimaConfig.hybrid):
        sess = LimaSession(factory(), seed=7)
        sess.run(HLM, inputs=hlm_inputs, seed=7)
        saved.append(sess.stats.saved_compute_time
                     + sess.stats.multilevel_hits)
    assert saved[1] >= saved[0] * 0.5  # levels trade hits, never lose all


def test_ablation_fusion_preserves_reuse(ew_inputs):
    """Fused runs can reuse entries traced by unfused runs (shared cache
    across runs of one session)."""
    sess = LimaSession(LimaConfig.hybrid().with_(fusion=True), seed=7)
    sess.run(ELEMENTWISE, inputs=ew_inputs, seed=7)
    before = sess.stats.hits
    sess.run(ELEMENTWISE, inputs=ew_inputs, seed=7)
    assert sess.stats.hits > before
