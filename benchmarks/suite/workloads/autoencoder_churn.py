"""``autoencoder_churn`` -- the ``autoencoder`` builtin under default LIMA.

``rows x 120``, H1=100, H2=2, 8 epochs, batch 256, under the *default*
``hybrid()`` preset with its default 256 MiB budget.  The weights change
every step, so almost every probe misses and the ~5 K admitted
intermediates exceed the budget on their own: the cache does *writes* --
admit, charge, ``evict_to_fit`` -- and only the per-batch
``scaleAndShift`` results (function-level hits from epoch 2 on) are worth
keeping.  The same ``reuse`` layer as ``gridsearch_reuse`` used the other
way round: a gain for cache reads that costs admission or eviction shows
here.  ``ca()`` (the extra preset) shows what compiler-assisted unmarking
alone recovers.
"""

from __future__ import annotations

import numpy as np

from benchmarks.suite.workloads import LimaConfig, ScriptWorkload

COLS, H1, H2, EPOCHS, BATCH, LR, SEED_W = 120, 100, 2, 8, 256, 0.01, 7
SCRIPT = f"[W1, W2, W3, W4] = autoencoder(X, {H1}, {H2}, {EPOCHS}, {BATCH}, {LR}, {SEED_W});"


def _sigmoid(a):
    return 1.0 / (1.0 + np.exp(-a))


def reference(X: np.ndarray):
    """Eager NumPy training loop with the builtin's math and seeds."""
    n, d = X.shape
    rand = [np.random.default_rng(SEED_W + i) for i in range(4)]
    w1 = (rand[0].random((d, H1)) - 0.5) / np.sqrt(d)
    w2 = (rand[1].random((H1, H2)) - 0.5) / np.sqrt(H1)
    w3 = (rand[2].random((H2, H1)) - 0.5) / np.sqrt(H2)
    w4 = (rand[3].random((H1, d)) - 0.5) / np.sqrt(H1)
    for _ in range(EPOCHS):
        for i in range(n // BATCH):
            xb = X[i * BATCH:(i + 1) * BATCH]
            sd = xb.std(axis=0, ddof=1, keepdims=True)
            sd[sd == 0] = 1.0
            xb = (xb - xb.mean(axis=0, keepdims=True)) / sd
            h1 = _sigmoid(xb @ w1)
            h2 = _sigmoid(h1 @ w2)
            h3 = _sigmoid(h2 @ w3)
            err = h3 @ w4 - xb
            dw4 = h3.T @ err
            dh3 = (err @ w4.T) * h3 * (1 - h3)
            dw3 = h2.T @ dh3
            dh2 = (dh3 @ w3.T) * h2 * (1 - h2)
            dw2 = h1.T @ dh2
            dh1 = (dh2 @ w2.T) * h1 * (1 - h1)
            dw1 = xb.T @ dh1
            w1 = w1 - LR * dw1
            w2 = w2 - LR * dw2
            w3 = w3 - LR * dw3
            w4 = w4 - LR * dw4
    return [w1, w2, w3, w4]


class AutoencoderChurn(ScriptWorkload):
    name = "autoencoder_churn"
    presets = {"base": LimaConfig.base, "lima": LimaConfig.hybrid,
               "ca": LimaConfig.ca}
    extra = ("ca",)
    outputs = ("W1", "W2", "W3", "W4")
    script = SCRIPT

    def build(self, seed: int, smoke: bool) -> None:
        rows = 512 if smoke else 4_096
        # unit-scale features keep the sigmoid arguments in range
        self.inputs = {"X": np.random.default_rng(seed).standard_normal((rows, COLS))}
        self.reference = reference(self.inputs["X"])
