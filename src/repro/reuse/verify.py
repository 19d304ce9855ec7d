"""Reuse-correctness oracle (``LimaConfig.verify_reuse``).

On a sampled fraction of cache hits and partial-reuse compensations, the
:class:`ReuseVerifier` recomputes the reused value from its lineage trace
(:mod:`repro.lineage.reconstruct`) and compares the two.  A divergence
raises a structured :class:`~repro.errors.ReuseVerificationError` carrying
the lineage item, both values, and the maximum absolute difference.

Comparison semantics follow what the configuration can promise:

* without partial reuse every reused value was produced by executing the
  very kernels the trace records, so the oracle demands **bit-identical**
  bytes;
* partial-reuse compensation plans reassociate floating-point reductions
  (e.g. R5 computes ``tsmm(X) + ΔXᵀΔX`` where plain execution computes
  ``[X; ΔX]ᵀ[X; ΔX]``), so configurations with ``reuse_partial`` are
  verified within the repo-wide ``rtol=atol=1e-9`` tolerance instead.

Each *distinct* lineage item is verified at most once per verifier (items
are interned, so identity is identity): repeated hits on the same key add
no new information, and this bounds the oracle's overhead on hit-heavy
workloads to one trace replay per distinct cached value.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from repro.data.values import (FrameValue, ListValue, MatrixValue,
                               ScalarValue, StringValue)
from repro.errors import ReuseVerificationError
from repro.lineage.reconstruct import recompute

#: repo-wide equivalence tolerance for partial-reuse configurations
#: (matches tests/test_equivalence.py)
RTOL = 1e-9
ATOL = 1e-9


@dataclass
class VerifyStats:
    """Counters of one verifier's activity."""

    checks: int = 0        # hits recomputed and compared
    mismatches: int = 0    # comparisons that raised
    unreplayable: int = 0  # traces recompute could not replay (skipped)
    skipped: int = 0       # sampled out or non-verifiable value kinds

    def __str__(self) -> str:
        return (f"verify: checks={self.checks} mismatches={self.mismatches} "
                f"unreplayable={self.unreplayable} skipped={self.skipped}")


class ReuseVerifier:
    """Samples reuse hits and replays their lineage as a correctness oracle.

    One verifier spans a session; interpreters call :meth:`check` at every
    full-reuse hit, partial-reuse compensation, and multi-level hit.
    """

    def __init__(self, config, resilience, rate: float | None = None,
                 seed: int = 0):
        self.rate = config.verify_reuse if rate is None else rate
        #: bit-identical comparison unless compensation plans are in play
        self.exact = not config.reuse_partial
        self.resilience = resilience
        self.stats = VerifyStats()
        self._rng = random.Random(seed)
        # verified-once set keyed on interned item identity; the reference
        # list pins the items so ids cannot be recycled
        self._verified: set[int] = set()
        self._pinned: list = []

    # ------------------------------------------------------------------

    def check(self, kind: str, item, value, root=None) -> None:
        """Verify one reuse event; raises on divergence.

        ``item`` is the cache key, ``value`` the reused value, ``root``
        the fine-grained lineage of the cached output (replayable even
        when the key is a non-replayable ``fcall``/``bcall`` item).
        """
        if self.rate <= 0.0 or id(item) in self._verified:
            return
        if self.rate < 1.0 and self._rng.random() >= self.rate:
            self.stats.skipped += 1
            return
        self._verified.add(id(item))
        self._pinned.append(item)
        if isinstance(value, (ListValue, FrameValue)):
            self.stats.skipped += 1
            return
        recomputed = self._recompute(root if root is not None else item)
        if recomputed is None:
            self.stats.unreplayable += 1
            return
        self.stats.checks += 1
        diff = self._compare(value, recomputed)
        if diff is not None:
            self.stats.mismatches += 1
            raise ReuseVerificationError(kind, item, _export(value),
                                         _export(recomputed), diff)

    # ------------------------------------------------------------------

    def _recompute(self, root):
        # the recovery ladder's input-binding rule, without its counters:
        # oracle replays are not recoveries
        try:
            return recompute(root, self.resilience.bound_inputs(root))
        except Exception:
            return None

    def _compare(self, cached, recomputed):
        """``None`` when equivalent, else the max absolute difference."""
        if isinstance(cached, StringValue) or isinstance(recomputed,
                                                         StringValue):
            if (isinstance(cached, StringValue)
                    and isinstance(recomputed, StringValue)
                    and cached.value == recomputed.value):
                return None
            return float("inf")
        a = _as_array(cached)
        b = _as_array(recomputed)
        if a is None or b is None or a.shape != b.shape:
            return float("inf")
        if self.exact and a.tobytes() == b.tobytes():
            return None
        if not self.exact and np.allclose(a, b, rtol=RTOL, atol=ATOL,
                                          equal_nan=True):
            return None
        with np.errstate(invalid="ignore"):
            diff = np.abs(a - b)
        finite = diff[np.isfinite(diff)]
        return float(finite.max()) if finite.size else float("nan")


def _as_array(value):
    if isinstance(value, MatrixValue):
        return np.asarray(value.data)
    if isinstance(value, ScalarValue):
        return np.asarray(float(value.value) if not isinstance(
            value.value, bool) else value.value)
    return None


def _export(value):
    if isinstance(value, MatrixValue):
        return value.data
    if isinstance(value, (ScalarValue, StringValue)):
        return value.value
    return value
