"""Partial operation reuse via rewrites with compensation plans (§4.2).

If full reuse misses, the current lineage item (before execution) is
matched against an ordered list of source patterns; when the pattern
matches *and* the required sub-results are in the lineage cache, a
compensation plan computes the result from the cached pieces plus cheap
extra operations — instead of executing the full operation.

The 15 meta-rewrites below cover the paper's catalogue (rbind/cbind and
indexing combined with matrix multiplication, ``tsmm`` (dsyrk), column/row
aggregates, and elementwise operations)::

    R1   rbind(X,ΔX) @ Y          → rbind(X@Y, ΔX@Y)
    R2   X @ cbind(Y,ΔY)          → cbind(X@Y, X@ΔY)
    R3   X @ cbind(Y, 1)          → cbind(X@Y, rowSums(X))
    R4   X @ (Y[, 1:k])           → (X@Y)[, 1:k]
    R5   tsmm(rbind(X,ΔX))        → tsmm(X) + tsmm(ΔX)
    R6   tsmm(cbind(X,ΔX))        → [[tsmm(X), XᵀΔX], [ΔXᵀX, tsmm(ΔX)]]
    R7   cbind(X,ΔX) ⊙ cbind(Y,ΔY) → cbind(X⊙Y, ΔX⊙ΔY)
    R8   rbind(X,ΔX) ⊙ rbind(Y,ΔY) → rbind(X⊙Y, ΔX⊙ΔY)
    R9   colAgg(cbind(X,ΔX))      → cbind(colAgg(X), colAgg(ΔX))
    R9b  rowSums(cbind(X,ΔX))     → rowSums(X) + rowSums(ΔX)
    R10  rowAgg(rbind(X,ΔX))      → rbind(rowAgg(X), rowAgg(ΔX))
    R10b colSums(rbind(X,ΔX))     → colSums(X) + colSums(ΔX)
    R11  sum/mean(cbind/rbind(X,ΔX)) → combine(sum(X), sum(ΔX))
    R12  cbind(X,ΔX) @ rbind(Y,ΔY) → X@Y + ΔX@ΔY
    R13  t(cbind(X,ΔX))           → rbind(t(X), t(ΔX))
    R14  t(rbind(X,ΔX))           → cbind(t(X), t(ΔX))
    R15  tsmm(X[, 1:k])           → tsmm(X)[1:k, 1:k]

Compensation inputs are taken from the (already materialized) operand
values and cached sub-results — "reuse by extraction from, or augmentation
of, previously computed results" (Section 2.3).
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.data.values import MatrixValue, Value
from repro.lineage.item import LineageItem, parse_literal
from repro.reuse.cache import LineageCache
from repro.runtime.ops import OPS

_EW_OPS = ("+", "-", "*", "/", "min2", "max2")
_COL_AGGS = ("colSums", "colMeans", "colMins", "colMaxs")
_ROW_AGGS = ("rowSums", "rowMeans", "rowMins", "rowMaxs")


def _cached(cache: LineageCache, opcode: str, inputs, data=None):
    """Probe the cache for a derived pattern; returns the ndarray or None."""
    hit = cache.probe(LineageItem(opcode, inputs, data), count=False)
    if hit is None or not isinstance(hit.value, MatrixValue):
        return None
    return hit.value.data


def _cached_value(cache: LineageCache, item: LineageItem):
    hit = cache.probe(item, count=False)
    if hit is None or not isinstance(hit.value, MatrixValue):
        return None
    return hit.value.data


def _mat(value: Value) -> np.ndarray | None:
    return value.data if isinstance(value, MatrixValue) else None


def _split_point(cache: LineageCache, combined: LineageItem,
                 composed: np.ndarray, axis: int) -> int | None:
    """Boundary of ``bind(X, dX)`` along ``axis`` from cached part values.

    Tries the cached value of X first, then derives the boundary from the
    cached value of dX.  Returns None when neither part is in the cache.
    """
    x = _cached_value(cache, combined.inputs[0])
    if x is not None:
        k = x.shape[axis]
        return k if k < composed.shape[axis] else None
    dx = _cached_value(cache, combined.inputs[1])
    if dx is not None:
        k = composed.shape[axis] - dx.shape[axis]
        return k if 0 < k < composed.shape[axis] else None
    return None


def _range_bounds(item: LineageItem) -> tuple[int, int] | None:
    """1-based (lo, hi) of a rightIndex column-range item with data 'ar'."""
    if item.opcode != "rightIndex" or item.data != "ar":
        return None
    lo_item, hi_item = item.inputs[1], item.inputs[2]
    if lo_item.opcode != "L" or hi_item.opcode != "L":
        return None
    try:
        lo = int(parse_literal(lo_item.data))
        hi = int(parse_literal(hi_item.data))
    except (TypeError, ValueError):
        return None
    return lo, hi


# ---------------------------------------------------------------------------
# individual rewrites: (item, values, cache) -> ndarray | None
# values[k] is the runtime value of item.inputs[k] where applicable
# ---------------------------------------------------------------------------

def rw_mm_rbind_left(item, values, cache):
    """R1: rbind(X, dX) @ Y with cached X@Y."""
    if item.opcode != "mm":
        return None
    left, right = item.inputs
    if left.opcode != "rbind" or len(left.inputs) != 2:
        return None
    cached = _cached(cache, "mm", [left.inputs[0], right])
    if cached is None:
        return None
    composed, y = _mat(values[0]), _mat(values[1])
    if composed is None or y is None or cached.shape[0] >= composed.shape[0]:
        return None
    delta = composed[cached.shape[0]:]
    return np.vstack([cached, delta @ y])


def rw_mm_cbind_ones(item, values, cache):
    """R3: X @ cbind(Y, 1) with cached X@Y → cbind(X@Y, rowSums(X))."""
    if item.opcode != "mm":
        return None
    left, right = item.inputs
    if right.opcode != "cbind" or len(right.inputs) != 2:
        return None
    appended = right.inputs[1]
    if appended.opcode != "matrix" or not appended.inputs:
        return None
    fill = appended.inputs[0]
    if fill.opcode != "L" or float(parse_literal(fill.data)) != 1.0:
        return None
    cached = _cached(cache, "mm", [left, right.inputs[0]])
    if cached is None:
        return None
    x = _mat(values[0])
    if x is None:
        return None
    row_sums = _cached(cache, "rowSums", [left])
    if row_sums is None:
        row_sums = x.sum(axis=1, keepdims=True)
    return np.hstack([cached, row_sums])


def rw_mm_cbind_right(item, values, cache):
    """R2: X @ cbind(Y, dY) with cached X@Y."""
    if item.opcode != "mm":
        return None
    left, right = item.inputs
    if right.opcode != "cbind" or len(right.inputs) != 2:
        return None
    cached = _cached(cache, "mm", [left, right.inputs[0]])
    if cached is None:
        return None
    x, composed = _mat(values[0]), _mat(values[1])
    if x is None or composed is None or \
            cached.shape[1] >= composed.shape[1]:
        return None
    delta = composed[:, cached.shape[1]:]
    return np.hstack([cached, x @ delta])


def rw_mm_index_right(item, values, cache):
    """R4: X @ (Y[, 1:k]) with cached X@Y → (X@Y)[, 1:k]."""
    if item.opcode != "mm":
        return None
    left, right = item.inputs
    bounds = _range_bounds(right)
    if bounds is None or bounds[0] != 1:
        return None
    cached = _cached(cache, "mm", [left, right.inputs[0]])
    if cached is None or bounds[1] > cached.shape[1]:
        return None
    return cached[:, :bounds[1]].copy()


def rw_tsmm_rbind(item, values, cache):
    """R5: tsmm(rbind(X, dX)) with cached tsmm(X) and cached X."""
    if item.opcode != "tsmm":
        return None
    composed_item = item.inputs[0]
    if composed_item.opcode != "rbind" or len(composed_item.inputs) != 2:
        return None
    cached = _cached(cache, "tsmm", [composed_item.inputs[0]])
    if cached is None:
        return None
    composed = _mat(values[0])
    if composed is None:
        return None
    m = _split_point(cache, composed_item, composed, axis=0)
    if m is None:
        return None
    delta = composed[m:]
    return cached + delta.T @ delta


def rw_tsmm_cbind(item, values, cache):
    """R6: tsmm(cbind(X, dX)) with cached tsmm(X) — block assembly."""
    if item.opcode != "tsmm":
        return None
    composed_item = item.inputs[0]
    if composed_item.opcode != "cbind" or len(composed_item.inputs) != 2:
        return None
    cached = _cached(cache, "tsmm", [composed_item.inputs[0]])
    if cached is None:
        return None
    composed = _mat(values[0])
    k = cached.shape[1]
    if composed is None or k >= composed.shape[1]:
        return None
    x, delta = composed[:, :k], composed[:, k:]
    xd = x.T @ delta
    return np.block([[cached, xd], [xd.T, delta.T @ delta]])


def rw_ew_cbind(item, values, cache):
    """R7: cbind(X,dX) ⊙ cbind(Y,dY) with cached X⊙Y."""
    return _rw_ew(item, values, cache, "cbind", axis=1)


def rw_ew_rbind(item, values, cache):
    """R8: rbind(X,dX) ⊙ rbind(Y,dY) with cached X⊙Y."""
    return _rw_ew(item, values, cache, "rbind", axis=0)


def _rw_ew(item, values, cache, combiner: str, axis: int):
    if item.opcode not in _EW_OPS:
        return None
    left, right = item.inputs
    if left.opcode != combiner or right.opcode != combiner:
        return None
    if len(left.inputs) != 2 or len(right.inputs) != 2:
        return None
    cached = _cached(cache, item.opcode, [left.inputs[0], right.inputs[0]])
    if cached is None:
        return None
    lv, rv = _mat(values[0]), _mat(values[1])
    if lv is None or rv is None:
        return None
    k = cached.shape[axis]
    if k >= lv.shape[axis] or lv.shape != rv.shape:
        return None
    fn = OPS[item.opcode].fn
    if axis == 1:
        rest = fn(lv[:, k:], rv[:, k:])
        return np.hstack([cached, rest])
    rest = fn(lv[k:], rv[k:])
    return np.vstack([cached, rest])


def rw_colagg_cbind(item, values, cache):
    """R9: colAgg(cbind(X,dX)) with cached colAgg(X)."""
    if item.opcode not in _COL_AGGS:
        return None
    composed_item = item.inputs[0]
    if composed_item.opcode != "cbind" or len(composed_item.inputs) != 2:
        return None
    cached = _cached(cache, item.opcode, [composed_item.inputs[0]])
    if cached is None:
        return None
    composed = _mat(values[0])
    k = cached.shape[1]
    if composed is None or k >= composed.shape[1]:
        return None
    rest = OPS[item.opcode].kernel(MatrixValue(composed[:, k:])).data
    return np.hstack([cached, rest])


def rw_rowagg_rbind(item, values, cache):
    """R10: rowAgg(rbind(X,dX)) with cached rowAgg(X)."""
    if item.opcode not in _ROW_AGGS:
        return None
    composed_item = item.inputs[0]
    if composed_item.opcode != "rbind" or len(composed_item.inputs) != 2:
        return None
    cached = _cached(cache, item.opcode, [composed_item.inputs[0]])
    if cached is None:
        return None
    composed = _mat(values[0])
    m = cached.shape[0]
    if composed is None or m >= composed.shape[0]:
        return None
    rest = OPS[item.opcode].kernel(MatrixValue(composed[m:])).data
    return np.vstack([cached, rest])


def rw_rowsums_cbind(item, values, cache):
    """R9b: rowSums(cbind(X,dX)) → rowSums(X) + rowSums(dX)."""
    if item.opcode != "rowSums":
        return None
    composed_item = item.inputs[0]
    if composed_item.opcode != "cbind" or len(composed_item.inputs) != 2:
        return None
    cached = _cached(cache, "rowSums", [composed_item.inputs[0]])
    if cached is None:
        return None
    composed = _mat(values[0])
    if composed is None:
        return None
    k = _split_point(cache, composed_item, composed, axis=1)
    if k is None:
        return None
    return cached + composed[:, k:].sum(axis=1, keepdims=True)


def rw_colsums_rbind(item, values, cache):
    """R10b: colSums(rbind(X,dX)) → colSums(X) + colSums(dX)."""
    if item.opcode != "colSums":
        return None
    composed_item = item.inputs[0]
    if composed_item.opcode != "rbind" or len(composed_item.inputs) != 2:
        return None
    cached = _cached(cache, "colSums", [composed_item.inputs[0]])
    if cached is None:
        return None
    composed = _mat(values[0])
    if composed is None:
        return None
    m = _split_point(cache, composed_item, composed, axis=0)
    if m is None:
        return None
    return cached + composed[m:].sum(axis=0, keepdims=True)


def rw_fullagg_bind(item, values, cache):
    """R11: sum/mean over cbind/rbind with cached part and cached X."""
    if item.opcode not in ("sum", "mean"):
        return None
    composed_item = item.inputs[0]
    if composed_item.opcode not in ("cbind", "rbind") or \
            len(composed_item.inputs) != 2:
        return None
    hit = cache.probe(LineageItem(item.opcode, [composed_item.inputs[0]]),
                      count=False)
    if hit is None:
        return None
    composed = _mat(values[0])
    if composed is None:
        return None
    axis = 1 if composed_item.opcode == "cbind" else 0
    k = _split_point(cache, composed_item, composed, axis)
    if k is None:
        return None
    part = float(np.asarray(
        hit.value.data if isinstance(hit.value, MatrixValue)
        else hit.value.value))
    rest = composed[:, k:] if axis == 1 else composed[k:]
    if item.opcode == "sum":
        return np.float64(part + rest.sum())
    part_size = composed.size - rest.size
    total = composed.size
    if total == 0:
        return None
    return np.float64((part * part_size + rest.sum()) / total)


def rw_mm_block(item, values, cache):
    """R12: cbind(X,dX) @ rbind(Y,dY) with cached X@Y → X@Y + dX@dY."""
    if item.opcode != "mm":
        return None
    left, right = item.inputs
    if left.opcode != "cbind" or right.opcode != "rbind":
        return None
    if len(left.inputs) != 2 or len(right.inputs) != 2:
        return None
    cached = _cached(cache, "mm", [left.inputs[0], right.inputs[0]])
    if cached is None:
        return None
    lv, rv = _mat(values[0]), _mat(values[1])
    if lv is None or rv is None:
        return None
    k = _split_point(cache, left, lv, axis=1)
    if k is None:
        k = _split_point(cache, right, rv, axis=0)
    if k is None:
        return None
    return cached + lv[:, k:] @ rv[k:]


def rw_t_cbind(item, values, cache):
    """R13: t(cbind(X,dX)) with cached t(X)."""
    return _rw_t(item, values, cache, "cbind")


def rw_t_rbind(item, values, cache):
    """R14: t(rbind(X,dX)) with cached t(X)."""
    return _rw_t(item, values, cache, "rbind")


def _rw_t(item, values, cache, combiner: str):
    if item.opcode != "t":
        return None
    composed_item = item.inputs[0]
    if composed_item.opcode != combiner or len(composed_item.inputs) != 2:
        return None
    cached = _cached(cache, "t", [composed_item.inputs[0]])
    if cached is None:
        return None
    composed = _mat(values[0])
    if composed is None:
        return None
    if combiner == "cbind":
        k = cached.shape[0]
        if k >= composed.shape[1]:
            return None
        return np.vstack([cached, composed[:, k:].T])
    m = cached.shape[1]
    if m >= composed.shape[0]:
        return None
    return np.hstack([cached, composed[m:].T])


def rw_tsmm_index(item, values, cache):
    """R15: tsmm(X[, 1:k]) with cached tsmm(X) → tsmm(X)[1:k, 1:k]."""
    if item.opcode != "tsmm":
        return None
    inner = item.inputs[0]
    bounds = _range_bounds(inner)
    if bounds is None or bounds[0] != 1:
        return None
    cached = _cached(cache, "tsmm", [inner.inputs[0]])
    if cached is None or bounds[1] > cached.shape[1]:
        return None
    k = bounds[1]
    return cached[:k, :k].copy()


#: rewrites in probing order; specific before general (R3 before R2)
REWRITES: list[Callable] = [
    rw_mm_rbind_left,
    rw_mm_cbind_ones,
    rw_mm_cbind_right,
    rw_mm_index_right,
    rw_tsmm_rbind,
    rw_tsmm_cbind,
    rw_tsmm_index,
    rw_ew_cbind,
    rw_ew_rbind,
    rw_colagg_cbind,
    rw_rowagg_rbind,
    rw_rowsums_cbind,
    rw_colsums_rbind,
    rw_fullagg_bind,
    rw_mm_block,
    rw_t_cbind,
    rw_t_rbind,
]

#: opcodes any rewrite can fire on — cheap pre-filter for the hot path
_CANDIDATE_OPCODES = frozenset(
    {"mm", "tsmm", "t", "sum", "mean"} | set(_EW_OPS)
    | set(_COL_AGGS) | set(_ROW_AGGS))


def try_partial_reuse(item: LineageItem, values: list[Value],
                      cache: LineageCache) -> Value | None:
    """Probe all rewrites in order; return the compensated value or None."""
    if item.opcode not in _CANDIDATE_OPCODES:
        return None
    cache.stats.partial_probes += 1
    for rewrite in REWRITES:
        result = rewrite(item, values, cache)
        if result is not None:
            cache.stats.partial_hits += 1
            if isinstance(result, np.ndarray) and result.ndim >= 1:
                return MatrixValue(result)
            from repro.data.values import ScalarValue
            return ScalarValue(float(result))
    return None
