"""NumPy kernels backing the runtime instruction set.

Each kernel is a pure function from input :class:`~repro.data.values.Value`
objects (plus optional keyword parameters) to an output value.  The opcode
table (:mod:`repro.runtime.ops`) binds every opcode to its kernel here;
keeping the numerics in one place makes the instruction classes thin and
the kernels easy to test in isolation.

Conventions:

* matrices are dense 2-d float64 (:class:`MatrixValue`),
* indices are **1-based inclusive**, as in DML/R,
* binary elementwise ops broadcast matrix/scalar and matrix/matrix with
  NumPy semantics,
* aggregates return scalars or row-vector matrices (``colSums`` returns a
  ``1×n`` matrix, ``rowSums`` an ``m×1`` matrix) like SystemDS.
"""

from __future__ import annotations

import numpy as np

from repro.data.values import (ListValue, MatrixValue, ScalarValue,
                               StringValue, Value)
from repro.errors import LimaRuntimeError, LimaValueError


def _num(value: Value):
    """Numeric payload of a value: ndarray for matrices, float for scalars.

    Booleans promote to 0/1 doubles, as in R: NumPy would otherwise treat
    ``TRUE + TRUE`` as a logical or and reject ``TRUE - TRUE``.
    """
    if isinstance(value, MatrixValue):
        return value.data
    if isinstance(value, ScalarValue):
        v = value.value
        return float(v) if isinstance(v, bool) else v
    raise LimaValueError(f"expected matrix or scalar, got {value.kind}")


# ---------------------------------------------------------------------------
# binary elementwise
# ---------------------------------------------------------------------------

def int_divide(a, b):
    """``%/%``: floor division.  A plain function rather than the ufunc, so
    the row has no in-place variant."""
    return np.floor_divide(a, b)


def logical_and(a, b):
    return np.logical_and(np.asarray(a) != 0, np.asarray(b) != 0)


def logical_or(a, b):
    return np.logical_or(np.asarray(a) != 0, np.asarray(b) != 0)


def binary_kernel(fn, bool_result: bool = False, concat: bool = False):
    """Value-level kernel of the raw elementwise binary function ``fn``.

    Matrix results are float64 matrices; scalar results are booleans for
    comparisons and logicals (``bool_result``) and floats otherwise.  With
    ``concat`` (the ``+`` row), a string operand concatenates.
    """
    cast = bool if bool_result else float

    def kernel(left: Value, right: Value) -> Value:
        if concat and (isinstance(left, StringValue)
                       or isinstance(right, StringValue)):
            return StringValue(_to_display(left) + _to_display(right))
        result = fn(_num(left), _num(right))
        if isinstance(result, np.ndarray) and result.ndim >= 1:
            return MatrixValue(result.astype(np.float64, copy=False))
        return ScalarValue(cast(result))
    return kernel


def _to_display(value: Value) -> str:
    if isinstance(value, StringValue):
        return value.value
    if isinstance(value, ScalarValue):
        v = value.value
        if isinstance(v, bool):
            return "TRUE" if v else "FALSE"
        if isinstance(v, float) and v.is_integer():
            return str(int(v))
        return str(v)
    if isinstance(value, MatrixValue):
        return to_string(value).value
    return repr(value)


# ---------------------------------------------------------------------------
# unary
# ---------------------------------------------------------------------------

def logical_not(a):
    return np.logical_not(np.asarray(a) != 0)


def sigmoid(a):
    return 1.0 / (1.0 + np.exp(-a))


def unary_kernel(fn, bool_result: bool = False):
    """Value-level kernel of the raw elementwise unary function ``fn``."""
    cast = bool if bool_result else float

    def kernel(operand: Value) -> Value:
        result = fn(_num(operand))
        if isinstance(result, np.ndarray) and result.ndim >= 1:
            return MatrixValue(result.astype(np.float64, copy=False))
        return ScalarValue(cast(result))
    return kernel


# ---------------------------------------------------------------------------
# in-place elementwise fast paths
# ---------------------------------------------------------------------------
#
# When the compiler proves an operand is a single-use temporary produced by
# a fresh-output kernel in the same basic block (``inplace_slots`` on
# :class:`~repro.runtime.instructions.cp.ComputeInstruction`), and the
# runtime proves no value can outlive its binding (no lineage cache, no
# buffer pool), the elementwise result may overwrite the dying operand's
# buffer instead of allocating a full new matrix — removing one allocation
# + copy per op in elementwise chains (the Fig. 6 hot path).
#
# Only ufuncs that write float64 results without a dtype change qualify
# (the ``inplace`` column of the opcode table); comparisons/logicals
# produce bools and are excluded.

def _inplace_target(value: Value):
    """The writable float64 buffer of a matrix value, or None."""
    if not isinstance(value, MatrixValue):
        return None
    buf = value.data
    if buf.dtype != np.float64 or not buf.flags.writeable:
        return None
    if buf.base is not None:
        return None  # a view may alias another live value's buffer
    return buf


def binary_into(ufunc, left: Value, right: Value,
                into: int) -> Value | None:
    """Elementwise binary ``ufunc`` overwriting operand ``into``'s buffer.

    Returns the result (sharing the overwritten buffer) or None when the
    operands are not eligible — the caller then falls back to the
    allocating kernel.
    """
    target = left if into == 0 else right
    buf = _inplace_target(target)
    if buf is None:
        return None
    other = right if into == 0 else left
    if isinstance(other, MatrixValue):
        if other.data.shape != buf.shape:
            return None  # broadcasting would change the output shape
        operand = other.data
    elif isinstance(other, ScalarValue):
        value = other.value
        if isinstance(value, bool):
            value = float(value)
        if not isinstance(value, (int, float)):
            return None
        operand = value
    else:
        return None
    if into == 0:
        ufunc(buf, operand, out=buf)
    else:
        ufunc(operand, buf, out=buf)
    return MatrixValue(buf)


def unary_into(ufunc, operand: Value) -> Value | None:
    """Elementwise unary ``ufunc`` overwriting the operand's buffer (or
    None)."""
    buf = _inplace_target(operand)
    if buf is None:
        return None
    ufunc(buf, out=buf)
    return MatrixValue(buf)


# ---------------------------------------------------------------------------
# aggregates
# ---------------------------------------------------------------------------

def reduce_all(method, ddof: int = 0):
    """Reduction of every cell to a float; sample statistics (``ddof=1``)
    of a single cell are 0."""
    if ddof:
        return lambda m: float(method(m, ddof=ddof)) if m.size > 1 else 0.0
    return lambda m: float(method(m))


def reduce_axis(method, axis: int, **kwargs):
    """Reduction along ``axis`` to a row (axis 0) or column (axis 1)."""
    return lambda m: method(m, axis=axis, keepdims=True, **kwargs)


def row_index_max(m: np.ndarray) -> np.ndarray:
    return (np.argmax(m, axis=1) + 1.0).reshape(-1, 1)


def cumsum(m: np.ndarray) -> np.ndarray:
    return np.cumsum(m, axis=0)


def aggregate_kernel(fn):
    """Value-level kernel of ``fn`` over the operand as a 2-d float64
    array: a float result is a scalar, an array result a matrix."""
    def kernel(operand: Value) -> Value:
        a = np.asarray(_num(operand), dtype=np.float64)
        if a.ndim == 0:
            a = a.reshape(1, 1)
        result = fn(a)
        if isinstance(result, np.ndarray):
            return MatrixValue(result)
        return ScalarValue(result)
    return kernel


# ---------------------------------------------------------------------------
# matrix operations
# ---------------------------------------------------------------------------

def matmult(left: Value, right: Value) -> MatrixValue:
    a, b = _num(left), _num(right)
    return MatrixValue(np.asarray(a) @ np.asarray(b))


def tsmm(operand: Value) -> MatrixValue:
    """``t(X) %*% X`` (the paper's ``dsyrk`` shorthand)."""
    x = _num(operand)
    return MatrixValue(x.T @ x)


def transpose(operand: Value) -> MatrixValue:
    # always copy: for 1xN/Nx1 inputs the transpose is already contiguous
    # and ascontiguousarray would alias the input, violating the
    # fresh-allocation contract in-place execution relies on
    return MatrixValue(_num(operand).T.copy())


def rev(operand: Value) -> MatrixValue:
    return MatrixValue(_num(operand)[::-1].copy())


def solve(a: Value, b: Value) -> MatrixValue:
    try:
        return MatrixValue(np.linalg.solve(_num(a), _num(b)))
    except np.linalg.LinAlgError as exc:
        raise LimaRuntimeError(f"solve failed: {exc}") from exc


def inv(a: Value) -> MatrixValue:
    try:
        return MatrixValue(np.linalg.inv(_num(a)))
    except np.linalg.LinAlgError as exc:
        raise LimaRuntimeError(f"inv failed: {exc}") from exc


def eigen(a: Value) -> tuple[MatrixValue, MatrixValue]:
    """Symmetric eigen decomposition → (values as column, vectors).

    Deterministic sign convention: each eigenvector's entry of largest
    magnitude is made positive, so repeated runs (and reconstruction from
    lineage) are bit-identical.
    """
    m = _num(a)
    values, vectors = np.linalg.eigh(np.asarray(m))
    idx = np.argmax(np.abs(vectors), axis=0)
    signs = np.sign(vectors[idx, np.arange(vectors.shape[1])])
    signs[signs == 0] = 1.0
    vectors = vectors * signs
    return MatrixValue(values.reshape(-1, 1)), MatrixValue(vectors)


def svd(a: Value) -> tuple[MatrixValue, MatrixValue, MatrixValue]:
    m = _num(a)
    u, s, vt = np.linalg.svd(np.asarray(m), full_matrices=False)
    # deterministic sign convention on U columns
    idx = np.argmax(np.abs(u), axis=0)
    signs = np.sign(u[idx, np.arange(u.shape[1])])
    signs[signs == 0] = 1.0
    return (MatrixValue(u * signs), MatrixValue(s.reshape(-1, 1)),
            MatrixValue(vt.T * signs))


def diag(operand: Value) -> MatrixValue:
    """Vector → diagonal matrix; matrix → diagonal column vector."""
    a = _num(operand)
    a = np.asarray(a)
    if a.ndim == 0:
        a = a.reshape(1, 1)
    if min(a.shape) == 1:
        return MatrixValue(np.diag(a.ravel()))
    return MatrixValue(np.diag(a).reshape(-1, 1).copy())


def cbind(*operands: Value) -> MatrixValue:
    return MatrixValue(np.hstack([np.atleast_2d(_num(v)) for v in operands]))


def rbind(*operands: Value) -> MatrixValue:
    return MatrixValue(np.vstack([np.atleast_2d(_num(v)) for v in operands]))


def table(rows: Value, cols: Value) -> MatrixValue:
    """Contingency table of two 1-based index vectors (like DML table)."""
    r = np.asarray(_num(rows)).ravel().astype(np.int64)
    c = np.asarray(_num(cols)).ravel().astype(np.int64)
    if r.shape != c.shape:
        raise LimaValueError("table() inputs must have equal length")
    out = np.zeros((int(r.max()), int(c.max())))
    np.add.at(out, (r - 1, c - 1), 1.0)
    return MatrixValue(out)


def order(target: Value, by: int = 1, decreasing: bool = False,
          index_return: bool = False) -> MatrixValue:
    """Sort matrix rows by column ``by``; stable, like DML ``order``."""
    m = np.asarray(_num(target))
    if m.ndim != 2:
        m = np.atleast_2d(m).T
    keys = m[:, by - 1]
    idx = np.argsort(-keys if decreasing else keys, kind="stable")
    if index_return:
        return MatrixValue((idx + 1.0).reshape(-1, 1))
    return MatrixValue(m[idx].copy())


def replace(target: Value, pattern: float, replacement: float) -> MatrixValue:
    m = np.asarray(_num(target)).copy()
    if np.isnan(pattern):
        m[np.isnan(m)] = replacement
    else:
        m[m == pattern] = replacement
    return MatrixValue(m)


# ---------------------------------------------------------------------------
# indexing (1-based, inclusive)
# ---------------------------------------------------------------------------

def _resolve_dim(spec, size: int) -> np.ndarray | slice:
    """Resolve one index spec into a NumPy index.

    ``spec`` is ``None`` (all), an ``(lo, hi)`` tuple of 1-based bounds, a
    scalar 1-based position, or an index-vector matrix.
    """
    if spec is None:
        return slice(None)
    if isinstance(spec, tuple):
        lo, hi = spec
        if not 1 <= lo <= hi <= size:
            raise LimaRuntimeError(
                f"index range {lo}:{hi} out of bounds for size {size}")
        return slice(lo - 1, hi)
    if isinstance(spec, MatrixValue):
        idx = np.asarray(spec.data).ravel().astype(np.int64) - 1
        if idx.size and (idx.min() < 0 or idx.max() >= size):
            raise LimaRuntimeError("index vector out of bounds")
        return idx
    pos = int(spec)
    if not 1 <= pos <= size:
        raise LimaRuntimeError(f"index {pos} out of bounds for size {size}")
    return slice(pos - 1, pos)


def right_index(target: Value, row_spec, col_spec) -> Value:
    """``X[rows, cols]`` returning a matrix/frame (always 2-d)."""
    from repro.data.values import FrameValue
    if isinstance(target, ListValue):
        if isinstance(row_spec, tuple) or isinstance(row_spec, MatrixValue):
            raise LimaValueError("list indexing requires a scalar position")
        return target.get(int(row_spec))
    if isinstance(target, FrameValue):
        rows = _resolve_dim(row_spec, target.nrow)
        cols = _resolve_dim(col_spec, target.ncol)
        if isinstance(rows, np.ndarray) and isinstance(cols, np.ndarray):
            return FrameValue(target.data[np.ix_(rows, cols)])
        return FrameValue(np.atleast_2d(target.data[rows][:, cols]).copy())
    m = np.asarray(_num(target))
    rows = _resolve_dim(row_spec, m.shape[0])
    cols = _resolve_dim(col_spec, m.shape[1])
    if isinstance(rows, np.ndarray) and isinstance(cols, np.ndarray):
        out = m[np.ix_(rows, cols)]
    else:
        out = m[rows][:, cols] if isinstance(rows, slice) else m[rows][:, cols]
    return MatrixValue(np.atleast_2d(out).copy())


def left_index(target: Value, source: Value, row_spec, col_spec) -> MatrixValue:
    """Copy-on-write ``X[rows, cols] = source``."""
    m = np.asarray(_num(target)).copy()
    rows = _resolve_dim(row_spec, m.shape[0])
    cols = _resolve_dim(col_spec, m.shape[1])
    src = _num(source)
    if isinstance(src, np.ndarray):
        region = m[rows][:, cols] if isinstance(rows, slice) else None
        try:
            if isinstance(rows, np.ndarray) and isinstance(cols, np.ndarray):
                m[np.ix_(rows, cols)] = src
            else:
                m[rows, cols] = src.reshape(m[rows, cols].shape)
        except ValueError as exc:
            raise LimaRuntimeError(f"left-indexing shape mismatch: {exc}") \
                from exc
    else:
        m[rows, cols] = src
    return MatrixValue(m)


# ---------------------------------------------------------------------------
# data generation (seeded; seeds are lineage-visible)
# ---------------------------------------------------------------------------

def rand(rows: int, cols: int, min_v: float = 0.0, max_v: float = 1.0,
         sparsity: float = 1.0, pdf: str = "uniform",
         seed: int = 0) -> MatrixValue:
    rng = np.random.default_rng(seed)
    if pdf == "normal":
        m = rng.standard_normal((rows, cols))
    else:
        m = rng.uniform(min_v, max_v, size=(rows, cols))
    if sparsity < 1.0:
        mask = rng.random((rows, cols)) < sparsity
        m = m * mask
    return MatrixValue(m)


def sample(range_n: int, size: int, replace_: bool = False,
           seed: int = 0) -> MatrixValue:
    """``size`` values from ``1..range_n`` (column vector)."""
    rng = np.random.default_rng(seed)
    if not replace_ and size > range_n:
        raise LimaRuntimeError(
            f"cannot sample {size} from 1..{range_n} without replacement")
    values = rng.choice(np.arange(1, range_n + 1), size=size,
                        replace=replace_)
    return MatrixValue(values.astype(np.float64).reshape(-1, 1))


def seq(from_v: float, to_v: float, by: float | None = None) -> MatrixValue:
    if by is None:
        by = 1.0 if to_v >= from_v else -1.0
    if by == 0:
        raise LimaRuntimeError("seq() step must be nonzero")
    n = int(np.floor((to_v - from_v) / by + 1e-10)) + 1
    if n <= 0:
        raise LimaRuntimeError("seq() produces an empty sequence")
    values = from_v + by * np.arange(n)
    return MatrixValue(values.reshape(-1, 1))


def fill(value: float, rows: int, cols: int) -> MatrixValue:
    return MatrixValue(np.full((rows, cols), float(value)))


def reshape(source: Value, rows: int, cols: int) -> MatrixValue:
    m = np.asarray(_num(source))
    if m.size != rows * cols:
        raise LimaRuntimeError(
            f"cannot reshape {m.shape} into {rows}x{cols}")
    return MatrixValue(m.reshape(rows, cols, order="C").copy())


def matrix(value: Value, rows: ScalarValue,
           cols: ScalarValue) -> MatrixValue:
    """``matrix(x, rows, cols)``: fill from a scalar, reshape a matrix."""
    if isinstance(value, ScalarValue):
        return fill(value.as_float(), rows.as_int(), cols.as_int())
    return reshape(value, rows.as_int(), cols.as_int())


# ---------------------------------------------------------------------------
# transform encoding (frames → matrices): recode, binning, one-hot
# ---------------------------------------------------------------------------

def recode_encode(frame: Value) -> MatrixValue:
    """Recode a string frame into 1-based integer codes per column.

    Codes are assigned in lexicographic order of the distinct values, so
    encoding is deterministic and lineage-reproducible regardless of row
    order.
    """
    from repro.data.values import FrameValue
    if not isinstance(frame, FrameValue):
        raise LimaValueError(f"recodeEncode expects a frame, got {frame.kind}")
    n, d = frame.shape
    out = np.zeros((n, d))
    for j in range(d):
        column = frame.data[:, j]
        distinct = sorted(set(column))
        mapping = {v: i + 1 for i, v in enumerate(distinct)}
        out[:, j] = [mapping[v] for v in column]
    return MatrixValue(out)


def bin_encode(target: Value, num_bins: int) -> MatrixValue:
    """Equi-width binning of each column into 1-based bin ids."""
    m = np.asarray(_num(target), dtype=np.float64)
    if num_bins < 1:
        raise LimaRuntimeError("binEncode requires at least one bin")
    mins = m.min(axis=0, keepdims=True)
    maxs = m.max(axis=0, keepdims=True)
    span = np.where(maxs > mins, maxs - mins, 1.0)
    bins = np.floor((m - mins) / span * num_bins) + 1.0
    return MatrixValue(np.clip(bins, 1, num_bins))


def one_hot_encode(codes: Value) -> MatrixValue:
    """Expand a 1-based code matrix column-wise into indicator blocks.

    Column j with max code k_j becomes k_j indicator columns; the output
    has sum_j k_j columns (the KDD98-style blow-up of Section 5.4).
    """
    m = np.asarray(_num(codes))
    if m.size == 0:
        raise LimaValueError("oneHotEncode on an empty matrix")
    n, d = m.shape
    idx = m.astype(np.int64)
    if idx.min() < 1:
        raise LimaRuntimeError("oneHotEncode requires 1-based codes")
    widths = idx.max(axis=0)
    offsets = np.concatenate([[0], np.cumsum(widths)[:-1]])
    out = np.zeros((n, int(widths.sum())))
    rows = np.arange(n)
    for j in range(d):
        out[rows, offsets[j] + idx[:, j] - 1] = 1.0
    return MatrixValue(out)


# ---------------------------------------------------------------------------
# casts / metadata / strings
# ---------------------------------------------------------------------------

def as_scalar(value: Value) -> ScalarValue:
    if isinstance(value, ScalarValue):
        return value
    if isinstance(value, MatrixValue):
        if value.data.size != 1:
            raise LimaValueError(
                f"as.scalar on {value.nrow}x{value.ncol} matrix")
        return ScalarValue(float(value.data.reshape(-1)[0]))
    raise LimaValueError(f"as.scalar on {value.kind}")


def as_matrix(value: Value) -> MatrixValue:
    if isinstance(value, MatrixValue):
        return value
    if isinstance(value, ScalarValue):
        return MatrixValue(np.array([[value.as_float()]]))
    raise LimaValueError(f"as.matrix on {value.kind}")


def nrow(value: Value) -> ScalarValue:
    from repro.data.values import FrameValue
    if isinstance(value, (MatrixValue, FrameValue)):
        return ScalarValue(value.nrow)
    if isinstance(value, ListValue):
        return ScalarValue(len(value))
    raise LimaValueError(f"nrow on {value.kind}")


def ncol(value: Value) -> ScalarValue:
    from repro.data.values import FrameValue
    if isinstance(value, (MatrixValue, FrameValue)):
        return ScalarValue(value.ncol)
    raise LimaValueError(f"ncol on {value.kind}")


def length(value: Value) -> ScalarValue:
    if isinstance(value, MatrixValue):
        return ScalarValue(value.data.size)
    if isinstance(value, ListValue):
        return ScalarValue(len(value))
    if isinstance(value, StringValue):
        return ScalarValue(len(value.value))
    return ScalarValue(1)


def list_append(lst: Value, name: Value, value: Value) -> ListValue:
    """``lappend(l, name, v)`` — append a named element to a list.

    Used by ``gridSearch`` to build ``eval`` argument lists with
    runtime-determined parameter names.
    """
    if not isinstance(lst, ListValue):
        raise LimaRuntimeError("lappend() requires a list as first argument")
    if not isinstance(name, StringValue):
        raise LimaRuntimeError("lappend() requires a string element name")
    names = list(lst.names) if lst.names is not None \
        else [""] * len(lst.items)
    return ListValue(lst.items + [value], names + [name.value])


def to_string(value: Value) -> StringValue:
    if isinstance(value, MatrixValue):
        rows = [" ".join(f"{x:.3f}" for x in row) for row in value.data[:20]]
        return StringValue("\n".join(rows))
    return StringValue(_to_display(value))


def ifelse(cond: Value, yes: Value, no: Value) -> Value:
    if isinstance(cond, ScalarValue):
        return yes if cond.as_bool() else no
    mask = np.asarray(_num(cond)) != 0
    return MatrixValue(np.where(mask, _num(yes), _num(no)))
