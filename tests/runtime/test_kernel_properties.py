"""Seeded property tests of the elementwise / aggregate / in-place
kernels against direct NumPy, with the degenerate shapes that have
bitten before: empty matrices, 1xN / Nx1 vectors (whose transposes are
contiguous views), and NaN/Inf payloads."""

import numpy as np
import pytest

from repro.data.values import MatrixValue, ScalarValue
from repro.runtime import kernels as K
from repro.runtime.ops import OPS

SEEDS = [0, 1, 2, 3, 4]

#: the degenerate-shape pool every property sweeps over
SHAPES = [(0, 0), (0, 3), (3, 0), (1, 1), (1, 5), (5, 1), (3, 4)]

#: opcode -> the NumPy function its kernel must agree with
_ARITH = {"+": np.add, "-": np.subtract, "*": np.multiply, "/": np.divide,
          "min2": np.minimum, "max2": np.maximum}
_COMPARE = {"==": np.equal, "!=": np.not_equal, "<": np.less,
            ">": np.greater, "<=": np.less_equal, ">=": np.greater_equal}
_UNARY_SAFE = {"exp": np.exp, "abs": np.abs, "round": np.round,
               "floor": np.floor, "ceil": np.ceil, "sign": np.sign,
               "sigmoid": lambda a: 1.0 / (1.0 + np.exp(-a))}
_AGG_FULL = ["sum", "mean", "min", "max"]
_AGG_AXIS = ["colSums", "colMeans", "rowSums", "rowMeans"]


def _mat(rng, shape, special=False):
    data = rng.standard_normal(shape) * 3.0
    if special and data.size >= 2:
        flat = data.reshape(-1)
        flat[0] = np.nan
        flat[1] = np.inf
    return data


def _expect(fn, *arrays):
    with np.errstate(all="ignore"):
        return fn(*arrays)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("shape", SHAPES)
def test_binary_matches_numpy(seed, shape):
    rng = np.random.default_rng(seed)
    a = _mat(rng, shape, special=seed == 0)
    b = _mat(rng, shape) + 0.5  # keep divisors away from exact zero
    for op, fn in _ARITH.items():
        got = OPS[op].kernel(MatrixValue(a.copy()), MatrixValue(b.copy()))
        want = _expect(fn, a, b)
        np.testing.assert_array_equal(np.asarray(got.data), want)
    for op, fn in _COMPARE.items():
        got = OPS[op].kernel(MatrixValue(a.copy()), MatrixValue(b.copy()))
        want = _expect(fn, a, b).astype(np.float64)
        np.testing.assert_array_equal(np.asarray(got.data), want)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("shape", SHAPES)
def test_unary_matches_numpy(seed, shape):
    rng = np.random.default_rng(seed)
    a = _mat(rng, shape, special=seed == 0)
    for op, fn in _UNARY_SAFE.items():
        got = OPS[op].kernel(MatrixValue(a.copy()))
        want = _expect(fn, a)
        if isinstance(got, MatrixValue):
            np.testing.assert_array_equal(
                np.asarray(got.data), np.asarray(want, dtype=np.float64))
        else:
            np.testing.assert_array_equal(float(got.value), float(want))


@pytest.mark.parametrize("seed", SEEDS)
def test_aggregates_match_numpy(seed):
    rng = np.random.default_rng(seed)
    for shape in [(1, 1), (1, 5), (5, 1), (3, 4)]:
        a = _mat(rng, shape)
        for op in _AGG_FULL:
            got = OPS[op].kernel(MatrixValue(a.copy()))
            want = {"sum": a.sum, "mean": a.mean,
                    "min": a.min, "max": a.max}[op]()
            assert float(got.value) == pytest.approx(float(want),
                                                     rel=0, abs=0)
        for op in _AGG_AXIS:
            got = OPS[op].kernel(MatrixValue(a.copy()))
            axis = 0 if op.startswith("col") else 1
            fn = np.sum if "Sums" in op else np.mean
            want = fn(a, axis=axis, keepdims=True)
            np.testing.assert_array_equal(np.asarray(got.data), want)


@pytest.mark.parametrize("seed", SEEDS)
def test_nan_inf_propagate_through_aggregates(seed):
    rng = np.random.default_rng(seed)
    a = _mat(rng, (3, 4), special=True)
    got = OPS["sum"].kernel(MatrixValue(a.copy()))
    assert np.isnan(float(got.value))
    b = np.abs(_mat(rng, (2, 3))) + 1.0
    b[0, 0] = np.inf
    got = OPS["max"].kernel(MatrixValue(b.copy()))
    assert np.isinf(float(got.value))


# ----------------------------------------------------------------------
# in-place kernels
# ----------------------------------------------------------------------

@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("shape", SHAPES)
def test_binary_into_matches_allocating_kernel(seed, shape):
    rng = np.random.default_rng(seed)
    for op in ["+", "-", "*"]:
        for into in (0, 1):
            a = _mat(rng, shape)
            b = _mat(rng, shape)
            want = OPS[op].kernel(MatrixValue(a.copy()),
                                  MatrixValue(b.copy()))
            left, right = MatrixValue(a.copy()), MatrixValue(b.copy())
            got = K.binary_into(OPS[op].inplace, left, right, into=into)
            if got is None:
                continue  # ineligible — the caller falls back
            target = left if into == 0 else right
            assert got.data is target.data  # really in place
            np.testing.assert_array_equal(got.data, want.data)


def test_binary_into_refuses_views():
    # a contiguous row-slice survives MatrixValue's ascontiguousarray
    # normalization as a real view (base set) — exactly the aliasing
    # shape the transpose bug produced
    base = np.zeros((4, 4))
    view = MatrixValue(base[1:3, :])
    assert view.data.base is not None
    other = MatrixValue(np.ones((2, 4)))
    assert K.binary_into(np.add, view, other, into=0) is None
    assert base.sum() == 0.0  # the backing buffer was never written


def test_binary_into_refuses_broadcasts_and_readonly():
    a = MatrixValue(np.ones((3, 4)))
    row = MatrixValue(np.ones((1, 4)))
    assert K.binary_into(np.add, a, row, into=1) is None
    locked = np.ones((2, 2))
    locked.flags.writeable = False
    assert K.binary_into(np.add, MatrixValue(locked),
                         MatrixValue(np.ones((2, 2))), into=0) is None


def test_unary_into_matches_allocating_kernel():
    rng = np.random.default_rng(7)
    a = np.abs(rng.standard_normal((3, 4))) + 0.5
    want = OPS["sqrt"].kernel(MatrixValue(a.copy()))
    operand = MatrixValue(a.copy())
    got = K.unary_into(np.sqrt, operand)
    if got is not None:
        assert got.data is operand.data
        np.testing.assert_array_equal(got.data, want.data)


# ----------------------------------------------------------------------
# transpose freshness (regression: fuzz seed 42000148)
# ----------------------------------------------------------------------

@pytest.mark.parametrize("shape", [(1, 1), (1, 8), (8, 1), (3, 4)])
def test_transpose_always_returns_fresh_buffer(shape):
    """t() promises a freshly-allocated output (its ``fresh`` row); for
    1xN/Nx1 the transpose is already contiguous and a no-copy shortcut
    would alias the input — the original fuzz-found aliasing bug."""
    a = np.arange(shape[0] * shape[1], dtype=np.float64).reshape(shape)
    source = MatrixValue(a)
    out = K.transpose(source)
    assert out.data.base is None or out.data.base is not a
    assert not np.shares_memory(out.data, source.data)
    out.data[:] = -1.0
    np.testing.assert_array_equal(
        source.data,
        np.arange(shape[0] * shape[1], dtype=np.float64).reshape(shape))


def test_transpose_of_transpose_identity():
    a = np.random.default_rng(3).standard_normal((1, 6))
    tt = K.transpose(K.transpose(MatrixValue(a.copy())))
    np.testing.assert_array_equal(tt.data, a)


@pytest.mark.parametrize("shape", SHAPES)
def test_matmult_tsmm_shapes(shape):
    rng = np.random.default_rng(11)
    a = _mat(rng, shape)
    got = K.tsmm(MatrixValue(a.copy()))
    np.testing.assert_allclose(got.data, a.T @ a, rtol=1e-13, atol=1e-13)
    b = _mat(rng, (shape[1], 2))
    got = K.matmult(MatrixValue(a.copy()), MatrixValue(b.copy()))
    np.testing.assert_allclose(got.data, a @ b, rtol=1e-13, atol=1e-13)


def test_empty_matrix_elementwise_shapes_survive():
    empty = MatrixValue(np.zeros((0, 3)))
    out = OPS["+"].kernel(empty, MatrixValue(np.zeros((0, 3))))
    assert out.data.shape == (0, 3)
    out = OPS["exp"].kernel(empty)
    assert out.data.shape == (0, 3)
    assert K.transpose(empty).data.shape == (3, 0)


def test_scalar_matrix_mix():
    a = np.array([[1.0, -2.0], [np.inf, 4.0]])
    got = OPS["*"].kernel(MatrixValue(a.copy()), ScalarValue(2.0))
    with np.errstate(all="ignore"):
        np.testing.assert_array_equal(got.data, a * 2.0)
    got = OPS["max2"].kernel(ScalarValue(0.0), MatrixValue(a.copy()))
    with np.errstate(all="ignore"):
        np.testing.assert_array_equal(got.data, np.maximum(0.0, a))
