"""Unit tests for the NumPy kernels backing the instruction set (reached
by opcode through the opcode table)."""

import numpy as np
import pytest

from repro.data.values import (ListValue, MatrixValue, ScalarValue,
                               StringValue)
from repro.errors import LimaRuntimeError, LimaValueError
from repro.runtime import kernels as K
from repro.runtime.ops import BINARY, OPS, UNARY, lookup


def m(array):
    return MatrixValue(np.asarray(array, dtype=float))


def s(value):
    return ScalarValue(value)


class TestBinary:
    def test_add_matrices(self):
        out = OPS["+"].kernel(m([[1, 2]]), m([[3, 4]]))
        np.testing.assert_array_equal(out.data, [[4, 6]])

    def test_add_matrix_scalar_broadcast(self):
        out = OPS["+"].kernel(m([[1], [2]]), s(10))
        np.testing.assert_array_equal(out.data, [[11], [12]])

    def test_scalar_scalar_returns_scalar(self):
        out = OPS["*"].kernel(s(3), s(4))
        assert isinstance(out, ScalarValue)
        assert out.value == 12.0

    def test_subtract_and_divide(self):
        out = OPS["-"].kernel(m([[5, 6]]), m([[1, 2]]))
        np.testing.assert_array_equal(out.data, [[4, 4]])
        out = OPS["/"].kernel(m([[8, 6]]), m([[2, 3]]))
        np.testing.assert_array_equal(out.data, [[4, 2]])

    def test_power(self):
        out = OPS["^"].kernel(m([[2, 3]]), s(2))
        np.testing.assert_array_equal(out.data, [[4, 9]])

    def test_modulo_and_intdiv(self):
        assert OPS["%%"].kernel(s(7), s(3)).value == 1.0
        assert OPS["%/%"].kernel(s(7), s(3)).value == 2.0

    def test_min2_max2(self):
        np.testing.assert_array_equal(
            OPS["min2"].kernel(m([[1, 5]]), m([[3, 2]])).data, [[1, 2]])
        np.testing.assert_array_equal(
            OPS["max2"].kernel(m([[1, 5]]), m([[3, 2]])).data, [[3, 5]])

    @pytest.mark.parametrize("op,expected", [
        ("==", [[0, 1]]), ("!=", [[1, 0]]), ("<", [[1, 0]]),
        (">", [[0, 0]]), ("<=", [[1, 1]]), (">=", [[0, 1]]),
    ])
    def test_comparisons(self, op, expected):
        out = OPS[op].kernel(m([[1, 2]]), m([[2, 2]]))
        np.testing.assert_array_equal(out.data, expected)

    def test_scalar_comparison_returns_bool(self):
        out = OPS["<"].kernel(s(1), s(2))
        assert out.value is True

    def test_logical_and_or(self):
        np.testing.assert_array_equal(
            OPS["&"].kernel(m([[1, 0]]), m([[1, 1]])).data, [[1, 0]])
        np.testing.assert_array_equal(
            OPS["|"].kernel(m([[1, 0]]), m([[0, 0]])).data, [[1, 0]])

    def test_string_concatenation(self):
        out = OPS["+"].kernel(StringValue("a="), s(3))
        assert out.value == "a=3"

    def test_string_concat_float(self):
        out = OPS["+"].kernel(StringValue("x "), s(2.5))
        assert out.value == "x 2.5"

    def test_unknown_opcode_raises(self):
        with pytest.raises(LimaRuntimeError):
            lookup("@@", BINARY)


class TestUnary:
    @pytest.mark.parametrize("op,inp,expected", [
        ("exp", [[0.0]], [[1.0]]),
        ("log", [[1.0]], [[0.0]]),
        ("sqrt", [[9.0]], [[3.0]]),
        ("abs", [[-2.0]], [[2.0]]),
        ("round", [[1.4]], [[1.0]]),
        ("floor", [[1.9]], [[1.0]]),
        ("ceil", [[1.1]], [[2.0]]),
        ("sign", [[-5.0]], [[-1.0]]),
    ])
    def test_elementwise(self, op, inp, expected):
        np.testing.assert_allclose(OPS[op].kernel(m(inp)).data, expected)

    def test_sigmoid(self):
        np.testing.assert_allclose(OPS["sigmoid"].kernel(s(0)).value, 0.5)

    def test_not(self):
        np.testing.assert_array_equal(
            OPS["!"].kernel(m([[1, 0]])).data, [[0, 1]])

    def test_unknown_raises(self):
        with pytest.raises(LimaRuntimeError):
            lookup("nope", UNARY)


class TestAggregates:
    def setup_method(self):
        self.x = m([[1, 2], [3, 4], [5, 6]])

    def test_full_aggregates(self):
        assert OPS["sum"].kernel(self.x).value == 21
        assert OPS["mean"].kernel(self.x).value == 3.5
        assert OPS["min"].kernel(self.x).value == 1
        assert OPS["max"].kernel(self.x).value == 6
        assert np.isclose(OPS["var"].kernel(self.x).value,
                          np.var([1, 2, 3, 4, 5, 6], ddof=1))
        assert np.isclose(OPS["sd"].kernel(self.x).value,
                          np.std([1, 2, 3, 4, 5, 6], ddof=1))

    def test_trace(self):
        assert OPS["trace"].kernel(m([[1, 2], [3, 4]])).value == 5

    def test_col_aggregates(self):
        np.testing.assert_array_equal(
            OPS["colSums"].kernel(self.x).data, [[9, 12]])
        np.testing.assert_array_equal(
            OPS["colMeans"].kernel(self.x).data, [[3, 4]])
        np.testing.assert_array_equal(
            OPS["colMins"].kernel(self.x).data, [[1, 2]])
        np.testing.assert_array_equal(
            OPS["colMaxs"].kernel(self.x).data, [[5, 6]])

    def test_row_aggregates(self):
        np.testing.assert_array_equal(
            OPS["rowSums"].kernel(self.x).data, [[3], [7], [11]])
        np.testing.assert_array_equal(
            OPS["rowMeans"].kernel(self.x).data, [[1.5], [3.5], [5.5]])

    def test_col_var_sd(self):
        np.testing.assert_allclose(
            OPS["colVars"].kernel(self.x).data,
            np.var(self.x.data, axis=0, ddof=1, keepdims=True))
        np.testing.assert_allclose(
            OPS["colSds"].kernel(self.x).data,
            np.std(self.x.data, axis=0, ddof=1, keepdims=True))

    def test_row_index_max_is_one_based(self):
        out = OPS["rowIndexMax"].kernel(m([[1, 9], [8, 2]]))
        np.testing.assert_array_equal(out.data, [[2], [1]])

    def test_cumsum(self):
        np.testing.assert_array_equal(
            OPS["cumsum"].kernel(m([[1], [2], [3]])).data, [[1], [3], [6]])

    def test_var_of_single_element_is_zero(self):
        assert OPS["var"].kernel(m([[3.0]])).value == 0.0


class TestMatrixOps:
    def test_matmult(self):
        out = K.matmult(m([[1, 2]]), m([[3], [4]]))
        np.testing.assert_array_equal(out.data, [[11]])

    def test_tsmm_equals_explicit(self, rng=None):
        x = np.arange(12.0).reshape(4, 3)
        np.testing.assert_allclose(K.tsmm(m(x)).data, x.T @ x)

    def test_transpose(self):
        np.testing.assert_array_equal(
            K.transpose(m([[1, 2], [3, 4]])).data, [[1, 3], [2, 4]])

    def test_rev(self):
        np.testing.assert_array_equal(
            K.rev(m([[1], [2], [3]])).data, [[3], [2], [1]])

    def test_solve(self):
        a = np.array([[2.0, 0], [0, 4.0]])
        b = np.array([[2.0], [8.0]])
        np.testing.assert_allclose(K.solve(m(a), m(b)).data, [[1], [2]])

    def test_solve_singular_raises(self):
        with pytest.raises(LimaRuntimeError):
            K.solve(m([[1, 1], [1, 1]]), m([[1], [1]]))

    def test_inv(self):
        a = np.array([[2.0, 0], [0, 4.0]])
        np.testing.assert_allclose(
            K.inv(m(a)).data, [[0.5, 0], [0, 0.25]])

    def test_eigen_reconstructs(self):
        x = np.array([[2.0, 1.0], [1.0, 3.0]])
        values, vectors = K.eigen(m(x))
        recon = vectors.data @ np.diag(values.data.ravel()) @ vectors.data.T
        np.testing.assert_allclose(recon, x, atol=1e-12)

    def test_eigen_deterministic_signs(self):
        x = np.array([[2.0, 1.0], [1.0, 3.0]])
        _, v1 = K.eigen(m(x))
        _, v2 = K.eigen(m(x.copy()))
        np.testing.assert_array_equal(v1.data, v2.data)

    def test_svd_reconstructs(self):
        x = np.arange(12.0).reshape(4, 3)
        u, sv, v = K.svd(m(x))
        recon = u.data @ np.diag(sv.data.ravel()) @ v.data.T
        np.testing.assert_allclose(recon, x, atol=1e-10)

    def test_diag_vector_to_matrix(self):
        out = K.diag(m([[1], [2]]))
        np.testing.assert_array_equal(out.data, [[1, 0], [0, 2]])

    def test_diag_matrix_to_vector(self):
        out = K.diag(m([[1, 9], [9, 2]]))
        np.testing.assert_array_equal(out.data, [[1], [2]])

    def test_cbind_rbind(self):
        np.testing.assert_array_equal(
            K.cbind(m([[1], [2]]), m([[3], [4]])).data, [[1, 3], [2, 4]])
        np.testing.assert_array_equal(
            K.rbind(m([[1, 2]]), m([[3, 4]])).data, [[1, 2], [3, 4]])

    def test_cbind_three_way(self):
        out = K.cbind(m([[1]]), m([[2]]), m([[3]]))
        np.testing.assert_array_equal(out.data, [[1, 2, 3]])

    def test_table(self):
        out = K.table(m([[1], [2], [1]]), m([[1], [1], [2]]))
        np.testing.assert_array_equal(out.data, [[1, 1], [1, 0]])

    def test_table_length_mismatch(self):
        with pytest.raises(LimaValueError):
            K.table(m([[1], [2]]), m([[1]]))

    def test_order_ascending_descending(self):
        x = m([[3.0], [1.0], [2.0]])
        np.testing.assert_array_equal(
            K.order(x).data, [[1], [2], [3]])
        np.testing.assert_array_equal(
            K.order(x, decreasing=True).data, [[3], [2], [1]])

    def test_order_index_return(self):
        x = m([[3.0], [1.0], [2.0]])
        np.testing.assert_array_equal(
            K.order(x, index_return=True).data, [[2], [3], [1]])

    def test_order_stable(self):
        x = m([[1.0, 10], [1.0, 20]])
        out = K.order(x, by=1, index_return=True)
        np.testing.assert_array_equal(out.data, [[1], [2]])

    def test_replace(self):
        np.testing.assert_array_equal(
            K.replace(m([[0, 1], [0, 2]]), 0, 9).data, [[9, 1], [9, 2]])

    def test_replace_nan(self):
        out = K.replace(m([[np.nan, 1]]), np.nan, 5)
        np.testing.assert_array_equal(out.data, [[5, 1]])


class TestIndexing:
    def setup_method(self):
        self.x = m(np.arange(20.0).reshape(4, 5))

    def test_range_rows(self):
        out = K.right_index(self.x, (2, 3), None)
        np.testing.assert_array_equal(out.data, self.x.data[1:3])

    def test_scalar_position(self):
        out = K.right_index(self.x, 2, 3)
        np.testing.assert_array_equal(out.data, [[7.0]])

    def test_vector_index(self):
        idx = m([[3], [1]])
        out = K.right_index(self.x, idx, None)
        np.testing.assert_array_equal(out.data, self.x.data[[2, 0]])

    def test_vector_both_dims(self):
        out = K.right_index(self.x, m([[1], [4]]), m([[2], [5]]))
        np.testing.assert_array_equal(
            out.data, self.x.data[np.ix_([0, 3], [1, 4])])

    def test_out_of_bounds_raises(self):
        with pytest.raises(LimaRuntimeError):
            K.right_index(self.x, (1, 9), None)
        with pytest.raises(LimaRuntimeError):
            K.right_index(self.x, 0, None)

    def test_left_index_is_copy_on_write(self):
        original = self.x.data.copy()
        out = K.left_index(self.x, m([[100.0]]), 1, 1)
        assert out.data[0, 0] == 100.0
        np.testing.assert_array_equal(self.x.data, original)

    def test_left_index_range(self):
        out = K.left_index(self.x, m([[9.0, 9.0]]), 2, (2, 3))
        np.testing.assert_array_equal(out.data[1, 1:3], [9, 9])

    def test_left_index_scalar_source(self):
        out = K.left_index(self.x, s(7), (1, 2), 1)
        np.testing.assert_array_equal(out.data[0:2, 0], [7, 7])

    def test_left_index_shape_mismatch(self):
        with pytest.raises(LimaRuntimeError):
            K.left_index(self.x, m([[1.0, 2.0, 3.0]]), 1, (1, 2))

    def test_list_indexing(self):
        lst = ListValue([s(1), s(2)])
        assert K.right_index(lst, 2, None).value == 2


class TestDataGen:
    def test_rand_deterministic_by_seed(self):
        a = K.rand(5, 4, seed=7)
        b = K.rand(5, 4, seed=7)
        np.testing.assert_array_equal(a.data, b.data)
        c = K.rand(5, 4, seed=8)
        assert not np.array_equal(a.data, c.data)

    def test_rand_bounds(self):
        out = K.rand(50, 50, min_v=2.0, max_v=3.0, seed=1)
        assert out.data.min() >= 2.0 and out.data.max() <= 3.0

    def test_rand_normal(self):
        out = K.rand(2000, 2, pdf="normal", seed=1)
        assert abs(out.data.mean()) < 0.1

    def test_rand_sparsity(self):
        out = K.rand(100, 100, sparsity=0.3, seed=1)
        frac = (out.data != 0).mean()
        assert 0.2 < frac < 0.4

    def test_sample_without_replacement(self):
        out = K.sample(10, 10, seed=3)
        assert sorted(out.data.ravel()) == list(range(1, 11))

    def test_sample_too_many_raises(self):
        with pytest.raises(LimaRuntimeError):
            K.sample(5, 6, replace_=False)

    def test_sample_with_replacement(self):
        out = K.sample(2, 50, replace_=True, seed=3)
        assert set(out.data.ravel()) <= {1.0, 2.0}

    def test_seq_forward_backward(self):
        np.testing.assert_array_equal(
            K.seq(1, 4).data.ravel(), [1, 2, 3, 4])
        np.testing.assert_array_equal(
            K.seq(3, 1).data.ravel(), [3, 2, 1])

    def test_seq_step(self):
        np.testing.assert_array_equal(
            K.seq(0, 1, 0.5).data.ravel(), [0, 0.5, 1.0])

    def test_seq_zero_step_raises(self):
        with pytest.raises(LimaRuntimeError):
            K.seq(1, 5, 0)

    def test_fill_and_reshape(self):
        np.testing.assert_array_equal(K.fill(2, 2, 3).data,
                                      np.full((2, 3), 2.0))
        out = K.reshape(m([[1, 2], [3, 4]]), 1, 4)
        np.testing.assert_array_equal(out.data, [[1, 2, 3, 4]])

    def test_reshape_size_mismatch(self):
        with pytest.raises(LimaRuntimeError):
            K.reshape(m([[1, 2]]), 3, 3)


class TestCastsAndMeta:
    def test_as_scalar(self):
        assert K.as_scalar(m([[5.0]])).value == 5.0
        with pytest.raises(LimaValueError):
            K.as_scalar(m([[1, 2]]))

    def test_as_matrix(self):
        np.testing.assert_array_equal(K.as_matrix(s(3)).data, [[3.0]])

    def test_nrow_ncol_length(self):
        x = m(np.zeros((3, 4)))
        assert K.nrow(x).value == 3
        assert K.ncol(x).value == 4
        assert K.length(x).value == 12

    def test_length_of_list_and_string(self):
        assert K.length(ListValue([s(1), s(2)])).value == 2
        assert K.length(StringValue("abc")).value == 3

    def test_ifelse_scalar(self):
        assert K.ifelse(s(True), s(1), s(2)).value == 1
        assert K.ifelse(s(False), s(1), s(2)).value == 2

    def test_ifelse_matrix(self):
        out = K.ifelse(m([[1, 0]]), m([[10, 10]]), m([[20, 20]]))
        np.testing.assert_array_equal(out.data, [[10, 20]])

    def test_to_string_scalar_formats(self):
        assert K.to_string(s(True)).value == "TRUE"
        assert K.to_string(s(3.0)).value == "3"
        assert K.to_string(s(2.5)).value == "2.5"
