"""The opcode table: one row per compute opcode.

Everything the system knows about an opcode is its row here; every other
module reads the row instead of keeping a set of its own.  Columns:

* ``kind`` -- ``binary`` / ``unary`` elementwise, ``aggregate``, or
  ``special`` (any other builtin), all run by a
  :class:`~repro.runtime.instructions.cp.ComputeInstruction`; or
  ``multi``, a multi-return builtin with ``returns`` outputs;
* ``kernel`` -- the value-level kernel (numerics in
  :mod:`repro.runtime.kernels`);
* ``fn`` -- an elementwise row's raw NumPy function, which fused
  templates (Section 3.3) and partial-reuse compensations apply to
  arrays directly;
* ``inplace`` -- the same-dtype ufunc that may overwrite a dying
  operand's buffer (:func:`~repro.runtime.kernels.binary_into`), or None;
* ``fresh`` -- the kernel always returns a newly allocated value, never an
  alias of an input, so its single-use temporaries may be overwritten;
* ``bool_result`` -- scalar results are booleans (``TRUE``/``FALSE``);
* ``reusable`` -- outputs qualify for the lineage cache: the reusable
  opcode set of Section 4.1.  Cheap metadata ops stay out to avoid cache
  pollution.  Instructions without a row (``rightIndex``, ``fused``,
  ``rand``, ...) declare ``reusable`` on their class;
* ``heavy`` -- compute-heavy: a basic block holding one is worth
  block-level reuse probing.

Adding an opcode is one row here, plus a kernel in ``kernels.py`` when no
existing one fits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.data.values import ScalarValue
from repro.errors import LimaRuntimeError
from repro.runtime import kernels as K

BINARY, UNARY, AGGREGATE, SPECIAL, MULTI = (
    "binary", "unary", "aggregate", "special", "multi")
#: the kinds a ComputeInstruction runs
COMPUTE = (BINARY, UNARY, AGGREGATE, SPECIAL)


@dataclass(frozen=True)
class Op:
    opcode: str
    kind: str
    kernel: Callable
    fn: Callable | None = None
    inplace: np.ufunc | None = None
    fresh: bool = False
    bool_result: bool = False
    reusable: bool = True
    heavy: bool = False
    returns: int = 1

    @property
    def elementwise(self) -> bool:
        """Cell-wise, so it may join a fused template (Section 3.3)."""
        return self.kind in (BINARY, UNARY)


def _binary(opcode, fn, inplace=False, fresh=True, bool_result=False,
            reusable=True) -> Op:
    kernel = K.binary_kernel(fn, bool_result, concat=opcode == "+")
    return Op(opcode, BINARY, kernel, fn, fn if inplace else None, fresh,
              bool_result, reusable)


def _unary(opcode, fn, inplace=False, fresh=True, bool_result=False) -> Op:
    return Op(opcode, UNARY, K.unary_kernel(fn, bool_result), fn,
              fn if inplace else None, fresh, bool_result)


def _aggregate(opcode, fn) -> Op:
    return Op(opcode, AGGREGATE, K.aggregate_kernel(fn))


def _special(opcode, kernel, fresh=False, reusable=True, heavy=False) -> Op:
    return Op(opcode, SPECIAL, kernel, fresh=fresh, reusable=reusable,
              heavy=heavy)


def _cast(to):
    return lambda v: ScalarValue(to(K.as_scalar(v).as_float()))


#: comparisons and logicals
_TEST = {"fresh": False, "bool_result": True}
_ND = np.ndarray

OPS: dict[str, Op] = {row.opcode: row for row in (
    _binary("+", np.add, inplace=True),
    _binary("-", np.subtract, inplace=True),
    _binary("*", np.multiply, inplace=True),
    _binary("/", np.divide, inplace=True),
    _binary("^", np.power, inplace=True),
    _binary("%%", np.mod, inplace=True),
    _binary("%/%", K.int_divide, reusable=False),
    _binary("min2", np.minimum, inplace=True),
    _binary("max2", np.maximum, inplace=True),
    _binary("==", np.equal, **_TEST),
    _binary("!=", np.not_equal, **_TEST),
    _binary("<", np.less, **_TEST),
    _binary(">", np.greater, **_TEST),
    _binary("<=", np.less_equal, **_TEST),
    _binary(">=", np.greater_equal, **_TEST),
    _binary("&", K.logical_and, **_TEST),
    _binary("|", K.logical_or, **_TEST),
    _unary("exp", np.exp, inplace=True),
    _unary("log", np.log, inplace=True),
    _unary("sqrt", np.sqrt, inplace=True),
    _unary("abs", np.abs, inplace=True),
    _unary("round", np.rint, inplace=True),
    _unary("floor", np.floor, inplace=True),
    _unary("ceil", np.ceil, inplace=True),
    _unary("sign", np.sign, inplace=True),
    _unary("!", K.logical_not, **_TEST),
    _unary("sigmoid", K.sigmoid),
    _aggregate("sum", K.reduce_all(_ND.sum)),
    _aggregate("mean", K.reduce_all(_ND.mean)),
    _aggregate("min", K.reduce_all(_ND.min)),
    _aggregate("max", K.reduce_all(_ND.max)),
    _aggregate("var", K.reduce_all(_ND.var, ddof=1)),
    _aggregate("sd", K.reduce_all(_ND.std, ddof=1)),
    _aggregate("trace", K.reduce_all(np.trace)),
    _aggregate("colSums", K.reduce_axis(_ND.sum, 0)),
    _aggregate("colMeans", K.reduce_axis(_ND.mean, 0)),
    _aggregate("colMins", K.reduce_axis(_ND.min, 0)),
    _aggregate("colMaxs", K.reduce_axis(_ND.max, 0)),
    _aggregate("colVars", K.reduce_axis(_ND.var, 0, ddof=1)),
    _aggregate("colSds", K.reduce_axis(_ND.std, 0, ddof=1)),
    _aggregate("rowSums", K.reduce_axis(_ND.sum, 1)),
    _aggregate("rowMeans", K.reduce_axis(_ND.mean, 1)),
    _aggregate("rowMins", K.reduce_axis(_ND.min, 1)),
    _aggregate("rowMaxs", K.reduce_axis(_ND.max, 1)),
    _aggregate("rowIndexMax", K.row_index_max),
    _aggregate("cumsum", K.cumsum),
    _special("mm", K.matmult, fresh=True, heavy=True),
    _special("tsmm", K.tsmm, fresh=True, heavy=True),
    _special("solve", K.solve, fresh=True, heavy=True),
    _special("inv", K.inv, fresh=True, heavy=True),
    _special("t", K.transpose, fresh=True),
    _special("rev", K.rev, fresh=True),
    _special("diag", K.diag, fresh=True),
    _special("cbind", K.cbind, fresh=True),
    _special("rbind", K.rbind, fresh=True),
    _special("table", K.table),
    _special("order", lambda t, by, dec, ir: K.order(
        t, by.as_int(), dec.as_bool(), ir.as_bool())),
    _special("replace", lambda t, p, r: K.replace(
        t, p.as_float(), r.as_float())),
    # a zero step is the compiler's sentinel for "auto" (+1 or -1)
    _special("seq", lambda f, t, b: K.seq(
        f.as_float(), t.as_float(), b.as_float() or None), reusable=False),
    _special("matrix", K.matrix),
    _special("as.scalar", K.as_scalar, reusable=False),
    _special("as.matrix", K.as_matrix, reusable=False),
    _special("as.integer", _cast(int), reusable=False),
    _special("as.double", _cast(float), reusable=False),
    _special("as.logical", _cast(bool), reusable=False),
    _special("lappend", K.list_append, reusable=False),
    _special("recodeEncode", K.recode_encode),
    _special("binEncode", lambda t, b: K.bin_encode(t, b.as_int())),
    _special("oneHotEncode", K.one_hot_encode),
    _special("nrow", K.nrow, reusable=False),
    _special("ncol", K.ncol, reusable=False),
    _special("length", K.length, reusable=False),
    _special("toString", K.to_string, reusable=False),
    _special("ifelse", K.ifelse, reusable=False),
    Op("eigen", MULTI, K.eigen, heavy=True, returns=2),
    Op("svd", MULTI, K.svd, heavy=True, returns=3),
)}


def lookup(opcode: str, *kinds: str) -> Op:
    """The row of ``opcode``, which must be of one of ``kinds`` (default:
    one a ComputeInstruction runs)."""
    row = OPS.get(opcode)
    if row is None or row.kind not in (kinds or COMPUTE):
        raise LimaRuntimeError(
            f"unknown {'/'.join(kinds) or 'compute'} opcode {opcode!r}")
    return row
