"""Reverse-mode automatic differentiation over lineage DAGs.

The paper lists auto differentiation among the use cases lineage enables
("versioning, debugging, auto differentiation, and lineage-based reuse",
Section 3.4).  This module implements it: given the lineage DAG of a
scalar result and the values of its input leaves, :func:`gradient`
re-executes the trace forward and accumulates adjoints backward,
returning d(result)/d(input) for any requested input.

Because the lineage DAG is exactly the data-flow graph that produced the
value — with control flow already resolved and seeds recorded — no
program analysis is needed: a traced training loss is differentiable
as-is, including through loops (unrolled in the trace) and deduplicated
sections (resolved via lineage patches).

Supported opcodes: elementwise ``+ - * / ^ min2 max2``, ``exp log sqrt
abs sigmoid``, matrix product ``mm``, ``tsmm``, ``t``, ``cbind/rbind``,
``rightIndex`` (scalar/range specs), aggregates ``sum mean colSums
rowSums trace``, ``diag``, ``solve``, ``matrix`` (fill/reshape), and the
metadata ops ``nrow/ncol`` (constant, no gradient flow).
"""

from __future__ import annotations

import numpy as np

from repro.data.values import MatrixValue, wrap
from repro.errors import LineageError
from repro.lineage.item import LineageItem, parse_literal
from repro.lineage.reconstruct import topological_order
from repro.runtime.ops import MULTI, OPS


def _forward(order: list[LineageItem], inputs: dict[str, np.ndarray]) \
        -> dict[int, np.ndarray | float]:
    """Evaluate every item of the DAG; returns values by item identity.

    The forward pass runs the opcode table's kernels, as reconstruction
    does, but keeps *all* intermediate values (the backward pass needs
    them as local contexts).
    """
    values: dict[int, np.ndarray | float] = {}
    for item in order:
        if item.opcode in ("L", "SL"):
            values[id(item)] = parse_literal(item.data)
            continue
        if item.opcode == "input":
            name = item.data.split(":", 1)[0]
            if name not in inputs:
                raise LineageError(f"gradient requires input {name!r}")
            values[id(item)] = np.asarray(inputs[name], dtype=np.float64)
            continue
        args = [values[id(child)] for child in item.inputs]
        if item.opcode == "rightIndex":
            values[id(item)] = _index_value(item, args)
            continue
        row = OPS.get(item.opcode)
        if row is None or row.kind == MULTI:
            raise LineageError(
                f"autodiff does not support opcode {item.opcode!r}")
        out = row.kernel(*[wrap(arg) for arg in args])
        values[id(item)] = (out.data if isinstance(out, MatrixValue)
                            else out.value)
    return values


def _index_bounds(item: LineageItem, args: list,
                  shape: tuple[int, int]):
    """Resolve a rightIndex item's (row slice, col slice)."""
    pos = 1
    slices = []
    for kind, size in zip(item.data, shape):
        if kind == "a":
            slices.append(slice(0, size))
        elif kind == "r":
            lo = int(np.asarray(args[pos]).ravel()[0])
            hi = int(np.asarray(args[pos + 1]).ravel()[0])
            slices.append(slice(lo - 1, hi))
            pos += 2
        elif kind == "i":
            spec = np.asarray(args[pos])
            if spec.size != 1:
                raise LineageError(
                    "autodiff supports only scalar/range indexing")
            p = int(spec.ravel()[0])
            slices.append(slice(p - 1, p))
            pos += 1
        else:
            raise LineageError(f"unknown index kind {kind!r}")
    return slices[0], slices[1]


def _index_value(item: LineageItem, args: list):
    target = np.atleast_2d(args[0])
    rows, cols = _index_bounds(item, args, target.shape)
    return target[rows, cols].copy()


def _unbroadcast(grad: np.ndarray, shape) -> np.ndarray | float:
    """Sum a gradient back down to the shape of the broadcast operand."""
    if np.isscalar(shape) or shape == ():
        return float(np.sum(grad))
    grad = np.asarray(grad)
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


def gradient(root: LineageItem, inputs: dict[str, np.ndarray],
             wrt: str | list[str]) -> dict[str, np.ndarray]:
    """d(root)/d(input) for each requested input leaf.

    ``root`` must trace a scalar result (a loss); ``inputs`` binds every
    ``input`` leaf of the DAG; ``wrt`` names the inputs to differentiate
    with respect to.  Returns arrays matching each input's shape.
    """
    targets = [wrt] if isinstance(wrt, str) else list(wrt)
    root = root.resolve()
    order = topological_order(root)
    values = _forward(order, inputs)
    if not np.isscalar(values[id(root)]) \
            and np.asarray(values[id(root)]).size != 1:
        raise LineageError("gradient requires a scalar-valued root")

    adjoints: dict[int, np.ndarray | float] = {id(root): 1.0}

    def shape_of(item):
        v = values[id(item)]
        return () if np.isscalar(v) else np.asarray(v).shape

    def accumulate(item, grad):
        key = id(item)
        if np.isscalar(values[key]):
            grad = float(np.sum(grad))
        if key in adjoints:
            adjoints[key] = adjoints[key] + grad
        else:
            adjoints[key] = grad

    for item in reversed(order):
        grad = adjoints.get(id(item))
        if grad is None or item.is_leaf:
            continue
        args = [values[id(c)] for c in item.inputs]
        _backprop(item, args, values, grad, accumulate, shape_of)

    result: dict[str, np.ndarray] = {}
    for name in targets:
        found = None
        for item in order:
            if item.opcode == "input" \
                    and item.data.split(":", 1)[0] == name:
                found = item
                break
        if name not in inputs:
            raise LineageError(f"no input named {name!r}")
        shape = np.asarray(inputs[name]).shape
        if found is None:
            # the result does not depend on this input at all
            result[name] = np.zeros(shape)
            continue
        grad = adjoints.get(id(found))
        if grad is None:
            result[name] = np.zeros(shape)
        else:
            result[name] = np.broadcast_to(
                np.asarray(grad, dtype=np.float64), shape).copy() \
                if np.isscalar(grad) else np.asarray(grad)
    return result


def _backprop(item, args, values, grad, accumulate, shape_of):
    op = item.opcode
    x = item.inputs
    g = np.asarray(grad) if not np.isscalar(grad) else grad
    if op == "+":
        accumulate(x[0], _unbroadcast(np.broadcast_to(
            g, np.broadcast(np.atleast_1d(args[0]),
                            np.atleast_1d(args[1])).shape), shape_of(x[0])))
        accumulate(x[1], _unbroadcast(np.broadcast_to(
            g, np.broadcast(np.atleast_1d(args[0]),
                            np.atleast_1d(args[1])).shape), shape_of(x[1])))
    elif op == "-":
        out_shape = np.broadcast(np.atleast_1d(args[0]),
                                 np.atleast_1d(args[1])).shape
        accumulate(x[0], _unbroadcast(np.broadcast_to(g, out_shape),
                                      shape_of(x[0])))
        accumulate(x[1], _unbroadcast(-np.broadcast_to(g, out_shape),
                                      shape_of(x[1])))
    elif op == "*":
        accumulate(x[0], _unbroadcast(g * args[1], shape_of(x[0])))
        accumulate(x[1], _unbroadcast(g * args[0], shape_of(x[1])))
    elif op == "/":
        accumulate(x[0], _unbroadcast(g / args[1], shape_of(x[0])))
        accumulate(x[1], _unbroadcast(-g * args[0] / (args[1] ** 2),
                                      shape_of(x[1])))
    elif op == "^":
        base, expo = args
        accumulate(x[0], _unbroadcast(g * expo * base ** (expo - 1),
                                      shape_of(x[0])))
        with np.errstate(divide="ignore", invalid="ignore"):
            dlog = np.where(np.asarray(base) > 0,
                            np.log(np.where(np.asarray(base) > 0, base, 1.0)),
                            0.0)
        accumulate(x[1], _unbroadcast(g * values[id(item)] * dlog,
                                      shape_of(x[1])))
    elif op == "exp":
        accumulate(x[0], g * values[id(item)])
    elif op == "log":
        accumulate(x[0], g / args[0])
    elif op == "sqrt":
        accumulate(x[0], g * 0.5 / values[id(item)])
    elif op == "abs":
        accumulate(x[0], g * np.sign(args[0]))
    elif op == "sigmoid":
        s = values[id(item)]
        accumulate(x[0], g * s * (1 - s))
    elif op == "mm":
        accumulate(x[0], np.asarray(g) @ np.asarray(args[1]).T)
        accumulate(x[1], np.asarray(args[0]).T @ np.asarray(g))
    elif op == "tsmm":
        accumulate(x[0], np.asarray(args[0]) @ (np.asarray(g)
                                                + np.asarray(g).T))
    elif op == "t":
        accumulate(x[0], np.asarray(g).T)
    elif op == "cbind":
        offset = 0
        for child, value in zip(x, args):
            width = np.atleast_2d(value).shape[1]
            accumulate(child, np.asarray(g)[:, offset:offset + width])
            offset += width
    elif op == "rbind":
        offset = 0
        for child, value in zip(x, args):
            height = np.atleast_2d(value).shape[0]
            accumulate(child, np.asarray(g)[offset:offset + height])
            offset += height
    elif op == "rightIndex":
        target = np.atleast_2d(args[0])
        rows, cols = _index_bounds(item, args, target.shape)
        full = np.zeros_like(target)
        full[rows, cols] = g
        accumulate(x[0], full)
    elif op == "sum":
        accumulate(x[0], np.full_like(np.atleast_2d(args[0]), float(g)))
    elif op == "mean":
        arr = np.atleast_2d(args[0])
        accumulate(x[0], np.full_like(arr, float(g) / arr.size))
    elif op == "colSums":
        arr = np.atleast_2d(args[0])
        accumulate(x[0], np.broadcast_to(np.asarray(g), arr.shape).copy())
    elif op == "rowSums":
        arr = np.atleast_2d(args[0])
        accumulate(x[0], np.broadcast_to(np.asarray(g), arr.shape).copy())
    elif op == "trace":
        arr = np.atleast_2d(args[0])
        accumulate(x[0], float(g) * np.eye(arr.shape[0], arr.shape[1]))
    elif op == "diag":
        arr = np.atleast_2d(args[0])
        if min(arr.shape) == 1:  # vector -> diagonal matrix
            accumulate(x[0], np.diag(np.asarray(g)).reshape(arr.shape))
        else:  # matrix -> diagonal vector
            accumulate(x[0], np.diag(np.asarray(g).ravel()))
    elif op == "solve":
        a, b = np.asarray(args[0]), np.asarray(args[1])
        out = np.asarray(values[id(item)])
        grad_b = np.linalg.solve(a.T, np.asarray(g))
        accumulate(x[1], grad_b)
        accumulate(x[0], -grad_b @ out.T)
    elif op in ("min2", "max2"):
        pick = (np.asarray(args[0]) <= np.asarray(args[1])
                if op == "min2"
                else np.asarray(args[0]) >= np.asarray(args[1]))
        accumulate(x[0], _unbroadcast(g * pick, shape_of(x[0])))
        accumulate(x[1], _unbroadcast(g * (~pick), shape_of(x[1])))
    elif op == "matrix":
        value = args[0]
        if np.isscalar(value) or np.asarray(value).size == 1:
            accumulate(x[0], float(np.sum(g)))
        else:
            accumulate(x[0], np.asarray(g).reshape(np.asarray(value).shape))
    elif op in ("L", "SL", "input", "nrow", "ncol"):
        pass  # metadata/leaf: no gradient flows through
    else:
        raise LineageError(f"autodiff does not support opcode {op!r}")
