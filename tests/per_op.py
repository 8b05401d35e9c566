"""Per-op primitives: the reference the fused ops are checked against.

Each function here is one tape record built on `bbadapt.tensor.record_op`.
Composed with `Tensor`'s `+`, `-`, `*` and unary `-`, they spell out the
per-op expression of each fused layer and loss op. `test_fused.py`
requires every fused forward to equal its expression bit for bit, and its
VJP to agree with the expression's tape, so the forwards here must keep
their float operations exactly as they are.
"""

import numpy as np

from bbadapt.errors import DimensionError
from bbadapt.tensor import LOG_EPS, Tensor, _elementwise, record_op


def div(a: Tensor, b: Tensor) -> Tensor:
    return _elementwise(a.data / b.data, a, b, lambda g: g / b.data, lambda g: -g * a.data / (b.data * b.data))


def pow_const(a: Tensor, exponent: float) -> Tensor:
    out = a.data**exponent

    def vjp(g):
        return (g * exponent * a.data ** (exponent - 1.0),)

    return record_op(out, (a,), vjp)


def sqrt(a: Tensor) -> Tensor:
    out = np.sqrt(a.data)

    def vjp(g):
        return (g * 0.5 / out,)

    return record_op(out, (a,), vjp)


def exp(a: Tensor) -> Tensor:
    out = np.exp(a.data)

    def vjp(g):
        return (g * out,)

    return record_op(out, (a,), vjp)


def log(a: Tensor) -> Tensor:
    out = np.log(a.data)

    def vjp(g):
        return (g / a.data,)

    return record_op(out, (a,), vjp)


def log_clamped(a: Tensor, eps: float = LOG_EPS) -> Tensor:
    """log(max(a, eps)); the derivative is zero on the clamped region."""
    clamped = np.maximum(a.data, eps)
    out = np.log(clamped)

    def vjp(g):
        return (np.where(a.data > eps, g / clamped, 0.0),)

    return record_op(out, (a,), vjp)


def relu(a: Tensor) -> Tensor:
    out = np.maximum(a.data, 0.0)

    def vjp(g):
        return (g * (a.data > 0.0),)

    return record_op(out, (a,), vjp)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.ndim != 2 or b.ndim != 2:
        raise DimensionError(f"matmul expects 2-D operands, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise DimensionError(f"matmul inner dimensions disagree: {a.shape} x {b.shape}")
    out = a.data @ b.data

    def vjp(g):
        return g @ b.data.T, a.data.T @ g

    return record_op(out, (a, b), vjp)


def transpose(a: Tensor) -> Tensor:
    return record_op(a.data.T, (a,), lambda g: (g.T,))


def reshape(a: Tensor, shape: tuple) -> Tensor:
    out = a.data.reshape(shape)

    def vjp(g):
        return (g.reshape(a.data.shape),)

    return record_op(out, (a,), vjp)


def reduce_sum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    out = a.data.sum(axis=axis, keepdims=keepdims)

    def vjp(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, a.data.shape).copy(),)

    return record_op(out, (a,), vjp)


def reduce_mean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    count = a.data.size if axis is None else a.data.shape[axis]
    return reduce_sum(a, axis=axis, keepdims=keepdims) * Tensor(1.0 / count)
