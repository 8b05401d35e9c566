"""Dense float64 tensors with a reverse-mode gradient tape.

Values are computed eagerly on numpy arrays; while a :class:`GradTape` is
active, each op also appends one record holding a vector-Jacobian
callback, so that the gradient of a loss (the sum of its entries) can be
pulled back to any parameter tensor. Tapes are rebuilt per mini-batch
and are confined to the thread that created them.

Each op's math is written once, as a raw function on arrays that returns
its value and its VJP (`_affine`, `_softmax` here; batch norm and the
weight-normalized classifier in `nets`, the loss terms in `nets` and
`distill`). `record_op` is the one way to put math on the tape: it takes
a value, the op's inputs and the VJP. The public taped forms (`affine`
and `softmax` here, the layers' `__call__`, `soft_cross_entropy`,
`distill_loss` and `mi_loss`) each record one raw function. A training
step composes them before it records: the net's train forward is one
record and the phase's objective over the logits another (see
`nets._Net.forward`, `nets.ls_cross_entropy`, `distill.total_loss` and
`finetune`), each VJP calling its parts' VJPs in reverse. `Tensor`'s
`+`, `-`, `*` and unary `-` remain for the per-term expressions the
tests check those records against (`tests/reference_step.py`,
`tests/per_op.py`, the second of which holds the per-op expressions each
fused forward must match float operation for float operation).

The layer ops take a batch of rows, or a stack of batches with one leading
member axis (see `nets.stack_nets`): rows are reduced over axis -2 and
weights transposed over the last two axes, so each member's slice is
computed exactly as that member alone. So is each batch of features with
one more leading axis.
"""

from __future__ import annotations

import threading

import numpy as np

from .errors import ContractError, DimensionError

# Lower clamp applied before every log inside a loss term.
LOG_EPS = 1e-8


class _State(threading.local):
    def __init__(self):
        self.stack = []  # the open tapes, innermost last


_STATE = _State()


class Tensor:
    """A dense multi-dimensional real array (row-major, 64-bit)."""

    __slots__ = ("data", "requires_grad")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)

    @property
    def shape(self):
        return self.data.shape

    @property
    def size(self):
        return self.data.size

    @property
    def ndim(self):
        return self.data.ndim

    def item(self) -> float:
        return float(self.data)

    # arithmetic -------------------------------------------------------

    def __add__(self, other):
        b = as_tensor(other)
        return _elementwise(self.data + b.data, self, b, lambda g: g, lambda g: g)

    def __sub__(self, other):
        b = as_tensor(other)
        return _elementwise(self.data - b.data, self, b, lambda g: g, lambda g: -g)

    def __mul__(self, other):
        b = as_tensor(other)
        return _elementwise(self.data * b.data, self, b, lambda g: g * b.data, lambda g: g * self.data)

    def __neg__(self):
        return record_op(-self.data, (self,), lambda g: (-g,))


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


class GradTape:
    """Ordered record of primitive applications for reverse-mode gradients.

    Used as a context manager::

        with GradTape() as tape:
            loss = f(params)
        grads = tape.gradient(loss, params)

    Only operations whose inputs are (transitively) connected to a tensor
    with ``requires_grad=True`` are recorded.
    """

    def __init__(self):
        self._records = []  # (out, inputs, vjp)

    def __enter__(self) -> "GradTape":
        _STATE.stack.append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        _STATE.stack.pop()
        return False

    def __len__(self):
        return len(self._records)

    def gradient(self, target: Tensor, sources: list[Tensor], out=None) -> list[np.ndarray]:
        """Gradients of the sum of `target`'s entries (seeded with ones, so on
        a stack's per-member loss each member's is its own) with respect to
        each source, written into its array of `out`, such as `SGD.grads`,
        or a fresh one; returns those arrays. A source's first contribution
        is assigned and later ones added (as `acc + gi`), each first summed
        over any batch axes the source lacks; unreached sources get zeros.
        Records replay once, in reverse, freeing each intermediate gradient.
        """
        out = [np.empty_like(s.data) for s in sources] if out is None else out
        dest, reached = {id(s): o for s, o in zip(sources, out)}, set()
        if not len(dest) == len(sources) == len(out):
            raise DimensionError(f"expected one array per distinct source: {len(sources)} sources, {len(out)} arrays")
        grads: dict[int, np.ndarray] = {id(target): np.ones_like(target.data)}
        for rec_out, inputs, vjp in reversed(self._records):
            g = grads.pop(id(rec_out), None)
            if g is None:
                continue
            for t, gi in zip(inputs, vjp(g)):
                if gi is None or not t.requires_grad:
                    continue
                key, d = id(t), dest.get(id(t))
                if d is None:
                    grads[key] = gi if (acc := grads.get(key)) is None else acc + gi
                    continue
                batch = tuple(range(gi.ndim - d.ndim))
                if gi.shape[len(batch) :] != d.shape:
                    raise DimensionError(f"gradient shape {gi.shape} does not match parameter shape {d.shape}")
                if key in reached:
                    d += gi.sum(axis=batch) if batch else gi
                else:
                    if batch:
                        np.add.reduce(gi, axis=batch, out=d)
                    else:
                        d[...] = gi
                    reached.add(key)
                    grads[key] = d  # for the record, if any, whose output is this source
        for s, o in zip(sources, out):
            if id(s) not in reached:
                o[...] = 0.0
        return out


def record_op(out_data: np.ndarray, inputs: tuple, vjp) -> Tensor:
    """Wrap an eagerly computed float64 array, recording it as one op if a
    tape is listening and any input (each a Tensor) requires a gradient.

    `vjp(g)` receives the gradient of the output and returns one gradient
    per input, shaped like that input; None marks an input it skips (a
    constant, or one whose `requires_grad` is False).
    """
    out = Tensor.__new__(Tensor)
    out.data = out_data
    out.requires_grad = needs = bool(_STATE.stack) and any(t.requires_grad for t in inputs)
    if needs:
        _STATE.stack[-1]._records.append((out, inputs, vjp))
    return out


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a broadcast gradient back down to `shape`."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


# arithmetic ops: Tensor's + - and * ------------------------------------


def _elementwise(out: np.ndarray, a: Tensor, b: Tensor, grad_a, grad_b) -> Tensor:
    """`out`, computed from `a` and `b` with broadcasting, as one record;
    `grad_a(g)` and `grad_b(g)` are the input gradients before each is
    summed back down to its input's shape."""

    def vjp(g):
        return _unbroadcast(grad_a(g), a.data.shape), _unbroadcast(grad_b(g), b.data.shape)

    return record_op(out, (a, b), vjp)


# fused layer ops --------------------------------------------------------


def affine(x: Tensor, weight: Tensor, bias: Tensor, relu: bool = False) -> Tensor:
    """x @ weight + bias for a batch of rows, optionally through a ReLU,
    as one record (the forward of `relu(x @ weight + bias)`, see `_affine`).

    A stack of S layers is the same call with one leading member axis on
    every argument: x (S, n, in), weight (S, in, out), bias (S, out). Each
    member's slice is computed exactly as the member alone would be, as is
    each batch of an x with one more leading axis."""
    if x.ndim < weight.ndim or x.shape[-1] != weight.shape[-2]:
        raise DimensionError(f"affine expects rows of {weight.shape[-2]} features, got shape {x.shape}")
    out, vjp = _affine(x.data, weight.data, bias.data, relu, x.requires_grad)
    return record_op(out, (x, weight, bias), vjp)


def _affine(x: np.ndarray, weight: np.ndarray, bias: np.ndarray, relu: bool = False, need_gx: bool = True):
    """`affine` on arrays: its value and its VJP, g -> (gx, g_weight, g_bias),
    gx None unless `need_gx`. The bias and the ReLU are applied in place on
    the product, the one full-batch array the forward allocates."""
    out = x @ weight
    out += bias[..., None, :]
    if relu:
        np.maximum(out, 0.0, out=out)

    def vjp(g):
        if relu:  # out > 0 exactly where x @ weight + bias > 0
            g = g * (out > 0.0)
        gx = g @ weight.swapaxes(-1, -2) if need_gx else None
        return gx, x.swapaxes(-1, -2) @ g, g.sum(axis=-2)

    return out, vjp


# probability ops ------------------------------------------------------


def softmax(logits: Tensor | np.ndarray) -> Tensor:
    """Row-wise softmax over the last axis, as one record (see `_softmax`)."""
    t = as_tensor(logits)
    p, vjp = _softmax(t.data)
    return record_op(p, (t,), vjp)


def _softmax(z: np.ndarray):
    """`softmax` on an array: its value, computed with max subtraction in
    one array of the output's shape, and its VJP, g -> (g_z,)."""
    p = z - z.max(axis=-1, keepdims=True)
    np.exp(p, out=p)
    p /= p.sum(axis=-1, keepdims=True)

    def vjp(g):
        return (p * (g - (g * p).sum(axis=-1, keepdims=True)),)

    return p, vjp


def check_probabilities(p: np.ndarray, name: str, ndim: int):
    """Require a probability vector (ndim=1), a batch of rows (ndim=2) or
    a stack of batches, one per member (ndim=3): no entry below -1e-12 and
    every row summing to 1 within 1e-6.

    The comparisons are written so that NaN fails them; `initial=0.0`
    lets an empty batch through.
    """
    if p.ndim != ndim:
        raise ContractError(f"{name} must be a {ndim}-D array of probabilities, got shape {p.shape}")
    lowest = p.min(initial=0.0)
    if not lowest >= -1e-12:
        raise ContractError(f"{name} has negative or NaN entries (min={lowest})")
    worst = np.abs(p.sum(axis=-1) - 1.0).max(initial=0.0)
    if not worst <= 1e-6:
        raise ContractError(f"{name} must sum to 1 within 1e-06, worst deviation {worst}")


# verification oracle --------------------------------------------------


def grad_check(f, theta: Tensor) -> float:
    """Max relative error between tape gradient and central differences.

    `f` must map `theta` to a scalar Tensor built from taped ops (each a
    `record_op` record). The finite-difference sweep (step 1e-5) perturbs
    `theta.data` in place, restoring it afterwards, so `f` may simply
    close over a model that holds `theta`. The relative error uses a unit floor:
    |g_tape - g_fd| / max(1, |g_tape|, |g_fd|).
    """
    with GradTape() as tape:
        out = f(theta)
    (g_tape,) = tape.gradient(out, [theta])

    h = 1e-5
    flat = theta.data.reshape(-1)
    fd = np.zeros_like(flat)
    for i in range(flat.size):
        keep = flat[i]
        flat[i] = keep + h
        f_plus = float(f(theta).data)
        flat[i] = keep - h
        f_minus = float(f(theta).data)
        flat[i] = keep
        fd[i] = (f_plus - f_minus) / (2.0 * h)
    fd = fd.reshape(theta.data.shape)

    denom = np.maximum(1.0, np.maximum(np.abs(g_tape), np.abs(fd)))
    return float(np.max(np.abs(g_tape - fd) / denom))
