"""Dense float64 tensors with a reverse-mode gradient tape.

Values are computed eagerly on numpy arrays; while a :class:`GradTape` is
active, each op also appends one record holding a vector-Jacobian
callback, so that the gradient of a scalar loss can be pulled back to any
parameter tensor. Tapes are rebuilt per mini-batch and are confined to the
thread that created them.

`record_op` is the one way to define an op: compute the output with
numpy, then hand it over with the inputs and a hand-written VJP. Each
layer and loss term on the training path is one such record: `affine`
(x @ W + b, optionally through a ReLU), `softmax` and `kl_div` here,
batch norm and the weight-normalized classifier in `nets`, and the loss
terms in `nets` and `distill`. `Tensor`'s `+`, `-`, `*` and unary `-`
combine scalar loss terms into one objective. The per-op expressions the
fused records replaced live with the tests (`tests/per_op.py`), which
check that each fused forward performs the same float operations.
"""

from __future__ import annotations

import threading

import numpy as np

from .errors import ContractError, DimensionError

# Lower clamp applied before every log inside a loss term.
LOG_EPS = 1e-8

_STATE = threading.local()


def _tape_stack() -> list:
    stack = getattr(_STATE, "stack", None)
    if stack is None:
        stack = []
        _STATE.stack = stack
    return stack


class stop_recording:
    """Context manager: primitives applied inside are never taped.

    Used for eval-mode forwards and for stop-gradient teacher views.
    """

    def __enter__(self):
        _STATE.muted = getattr(_STATE, "muted", 0) + 1
        return self

    def __exit__(self, exc_type, exc, tb):
        _STATE.muted -= 1
        return False


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
        return _add(self, as_tensor(other))

    def __radd__(self, other):
        return _add(as_tensor(other), self)

    def __sub__(self, other):
        return _sub(self, as_tensor(other))

    def __rsub__(self, other):
        return _sub(as_tensor(other), self)

    def __mul__(self, other):
        return _mul(self, as_tensor(other))

    def __rmul__(self, other):
        return _mul(as_tensor(other), self)

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
        _tape_stack().append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        _tape_stack().pop()
        return False

    def __len__(self):
        return len(self._records)

    def gradient(self, target: Tensor, sources: list[Tensor]) -> list[np.ndarray]:
        """Gradients of scalar `target` with respect to each source tensor.

        Sources not reached by the tape get a zero gradient of their own
        shape. Replays the records in reverse order exactly once.
        """
        if target.size != 1:
            raise ContractError(f"gradient target must be scalar, got shape {target.shape}")
        grads: dict[int, np.ndarray] = {id(target): np.ones_like(target.data)}
        for out, inputs, vjp in reversed(self._records):
            g = grads.get(id(out))
            if g is None:
                continue
            for t, gi in zip(inputs, vjp(g)):
                if gi is None or not isinstance(t, Tensor) or not t.requires_grad:
                    continue
                if gi.shape != t.data.shape:
                    raise DimensionError(f"gradient shape {gi.shape} does not match parameter shape {t.data.shape}")
                acc = grads.get(id(t))
                grads[id(t)] = gi if acc is None else acc + gi
        return [grads[id(s)] if id(s) in grads else np.zeros_like(s.data) for s in sources]


def record_op(out_data: np.ndarray, inputs: tuple, vjp) -> Tensor:
    """Wrap an eagerly computed value, recording it as one op if a tape is
    listening and any input requires a gradient.

    `vjp(g)` receives the gradient of the output and returns one gradient
    per input, shaped like that input; None marks an input it skips (a
    constant, or one whose `requires_grad` is False).
    """
    stack = _tape_stack()
    needs = (
        bool(stack)
        and not getattr(_STATE, "muted", 0)
        and any(isinstance(t, Tensor) and t.requires_grad for t in inputs)
    )
    out = Tensor(out_data, requires_grad=needs)
    if needs:
        stack[-1]._records.append((out, inputs, vjp))
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


def _add(a: Tensor, b: Tensor) -> Tensor:
    return _elementwise(a.data + b.data, a, b, lambda g: g, lambda g: g)


def _sub(a: Tensor, b: Tensor) -> Tensor:
    return _elementwise(a.data - b.data, a, b, lambda g: g, lambda g: -g)


def _mul(a: Tensor, b: Tensor) -> Tensor:
    return _elementwise(a.data * b.data, a, b, lambda g: g * b.data, lambda g: g * a.data)


# fused layer ops --------------------------------------------------------


def affine(x: Tensor, weight: Tensor, bias: Tensor, relu: bool = False) -> Tensor:
    """x @ weight + bias for a batch of rows, optionally through a ReLU,
    as one record (the forward of `relu(x @ weight + bias)`)."""
    if x.ndim != 2 or x.shape[1] != weight.shape[0]:
        raise DimensionError(f"affine expects rows of {weight.shape[0]} features, got shape {x.shape}")
    pre = x.data @ weight.data + bias.data
    out = np.maximum(pre, 0.0) if relu else pre

    def vjp(g):
        if relu:
            g = g * (pre > 0.0)
        gx = g @ weight.data.T if x.requires_grad else None
        return gx, x.data.T @ g, g.sum(axis=0)

    return record_op(out, (x, weight, bias), vjp)


# probability ops ------------------------------------------------------


def softmax(logits: Tensor | np.ndarray) -> Tensor:
    """Row-wise softmax over the last axis, computed with max subtraction,
    as one record."""
    t = as_tensor(logits)
    e = np.exp(t.data - t.data.max(axis=-1, keepdims=True))
    p = e / e.sum(axis=-1, keepdims=True)

    def vjp(g):
        return (p * (g - (g * p).sum(axis=-1, keepdims=True)),)

    return record_op(p, (t,), vjp)


def check_probabilities(p: np.ndarray, name: str, ndim: int):
    """Require a probability vector (ndim=1) or a batch of rows (ndim=2):
    no entry below -1e-12 and every row summing to 1 within 1e-6.

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


def kl_div(p: Tensor | np.ndarray, q: Tensor | np.ndarray) -> Tensor:
    """KL divergence sum p_i (log p_i - log q_i) between probability
    vectors, as one record.

    Both inputs are clamped below by 1e-8 before the log, so the value is
    finite for any valid inputs and nonnegative by Gibbs' inequality; the
    derivative through a clamped log is zero. When `p` is a constant
    teacher row, the gradient flows to `q` alone.
    """
    tp = as_tensor(p)
    tq = as_tensor(q)
    if tp.data.shape != tq.data.shape:
        raise DimensionError(f"kl_div shapes disagree: {tp.data.shape} vs {tq.data.shape}")
    check_probabilities(tp.data, "p", ndim=1)
    check_probabilities(tq.data, "q", ndim=1)
    clamped_p = np.maximum(tp.data, LOG_EPS)
    clamped_q = np.maximum(tq.data, LOG_EPS)
    diff = np.log(clamped_p) - np.log(clamped_q)

    def vjp(g):
        gp = g * diff + np.where(tp.data > LOG_EPS, g * tp.data / clamped_p, 0.0)
        gq = np.where(tq.data > LOG_EPS, -g * tp.data / clamped_q, 0.0)
        return gp, gq

    return record_op((tp.data * diff).sum(), (tp, tq), vjp)


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
