"""Source and target networks, their optimizer, and checkpoint IO.

The source net is a plain MLP trunk with a single linear classifier head.
The target net keeps the same trunk but adds a bottleneck (batch norm
followed by an affine layer) and a weight-normalized classifier. Trunk
layers train at the base learning rate; bottleneck/classifier layers are
"new" and train at ten times that rate. A net's state, its parameters
and then its running statistics, is listed once, in `_state_shapes`;
building, the optimizer, stacks and checkpoints all read that list. Each
name is the attribute path of its array: `trunk.0.weight` is
`net.trunk[0].weight`, and `bn.running_mean` is `net.bn.running_mean`.

Every training phase trains a list of nets, one seed each, in lockstep
as one stack (`stack_nets`: a net whose parameters and running statistics
lead with a member axis, each member's slice computed exactly as alone)
in `train_epochs`, the one epoch loop, which also checks each epoch's end.
"""

from __future__ import annotations

import functools
import json
import math
import os
import threading

import numpy as np

from .errors import ContractError, DimensionError
from .tensor import (LOG_EPS, GradTape, Tensor, _affine, _softmax, affine, as_tensor, check_probabilities, record_op,
                     softmax)

CHECKPOINT_VERSION = 1
MOMENTUM = 0.9  # SGD, in every training phase
WEIGHT_DECAY = 1e-3  # SGD, in every training phase
BN_MOMENTUM = 0.1  # the target's batch norm: weight of a batch in the running statistics
BN_EPS = 1e-5  # the target's batch norm: added to the variance
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3  # glibc `mallopt` parameters


class Linear:
    def __init__(self, in_dim: int, out_dim: int, rng: np.random.Generator):
        scale = np.sqrt(2.0 / in_dim)
        self.weight = Tensor(rng.normal(0.0, scale, (in_dim, out_dim)), requires_grad=True)
        self.bias = Tensor(np.zeros(out_dim), requires_grad=True)

    def __call__(self, x: Tensor, relu: bool = False) -> Tensor:
        return affine(x, self.weight, self.bias, relu=relu)

    def _forward(self, x: np.ndarray, relu: bool = False, need_gx: bool = True):
        """The layer on an array (`tensor._affine`): its value and its VJP."""
        return _affine(x, self.weight.data, self.bias.data, relu, need_gx)


class BatchNorm:
    """1-D batch normalization with running statistics.

    Train mode normalizes with batch statistics (and, unless frozen,
    folds them into the running averages with momentum BN_MOMENTUM);
    eval mode is a deterministic affine map using the running statistics.
    Both add BN_EPS to the variance; either way the layer is one record
    (see `_forward`). Both modes normalize, and the train VJP subtracts and
    divides, in place on one fresh array: the float operations of the
    written-out expressions on fewer full-batch arrays. The statistics
    are taken over the rows (axis -2), so a stack normalizes each member's
    rows with that member's statistics; those of the first batch update
    the running ones when the rows lead with a batch axis of their own.
    """

    def __init__(self, dim: int):
        self.gamma = Tensor(np.ones(dim), requires_grad=True)
        self.beta = Tensor(np.zeros(dim), requires_grad=True)
        self.running_mean = np.zeros(dim)
        self.running_var = np.ones(dim)

    def __call__(self, x: Tensor, train: bool, update_stats: bool) -> Tensor:
        out, vjp = self._forward(x.data, train, update_stats)
        return record_op(out, (x, self.gamma, self.beta), vjp)

    def _forward(self, x: np.ndarray, train: bool, update_stats: bool):
        """The layer on an array: its value and its VJP, g -> (gx, g_gamma, g_beta)."""
        gamma, beta = self.gamma.data[..., None, :], self.beta.data[..., None, :]
        if train:
            n = x.shape[-2]
            mu = x.sum(axis=-2) * (1.0 / n)
            centered = x - mu[..., None, :]
            var = (centered * centered).sum(axis=-2) * (1.0 / n)
            std = np.sqrt(var + BN_EPS)[..., None, :]
            xhat = np.divide(centered, std, out=centered)
            if update_stats:
                bessel = n / (n - 1) if n > 1 else 1.0
                first = (0,) * (mu.ndim - self.running_mean.ndim)
                self.running_mean = (1.0 - BN_MOMENTUM) * self.running_mean + BN_MOMENTUM * mu[first]
                self.running_var = (1.0 - BN_MOMENTUM) * self.running_var + BN_MOMENTUM * var[first] * bessel
        else:
            inv = 1.0 / np.sqrt(self.running_var[..., None, :] + BN_EPS)
            xhat = x - self.running_mean[..., None, :]
            xhat *= inv

        def vjp(g):
            gxhat = g * gamma
            if train:  # the batch statistics depend on x too; sum / n is numpy's mean
                gx = gxhat - gxhat.sum(axis=-2, keepdims=True) / n
                gx -= xhat * ((gxhat * xhat).sum(axis=-2, keepdims=True) / n)
                gx /= std
            else:
                gx = gxhat * inv
            return gx, (g * xhat).sum(axis=-2), g.sum(axis=-2)

        out = xhat * gamma
        out += beta
        return out, vjp


class WeightNormLinear:
    """Affine layer with direction/magnitude reparameterized weight rows,
    one tape record per call (see `_forward`)."""

    def __init__(self, in_dim: int, out_dim: int, rng: np.random.Generator):
        raw = rng.normal(0.0, 1.0 / np.sqrt(in_dim), (out_dim, in_dim))
        norms = np.linalg.norm(raw, axis=1, keepdims=True)
        self.direction = Tensor(raw / norms, requires_grad=True)  # (out, in), unit rows
        self.scale = Tensor(norms[:, 0].copy(), requires_grad=True)  # (out,)
        self.bias = Tensor(np.zeros(out_dim), requires_grad=True)
        self.out_dim = out_dim

    def __call__(self, x: Tensor) -> Tensor:
        out, vjp = self._forward(x.data, x.requires_grad)
        return record_op(out, (x, self.direction, self.scale, self.bias), vjp)

    def _forward(self, x: np.ndarray, need_gx: bool = True):
        """The layer on an array: its value and its VJP, g -> (gx, g_direction,
        g_scale, g_bias), gx None unless `need_gx`."""
        direction, scale = self.direction.data, self.scale.data[..., None]
        norm = np.sqrt((direction * direction).sum(axis=-1, keepdims=True))
        unit = direction / norm
        weight = scale * unit

        def vjp(g):
            g_weight = g.swapaxes(-1, -2) @ x
            g_unit = g_weight * scale
            # d(unit)/d(direction) projects out each row's own direction
            g_direction = (g_unit - unit * (g_unit * unit).sum(axis=-1, keepdims=True)) / norm
            gx = g @ weight if need_gx else None
            return gx, g_direction, (g_weight * unit).sum(axis=-1), g.sum(axis=-2)

        out = x @ weight.swapaxes(-1, -2)
        out += self.bias.data[..., None, :]
        return out, vjp

    def renorm(self):
        """Rescale stored direction rows back to unit norm: outputs are
        unchanged, since the forward pass divides by the row norms."""
        norms = np.linalg.norm(self.direction.data, axis=-1, keepdims=True)
        self.direction.data /= norms


# kind -> (its arch's sizes besides in_dim, num_classes and hidden, and a function of the trunk's
#          width w, the class count k and those sizes giving its head's (param shapes, running-stat shapes))
_KINDS = {
    "source": ((), lambda w, k: ({"head.weight": (w, k), "head.bias": (k,)}, {})),
    "target": (("bottleneck_dim",), lambda w, k, bottleneck_dim: (
        {"bn.gamma": (w,), "bn.beta": (w,), "bottleneck.weight": (w, bottleneck_dim),
         "bottleneck.bias": (bottleneck_dim,), "classifier.direction": (k, bottleneck_dim),
         "classifier.scale": (k,), "classifier.bias": (k,)},
        {"bn.running_mean": (w,), "bn.running_var": (w,)})),
}


def _state_shapes(kind: str, in_dim: int, num_classes: int, hidden, **sizes):
    """The one table of a net's state: the shapes (name -> shape, in order)
    of the parameters and of the running statistics of the net an `arch`
    describes, worked out without building it."""
    dims = [in_dim, *hidden]
    params = {}
    for i, (a, b) in enumerate(zip(dims, dims[1:])):
        params.update({f"trunk.{i}.weight": (a, b), f"trunk.{i}.bias": (b,)})
    head, running = _KINDS[kind][1](dims[-1], num_classes, **sizes)
    return {**params, **head}, running


def _attribute(obj, path: str):
    """What an attribute path names: `trunk.0.weight` is `obj.trunk[0].weight`."""
    for part in path.split("."):
        obj = obj[int(part)] if part.isdigit() else getattr(obj, part)
    return obj


class _Net:
    """Skeleton shared by both networks: the ReLU MLP trunk, the forward
    contract, and the state (read from `_state_shapes`) and architecture.
    Subclasses add their head layers (`_build_head`, `_head`)."""

    min_batch = 1  # smallest mini-batch a training step accepts
    lead = ()  # (S,) on a stack of S nets: the member axis every array leads with

    def __init__(self, in_dim: int, num_classes: int, hidden=(64, 64), rng=None):
        rng = rng if rng is not None else np.random.default_rng(0)
        self.in_dim = in_dim
        self.num_classes = num_classes
        self.hidden = tuple(hidden)
        dims = [in_dim, *self.hidden]
        self.trunk = [Linear(dims[i], dims[i + 1], rng) for i in range(len(dims) - 1)]
        self._build_head(dims[-1], rng)
        self._shapes = _state_shapes(**self.arch())  # (param shapes, running-stat shapes), read often
        # the train forward's record inputs after x; the Tensors stay, rebinding only their `data`
        self._params = tuple(self.named_params().values())

    def forward(self, x, mode: str = "train", update_stats: bool = True) -> Tensor:
        """Logits. Train mode is one record on the active tape, whose inputs
        are `x` and the parameters (in `named_params` order) and whose VJP
        runs the layers' VJPs in reverse; unless `update_stats` is False it
        refreshes batch-norm running statistics (from the first batch, if
        `x` leads with a batch axis of its own). Eval mode never records,
        never touches them and keeps no layer's arrays past the next layer.
        Each layer computes as its `__call__` does."""
        if mode not in ("train", "eval"):
            raise ContractError(f"mode must be 'train' or 'eval', got {mode!r}")
        x, lead, train = as_tensor(x), len(self.lead), mode == "train"
        if x.ndim - lead not in (2, 3) or x.shape[-2 - lead : -2] != self.lead or x.shape[-1] != self.in_dim:
            expected = ", ".join(map(str, (*self.lead, "n", self.in_dim)))
            raise DimensionError(f"expected ({expected}) features, got {x.shape}")
        h, vjps = x.data, []  # one VJP per layer: g -> (gx, *the layer's parameter gradients)
        for layer in self._layers(train, train and update_stats, x.requires_grad):
            if train:
                h, layer_vjp = layer(h)
                vjps.append(layer_vjp)
            else:
                h = layer(h)[0]  # dropping the VJP frees the layer's input
        if not train:
            return Tensor(h)

        def vjp(g):
            grads = []
            for back in reversed(vjps):
                g, *layer_grads = back(g)
                grads[:0] = layer_grads
            return (g, *grads)

        return record_op(h, (x, *self._params), vjp)

    def _layers(self, train: bool, update_stats: bool, need_gx: bool) -> list:
        """The layers in order, each a function of its input array returning
        its output and VJP; the first returns no input gradient unless `need_gx`."""
        trunk = [functools.partial(layer._forward, relu=True, need_gx=need_gx or i > 0)
                 for i, layer in enumerate(self.trunk)]
        return trunk + self._head(train, update_stats)

    def backbone_params(self):
        return [p for name, p in self.named_params().items() if name.startswith("trunk.")]

    def new_params(self):
        return [p for name, p in self.named_params().items() if not name.startswith("trunk.")]

    def post_update(self):
        pass

    def named_params(self) -> dict[str, Tensor]:
        return {name: _attribute(self, name) for name in self._shapes[0]}

    def running_stats(self) -> dict[str, np.ndarray]:
        return {name: _attribute(self, name) for name in self._shapes[1]}

    def arch(self) -> dict:
        sizes = _KINDS[self.kind][0]
        return {"kind": self.kind, "in_dim": self.in_dim, "num_classes": self.num_classes,
                "hidden": list(self.hidden), **{key: getattr(self, key) for key in sizes}}


class SourceNet(_Net):
    """Feature trunk plus one linear classifier head (K_s outputs)."""

    kind = "source"

    def _build_head(self, width: int, rng: np.random.Generator):
        self.head = Linear(width, self.num_classes, rng)

    def _head(self, train: bool, update_stats: bool) -> list:
        return [self.head._forward]

    # defined per class, so each class's method can be wrapped on its own
    def predict_proba(self, x) -> np.ndarray:
        with _OneBlasThread():
            return softmax(self.forward(x, mode="eval")).data


class TargetNet(_Net):
    """Trunk, bottleneck (batch norm + affine), weight-normalized classifier."""

    kind = "target"
    min_batch = 2  # batch norm needs two rows

    def __init__(self, in_dim: int, num_classes: int, hidden=(64, 64), bottleneck_dim: int = 32, rng=None):
        self.bottleneck_dim = bottleneck_dim
        super().__init__(in_dim, num_classes, hidden=hidden, rng=rng)

    def _build_head(self, width: int, rng: np.random.Generator):
        self.bn = BatchNorm(width)
        self.bottleneck = Linear(width, self.bottleneck_dim, rng)
        self.classifier = WeightNormLinear(self.bottleneck_dim, self.num_classes, rng)

    def _head(self, train: bool, update_stats: bool) -> list:
        bn = functools.partial(self.bn._forward, train=train, update_stats=update_stats)
        return [bn, self.bottleneck._forward, self.classifier._forward]

    def predict_proba(self, x) -> np.ndarray:
        with _OneBlasThread():
            return softmax(self.forward(x, mode="eval")).data

    def post_update(self):
        self.classifier.renorm()


# optimizer ------------------------------------------------------------


def lr_factor(progress: float) -> float:
    """Decay multiplier (1 + 10 p)^(-0.75) for training progress p in [0, 1]."""
    return (1.0 + 10.0 * progress) ** -0.75


class SGD:
    """Mini-batch SGD with momentum, weight decay, and a decaying schedule.

    Update per parameter: v <- MOMENTUM*v + g + WEIGHT_DECAY*theta, then
    theta <- theta - lr0*lr_factor(progress)*v. Parameter groups carry
    their own base rate, so new layers can run at 10x the trunk rate.

    The optimizer owns its parameters' storage: it copies them, in order,
    into the one vector `flat` and rebinds each `p.data` to a view into
    it, so a step is a few operations on whole vectors, each group's
    stretch of them scaled by its own rate. Every operation is
    elementwise, so the weights are bit for bit those of a per-parameter
    update. Change a parameter in place from then on; rebinding its `data`
    detaches it from `flat`. Each of `grads` is a parameter's view into the
    gradient vector `grad`, for `GradTape.gradient` to write into.
    """

    def __init__(self, param_groups):
        self.params = [p for params, _ in param_groups for p in params]
        self.flat = np.concatenate([p.data.reshape(-1) for p in self.params])
        self.grad, self.grads = np.zeros_like(self.flat), []
        self._stretches, end = [], 0  # (slice of `flat`, base rate) per group
        for params, lr in param_groups:
            start = end
            for p in params:
                end += p.size
                p.data = self.flat[end - p.size : end].reshape(p.shape)
                self.grads.append(self.grad[end - p.size : end].reshape(p.shape))
            self._stretches.append((slice(start, end), lr))
        self.velocity = np.zeros_like(self.flat)

    def step(self, progress: float):
        """One update by the gradient in `grad`, which it then overwrites."""
        g = self.grad
        g += WEIGHT_DECAY * self.flat
        self.velocity *= MOMENTUM
        self.velocity += g
        factor = lr_factor(progress)
        for stretch, lr in self._stretches:
            np.multiply(self.velocity[stretch], lr * factor, out=g[stretch])
        self.flat -= g


def make_sgd(net, lr_backbone: float = 1e-3) -> SGD:
    """Standard two-group optimizer: trunk at lr_backbone, new layers at 10x."""
    return SGD([(net.backbone_params(), lr_backbone), (net.new_params(), 10.0 * lr_backbone)])


# stacks -----------------------------------------------------------------


def stack_nets(nets) -> "_Net":
    """One net of the nets' class and architecture whose every parameter
    and running statistic holds theirs, in order, along a new leading
    member axis: a stack, whose forward takes (S, n, in_dim) features."""
    arch = nets[0].arch()
    if any(net.arch() != arch for net in nets):
        raise ContractError("the nets of a stack must share one architecture")
    stack = _net_for_arch(arch)
    stack.lead = (len(nets),)
    params = [net.named_params() for net in nets]
    running = [net.running_stats() for net in nets]
    _assign(stack, {name: np.stack([p[name].data for p in params]) for name in params[0]},
            {name: np.stack([r[name] for r in running]) for name in running[0]})
    return stack


def _view_members(stack, nets):
    """Rebind each net's parameters and running statistics to views of
    its slice of the stack's current arrays."""
    params, running = stack.named_params(), stack.running_stats()
    for i, net in enumerate(nets):
        _assign(net, {name: p.data[i] for name, p in params.items()}, {name: r[i] for name, r in running.items()})


class RngStack:
    """The generators of a stack's members, drawn as one: each draw
    returns the members' draws along a leading axis, each from the
    member's own generator, so every member sees exactly the draws it
    would see training alone."""

    def __init__(self, seeds):
        self.members = [np.random.default_rng(seed) for seed in seeds]

    def permutation(self, n: int) -> np.ndarray:
        return np.stack([rng.permutation(n) for rng in self.members])

    def beta(self, a: float, b: float) -> np.ndarray:
        return np.array([rng.beta(a, b) for rng in self.members])


# training ---------------------------------------------------------------


def soft_cross_entropy(targets, probs: Tensor) -> Tensor:
    """-mean_i sum_k t_ik log max(p_ik, 1e-8) toward constant soft targets,
    as one record (`_soft_target`); on a stack, one mean per member."""
    t = as_tensor(targets).data
    if t.shape != probs.shape:
        raise DimensionError(f"targets {t.shape} vs predictions {probs.shape}")
    loss, vjp = _soft_target(t, probs.data)
    return record_op(loss, (probs,), vjp)


def _soft_target(t: np.ndarray, p: np.ndarray, kl: bool = False):
    """`soft_cross_entropy` or, with `kl`, the KL divergence, which adds the constant
    mean_i sum_k t_ik log max(t_ik, 1e-8), on arrays: the value and its VJP, g -> (g_p,),
    one for both."""
    n = t.shape[-2]
    clamped = np.maximum(p, LOG_EPS)
    if kl:
        total = (t * (np.log(np.maximum(t, LOG_EPS)) - np.log(clamped))).sum(axis=-1).sum(axis=-1)
    else:
        total = -(t * np.log(clamped)).sum(axis=-1).sum(axis=-1)

    def vjp(g):
        return (np.where(p > LOG_EPS, (-g[..., None, None] / n) * t / clamped, 0.0),)

    return total * (1.0 / n), vjp


def _smoothed_labels(labels, k: int, alpha: float) -> np.ndarray:
    """The label-smoothed target (1-alpha)*onehot(y) + alpha/k of each label y."""
    return np.where(np.asarray(labels)[..., None] == np.arange(k), alpha / k + (1.0 - alpha), alpha / k)


def ls_cross_entropy(logits: Tensor, labels: np.ndarray, alpha: float = 0.1) -> Tensor:
    """Label-smoothed cross entropy (`_smoothed_labels`), averaged over the
    batch: `soft_cross_entropy` of the logits' softmax, as one record."""
    t = _smoothed_labels(labels, logits.shape[-1], alpha)
    p, softmax_vjp = _softmax(logits.data)
    if t.shape != p.shape:
        raise DimensionError(f"targets {t.shape} vs predictions {p.shape}")
    loss, vjp = _soft_target(t, p)
    return record_op(loss, (logits,), lambda g: softmax_vjp(*vjp(g)))


def take_rows(a: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """The rows `idx` of a batch, or on a stack (idx holding one row of
    indices per member) each member's rows of its own batch."""
    if idx.ndim == 1:
        return a[idx]
    return a[np.arange(idx.shape[0])[:, None], idx]


def minibatch_indices(n: int, batch_size: int, rng, min_size: int = 1):
    """Shuffled mini-batch index arrays covering all n samples once.

    A trailing batch smaller than min_size is dropped. With an `RngStack`
    each batch holds one row of indices per member.
    """
    order = rng.permutation(n)
    for start in range(0, _batches_per_epoch(n, batch_size, min_size) * batch_size, batch_size):
        yield order[..., start : start + batch_size]


def _batches_per_epoch(n: int, batch_size: int, min_size: int) -> int:
    """How many batches `minibatch_indices` yields: one per `batch_size`
    samples, and one for a remainder of at least `min_size`."""
    full, rem = divmod(n, batch_size)
    return full + (1 if rem >= min_size else 0)


def check_training_args(phase: str, epochs: int, batch_size: int, lr_backbone: float, min_batch: int):
    """Raise ContractError, naming the phase, unless epochs is nonnegative,
    batch_size at least `min_batch` and the learning rate finite and positive."""
    if epochs < 0:
        raise ContractError(f"{phase}: epochs must be nonnegative, got {epochs}")
    if batch_size < min_batch:
        raise ContractError(f"{phase}: batch_size must be at least {min_batch}, got {batch_size}")
    if not 0.0 < lr_backbone < float("inf"):
        raise ContractError(f"{phase}: learning rate must be finite and positive, got {lr_backbone}")


@functools.cache
def _reuse_freed_memory():
    """Let glibc's allocator hand what one training step frees to the next.

    A stack's step frees arrays of a few hundred KiB. By default each is
    unmapped, or the heap trimmed, and the next step faults the pages in
    again. Arrays below 4 MiB now come from the heap, which keeps up to
    32 MiB of freed memory. Without `mallopt` this does nothing.
    """
    import ctypes

    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):  # no C library, no mallopt, or no dlopen(NULL)
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(M_MMAP_THRESHOLD, 4 << 20)
    mallopt(M_TRIM_THRESHOLD, 32 << 20)


@functools.cache
def _blas_threads():
    """The (get, set) thread-count functions of the OpenBLAS that numpy
    loaded, or None if there is none to pin.

    A numpy wheel ships its OpenBLAS in `numpy.libs`, beside the package,
    and names the two functions with a 64-bit-integer suffix, after a
    prefix that numpy 2 changed (`scipy_openblas_set_num_threads64_`); a
    library not already loaded is left alone, so a call always reaches
    numpy's own.
    """
    import ctypes
    import glob

    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "*openblas*"))):
        try:
            lib = ctypes.CDLL(path, mode=os.RTLD_NOLOAD)
        except (OSError, AttributeError):  # not loaded, or no RTLD_NOLOAD on this platform
            continue
        for prefix in ("scipy_openblas_", "openblas_"):
            get = getattr(lib, f"{prefix}get_num_threads64_", None)
            set_ = getattr(lib, f"{prefix}set_num_threads64_", None)
            if get is not None and set_ is not None:
                get.argtypes, get.restype = (), ctypes.c_int
                set_.argtypes, set_.restype = (ctypes.c_int,), None
                return get, set_
    return None


class _OneBlasThread:
    """Numpy's OpenBLAS on one thread for a `with` block, then on the caller's count again. It acts only
    on the main thread with no other thread running, so it never changes the process-wide count under
    another thread's BLAS call, and does nothing without an OpenBLAS that `_blas_threads` finds."""

    def __enter__(self):
        main = threading.current_thread() is threading.main_thread() and threading.active_count() == 1
        blas = main and _blas_threads()
        self._restore = blas and (n := blas[0]()) != 1 and functools.partial(blas[1], n)
        if self._restore:
            blas[1](1)

    def __exit__(self, *exc_info):
        if self._restore:
            self._restore()


def _diverged_member(arrays, members: int):
    """The first member of a stack of `members` with a non-finite value in
    `arrays`; None if every value is finite. The member axis is the first,
    or in rows (..., S, n, c), which may lead with a batch axis, the third from last."""
    for a in arrays:
        if not (finite := np.isfinite(a)).all():
            return int(np.argmin(np.moveaxis(finite, max(0, a.ndim - 3), 0).reshape(members, -1).all(axis=1)))
    return None


def train_epochs(nets, features, batch_loss, epochs: int, batch_size: int, seeds, lr_backbone: float, phase: str,
                 names=None, epoch_end=None, eval_fn=None, **per_net) -> list[list[dict]]:
    """The training loop every phase shares: it trains the list `nets` in
    lockstep as one stack (`stack_nets`), on one tape with one optimizer,
    and returns one history per net. `features` (each net's n training
    samples), `seeds`, `names` and each `per_net` argument hold one entry
    per net.

    Each epoch shuffles the n sample indices into batches of `batch_size`
    (a trailing batch smaller than `min_batch` is dropped) and takes one
    SGD step per batch on `batch_loss(stack, idx, rng) -> (loss, {name:
    values})`, where `rng` is the seeds' `RngStack`, which also shuffles,
    and `idx`, `loss` and each term hold one row or value per member. The
    gradient of the members' summed loss is each member's own; the
    schedule's progress is the fraction of all steps taken.

    An epoch's end leaves each net's arrays views of its slice of the
    stack's and appends its record {"phase", "epoch", "loss", **terms}, the
    per-batch means. Its eval-mode forward over its features is checked,
    then passed to `epoch_end(i, probs)` and `eval_fn` ("accuracy"); with
    neither, only the last epoch's runs. Every array must then be finite.

    Mismatched counts, bad arguments (see `check_training_args`) and a
    diverging run (a non-finite loss, or a failed check in a step or at an
    epoch's end) raise ContractError naming the phase; the last names the
    epoch, the step and the first member to diverge: by its entry in
    `names` whenever `names` is given, even for one net, and otherwise as
    `member i` on a stack of two or more. Numpy's floating-point warnings
    are off throughout, so a diverging run is reported once, and its BLAS
    runs one thread (`_OneBlasThread`).
    """
    counts = {key: len(a) for key, a in dict(features=features, seeds=seeds, names=names or nets, **per_net).items()}
    if not nets or any(count != len(nets) for count in counts.values()):
        raise ContractError(f"{phase}: a stack needs at least one net and one entry per net in each per-net "
                            f"argument, got {len(nets)} nets and {counts}")
    min_batch = nets[0].min_batch
    check_training_args(phase, epochs, batch_size, lr_backbone, min_batch)
    n = len(features[0])
    if n < min_batch:
        raise ContractError(f"{phase}: got {n} samples, fewer than the smallest batch ({min_batch})")
    if names is None and len(nets) > 1:
        names = [f"member {i}" for i in range(len(nets))]
    _reuse_freed_memory()
    rng = RngStack(seeds)
    stack = stack_nets(nets)
    opt = make_sgd(stack, lr_backbone=lr_backbone)
    _view_members(stack, nets)
    total_steps = max(1, epochs * _batches_per_epoch(n, batch_size, min_batch))

    def diverged(problem: str, epoch: int, step: int, member: int):
        where = f" ({names[member]})" if names else ""
        return ContractError(f"{phase}: {problem} at epoch {epoch}, step {step + 1} of {total_steps}{where}")

    def sgd_step(idx, epoch: int, step: int):
        # the tape and its arrays end with the step, before any epoch-end work
        with GradTape() as tape:
            try:
                loss, terms = batch_loss(stack, idx, rng)
            except ContractError as exc:  # a failed check: on a diverged member's values, or not
                if (member := _diverged_member((out.data for out, _, _ in tape._records), len(nets))) is None:
                    raise
                raise diverged(str(exc), epoch, step, member) from None
        if bad := [i for i, value in enumerate(loss.data.tolist()) if not math.isfinite(value)]:
            raise diverged(f"loss is {loss.data[bad[0]]}", epoch, step, bad[0])
        tape.gradient(loss, opt.params, out=opt.grads)
        opt.step(progress=step / total_steps)
        stack.post_update()
        return {"loss": loss.data, **terms}

    histories = [[] for _ in nets]
    step = 0
    with np.errstate(all="ignore"), _OneBlasThread():
        for epoch in range(1, epochs + 1):
            sums = {}
            for nbatches, idx in enumerate(minibatch_indices(n, batch_size, rng, min_size=min_batch), 1):
                for key, values in sgd_step(idx, epoch, step).items():
                    sums[key] = sums.get(key, 0.0) + values
                step += 1
            _view_members(stack, nets)
            for i, (net, history) in enumerate(zip(nets, histories)):
                record = {"phase": phase, "epoch": epoch}
                record.update((key, float(total[i] / nbatches)) for key, total in sums.items())
                history.append(record)
                if epoch < epochs and epoch_end is None and eval_fn is None:  # nothing reads these predictions
                    continue
                try:
                    probs = net.predict_proba(features[i])
                    check_probabilities(probs, "epoch-end predictions", ndim=2)
                    if epoch_end is not None:
                        epoch_end(i, probs)
                    if eval_fn is not None:
                        record["accuracy"] = float(eval_fn(probs))
                except ContractError as exc:
                    raise diverged(str(exc), epoch, step - 1, i) from None
            state = [p.data for p in stack.named_params().values()] + list(stack.running_stats().values())
            if (member := _diverged_member(state, len(nets))) is not None:  # a checkpoint would not load
                raise diverged("a parameter or running statistic is not finite", epoch, step - 1, member)
    return histories


def train_source_net(nets, features, labels, seeds, *, epochs: int = 30, batch_size: int = 64,
                     lr_backbone: float = 1e-3, ls_alpha: float = 0.1, names=None) -> list[list[dict]]:
    """Train the list of source nets as one stack (see `train_epochs`,
    which takes `names`) with the label-smoothed objective; `features`,
    `labels` and `seeds` hold one entry per net, on domains of one size.

    Returns one history per net: per epoch, {"phase": "source", "epoch",
    "loss"} with the mean training loss.
    """
    if len({np.shape(x) for x in features}) != 1 or len({np.shape(y) for y in labels}) != 1:
        raise ContractError("the nets of a stack must train on domains of one size")
    x, y = np.stack(features), np.stack(labels)

    def batch_loss(stack, idx, rng):
        logits = stack.forward(take_rows(x, idx), mode="train")
        return ls_cross_entropy(logits, take_rows(y, idx), alpha=ls_alpha), {}

    return train_epochs(nets, features, batch_loss, epochs, batch_size, seeds, lr_backbone, "source", names,
                        labels=labels)


# checkpoints ----------------------------------------------------------


def net_state(net, seed: int | None = None) -> dict:
    return {
        "format_version": CHECKPOINT_VERSION,
        "arch": net.arch(),
        "params": {name: p.data.tolist() for name, p in net.named_params().items()},
        "running": {name: arr.tolist() for name, arr in net.running_stats().items()},
        "rng_seed": seed,
    }


def _checked_arrays(given, expected: dict, what: str) -> dict[str, np.ndarray]:
    """`given` as float64 arrays, provided it holds exactly the names of
    `expected` (name -> shape), each an array of finite numbers of the
    expected shape; ContractError otherwise."""
    if not isinstance(given, dict):
        raise ContractError(f"checkpoint {what} must be a JSON object, got {type(given).__name__}")
    if given.keys() != expected.keys():
        missing, unknown = sorted(expected.keys() - given.keys()), sorted(given.keys() - expected.keys())
        raise ContractError(f"checkpoint {what}: missing {missing}, unknown {unknown}")
    arrays = {}
    for name, shape in expected.items():
        try:  # no strings, None or integers beyond 64 bits, which a float64 cast would accept or overflow on
            value = np.asarray(given[name]).astype(np.float64, casting="same_kind")
        except (TypeError, ValueError):
            raise ContractError(f"checkpoint {what} {name} is not an array of numbers") from None
        if value.shape != shape:
            raise DimensionError(f"checkpoint {what} {name} has shape {value.shape}, expected {shape}")
        if not np.isfinite(value).all():
            raise ContractError(f"checkpoint {what} {name} has non-finite entries")
        arrays[name] = value
    return arrays


def net_from_state(state):
    """The net a `net_state` dict describes. Anything else raises
    ContractError: a non-object, another format version, an `arch` whose
    kind is unknown or whose sizes are not positive integers, parameters
    or running statistics that are missing, unknown, misshapen or not
    finite, and a negative running variance. The net is built only after
    the stored arrays match the shapes its `arch` implies."""
    if not isinstance(state, dict):
        raise ContractError(f"checkpoint must be a JSON object, got {type(state).__name__}")
    if state.get("format_version") != CHECKPOINT_VERSION:
        raise ContractError(f"unsupported checkpoint version {state.get('format_version')!r}")
    arch = state.get("arch")
    kind = arch.get("kind") if isinstance(arch, dict) else None
    if not (isinstance(kind, str) and kind in _KINDS):
        raise ContractError(f"unknown net kind in checkpoint arch {str(arch)[:80]}")
    sizes = ("in_dim", "num_classes", *_KINDS[kind][0])
    hidden = arch.get("hidden")
    if not (isinstance(hidden, list) and all(type(v) is int and v > 0 for v in [*map(arch.get, sizes), *hidden])):
        raise ContractError(f"checkpoint arch sizes must be positive integers, got {str(arch)[:80]}")
    keys = {"kind", "hidden", *sizes}
    if arch.keys() != keys:
        raise ContractError(f"checkpoint arch has unknown keys: {sorted(arch.keys() - keys)}")
    param_shapes, running_shapes = _state_shapes(**arch)
    params = _checked_arrays(state.get("params"), param_shapes, "param")
    running = _checked_arrays(state.get("running"), running_shapes, "running stat")
    for name, value in running.items():
        if name.endswith("running_var") and (value < 0.0).any():
            raise ContractError(f"checkpoint running stat {name} has negative entries")
    net = _net_for_arch(arch)
    _assign(net, params, running)
    return net


def _net_for_arch(arch: dict):
    """A freshly initialized net of the architecture `arch` describes."""
    cls = {net.kind: net for net in (SourceNet, TargetNet)}[arch["kind"]]
    return cls(**{key: value for key, value in arch.items() if key != "kind"})


def _assign(net, params: dict, running: dict):
    """Rebind the net's parameters and running statistics, by name, to
    the given arrays."""
    for name, p in net.named_params().items():
        p.data = params[name]
    for name in net.running_stats():
        owner, _, attribute = name.rpartition(".")
        setattr(_attribute(net, owner), attribute, running[name])


def write_atomically(path: str, text: str):
    """Create or replace the file at `path` with `text` in UTF-8, whatever
    the locale, so that `path` never holds a partial file: the text goes to
    a temporary file in the same directory, which then replaces `path` in
    one rename. If the write fails, the temporary file is removed and
    `path` is left as it was. Missing parent directories are created."""
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def save_checkpoint(net, path: str, seed: int | None = None):
    state = net_state(net, seed=seed)
    write_atomically(path, json.dumps(state) + "\n")


def read_json(path: str, what: str):
    """The JSON value in the file at `path`; ContractError, naming the
    file as `what`, unless it holds UTF-8 JSON."""
    with open(path, "rb") as fh:
        try:
            return json.load(fh)
        except (ValueError, RecursionError) as exc:  # not UTF-8, not JSON, or nested too deep
            raise ContractError(f"{what} {path} is not JSON: {exc}") from None


def load_checkpoint(path: str):
    """The net saved at `path`; ContractError unless it is a valid checkpoint."""
    return net_from_state(read_json(path, "checkpoint"))


def clone_net(net):
    """Deterministic deep copy via the checkpoint state."""
    return net_from_state(net_state(net))
