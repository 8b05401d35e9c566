"""Source and target networks, their optimizer, and checkpoint IO.

The source net is a plain MLP trunk with a single linear classifier head.
The target net keeps the same trunk but adds a bottleneck (batch norm
followed by an affine layer) and a weight-normalized classifier. Trunk
layers train at the base learning rate; bottleneck/classifier layers are
"new" and train at ten times that rate.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

from .errors import ContractError, DimensionError
from .tensor import (
    GradTape,
    Tensor,
    as_tensor,
    log_clamped,
    relu,
    softmax,
    sqrt,
    stop_recording,
)

CHECKPOINT_VERSION = 1


class Linear:
    def __init__(self, in_dim: int, out_dim: int, rng: np.random.Generator):
        scale = np.sqrt(2.0 / in_dim)
        self.weight = Tensor(rng.normal(0.0, scale, (in_dim, out_dim)), requires_grad=True)
        self.bias = Tensor(np.zeros(out_dim), requires_grad=True)

    def __call__(self, x: Tensor) -> Tensor:
        return x @ self.weight + self.bias

    @property
    def params(self):
        return [self.weight, self.bias]


class BatchNorm:
    """1-D batch normalization with running statistics.

    Train mode normalizes with batch statistics (and, unless frozen,
    folds them into the running averages); eval mode is a deterministic
    affine map using the running statistics.
    """

    def __init__(self, dim: int, momentum: float = 0.1, eps: float = 1e-5):
        self.gamma = Tensor(np.ones(dim), requires_grad=True)
        self.beta = Tensor(np.zeros(dim), requires_grad=True)
        self.running_mean = np.zeros(dim)
        self.running_var = np.ones(dim)
        self.momentum = momentum
        self.eps = eps

    def __call__(self, x: Tensor, train: bool, update_stats: bool) -> Tensor:
        if train:
            mu = x.mean(axis=0)
            centered = x - mu
            var = (centered * centered).mean(axis=0)
            out = centered / sqrt(var + self.eps)
            if update_stats:
                n = x.shape[0]
                bessel = n / (n - 1) if n > 1 else 1.0
                m = self.momentum
                self.running_mean = (1.0 - m) * self.running_mean + m * mu.data
                self.running_var = (1.0 - m) * self.running_var + m * var.data * bessel
        else:
            inv = 1.0 / np.sqrt(self.running_var + self.eps)
            out = (x - Tensor(self.running_mean)) * Tensor(inv)
        return out * self.gamma + self.beta

    @property
    def params(self):
        return [self.gamma, self.beta]


class WeightNormLinear:
    """Affine layer with direction/magnitude reparameterized weight rows."""

    def __init__(self, in_dim: int, out_dim: int, rng: np.random.Generator):
        raw = rng.normal(0.0, 1.0 / np.sqrt(in_dim), (out_dim, in_dim))
        norms = np.linalg.norm(raw, axis=1, keepdims=True)
        self.direction = Tensor(raw / norms, requires_grad=True)  # (out, in), unit rows
        self.scale = Tensor(norms[:, 0].copy(), requires_grad=True)  # (out,)
        self.bias = Tensor(np.zeros(out_dim), requires_grad=True)
        self.out_dim = out_dim

    def __call__(self, x: Tensor) -> Tensor:
        norm = sqrt((self.direction * self.direction).sum(axis=1, keepdims=True))
        unit = self.direction / norm
        weight = self.scale.reshape(self.out_dim, 1) * unit
        return x @ weight.T + self.bias

    def renorm(self):
        """Rescale stored direction rows back to unit norm.

        The forward pass divides by the row norms, so this is a pure
        reparameterization: outputs are unchanged.
        """
        norms = np.linalg.norm(self.direction.data, axis=1, keepdims=True)
        self.direction.data /= norms

    @property
    def params(self):
        return [self.direction, self.scale, self.bias]


class _Net:
    """Skeleton shared by both networks: the ReLU MLP trunk, the forward
    contract, and the parameter/architecture bookkeeping. Subclasses add
    their head layers (`_build_head`, `_head`, `_head_params`)."""

    min_batch = 1  # smallest mini-batch a training step accepts

    def __init__(self, in_dim: int, num_classes: int, hidden=(64, 64), rng=None):
        rng = rng if rng is not None else np.random.default_rng(0)
        self.in_dim = in_dim
        self.num_classes = num_classes
        self.hidden = tuple(hidden)
        dims = [in_dim, *self.hidden]
        self.trunk = [Linear(dims[i], dims[i + 1], rng) for i in range(len(dims) - 1)]
        self._build_head(dims[-1], rng)

    def forward(self, x, mode: str = "train", update_stats: bool | None = None) -> Tensor:
        """Logits. Train mode records on the active tape and, unless
        `update_stats` is False, refreshes batch-norm running statistics;
        eval mode never records and never touches them."""
        if mode not in ("train", "eval"):
            raise ContractError(f"mode must be 'train' or 'eval', got {mode!r}")
        x = as_tensor(x)
        if x.ndim != 2 or x.shape[1] != self.in_dim:
            raise DimensionError(f"expected (n, {self.in_dim}) features, got {x.shape}")
        if mode == "eval":
            with stop_recording():
                return self._forward(x, train=False, update_stats=False)
        return self._forward(x, train=True, update_stats=True if update_stats is None else update_stats)

    def _forward(self, x: Tensor, train: bool, update_stats: bool) -> Tensor:
        h = x
        for layer in self.trunk:
            h = relu(layer(h))
        return self._head(h, train, update_stats)

    def backbone_params(self):
        return [p for layer in self.trunk for p in layer.params]

    def new_params(self):
        return list(self._head_params().values())

    def post_update(self):
        pass

    def named_params(self) -> dict[str, Tensor]:
        named = {}
        for i, layer in enumerate(self.trunk):
            named[f"trunk.{i}.weight"] = layer.weight
            named[f"trunk.{i}.bias"] = layer.bias
        named.update(self._head_params())
        return named

    def running_stats(self) -> dict[str, np.ndarray]:
        return {}

    def arch(self) -> dict:
        return {
            "kind": self.kind,
            "in_dim": self.in_dim,
            "num_classes": self.num_classes,
            "hidden": list(self.hidden),
        }


class SourceNet(_Net):
    """Feature trunk plus one linear classifier head (K_s outputs)."""

    kind = "source"

    def _build_head(self, width: int, rng: np.random.Generator):
        self.head = Linear(width, self.num_classes, rng)

    def _head(self, h: Tensor, train: bool, update_stats: bool) -> Tensor:
        return self.head(h)

    def _head_params(self) -> dict[str, Tensor]:
        return {"head.weight": self.head.weight, "head.bias": self.head.bias}

    # defined per class, so each class's method can be wrapped on its own
    def predict_proba(self, x) -> np.ndarray:
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

    def _head(self, h: Tensor, train: bool, update_stats: bool) -> Tensor:
        h = self.bn(h, train=train, update_stats=update_stats)
        return self.classifier(self.bottleneck(h))

    def _head_params(self) -> dict[str, Tensor]:
        return {
            "bn.gamma": self.bn.gamma,
            "bn.beta": self.bn.beta,
            "bottleneck.weight": self.bottleneck.weight,
            "bottleneck.bias": self.bottleneck.bias,
            "classifier.direction": self.classifier.direction,
            "classifier.scale": self.classifier.scale,
            "classifier.bias": self.classifier.bias,
        }

    def predict_proba(self, x) -> np.ndarray:
        return softmax(self.forward(x, mode="eval")).data

    def post_update(self):
        self.classifier.renorm()

    def running_stats(self) -> dict[str, np.ndarray]:
        return {"bn.running_mean": self.bn.running_mean, "bn.running_var": self.bn.running_var}

    def set_running_stats(self, stats: dict):
        self.bn.running_mean = np.asarray(stats["bn.running_mean"], dtype=np.float64)
        self.bn.running_var = np.asarray(stats["bn.running_var"], dtype=np.float64)

    def arch(self) -> dict:
        return {**super().arch(), "bottleneck_dim": self.bottleneck_dim}


# optimizer ------------------------------------------------------------


def lr_factor(progress: float) -> float:
    """Decay multiplier (1 + 10 p)^(-0.75) for training progress p in [0, 1]."""
    return (1.0 + 10.0 * progress) ** -0.75


class SGD:
    """Mini-batch SGD with momentum, weight decay, and a decaying schedule.

    Update per parameter: v <- momentum*v + g + wd*theta, then
    theta <- theta - lr0*lr_factor(progress)*v. Parameter groups carry
    their own base rate, so new layers can run at 10x the trunk rate.
    """

    def __init__(self, param_groups, momentum: float = 0.9, weight_decay: float = 1e-3):
        self.params = []
        self.base_lrs = []
        for params, lr in param_groups:
            for p in params:
                self.params.append(p)
                self.base_lrs.append(lr)
        self.momentum = momentum
        self.weight_decay = weight_decay
        self.velocity = [np.zeros_like(p.data) for p in self.params]

    def step(self, grads, progress: float):
        if len(grads) != len(self.params):
            raise DimensionError(f"expected {len(self.params)} gradients, got {len(grads)}")
        factor = lr_factor(progress)
        for p, v, g, lr in zip(self.params, self.velocity, grads, self.base_lrs):
            if g.shape != p.data.shape:
                raise DimensionError(f"gradient shape {g.shape} vs parameter {p.data.shape}")
            v *= self.momentum
            v += g + self.weight_decay * p.data
            p.data -= lr * factor * v


def make_sgd(net, lr_backbone: float = 1e-3, momentum: float = 0.9, weight_decay: float = 1e-3) -> SGD:
    """Standard two-group optimizer: trunk at lr_backbone, new layers at 10x."""
    groups = [(net.backbone_params(), lr_backbone), (net.new_params(), 10.0 * lr_backbone)]
    return SGD(groups, momentum=momentum, weight_decay=weight_decay)


# training ---------------------------------------------------------------


def soft_cross_entropy(targets, probs: Tensor) -> Tensor:
    """-mean_i sum_k t_ik log p_ik with constant soft targets."""
    t = as_tensor(targets)
    if t.shape != probs.shape:
        raise DimensionError(f"targets {t.shape} vs predictions {probs.shape}")
    return -((t * log_clamped(probs)).sum(axis=-1).mean())


def ls_cross_entropy(logits: Tensor, labels: np.ndarray, alpha: float = 0.1) -> Tensor:
    """Label-smoothed cross entropy, averaged over the batch.

    The target for label y is (1-alpha)*onehot(y) + alpha/K.
    """
    labels = np.asarray(labels)
    n, k = logits.shape
    q = np.full((n, k), alpha / k)
    q[np.arange(n), labels] += 1.0 - alpha
    return soft_cross_entropy(q, softmax(logits))


def minibatch_indices(n: int, batch_size: int, rng: np.random.Generator, min_size: int = 1):
    """Shuffled mini-batch index arrays covering all n samples once.

    A trailing batch smaller than min_size is dropped.
    """
    order = rng.permutation(n)
    for start in range(0, n, batch_size):
        batch = order[start : start + batch_size]
        if batch.size >= min_size:
            yield batch


def _batches_per_epoch(n: int, batch_size: int, min_size: int) -> int:
    """How many batches `minibatch_indices` yields for these arguments."""
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


def train_epochs(net, n: int, batch_loss, epochs: int, batch_size: int, rng, lr_backbone: float, phase: str):
    """The mini-batch training loop every phase shares.

    Each epoch shuffles the n sample indices with `rng` into batches of
    `batch_size` (a trailing batch smaller than `net.min_batch` is
    dropped) and takes one SGD step per batch on the loss of
    `batch_loss(idx) -> (loss, {name: float})`, recorded on one tape; the
    schedule's progress is the fraction of all steps taken. After each
    epoch it yields the per-batch means of "loss" and of the named terms.
    Bad arguments (see `check_training_args`) and a non-finite loss raise
    ContractError. The steps run with numpy's floating-point warnings off:
    a diverging run is reported once, by the non-finite loss.
    """
    check_training_args(phase, epochs, batch_size, lr_backbone, net.min_batch)
    if n < net.min_batch:
        raise ContractError(f"{phase}: got {n} samples, fewer than the smallest batch ({net.min_batch})")
    opt = make_sgd(net, lr_backbone=lr_backbone)
    total_steps = max(1, epochs * _batches_per_epoch(n, batch_size, net.min_batch))
    step = 0
    for epoch in range(1, epochs + 1):
        sums = {"loss": 0.0}
        nbatches = 0
        for idx in minibatch_indices(n, batch_size, rng, min_size=net.min_batch):
            with np.errstate(all="ignore"):
                with GradTape() as tape:
                    loss, terms = batch_loss(idx)
                value = loss.item()
                if not math.isfinite(value):
                    raise ContractError(f"{phase}: loss is {value} at epoch {epoch}, step {step + 1} of {total_steps}")
                grads = tape.gradient(loss, opt.params)
                opt.step(grads, progress=step / total_steps)
                net.post_update()
            step += 1
            nbatches += 1
            sums["loss"] += value
            for key, term in terms.items():
                sums[key] = sums.get(key, 0.0) + term
        yield {key: total / nbatches for key, total in sums.items()}


def train_source_net(
    net: SourceNet,
    features: np.ndarray,
    labels: np.ndarray,
    epochs: int = 30,
    batch_size: int = 64,
    ls_alpha: float = 0.1,
    lr_backbone: float = 1e-3,
    seed: int = 0,
) -> list[float]:
    """Train a source net with the label-smoothed objective.

    Returns the per-epoch mean training loss.
    """

    def batch_loss(idx):
        logits = net.forward(features[idx], mode="train")
        return ls_cross_entropy(logits, labels[idx], alpha=ls_alpha), {}

    rng = np.random.default_rng(seed)
    epochs_run = train_epochs(net, features.shape[0], batch_loss, epochs, batch_size, rng, lr_backbone, "source")
    return [means["loss"] for means in epochs_run]


# checkpoints ----------------------------------------------------------


def net_state(net, seed: int | None = None) -> dict:
    return {
        "format_version": CHECKPOINT_VERSION,
        "arch": net.arch(),
        "params": {name: p.data.tolist() for name, p in net.named_params().items()},
        "running": {name: arr.tolist() for name, arr in net.running_stats().items()},
        "rng_seed": seed,
    }


def net_from_state(state: dict):
    if state.get("format_version") != CHECKPOINT_VERSION:
        raise ContractError(f"unsupported checkpoint version {state.get('format_version')!r}")
    arch = state["arch"]
    if arch["kind"] == "source":
        net = SourceNet(arch["in_dim"], arch["num_classes"], hidden=arch["hidden"])
    elif arch["kind"] == "target":
        net = TargetNet(
            arch["in_dim"],
            arch["num_classes"],
            hidden=arch["hidden"],
            bottleneck_dim=arch["bottleneck_dim"],
        )
    else:
        raise ContractError(f"unknown net kind {arch['kind']!r}")
    for name, p in net.named_params().items():
        value = np.asarray(state["params"][name], dtype=np.float64)
        if value.shape != p.data.shape:
            raise DimensionError(f"checkpoint param {name} has shape {value.shape}")
        p.data = value
    if state["running"]:
        net.set_running_stats(state["running"])
    return net


def save_checkpoint(net, path: str, seed: int | None = None):
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w") as fh:
        json.dump(net_state(net, seed=seed), fh)
        fh.write("\n")


def load_checkpoint(path: str):
    with open(path) as fh:
        return net_from_state(json.load(fh))


def clone_net(net):
    """Deterministic deep copy via the checkpoint state."""
    return net_from_state(net_state(net))
