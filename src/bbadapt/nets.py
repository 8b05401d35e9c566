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
from .tensor import LOG_EPS, GradTape, Tensor, affine, as_tensor, record_op, softmax, stop_recording

CHECKPOINT_VERSION = 1
MOMENTUM = 0.9  # SGD, in every training phase
WEIGHT_DECAY = 1e-3  # SGD, in every training phase
BN_MOMENTUM = 0.1  # the target's batch norm: weight of a batch in the running statistics
BN_EPS = 1e-5  # the target's batch norm: added to the variance


class Linear:
    def __init__(self, in_dim: int, out_dim: int, rng: np.random.Generator):
        scale = np.sqrt(2.0 / in_dim)
        self.weight = Tensor(rng.normal(0.0, scale, (in_dim, out_dim)), requires_grad=True)
        self.bias = Tensor(np.zeros(out_dim), requires_grad=True)

    def __call__(self, x: Tensor, relu: bool = False) -> Tensor:
        return affine(x, self.weight, self.bias, relu=relu)

    @property
    def params(self):
        return [self.weight, self.bias]


class BatchNorm:
    """1-D batch normalization with running statistics.

    Train mode normalizes with batch statistics (and, unless frozen,
    folds them into the running averages with momentum BN_MOMENTUM);
    eval mode is a deterministic affine map using the running statistics.
    Both add BN_EPS to the variance; either way the layer is one record.
    """

    def __init__(self, dim: int):
        self.gamma = Tensor(np.ones(dim), requires_grad=True)
        self.beta = Tensor(np.zeros(dim), requires_grad=True)
        self.running_mean = np.zeros(dim)
        self.running_var = np.ones(dim)

    def __call__(self, x: Tensor, train: bool, update_stats: bool) -> Tensor:
        gamma, beta = self.gamma.data, self.beta.data
        if train:
            n = x.shape[0]
            mu = x.data.sum(axis=0) * (1.0 / n)
            centered = x.data - mu
            var = (centered * centered).sum(axis=0) * (1.0 / n)
            std = np.sqrt(var + BN_EPS)
            xhat = centered / std
            if update_stats:
                bessel = n / (n - 1) if n > 1 else 1.0
                self.running_mean = (1.0 - BN_MOMENTUM) * self.running_mean + BN_MOMENTUM * mu
                self.running_var = (1.0 - BN_MOMENTUM) * self.running_var + BN_MOMENTUM * var * bessel
        else:
            inv = 1.0 / np.sqrt(self.running_var + BN_EPS)
            xhat = (x.data - self.running_mean) * inv

        def vjp(g):
            gxhat = g * gamma
            if train:  # the batch statistics depend on x too
                gx = (gxhat - gxhat.mean(axis=0) - xhat * (gxhat * xhat).mean(axis=0)) / std
            else:
                gx = gxhat * inv
            return gx, (g * xhat).sum(axis=0), g.sum(axis=0)

        return record_op(xhat * gamma + beta, (x, self.gamma, self.beta), vjp)

    @property
    def params(self):
        return [self.gamma, self.beta]


class WeightNormLinear:
    """Affine layer with direction/magnitude reparameterized weight rows,
    one tape record per call."""

    def __init__(self, in_dim: int, out_dim: int, rng: np.random.Generator):
        raw = rng.normal(0.0, 1.0 / np.sqrt(in_dim), (out_dim, in_dim))
        norms = np.linalg.norm(raw, axis=1, keepdims=True)
        self.direction = Tensor(raw / norms, requires_grad=True)  # (out, in), unit rows
        self.scale = Tensor(norms[:, 0].copy(), requires_grad=True)  # (out,)
        self.bias = Tensor(np.zeros(out_dim), requires_grad=True)
        self.out_dim = out_dim

    def __call__(self, x: Tensor) -> Tensor:
        direction, scale = self.direction.data, self.scale.data
        norm = np.sqrt((direction * direction).sum(axis=1, keepdims=True))
        unit = direction / norm
        weight = scale.reshape(self.out_dim, 1) * unit

        def vjp(g):
            g_weight = g.T @ x.data
            g_unit = g_weight * scale.reshape(self.out_dim, 1)
            # d(unit)/d(direction) projects out each row's own direction
            g_direction = (g_unit - unit * (g_unit * unit).sum(axis=1, keepdims=True)) / norm
            gx = g @ weight if x.requires_grad else None
            return gx, g_direction, (g_weight * unit).sum(axis=1), g.sum(axis=0)

        out = x.data @ weight.T + self.bias.data
        return record_op(out, (x, self.direction, self.scale, self.bias), vjp)

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

    def forward(self, x, mode: str = "train", update_stats: bool = True) -> Tensor:
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
        return self._forward(x, train=True, update_stats=update_stats)

    def _forward(self, x: Tensor, train: bool, update_stats: bool) -> Tensor:
        h = x
        for layer in self.trunk:
            h = layer(h, relu=True)
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

    Update per parameter: v <- MOMENTUM*v + g + WEIGHT_DECAY*theta, then
    theta <- theta - lr0*lr_factor(progress)*v. Parameter groups carry
    their own base rate, so new layers can run at 10x the trunk rate.
    """

    def __init__(self, param_groups):
        self.params = []
        self.base_lrs = []
        for params, lr in param_groups:
            for p in params:
                self.params.append(p)
                self.base_lrs.append(lr)
        self.velocity = [np.zeros_like(p.data) for p in self.params]

    def step(self, grads, progress: float):
        if len(grads) != len(self.params):
            raise DimensionError(f"expected {len(self.params)} gradients, got {len(grads)}")
        factor = lr_factor(progress)
        for p, v, g, lr in zip(self.params, self.velocity, grads, self.base_lrs):
            if g.shape != p.data.shape:
                raise DimensionError(f"gradient shape {g.shape} vs parameter {p.data.shape}")
            v *= MOMENTUM
            v += g + WEIGHT_DECAY * p.data
            p.data -= lr * factor * v


def make_sgd(net, lr_backbone: float = 1e-3) -> SGD:
    """Standard two-group optimizer: trunk at lr_backbone, new layers at 10x."""
    return SGD([(net.backbone_params(), lr_backbone), (net.new_params(), 10.0 * lr_backbone)])


# training ---------------------------------------------------------------


def soft_cross_entropy(targets, probs: Tensor) -> Tensor:
    """-mean_i sum_k t_ik log max(p_ik, 1e-8) with constant soft targets,
    as one record; the gradient reaches `probs` only."""
    t = as_tensor(targets).data
    if t.shape != probs.shape:
        raise DimensionError(f"targets {t.shape} vs predictions {probs.shape}")
    clamped = np.maximum(probs.data, LOG_EPS)
    rows = (t * np.log(clamped)).sum(axis=-1)

    def vjp(g):
        return (np.where(probs.data > LOG_EPS, (-g / rows.size) * t / clamped, 0.0),)

    return record_op(-(rows.sum() * (1.0 / rows.size)), (probs,), vjp)


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


def _positive_int(value) -> bool:
    return type(value) is int and value > 0


def _state_shapes(kind: str, in_dim: int, num_classes: int, hidden: list, bottleneck_dim=None):
    """The parameter and running-stat shapes (name -> shape) of the net
    an `arch` describes, worked out without building it."""
    dims = [in_dim, *hidden]
    params = {}
    for i, (a, b) in enumerate(zip(dims, dims[1:])):
        params.update({f"trunk.{i}.weight": (a, b), f"trunk.{i}.bias": (b,)})
    w, k, d = dims[-1], num_classes, bottleneck_dim
    if kind == "source":
        return {**params, "head.weight": (w, k), "head.bias": (k,)}, {}
    head = {"bn.gamma": (w,), "bn.beta": (w,), "bottleneck.weight": (w, d), "bottleneck.bias": (d,),
            "classifier.direction": (k, d), "classifier.scale": (k,), "classifier.bias": (k,)}
    return {**params, **head}, {"bn.running_mean": (w,), "bn.running_var": (w,)}


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
        try:
            value = np.asarray(given[name], dtype=np.float64)
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
    if kind not in ("source", "target"):
        raise ContractError(f"unknown net kind in checkpoint arch {str(arch)[:80]}")
    hidden = arch.get("hidden")
    sizes = [arch.get("in_dim"), arch.get("num_classes")] + ([arch.get("bottleneck_dim")] if kind == "target" else [])
    if not (isinstance(hidden, list) and all(map(_positive_int, sizes + hidden))):
        raise ContractError(f"checkpoint arch sizes must be positive integers, got {str(arch)[:80]}")
    keys = {"kind", "in_dim", "num_classes", "hidden"} | ({"bottleneck_dim"} if kind == "target" else set())
    if arch.keys() != keys:
        raise ContractError(f"checkpoint arch has unknown keys: {sorted(arch.keys() - keys)}")
    param_shapes, running_shapes = _state_shapes(**arch)
    params = _checked_arrays(state.get("params"), param_shapes, "param")
    running = _checked_arrays(state.get("running"), running_shapes, "running stat")
    if running and (running["bn.running_var"] < 0.0).any():
        raise ContractError("checkpoint running stat bn.running_var has negative entries")
    if kind == "source":
        net = SourceNet(*sizes, hidden=hidden)
    else:
        net = TargetNet(*sizes[:2], hidden=hidden, bottleneck_dim=sizes[2])
    for name, p in net.named_params().items():
        p.data = params[name]
    if running:
        net.set_running_stats(running)
    return net


def write_atomically(path: str, write):
    """Create or replace the text file at `path` with what `write(fh)`
    writes, so that `path` never holds a partial file: the text goes to a
    temporary file in the same directory, which then replaces `path` in
    one rename. If `write` raises, the temporary file is removed and
    `path` is left as it was. Missing parent directories are created."""
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w") as fh:
            write(fh)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def save_checkpoint(net, path: str, seed: int | None = None):
    state = net_state(net, seed=seed)
    write_atomically(path, lambda fh: fh.write(json.dumps(state) + "\n"))


def read_json(path: str, what: str):
    """The JSON value in the file at `path`; ContractError, naming the
    file as `what`, unless it holds UTF-8 JSON."""
    with open(path, "rb") as fh:
        try:
            return json.load(fh)
        except ValueError as exc:  # not UTF-8, or not JSON
            raise ContractError(f"{what} {path} is not JSON: {exc}") from None


def load_checkpoint(path: str):
    """The net saved at `path`; ContractError unless it is a valid checkpoint."""
    return net_from_state(read_json(path, "checkpoint"))


def clone_net(net):
    """Deterministic deep copy via the checkpoint state."""
    return net_from_state(net_state(net))
