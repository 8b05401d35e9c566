"""Distillation onto the target network from a memory-bank teacher.

The teacher is a per-sample store of probability rows, initialized from
black-box source predictions and blended with the student's own full-set
predictions after every epoch (exponential moving average). Each training
step minimizes

    KL(teacher row || student) + beta * mixup consistency - mutual information

and the optimizer state, batch order, and mixup draws are all derived from
one seeded generator, so a run is reproducible bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, DimensionError
from .nets import soft_cross_entropy, train_epochs
from .tensor import LOG_EPS, Tensor, as_tensor, check_probabilities, record_op, softmax, stop_recording


class MemoryBank:
    """Per-sample teacher probability rows, one row per target sample.

    The row count is fixed at construction; `ema_update` blends in fresh
    full-set student predictions without ever changing the sample set.
    """

    def __init__(self, rows):
        rows = np.asarray(rows, dtype=np.float64)
        check_probabilities(rows, "bank rows", ndim=2)
        self.rows = rows.copy()
        self.epoch = 0

    def __len__(self):
        return self.rows.shape[0]

    @property
    def num_classes(self) -> int:
        return self.rows.shape[1]

    def ema_update(self, fresh_probs, gamma: float):
        """rows <- gamma*rows + (1-gamma)*fresh, one fresh row per sample.

        gamma=1 keeps the bank bit-identical; gamma=0 replaces it outright.
        """
        if not 0.0 <= gamma <= 1.0:
            raise ContractError(f"gamma must lie in [0, 1], got {gamma}")
        fresh = np.asarray(fresh_probs, dtype=np.float64)
        if fresh.shape != self.rows.shape:
            raise ContractError(
                f"fresh predictions must cover every bank row: expected {self.rows.shape}, got {fresh.shape}"
            )
        check_probabilities(fresh, "fresh predictions", ndim=2)
        self.rows = gamma * self.rows + (1.0 - gamma) * fresh
        check_probabilities(self.rows, "bank rows", ndim=2)
        self.epoch += 1


@dataclass
class AdaptConfig:
    """Hyper-parameters for the distillation phase.

    `seed` may be anything numpy's default_rng accepts (int or a list of
    ints); `drop_mi` removes the mutual-information term from the step
    objective, and beta=0 removes the mixup term.
    """

    beta: float = 1.0
    gamma: float = 0.6
    mixup_alpha: float = 0.3
    epochs: int = 30
    batch_size: int = 64
    seed: object = 2020
    drop_mi: bool = False
    lr_backbone: float = 1e-3

    def validate(self):
        """ContractError unless gamma lies in [0, 1], beta is finite and
        nonnegative and mixup_alpha finite and positive; the comparisons are
        written so that NaN fails them."""
        if not 0.0 <= self.gamma <= 1.0:
            raise ContractError(f"gamma must lie in [0, 1], got {self.gamma}")
        if not 0.0 <= self.beta < math.inf:
            raise ContractError(f"beta must be finite and nonnegative, got {self.beta}")
        if not 0.0 < self.mixup_alpha < math.inf:
            raise ContractError(f"mixup_alpha must be finite and positive, got {self.mixup_alpha}")


def distill_loss(bank_rows, student_probs: Tensor) -> Tensor:
    """Mean over the batch of KL(bank row || student row), both logs
    clamped below at 1e-8, as one record.

    The bank rows are constants; the gradient reaches the student only.
    """
    t = as_tensor(bank_rows).data
    if t.shape != student_probs.shape:
        raise DimensionError(f"bank rows {t.shape} vs student {student_probs.shape}")
    check_probabilities(t, "bank rows", ndim=2)
    p = student_probs.data
    check_probabilities(p, "student rows", ndim=2)
    clamped = np.maximum(p, LOG_EPS)
    per_sample = (t * (np.log(np.maximum(t, LOG_EPS)) - np.log(clamped))).sum(axis=-1)
    n = per_sample.size

    def vjp(g):
        return (np.where(p > LOG_EPS, (-g / n) * t / clamped, 0.0),)

    return record_op(per_sample.sum() * (1.0 / n), (student_probs,), vjp)


def mixup_loss(net, batch, rng, alpha: float = 0.3, probs=None) -> Tensor:
    """Interpolation-consistency term.

    One lambda = `rng.beta(alpha, alpha)` is drawn per batch, each sample
    is paired with a partner from `rng.permutation`, and the prediction at
    the mixed input is pulled (soft cross entropy) toward the same mixture
    of the stop-gradient endpoint predictions. Both forwards run in train
    mode without touching the batch-norm running statistics. Pass `probs`
    to reuse an already-computed clean forward.
    """
    x = np.asarray(batch, dtype=np.float64)
    n = x.shape[0]
    if n < 2:
        raise ContractError(f"mixup needs at least 2 samples, got {n}")
    lam = float(rng.beta(alpha, alpha))
    perm = rng.permutation(n)
    if probs is None:
        with stop_recording():
            endpoint = softmax(net.forward(x, mode="train", update_stats=False)).data
    else:
        endpoint = probs.data if isinstance(probs, Tensor) else np.asarray(probs, dtype=np.float64)
    targets = lam * endpoint + (1.0 - lam) * endpoint[perm]
    x_mix = lam * x + (1.0 - lam) * x[perm]
    mixed_pred = softmax(net.forward(x_mix, mode="train", update_stats=False))
    return soft_cross_entropy(targets, mixed_pred)


def mi_loss(student_probs) -> Tensor:
    """Entropy of the mean prediction minus the mean per-sample entropy.

    Nonnegative, at most log K; larger values mean confident predictions
    spread across classes. This term is maximized, so it enters the step
    objective with a minus sign. Logs are clamped below at 1e-8; the term
    is one record.
    """
    probs = as_tensor(student_probs)
    p = probs.data
    if p.ndim != 2 or p.shape[0] < 1:
        raise ContractError(f"expected a nonempty batch of probability rows, got shape {p.shape}")
    check_probabilities(p, "student rows", ndim=2)
    n = p.shape[0]
    mean_p = p.sum(axis=0) * (1.0 / n)
    clamped_mean = np.maximum(mean_p, LOG_EPS)
    log_mean = np.log(clamped_mean)
    marginal = -((mean_p * log_mean).sum())
    clamped = np.maximum(p, LOG_EPS)
    log_p = np.log(clamped)
    conditional = -((p * log_p).sum(axis=-1).sum() * (1.0 / n))

    def vjp(g):
        # d/dq of -q log max(q, eps) is -(log max(q, eps) + q / max(q, eps)),
        # without the second term where the clamp is flat (q <= eps)
        g_mean = -(log_mean + np.where(mean_p > LOG_EPS, mean_p / clamped_mean, 0.0))
        g_rows = log_p + np.where(p > LOG_EPS, p / clamped, 0.0)
        return ((g / n) * (g_mean + g_rows),)

    return record_op(marginal - conditional, (probs,), vjp)


def total_loss(cfg: AdaptConfig, bank_rows, net, batch, rng):
    """One step objective: distill + beta*mixup - MI, on a single tape.

    Returns the scalar loss and a dict of the (float) term values. The
    clean forward runs in train mode and refreshes batch-norm running
    statistics; the two mixup forwards never touch them.
    """
    logits = net.forward(batch, mode="train")
    probs = softmax(logits)
    l_kd = distill_loss(bank_rows, probs)
    if cfg.beta != 0.0:
        l_mix = mixup_loss(net, batch, rng, alpha=cfg.mixup_alpha, probs=probs)
    else:
        l_mix = Tensor(0.0)
    l_im = Tensor(0.0) if cfg.drop_mi else mi_loss(probs)
    loss = l_kd + Tensor(cfg.beta) * l_mix - l_im
    return loss, {"kd": l_kd.item(), "mix": l_mix.item(), "mi": l_im.item()}


def run_distillation(cfg: AdaptConfig, bank: MemoryBank, net, features, eval_fn=None) -> list[dict]:
    """Run the distillation phase in place; returns per-epoch metrics.

    Per epoch: `nets.train_epochs` steps on `total_loss` over shuffled
    mini-batches (batch order and mixup draws share one generator); then
    one eval-mode forward over the whole set, in sample order, feeds the
    bank's EMA update. `eval_fn`, when given, is called after the bank
    update with that forward's probabilities, and its value is recorded
    as that epoch's accuracy; training itself never sees labels.
    """
    x = np.asarray(features, dtype=np.float64)
    cfg.validate()
    n = x.shape[0]
    if len(bank) != n or bank.num_classes != net.num_classes:
        raise ContractError(
            f"bank shape {bank.rows.shape} does not match {n} samples x {net.num_classes} classes"
        )
    rng = np.random.default_rng(cfg.seed)

    def batch_loss(idx):
        return total_loss(cfg, bank.rows[idx], net, x[idx], rng)

    history = []
    epochs_run = train_epochs(net, n, batch_loss, cfg.epochs, cfg.batch_size, rng, cfg.lr_backbone, "distill")
    for epoch, means in enumerate(epochs_run, 1):
        probs = net.predict_proba(x)
        bank.ema_update(probs, cfg.gamma)
        record = {"phase": "distill", "epoch": epoch, **means}
        if eval_fn is not None:
            record["accuracy"] = float(eval_fn(probs))
        history.append(record)
    return history
