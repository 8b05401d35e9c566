"""Distillation onto the target network from a memory-bank teacher.

The teacher is a per-sample store of probability rows, initialized from
black-box source predictions and blended with the student's own full-set
predictions after every epoch (exponential moving average). Each training
step minimizes

    KL(teacher row || student) + beta * mixup consistency - mutual information

Batch order and mixup draws come from one seeded generator per student,
so a run is reproducible bit for bit. The students, each with its own
bank and seed, distill in lockstep as one stack, each ending exactly as
alone; `nets.train_epochs` runs the epochs and checks each epoch's end.
Hyper-parameters are keyword arguments with the paper's defaults;
`check_distill_args` checks the three that only this phase takes.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ContractError, DimensionError
from .nets import _soft_target, soft_cross_entropy, take_rows, train_epochs
from .tensor import LOG_EPS, Tensor, _softmax, as_tensor, check_probabilities, record_op, softmax


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


def check_distill_args(beta: float, gamma: float, mixup_alpha: float):
    """Raise ContractError unless gamma lies in [0, 1], beta is finite and
    nonnegative and mixup_alpha finite and positive; the comparisons are
    written so that NaN fails them."""
    if not 0.0 <= gamma <= 1.0:
        raise ContractError(f"gamma must lie in [0, 1], got {gamma}")
    if not 0.0 <= beta < math.inf:
        raise ContractError(f"beta must be finite and nonnegative, got {beta}")
    if not 0.0 < mixup_alpha < math.inf:
        raise ContractError(f"mixup_alpha must be finite and positive, got {mixup_alpha}")


def distill_loss(bank_rows, student_probs: Tensor) -> Tensor:
    """Mean over the batch of KL(bank row || student row), both logs
    clamped below at 1e-8, as one record (`nets._soft_target`); on a
    stack, one mean per member. The gradient reaches the student only."""
    t = as_tensor(bank_rows).data
    _check_bank_and_student(t, student_probs.data)
    loss, vjp = _soft_target(t, student_probs.data, kl=True)
    return record_op(loss, (student_probs,), vjp)


def _check_bank_and_student(t: np.ndarray, p: np.ndarray):
    """`distill_loss`'s checks: bank rows `t` shaped as the student's rows
    `p`, each a batch or stack of probability rows."""
    if t.shape != p.shape:
        raise DimensionError(f"bank rows {t.shape} vs student {p.shape}")
    check_probabilities(t, "bank rows", ndim=3 if t.ndim == 3 else 2)
    check_probabilities(p, "student rows", ndim=3 if p.ndim == 3 else 2)


def _mixer(x: np.ndarray, rng, alpha: float):
    """Draw a lambda per batch (`rng.beta(alpha, alpha)`), then each row's partner
    (`rng.permutation`): the function that mixes a batch's rows so."""
    n = x.shape[-2]
    if n < 2:
        raise ContractError(f"mixup needs at least 2 samples, got {n}")
    lam = np.reshape(rng.beta(alpha, alpha), x.shape[:-2] + (1, 1))
    perm = rng.permutation(n)
    return lambda a: lam * a + (1.0 - lam) * take_rows(a, perm)


def mixup_loss(net, batch, rng, alpha: float = 0.3, probs=None) -> Tensor:
    """Interpolation-consistency term.

    One lambda is drawn per batch and each sample paired with a partner
    (`_mixer`), and the prediction at the mixed input is pulled (soft
    cross entropy) toward the same mixture of the stop-gradient endpoint
    predictions. Both forwards run in train mode without touching the
    batch-norm running statistics. Pass `probs` to reuse a clean forward
    (`total_loss` composes the same term into its objective, the mixed
    batch riding in the clean one's forward). On a stack the batch
    is (S, n, in_dim) and `rng` an `RngStack`: each member draws its own
    lambda and partners from its own generator.
    """
    x = np.asarray(batch, dtype=np.float64)
    mix = _mixer(x, rng, alpha)
    if probs is None:  # its record, if taped, is one the loss does not reach
        probs = softmax(net.forward(x, mode="train", update_stats=False)).data
    mixed = softmax(net.forward(mix(x), mode="train", update_stats=False))
    return soft_cross_entropy(mix(as_tensor(probs).data), mixed)


def mi_loss(student_probs) -> Tensor:
    """Entropy of the mean prediction minus the mean per-sample entropy.

    Nonnegative, at most log K; larger values mean confident predictions
    spread across classes. This term is maximized, so it enters the step
    objective with a minus sign. Logs are clamped below at 1e-8; the term
    is one record (`_mutual_information`). On a stack of batches it is one
    value per member.
    """
    probs = as_tensor(student_probs)
    _check_student(probs.data)
    mi, vjp, _ = _mutual_information(probs.data)
    return record_op(mi, (probs,), vjp)


def _check_student(p: np.ndarray):
    """`mi_loss`'s checks: a nonempty batch or stack of probability rows."""
    if p.ndim not in (2, 3) or p.shape[-2] < 1:
        raise ContractError(f"expected a nonempty batch of probability rows, got shape {p.shape}")
    check_probabilities(p, "student rows", ndim=p.ndim)


def _mutual_information(p: np.ndarray):
    """`mi_loss` on an array: its value, its VJP, g -> (g_p,), and the sum
    over the rows of sum_k p log max(p, 1e-8)."""
    n = p.shape[-2]
    mean_p = p.sum(axis=-2) * (1.0 / n)
    clamped_mean = np.maximum(mean_p, LOG_EPS)
    log_mean = np.log(clamped_mean)
    marginal = -((mean_p * log_mean).sum(axis=-1))
    clamped = np.maximum(p, LOG_EPS)
    log_p = np.log(clamped)
    plogp = (p * log_p).sum(axis=-1).sum(axis=-1)
    conditional = -(plogp * (1.0 / n))

    def vjp(g):
        # d/dq of -q log max(q, eps) is -(log max(q, eps) + q / max(q, eps)),
        # without the second term where the clamp is flat (q <= eps)
        g_mean = -(log_mean + np.where(mean_p > LOG_EPS, mean_p / clamped_mean, 0.0))
        g_rows = log_p + np.where(p > LOG_EPS, p / clamped, 0.0)
        return ((g[..., None, None] / n) * (g_mean[..., None, :] + g_rows),)

    return marginal - conditional, vjp, plogp


def total_loss(bank_rows, net, batch, rng, *, beta: float, mixup_alpha: float, drop_mi: bool = False):
    """One step objective: distill + beta*mixup - MI, on a single tape;
    beta=0 leaves out the mixup term and `drop_mi` the MI term.

    Returns the loss and a dict of the term values (arrays, one value per
    member of a stack). The clean forward runs in train mode and
    refreshes batch-norm running statistics; with the mixup term, whose
    draws come first, its mixed batch joins it as a second leading slice.
    The step records that forward and then the objective (`_objective`).
    """
    x = np.asarray(batch, dtype=np.float64)
    if beta == 0.0:
        return _objective(bank_rows, net.forward(x, mode="train"), None, beta, drop_mi)
    mix = _mixer(x, rng, mixup_alpha)
    return _objective(bank_rows, net.forward(np.stack([x, mix(x)]), mode="train"), mix, beta, drop_mi)


def _objective(bank_rows, logits, mix, beta: float, drop_mi: bool):
    """`total_loss` from the logits on, as one record: softmax, KL, the
    mixup cross entropy, MI and kd + beta * mix - mi. Without a mixer `mix`
    the logits are the clean batch's; with one, the clean and the mixed
    batch's along a leading axis. The VJP hands each term the gradient the
    per-term tape gave it and sums them in its order, MI's before KL's."""
    probs, softmax_vjp = _softmax(logits.data)
    clean = probs if mix is None else probs[0]
    t = as_tensor(bank_rows).data
    _check_bank_and_student(t, clean)
    kd, kd_vjp = _soft_target(t, clean, kl=True)
    zero = np.zeros(kd.shape)
    mixed, mix_vjp = (zero, None) if mix is None else _soft_target(mix(clean), probs[1])
    mi, mi_vjp, _ = (zero, None, None) if drop_mi else _mutual_information(clean)

    def vjp(g):
        (g_clean,) = kd_vjp(g)
        if not drop_mi:
            g_clean = mi_vjp(-g)[0] + g_clean
        if mix is None:
            return softmax_vjp(g_clean)
        g_probs = np.empty_like(probs)
        g_probs[0], (g_probs[1],) = g_clean, mix_vjp(g * beta)
        return softmax_vjp(g_probs)

    loss = record_op(kd + beta * mixed - mi, (logits,), vjp)
    return loss, {"kd": kd, "mix": mixed, "mi": mi}


def run_distillation(banks, nets, features, seeds, *, epochs: int = 30, batch_size: int = 64,
                     lr_backbone: float = 1e-3, beta: float = 1.0, gamma: float = 0.6, mixup_alpha: float = 0.3,
                     drop_mi: bool = False, eval_fn=None, names=None) -> list[list[dict]]:
    """Distill the list of nets in place as one stack, each with its own
    bank and seed; returns one history of per-epoch records per net (see
    `nets.train_epochs`, which takes `names` and `eval_fn`, and
    `total_loss`, which takes `beta`, `mixup_alpha` and `drop_mi`).

    Each step descends `total_loss` on a shuffled mini-batch; batch order
    and mixup draws share each net's generator. Each epoch ends, net by
    net, with a checked eval-mode forward over the whole set, which feeds
    the bank's EMA update at `gamma` and then `eval_fn`. Training never
    sees labels.
    """
    check_distill_args(beta, gamma, mixup_alpha)
    x = np.asarray(features, dtype=np.float64)
    n = x.shape[0]
    for bank, net in zip(banks, nets):
        if len(bank) != n or bank.num_classes != net.num_classes:
            raise ContractError(f"bank shape {bank.rows.shape} does not match {n} samples x {net.num_classes} classes")

    def batch_loss(stack, idx, rng):
        rows = np.stack([bank.rows[i] for bank, i in zip(banks, idx)])
        return total_loss(rows, stack, x[idx], rng, beta=beta, mixup_alpha=mixup_alpha, drop_mi=drop_mi)

    return train_epochs(nets, [x] * len(nets), batch_loss, epochs, batch_size, seeds, lr_backbone, "distill", names,
                        lambda i, probs: banks[i].ema_update(probs, gamma), eval_fn, banks=banks)
