"""Second training phase: sharpen the distilled model.

The only objective is the mutual-information term (maximized), the memory
bank plays no part, and the learning-rate schedule restarts its progress
at zero. All layers stay trainable. Batch-norm running statistics keep
updating by default; `freeze_bn_stats` pins them to the distilled values.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .distill import mi_loss
from .nets import train_epochs
from .tensor import softmax


@dataclass
class FinetuneConfig:
    epochs: int = 30
    batch_size: int = 64
    seed: object = 2020
    freeze_bn_stats: bool = False
    lr_backbone: float = 1e-3


def run_finetune(cfg: FinetuneConfig, net, features, eval_fn=None) -> list[dict]:
    """Fine-tune the net in place; returns per-epoch metrics.

    Each step ascends the mutual-information objective (descends its
    negative). Metrics track the objective and the mean per-sample
    entropy, which is expected to fall as predictions sharpen. `eval_fn`,
    when given, is called after each epoch with the net's eval-mode
    probabilities on `features`, and its value is recorded as that
    epoch's accuracy.
    """
    x = np.asarray(features, dtype=np.float64)
    rng = np.random.default_rng(cfg.seed)

    def batch_loss(idx):
        probs = softmax(net.forward(x[idx], mode="train", update_stats=not cfg.freeze_bn_stats))
        mi = mi_loss(probs)
        p = probs.data
        entropy = float(-(p * np.log(np.maximum(p, 1e-8))).sum(axis=1).mean())
        return -mi, {"mi": mi.item(), "cond_entropy": entropy}

    history = []
    epochs_run = train_epochs(net, x.shape[0], batch_loss, cfg.epochs, cfg.batch_size, rng, cfg.lr_backbone, "finetune")
    for epoch, means in enumerate(epochs_run, 1):
        record = {"phase": "finetune", "epoch": epoch, **means}
        if eval_fn is not None:
            record["accuracy"] = float(eval_fn(net.predict_proba(x)))
        history.append(record)
    return history
