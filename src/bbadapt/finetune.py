"""Second training phase: sharpen the distilled model.

The only objective is the mutual-information term (maximized), the memory
bank plays no part, and the learning-rate schedule restarts its progress
at zero. All layers stay trainable. Batch-norm running statistics keep
updating by default; `freeze_bn_stats` pins them to the distilled values.
The nets, each with its own seed, fine-tune in lockstep as one stack
(see `nets.train_epochs`); each ends exactly as it would alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .distill import mi_loss
from .nets import RngStack, train_epochs
from .tensor import softmax


@dataclass
class FinetuneConfig:
    epochs: int = 30
    batch_size: int = 64
    freeze_bn_stats: bool = False
    lr_backbone: float = 1e-3


def run_finetune(cfg: FinetuneConfig, nets, features, seeds, eval_fn=None, names=None) -> list[list[dict]]:
    """Fine-tune the list of nets in place as one stack (see
    `nets.train_epochs`, which takes `names`), one seed each; returns one
    history of per-epoch metrics per net.

    Each step ascends the mutual-information objective (descends its
    negative). Metrics track the objective and the mean per-sample
    entropy, which is expected to fall as predictions sharpen. `eval_fn`,
    when given, gets each net's eval-mode probabilities on `features`
    after each epoch; its value is recorded as that epoch's accuracy.
    """
    x = np.asarray(features, dtype=np.float64)

    def batch_loss(stack, idx):
        probs = softmax(stack.forward(x[idx], mode="train", update_stats=not cfg.freeze_bn_stats))
        mi = mi_loss(probs)
        p = probs.data
        entropy = -(p * np.log(np.maximum(p, 1e-8))).sum(axis=-1).mean(axis=-1)
        return -mi, {"mi": mi.data, "cond_entropy": entropy}

    histories = [[] for _ in nets]
    epochs_run = train_epochs(nets, x.shape[0], batch_loss, cfg.epochs, cfg.batch_size, RngStack(seeds),
                              cfg.lr_backbone, "finetune", names)
    for epoch, member_means in enumerate(epochs_run, 1):
        for net, means, history in zip(nets, member_means, histories):
            record = {"phase": "finetune", "epoch": epoch, **means}
            if eval_fn is not None:
                record["accuracy"] = float(eval_fn(net.predict_proba(x)))
            history.append(record)
    return histories
