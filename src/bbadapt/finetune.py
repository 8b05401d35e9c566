"""Second training phase: sharpen the distilled model.

The only objective is the mutual-information term (maximized), the memory
bank plays no part, and the learning-rate schedule restarts its progress
at zero. All layers stay trainable. Batch-norm running statistics keep
updating by default; `freeze_bn_stats` pins them to the distilled values.
The nets fine-tune in lockstep, one seed each, in `nets.train_epochs`,
which checks each epoch's end; each ends exactly as it would alone.
Hyper-parameters are keyword arguments with the paper's defaults.
"""

from __future__ import annotations

import numpy as np

from .distill import _check_student, _mutual_information
from .nets import train_epochs
from .tensor import _softmax, record_op


def run_finetune(nets, features, seeds, *, epochs: int = 30, batch_size: int = 64, lr_backbone: float = 1e-3,
                 freeze_bn_stats: bool = False, eval_fn=None, names=None) -> list[list[dict]]:
    """Fine-tune the list of nets in place as one stack, one seed each;
    returns one history of per-epoch records per net (see
    `nets.train_epochs`, which takes `names` and `eval_fn`).

    Each step ascends the mutual-information objective (descends its
    negative). Records track the objective and the mean per-sample
    entropy, which is expected to fall as predictions sharpen. Each epoch
    ends with a checked eval-mode forward over `features` for `eval_fn`.
    """
    x = np.asarray(features, dtype=np.float64)

    def batch_loss(stack, idx, rng):
        return _objective(stack.forward(x[idx], mode="train", update_stats=not freeze_bn_stats))

    return train_epochs(nets, [x] * len(nets), batch_loss, epochs, batch_size, seeds, lr_backbone, "finetune", names,
                        eval_fn=eval_fn)


def _objective(logits):
    """The step objective from the logits on, -MI, as one record composed
    of softmax and `distill.mi_loss`'s math, and its terms: MI and the mean
    per-sample entropy, which reuses MI's sum of p log p (`/ n` is numpy's
    mean)."""
    p, softmax_vjp = _softmax(logits.data)
    _check_student(p)
    mi, mi_vjp, plogp = _mutual_information(p)
    loss = record_op(-mi, (logits,), lambda g: softmax_vjp(*mi_vjp(-g)))
    return loss, {"mi": mi, "cond_entropy": -(plogp / p.shape[-2])}
