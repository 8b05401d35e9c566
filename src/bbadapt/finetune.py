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

from .distill import mi_loss
from .nets import train_epochs
from .tensor import LOG_EPS, softmax


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
        probs = softmax(stack.forward(x[idx], mode="train", update_stats=not freeze_bn_stats))
        mi = mi_loss(probs)
        p = probs.data
        entropy = -(p * np.log(np.maximum(p, LOG_EPS))).sum(axis=-1).mean(axis=-1)
        return -mi, {"mi": mi.data, "cond_entropy": entropy}

    return train_epochs(nets, [x] * len(nets), batch_loss, epochs, batch_size, seeds, lr_backbone, "finetune", names,
                        eval_fn=eval_fn)
