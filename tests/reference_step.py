"""The training step as it was: the reference `test_step.py` checks the
step against, bit for bit.

Each layer and each loss term was one tape record: the train forward
called each layer in turn, the objective combined its terms' records
with `Tensor`'s `+`, `-` and `*`, and a distillation step ran two
train-mode forwards, the clean batch and then the mixed one. The tape
gathered every gradient in an `id()`-keyed dict, adding each contribution
to the sum so far, and the optimizer step concatenated the parameters'
gradients into one vector. `train` runs those steps in
`nets.train_epochs`' order, without its checks.
"""

import numpy as np

from bbadapt.distill import distill_loss, mi_loss
from bbadapt.nets import (MOMENTUM, WEIGHT_DECAY, RngStack, _batches_per_epoch, _view_members, lr_factor, make_sgd,
                          minibatch_indices, soft_cross_entropy, stack_nets, take_rows)
from bbadapt.tensor import LOG_EPS, GradTape, Tensor, softmax


def forward(net, x, update_stats: bool = True) -> Tensor:
    """The train-mode logits, one record per layer."""
    h = Tensor(x)
    for layer in net.trunk:
        h = layer(h, relu=True)
    if net.kind == "source":
        return net.head(h)
    h = net.bn(h, train=True, update_stats=update_stats)
    return net.classifier(net.bottleneck(h))


def ls_cross_entropy(logits, labels, alpha: float) -> Tensor:
    """Cross entropy toward each label's smoothed row, softmax and loss one record each."""
    k = logits.shape[-1]
    targets = np.where(np.asarray(labels)[..., None] == np.arange(k), alpha / k + (1.0 - alpha), alpha / k)
    return soft_cross_entropy(targets, softmax(logits))


def mixup_loss(net, x, rng, alpha: float, probs: Tensor) -> Tensor:
    """The mixup term, its draws and mixed batch's forward after the clean one."""
    lam = np.reshape(rng.beta(alpha, alpha), x.shape[:-2] + (1, 1))
    perm = rng.permutation(x.shape[-2])

    def mix(a):
        return lam * a + (1.0 - lam) * take_rows(a, perm)

    mixed = softmax(forward(net, mix(x), update_stats=False))
    return soft_cross_entropy(mix(probs.data), mixed)


def total_loss(bank_rows, net, batch, rng, *, beta: float, mixup_alpha: float, drop_mi: bool = False):
    """The distillation objective, its mixed batch in a forward of its own."""
    probs = softmax(forward(net, batch))
    l_kd = distill_loss(bank_rows, probs)
    zero = Tensor(np.zeros(l_kd.shape))
    l_mix = mixup_loss(net, batch, rng, mixup_alpha, probs) if beta != 0.0 else zero
    l_im = zero if drop_mi else mi_loss(probs)
    loss = l_kd + Tensor(beta) * l_mix - l_im
    return loss, {"kd": l_kd.data, "mix": l_mix.data, "mi": l_im.data}


def finetune_loss(net, batch, update_stats: bool):
    """The fine-tuning objective, the negated mutual information, and its terms."""
    probs = softmax(forward(net, batch, update_stats=update_stats))
    mi, p = mi_loss(probs), probs.data
    return -mi, {"mi": mi.data, "cond_entropy": -(p * np.log(np.maximum(p, LOG_EPS))).sum(axis=-1).mean(axis=-1)}


def gradient(tape, target, sources):
    """The gradients of the sum of `target`'s entries with respect to each source, as a list."""
    grads = {id(target): np.ones_like(target.data)}
    keep = {id(s) for s in sources}
    for out, inputs, vjp in reversed(tape._records):
        g = grads.get(id(out)) if id(out) in keep else grads.pop(id(out), None)
        if g is None:
            continue
        for t, gi in zip(inputs, vjp(g)):
            if gi is None or not t.requires_grad:
                continue
            acc = grads.get(id(t))
            grads[id(t)] = gi if acc is None else acc + gi
    return [grads[id(s)] if id(s) in grads else np.zeros_like(s.data) for s in sources]


def sgd_step(opt, grads, progress: float):
    """The update of `opt`'s parameters by the list `grads`."""
    g = np.concatenate(grads, axis=None)
    g += WEIGHT_DECAY * opt.flat
    opt.velocity *= MOMENTUM
    opt.velocity += g
    factor = lr_factor(progress)
    for stretch, lr in opt._stretches:
        np.multiply(opt.velocity[stretch], lr * factor, out=g[stretch])
    opt.flat -= g


def train(nets, features, batch_loss, epochs: int, batch_size: int, seeds, phase: str, epoch_end=None,
          lr_backbone: float = 1e-3):
    """Train `nets` as one stack as `train_epochs` does. Returns one history
    per net, and per step its loss, its gradient vector and the parameter
    vector the update left, before `post_update`."""
    rng = RngStack(seeds)
    stack = stack_nets(nets)
    opt = make_sgd(stack, lr_backbone=lr_backbone)
    _view_members(stack, nets)
    n, min_batch = len(features[0]), nets[0].min_batch
    total_steps = max(1, epochs * _batches_per_epoch(n, batch_size, min_batch))
    histories, steps = [[] for _ in nets], []
    for epoch in range(1, epochs + 1):
        sums = {}
        for nbatches, idx in enumerate(minibatch_indices(n, batch_size, rng, min_size=min_batch), 1):
            with GradTape() as tape:
                loss, terms = batch_loss(stack, idx, rng)
            grads = gradient(tape, loss, opt.params)
            sgd_step(opt, grads, progress=len(steps) / total_steps)
            steps.append((loss.data, np.concatenate(grads, axis=None), opt.flat.copy()))
            stack.post_update()
            for key, values in {"loss": loss.data, **terms}.items():
                sums[key] = sums.get(key, 0.0) + values
        _view_members(stack, nets)
        for i, (net, history) in enumerate(zip(nets, histories)):
            history.append({"phase": phase, "epoch": epoch,
                            **{key: float(total[i] / nbatches) for key, total in sums.items()}})
            if epoch_end is not None:
                epoch_end(i, net.predict_proba(features[i]))
    return histories, steps
