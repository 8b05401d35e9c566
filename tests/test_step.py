"""Each phase's training step against the step as it was
(`reference_step.py`), bit for bit: every step's loss, gradient vector and
updated parameters, each epoch's loss terms, and the nets' parameters and
batch-norm running statistics at the end.

Today distillation runs its clean and mixed batches as one forward, and
the tape writes each gradient into the optimizer's vector; the reference
records each layer and loss term on its own, runs two forwards and
gathers the gradients in a dict. Each phase runs on stacks of one to
three nets, with a trailing batch smaller than the rest.
"""

import json

import numpy as np
import pytest

import reference_step as ref
from bbadapt.distill import MemoryBank, run_distillation
from bbadapt.finetune import run_finetune
from bbadapt.nets import SGD, SourceNet, TargetNet, take_rows, train_source_net
from bbadapt.tensor import GradTape

N, K, BATCH = 24, 3, 10  # batches of 10, 10 and 4 rows
DISTILL = {"beta 1": dict(beta=1.0, drop_mi=False), "beta 0": dict(beta=0.0, drop_mi=False),
           "drop_mi": dict(beta=1.7, drop_mi=True)}


def spy_on_steps(monkeypatch) -> list:
    """Per step of the real training loop: its loss, the gradient vector the
    tape wrote and the parameter vector `SGD.step` left."""
    steps = []
    gradient, step = GradTape.gradient, SGD.step

    def spied_gradient(self, target, sources, out=None):
        grads = gradient(self, target, sources, out=out)
        steps.append([target.data.copy(), np.concatenate([g.ravel() for g in grads])])
        return grads

    def spied_step(self, progress):
        step(self, progress)
        steps[-1].append(self.flat.copy())

    monkeypatch.setattr(GradTape, "gradient", spied_gradient)
    monkeypatch.setattr(SGD, "step", spied_step)
    return steps


def data():
    rng = np.random.default_rng(0)
    return rng.normal(size=(N, 2)), rng.integers(0, K, N), rng.dirichlet(np.ones(K), N)


def make_nets(cls, members):
    return [cls(2, K, hidden=(8, 8), rng=np.random.default_rng(20 + i)) for i in range(members)]


def assert_same_training(real, real_steps, reference, ref_steps, nets, ref_nets):
    assert json.dumps(real) == json.dumps(reference)
    assert len(real_steps) == len(ref_steps) == 6
    for got, want in zip(real_steps, ref_steps):
        assert [a.tobytes() for a in got] == [a.tobytes() for a in want]
    for net, ref_net in zip(nets, ref_nets, strict=True):
        for name, p in net.named_params().items():
            assert p.data.tobytes() == ref_net.named_params()[name].data.tobytes(), name
        for name, r in net.running_stats().items():
            assert r.tobytes() == ref_net.running_stats()[name].tobytes(), name


@pytest.mark.parametrize("members", [1, 2, 3])
def test_source_step_matches_the_reference(monkeypatch, members):
    x, y, _ = data()
    xs, ys = np.stack([x] * members), np.stack([y] * members)
    seeds = list(range(members))

    def batch_loss(stack, idx, rng):
        return ref.ls_cross_entropy(ref.forward(stack, take_rows(xs, idx)), take_rows(ys, idx), alpha=0.1), {}

    ref_nets = make_nets(SourceNet, members)
    reference, ref_steps = ref.train(ref_nets, [x] * members, batch_loss, 2, BATCH, seeds, "source")
    nets = make_nets(SourceNet, members)
    steps = spy_on_steps(monkeypatch)
    real = train_source_net(nets, [x] * members, [y] * members, seeds, epochs=2, batch_size=BATCH)
    assert_same_training(real, steps, reference, ref_steps, nets, ref_nets)


@pytest.mark.parametrize("members", [1, 2, 3])
@pytest.mark.parametrize("case", sorted(DISTILL))
def test_distill_step_matches_the_reference(monkeypatch, case, members):
    x, _, rows = data()
    seeds, kwargs = list(range(members)), DISTILL[case]
    ref_banks = [MemoryBank(rows) for _ in seeds]

    def batch_loss(stack, idx, rng):
        bank_rows = np.stack([bank.rows[i] for bank, i in zip(ref_banks, idx)])
        return ref.total_loss(bank_rows, stack, x[idx], rng, mixup_alpha=0.3, **kwargs)

    ref_nets = make_nets(TargetNet, members)
    reference, ref_steps = ref.train(ref_nets, [x] * members, batch_loss, 2, BATCH, seeds, "distill",
                                     epoch_end=lambda i, probs: ref_banks[i].ema_update(probs, 0.6))
    nets, banks = make_nets(TargetNet, members), [MemoryBank(rows) for _ in seeds]
    steps = spy_on_steps(monkeypatch)
    real = run_distillation(banks, nets, x, seeds, epochs=2, batch_size=BATCH, gamma=0.6, mixup_alpha=0.3, **kwargs)
    assert_same_training(real, steps, reference, ref_steps, nets, ref_nets)
    assert [bank.rows.tobytes() for bank in banks] == [bank.rows.tobytes() for bank in ref_banks]


@pytest.mark.parametrize("members", [1, 2, 3])
@pytest.mark.parametrize("freeze", [False, True])
def test_finetune_step_matches_the_reference(monkeypatch, freeze, members):
    x, _, _ = data()
    seeds = list(range(members))

    def batch_loss(stack, idx, rng):
        return ref.finetune_loss(stack, x[idx], update_stats=not freeze)

    ref_nets = make_nets(TargetNet, members)
    reference, ref_steps = ref.train(ref_nets, [x] * members, batch_loss, 2, BATCH, seeds, "finetune")
    nets = make_nets(TargetNet, members)
    steps = spy_on_steps(monkeypatch)
    real = run_finetune(nets, x, seeds, epochs=2, batch_size=BATCH, freeze_bn_stats=freeze)
    assert_same_training(real, steps, reference, ref_steps, nets, ref_nets)
