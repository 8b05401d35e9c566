"""Lockstep training against training alone.

`train_source_net`, `run_distillation` and `run_finetune` given a list
of nets train them as one stack. Every net must end exactly as it would
trained alone with its own arguments: the same parameters, running
statistics, bank rows and per-epoch history, bit for bit.
"""

import numpy as np
import pytest

from bbadapt.distill import AdaptConfig, MemoryBank, run_distillation
from bbadapt.errors import ContractError
from bbadapt.finetune import FinetuneConfig, run_finetune
from bbadapt.nets import SourceNet, TargetNet, clone_net, net_state, train_source_net


def assert_same_nets(nets, alone):
    for net, other in zip(nets, alone, strict=True):
        state, other_state = net_state(net), net_state(other)
        assert state == other_state
        for name, p in net.named_params().items():
            assert p.data.tobytes() == other.named_params()[name].data.tobytes(), name
        for name, r in net.running_stats().items():
            assert r.tobytes() == other.running_stats()[name].tobytes(), name


def target_nets(count, hidden=(8,)):
    return [TargetNet(2, 3, hidden=hidden, bottleneck_dim=4, rng=np.random.default_rng(20 + i)) for i in range(count)]


@pytest.mark.parametrize("n, batch_size", [(48, 16), (45, 16)])
def test_source_stack_matches_training_alone(n, batch_size):
    rng = np.random.default_rng(0)
    domains = [(rng.normal(size=(n, 2)) + shift, rng.integers(0, 3, n)) for shift in (0.0, 1.0, -2.0)]
    nets = [SourceNet(2, 3, hidden=(8, 8), rng=np.random.default_rng(i)) for i in range(3)]
    alone = [clone_net(net) for net in nets]
    seeds = [[7, 13, m] for m in range(3)]
    kwargs = dict(epochs=3, batch_size=batch_size, lr_backbone=1e-2)
    histories = train_source_net(nets, [x for x, _ in domains], [y for _, y in domains], seed=seeds, **kwargs)
    alone_histories = [train_source_net(net, x, y, seed=seed, **kwargs)
                       for net, (x, y), seed in zip(alone, domains, seeds)]
    assert histories == alone_histories
    assert_same_nets(nets, alone)


@pytest.mark.parametrize("beta, drop_mi", [(1.0, False), (0.0, True)])
@pytest.mark.parametrize("n", [40, 33])  # 33 rows leave a trailing batch of one, which is dropped
def test_distillation_stack_matches_distilling_alone(n, beta, drop_mi):
    rng = np.random.default_rng(1)
    x = rng.normal(size=(n, 2))
    rows = [rng.dirichlet(np.ones(3), n) for _ in range(2)]
    nets = target_nets(2)
    alone = [clone_net(net) for net in nets]
    configs = [AdaptConfig(beta=beta, drop_mi=drop_mi, epochs=3, batch_size=16, seed=[seed, 41]) for seed in (5, 6)]
    seen = []

    def eval_fn(probs):
        seen.append(probs.copy())
        return float(probs[:, 0].sum())

    banks = [MemoryBank(r) for r in rows]
    histories = run_distillation(configs, banks, nets, x, eval_fn=eval_fn)
    stacked_seen, seen[:] = seen[:], []
    alone_banks = [MemoryBank(r) for r in rows]
    alone_histories = [run_distillation(cfg, bank, net, x, eval_fn=eval_fn)
                       for cfg, bank, net in zip(configs, alone_banks, alone)]
    assert histories == alone_histories
    assert_same_nets(nets, alone)
    for bank, other in zip(banks, alone_banks):
        assert bank.rows.tobytes() == other.rows.tobytes() and bank.epoch == other.epoch == 3
    # the stack calls eval_fn net by net after each epoch; alone, epoch by epoch per net
    order = [probs.tobytes() for member in range(2) for probs in stacked_seen[member::2]]
    assert order == [probs.tobytes() for probs in seen]


@pytest.mark.parametrize("freeze_bn_stats", [False, True])
def test_finetune_stack_matches_finetuning_alone(freeze_bn_stats):
    rng = np.random.default_rng(2)
    x = rng.normal(size=(37, 2))
    nets = target_nets(3, hidden=(8, 8))
    for i, net in enumerate(nets):  # running statistics off their defaults, differently per net
        net.forward(x + i, mode="train")
    alone = [clone_net(net) for net in nets]
    configs = [FinetuneConfig(epochs=2, batch_size=8, seed=[seed, 43], freeze_bn_stats=freeze_bn_stats)
               for seed in (1, 2, 3)]
    histories = run_finetune(configs, nets, x, eval_fn=lambda probs: float(probs.max()))
    alone_histories = [run_finetune(cfg, net, x, eval_fn=lambda probs: float(probs.max()))
                       for cfg, net in zip(configs, alone)]
    assert histories == alone_histories
    assert_same_nets(nets, alone)


def test_stack_arguments_are_checked():
    x = np.random.default_rng(3).normal(size=(20, 2))
    nets = target_nets(2)
    with pytest.raises(ContractError, match="share every setting but the seed"):
        run_finetune([FinetuneConfig(epochs=1, seed=1), FinetuneConfig(epochs=2, seed=2)], nets, x)
    with pytest.raises(ContractError, match="one entry per net"):
        run_finetune([FinetuneConfig(epochs=1, seed=1)], nets, x)
    with pytest.raises(ContractError, match="one architecture"):
        run_finetune([FinetuneConfig(epochs=1, seed=s) for s in (1, 2)], [nets[0], *target_nets(1, hidden=(4,))], x)
    sources = [SourceNet(2, 3, hidden=(4,), rng=np.random.default_rng(i)) for i in range(2)]
    y = np.zeros(20, dtype=int)
    with pytest.raises(ContractError, match="domains of one size"):
        train_source_net(sources, [x, x[:10]], [y, y[:10]], epochs=1, seed=[0, 1])
