"""Lockstep training against training alone.

`train_source_net`, `run_distillation` and `run_finetune` train a list
of nets as one stack. Every net must end exactly as it would trained
alone, as a one-member list with its own arguments: the same parameters,
running statistics, bank rows and per-epoch history, bit for bit.
"""

import inspect

import numpy as np
import pytest

import bbadapt.distill
import bbadapt.finetune
import bbadapt.nets
from bbadapt.distill import MemoryBank, run_distillation
from bbadapt.errors import ContractError
from bbadapt.finetune import run_finetune
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
    histories = train_source_net(nets, [x for x, _ in domains], [y for _, y in domains], seeds, **kwargs)
    alone_histories = [train_source_net([net], [x], [y], [seed], **kwargs)[0]
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
    kwargs = dict(beta=beta, drop_mi=drop_mi, epochs=3, batch_size=16)
    seeds = [[seed, 41] for seed in (5, 6)]
    seen = []

    def eval_fn(probs):
        seen.append(probs.copy())
        return float(probs[:, 0].sum())

    banks = [MemoryBank(r) for r in rows]
    histories = run_distillation(banks, nets, x, seeds, **kwargs, eval_fn=eval_fn)
    stacked_seen, seen[:] = seen[:], []
    alone_banks = [MemoryBank(r) for r in rows]
    alone_histories = [run_distillation([bank], [net], x, [seed], **kwargs, eval_fn=eval_fn)[0]
                       for bank, net, seed in zip(alone_banks, alone, seeds)]
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
    kwargs = dict(epochs=2, batch_size=8, freeze_bn_stats=freeze_bn_stats, eval_fn=lambda probs: float(probs.max()))
    seeds = [[seed, 43] for seed in (1, 2, 3)]
    histories = run_finetune(nets, x, seeds, **kwargs)
    alone_histories = [run_finetune([net], x, [seed], **kwargs)[0] for net, seed in zip(alone, seeds)]
    assert histories == alone_histories
    assert_same_nets(nets, alone)


def test_stack_arguments_are_checked():
    x = np.random.default_rng(3).normal(size=(20, 2))
    nets = target_nets(2)
    banks = [MemoryBank(np.full((20, 3), 1 / 3)) for _ in range(2)]
    mixed_up = [  # one argument per call with one entry too few or too many
        lambda: run_finetune(nets, x, [1], epochs=1),
        lambda: run_finetune(nets, x, [1, 2], epochs=1, names=["seed 1"]),
        lambda: run_finetune(nets[:1], x, [1, 2], epochs=1),
        lambda: run_finetune([], x, [], epochs=1),
        lambda: run_distillation(banks[:1], nets, x, [1, 2], epochs=1),
        lambda: run_distillation(banks, nets, x, [1, 2, 3], epochs=1),
        lambda: run_distillation(banks, nets, x, [1, 2], epochs=1, names=["a", "b", "c"]),
    ]
    for call in mixed_up:
        with pytest.raises(ContractError, match="one entry per net"):
            call()
    with pytest.raises(ContractError, match="one architecture"):
        run_finetune([nets[0], *target_nets(1, hidden=(4,))], x, [1, 2], epochs=1)
    sources = [SourceNet(2, 3, hidden=(4,), rng=np.random.default_rng(i)) for i in range(2)]
    y = np.zeros(20, dtype=int)
    with pytest.raises(ContractError, match="one entry per net"):
        train_source_net(sources, [x, x], [y], [0, 1], epochs=1)
    with pytest.raises(ContractError, match="domains of one size"):
        train_source_net(sources, [x, x[:10]], [y, y[:10]], [0, 1], epochs=1)


def test_training_surface_is_pinned():
    # one call form per phase: a list of nets with one seed each, then keyword-only hyper-parameters
    nets, distill, finetune = bbadapt.nets, bbadapt.distill, bbadapt.finetune
    imported = {
        nets: {"annotations", "functools", "json", "math", "np", "os", "ContractError", "DimensionError", "LOG_EPS",
               "GradTape", "Tensor", "affine", "as_tensor", "check_probabilities", "record_op", "softmax"},
        distill: {"annotations", "math", "np", "ContractError", "DimensionError", "soft_cross_entropy",
                  "take_rows", "train_epochs", "LOG_EPS", "Tensor", "as_tensor", "check_probabilities", "record_op",
                  "softmax"},
        finetune: {"annotations", "np", "train_epochs", "record_op"},
    }
    public = {module: {name for name in vars(module) if not name.startswith("_")} - imported[module]
              for module in imported}
    assert public[nets] == {
        "BN_EPS", "BN_MOMENTUM", "CHECKPOINT_VERSION", "MOMENTUM", "M_MMAP_THRESHOLD", "M_TRIM_THRESHOLD",
        "WEIGHT_DECAY", "BatchNorm", "Linear", "RngStack", "SGD", "SourceNet", "TargetNet", "WeightNormLinear",
        "check_training_args", "clone_net", "load_checkpoint", "lr_factor", "ls_cross_entropy", "make_sgd",
        "minibatch_indices", "net_from_state", "net_state", "read_json", "save_checkpoint", "soft_cross_entropy",
        "stack_nets", "take_rows", "train_epochs", "train_source_net", "write_atomically",
    }
    assert public[distill] == {"MemoryBank", "check_distill_args", "distill_loss", "mi_loss", "mixup_loss",
                               "run_distillation", "total_loss"}
    assert public[finetune] == {"run_finetune"}
    signatures = {}
    for fn in (train_source_net, run_distillation, run_finetune, distill.total_loss, distill.check_distill_args):
        params = inspect.signature(fn).parameters.values()
        signatures[fn] = [(p.name, p.kind == p.KEYWORD_ONLY, p.default) for p in params]
    positional = {  # the rest are keyword-only, with the paper's defaults
        train_source_net: ["nets", "features", "labels", "seeds"],
        run_distillation: ["banks", "nets", "features", "seeds"],
        run_finetune: ["nets", "features", "seeds"],
        distill.total_loss: ["bank_rows", "net", "batch", "rng"],
        distill.check_distill_args: ["beta", "gamma", "mixup_alpha"],
    }
    empty = inspect.Parameter.empty
    common = [("epochs", True, 30), ("batch_size", True, 64), ("lr_backbone", True, 1e-3)]
    keywords = {
        train_source_net: [*common, ("ls_alpha", True, 0.1), ("names", True, None)],
        run_distillation: [*common, ("beta", True, 1.0), ("gamma", True, 0.6), ("mixup_alpha", True, 0.3),
                           ("drop_mi", True, False), ("eval_fn", True, None), ("names", True, None)],
        run_finetune: [*common, ("freeze_bn_stats", True, False), ("eval_fn", True, None), ("names", True, None)],
        # C01 calls total_loss without drop_mi, so that default stays
        distill.total_loss: [("beta", True, empty), ("mixup_alpha", True, empty), ("drop_mi", True, False)],
        distill.check_distill_args: [],
    }
    assert signatures == {fn: [(name, False, empty) for name in positional[fn]] + keywords[fn] for fn in positional}
