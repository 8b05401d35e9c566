import inspect
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bbadapt.distill import MemoryBank, run_distillation
from bbadapt.errors import ContractError, DimensionError
from bbadapt.finetune import run_finetune
from bbadapt import nets
from bbadapt.nets import (
    BatchNorm,
    Linear,
    SGD,
    SourceNet,
    TargetNet,
    WeightNormLinear,
    _batches_per_epoch,
    clone_net,
    load_checkpoint,
    lr_factor,
    ls_cross_entropy,
    make_sgd,
    minibatch_indices,
    net_from_state,
    net_state,
    save_checkpoint,
    stack_nets,
    train_epochs,
    train_source_net,
    write_atomically,
)
from bbadapt.scenarios import generate, preset
from bbadapt.tensor import GradTape, Tensor, softmax

from conftest import DROP, JSON, key_paths, make_blobs, replaced
from per_op import pow_const, reduce_sum


def test_linear_init_he_scale_zero_bias():
    rng = np.random.default_rng(0)
    layer = Linear(400, 50, rng)
    assert np.all(layer.bias.data == 0.0)
    observed = layer.weight.data.std()
    expected = math.sqrt(2.0 / 400)
    assert abs(observed - expected) / expected < 0.05
    assert layer.weight.requires_grad and layer.bias.requires_grad


def test_linear_deterministic_from_seed():
    a = Linear(4, 3, np.random.default_rng(7))
    b = Linear(4, 3, np.random.default_rng(7))
    assert np.array_equal(a.weight.data, b.weight.data)


def test_batchnorm_train_standardizes(rng):
    bn = BatchNorm(3)
    x = Tensor(rng.normal(5.0, 2.0, (200, 3)))
    out = bn(x, train=True, update_stats=True).data
    assert np.allclose(out.mean(axis=0), 0.0, atol=1e-10)
    assert np.allclose(out.std(axis=0), 1.0, atol=1e-3)


def test_batchnorm_running_stats_update_rule(rng):
    bn = BatchNorm(2)
    x = rng.normal(3.0, 1.5, (50, 2))
    mean0 = bn.running_mean.copy()
    var0 = bn.running_var.copy()
    bn(Tensor(x), train=True, update_stats=True)
    batch_mean = x.mean(axis=0)
    batch_var = x.var(axis=0, ddof=1)  # Bessel-corrected into the running stats
    assert np.allclose(bn.running_mean, 0.9 * mean0 + 0.1 * batch_mean, atol=1e-12)
    assert np.allclose(bn.running_var, 0.9 * var0 + 0.1 * batch_var, atol=1e-12)


def test_batchnorm_update_stats_switch(rng):
    bn = BatchNorm(2)
    x = Tensor(rng.normal(1.0, 1.0, (20, 2)))
    before = (bn.running_mean.copy(), bn.running_var.copy())
    bn(x, train=True, update_stats=False)
    assert np.array_equal(bn.running_mean, before[0])
    assert np.array_equal(bn.running_var, before[1])


def test_batchnorm_eval_uses_running_stats(rng):
    bn = BatchNorm(2)
    x = rng.normal(0.0, 1.0, (10, 2))
    bn.running_mean = np.array([1.0, -1.0])
    bn.running_var = np.array([4.0, 9.0])
    out = bn(Tensor(x), train=False, update_stats=False).data
    expected = (x - bn.running_mean) / np.sqrt(bn.running_var + 1e-5)
    assert np.allclose(out, expected, atol=1e-12)


def test_weightnorm_rows_have_scale_norm(rng):
    layer = WeightNormLinear(6, 4, np.random.default_rng(3))
    x = rng.normal(size=(5, 6))
    # perturb the direction away from unit norm; forward must renormalize
    layer.direction.data *= rng.uniform(0.5, 2.0, (4, 1))
    out_before = layer(Tensor(x)).data
    layer.renorm()
    assert np.allclose(np.linalg.norm(layer.direction.data, axis=1), 1.0, atol=1e-12)
    out_after = layer(Tensor(x)).data
    # renorm is a pure reparameterization
    assert np.allclose(out_before, out_after, atol=1e-12)


def test_weightnorm_gradient_flows_to_direction_and_scale(rng):
    layer = WeightNormLinear(3, 2, np.random.default_rng(1))
    x = rng.normal(size=(4, 3))
    with GradTape() as tape:
        loss = reduce_sum(pow_const(layer(Tensor(x)), 2.0))
    grads = tape.gradient(loss, [layer.direction, layer.scale, layer.bias])
    assert all(np.any(g != 0.0) for g in grads)


@pytest.mark.parametrize("cls", [SourceNet, TargetNet])
def test_net_forward_shapes_and_validation(cls, rng):
    net = cls(2, 3, hidden=(8, 8), rng=np.random.default_rng(0))
    x = rng.normal(size=(5, 2))
    out = net.forward(x, mode="eval")
    assert out.shape == (5, 3)
    with pytest.raises(DimensionError):
        net.forward(rng.normal(size=(5, 4)))
    with pytest.raises(ContractError):
        net.forward(x, mode="test")


def test_eval_forward_is_deterministic(rng):
    net = TargetNet(2, 3, hidden=(8,), bottleneck_dim=4, rng=np.random.default_rng(0))
    x = rng.normal(size=(7, 2))
    a = net.predict_proba(x)
    b = net.predict_proba(x)
    assert np.array_equal(a, b)
    assert np.allclose(a.sum(axis=1), 1.0, atol=1e-12)


def test_target_train_forward_uses_batch_stats(rng):
    net = TargetNet(2, 3, hidden=(8,), bottleneck_dim=4, rng=np.random.default_rng(0))
    x = rng.normal(3.0, 2.0, (16, 2))
    train_out = net.forward(x, mode="train", update_stats=False).data
    eval_out = net.forward(x, mode="eval").data
    assert not np.allclose(train_out, eval_out)


def test_target_train_forward_updates_running_stats_by_default(rng):
    net = TargetNet(2, 3, hidden=(8,), bottleneck_dim=4, rng=np.random.default_rng(0))
    x = rng.normal(3.0, 2.0, (16, 2))
    h = np.maximum(x @ net.trunk[0].weight.data + net.trunk[0].bias.data, 0.0)
    mean0, var0 = net.bn.running_mean.copy(), net.bn.running_var.copy()
    net.forward(x, mode="train")
    m = nets.BN_MOMENTUM
    assert np.allclose(net.bn.running_mean, (1.0 - m) * mean0 + m * h.mean(axis=0), atol=1e-12)
    assert np.allclose(net.bn.running_var, (1.0 - m) * var0 + m * h.var(axis=0, ddof=1), atol=1e-12)


def test_post_update_renorms_target_classifier(rng):
    net = TargetNet(2, 3, rng=np.random.default_rng(0))
    net.classifier.direction.data *= 3.0
    net.post_update()
    assert np.allclose(np.linalg.norm(net.classifier.direction.data, axis=1), 1.0, atol=1e-12)


def test_lr_factor_schedule():
    assert lr_factor(0.0) == 1.0
    assert abs(lr_factor(1.0) - 11.0 ** -0.75) < 1e-15
    ps = np.linspace(0.0, 1.0, 11)
    vals = [lr_factor(p) for p in ps]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_sgd_matches_manual_update(rng):
    w = Tensor(rng.normal(size=(3, 2)), requires_grad=True)
    b = Tensor(rng.normal(size=2), requires_grad=True)
    opt = SGD([([w], 0.01), ([b], 0.1)])

    ref_w, ref_b = w.data.copy(), b.data.copy()
    vel_w, vel_b = np.zeros_like(ref_w), np.zeros_like(ref_b)
    for step, progress in enumerate((0.0, 0.25)):
        gw = rng.normal(size=ref_w.shape)
        gb = rng.normal(size=ref_b.shape)
        opt.grads[0][...], opt.grads[1][...] = gw, gb
        opt.step(progress=progress)
        factor = (1.0 + 10.0 * progress) ** -0.75
        vel_w = 0.9 * vel_w + gw + 1e-3 * ref_w
        vel_b = 0.9 * vel_b + gb + 1e-3 * ref_b
        ref_w = ref_w - 0.01 * factor * vel_w
        ref_b = ref_b - 0.1 * factor * vel_b
    assert np.allclose(w.data, ref_w, atol=1e-15)
    assert np.allclose(b.data, ref_b, atol=1e-15)


def test_sgd_validates_gradients(rng):
    # the tape checks the gradients it writes into the optimizer's views: one per parameter, of its shape
    w = Tensor(rng.normal(size=(2, 2)), requires_grad=True)
    opt = SGD([([w], 0.01)])
    assert [g.shape for g in opt.grads] == [(2, 2)] and np.shares_memory(opt.grads[0], opt.grad)
    with GradTape() as tape:
        loss = reduce_sum(w * w)
    with pytest.raises(DimensionError):
        tape.gradient(loss, opt.params, out=[])
    with pytest.raises(DimensionError):
        tape.gradient(loss, opt.params, out=[np.zeros((3, 3))])


def test_sgd_parameters_stay_views_of_its_vector(rng):
    net = TargetNet(2, 3, hidden=(8,), bottleneck_dim=4, rng=np.random.default_rng(0))
    before = {name: p.data.copy() for name, p in net.named_params().items()}
    opt = make_sgd(net)

    def laid_out():  # every parameter is its own stretch of `flat`, in optimizer order
        shared = all(np.shares_memory(p.data, opt.flat) for p in opt.params)
        return shared and np.array_equal(opt.flat, np.concatenate([p.data.ravel() for p in opt.params]))

    assert laid_out()
    assert all(np.array_equal(p.data, before[name]) for name, p in net.named_params().items())
    x = rng.normal(size=(6, 2))
    with GradTape() as tape:
        loss = ls_cross_entropy(net.forward(x), rng.integers(0, 3, 6))
    tape.gradient(loss, opt.params, out=opt.grads)
    opt.step(progress=0.0)
    assert laid_out()
    assert not np.array_equal(net.trunk[0].weight.data, before["trunk.0.weight"])
    net.post_update()  # renormalizes the classifier's direction rows in place
    assert laid_out()
    assert np.allclose(np.linalg.norm(net.classifier.direction.data, axis=1), 1.0)


def test_make_sgd_group_rates():
    net = TargetNet(2, 3, rng=np.random.default_rng(0))
    opt = make_sgd(net, lr_backbone=1e-3)
    n_backbone = sum(p.size for p in net.backbone_params())
    assert opt.params == net.backbone_params() + net.new_params()
    assert opt._stretches == [(slice(0, n_backbone), 1e-3), (slice(n_backbone, opt.flat.size), 1e-2)]


@pytest.mark.parametrize("count", [1, 2])
@pytest.mark.parametrize("hidden", [(), (6,), (6, 4)])
@pytest.mark.parametrize("cls", [SourceNet, TargetNet])
def test_state_is_laid_out_by_the_one_table(cls, hidden, count):
    # names, order and shapes of every parameter and running statistic are the table's, with the
    # member axis leading on a stack; the optimizer takes the parameters in that order
    members = [cls(3, 4, hidden=hidden, rng=np.random.default_rng(i)) for i in range(count)]
    net = members[0] if count == 1 else stack_nets(members)
    param_shapes, running_shapes = nets._state_shapes(**net.arch())
    params, running = net.named_params(), net.running_stats()
    assert [(name, p.shape) for name, p in params.items()] == [(name, net.lead + shape)
                                                              for name, shape in param_shapes.items()]
    assert [(name, r.shape) for name, r in running.items()] == [(name, net.lead + shape)
                                                               for name, shape in running_shapes.items()]
    trunk = [name.startswith("trunk.") for name in params]
    assert trunk == sorted(trunk, reverse=True) and sum(trunk) == 2 * len(hidden)
    assert [id(p) for p in net.backbone_params() + net.new_params()] == [id(p) for p in params.values()]
    assert [id(p) for p in make_sgd(net).params] == [id(p) for p in params.values()]


def test_a_state_name_is_the_attribute_path_of_its_array():
    net = TargetNet(3, 4, hidden=(6, 5), bottleneck_dim=2, rng=np.random.default_rng(0))
    expected = {
        "trunk.0.weight": net.trunk[0].weight, "trunk.0.bias": net.trunk[0].bias,
        "trunk.1.weight": net.trunk[1].weight, "trunk.1.bias": net.trunk[1].bias,
        "bn.gamma": net.bn.gamma, "bn.beta": net.bn.beta,
        "bottleneck.weight": net.bottleneck.weight, "bottleneck.bias": net.bottleneck.bias,
        "classifier.direction": net.classifier.direction, "classifier.scale": net.classifier.scale,
        "classifier.bias": net.classifier.bias,
    }
    assert list(net.named_params()) == list(expected)
    assert all(p is expected[name] for name, p in net.named_params().items())
    running = net.running_stats()
    assert list(running) == ["bn.running_mean", "bn.running_var"]
    assert running["bn.running_mean"] is net.bn.running_mean and running["bn.running_var"] is net.bn.running_var
    source = SourceNet(3, 4, hidden=(), rng=np.random.default_rng(0))
    assert source.named_params() == {"head.weight": source.head.weight, "head.bias": source.head.bias}
    assert source.running_stats() == {}


def test_net_classes_surface_is_pinned():
    # a net's state is read from one table: no layer lists its own parameters, no net its head's
    def public(cls):
        return {name for name in dir(cls) if not name.startswith("_")}

    assert public(Linear) == public(BatchNorm) == set()
    assert public(WeightNormLinear) == {"renorm"}
    net_surface = {"arch", "backbone_params", "forward", "kind", "lead", "min_batch", "named_params", "new_params",
                   "post_update", "predict_proba", "running_stats"}
    assert public(SourceNet) == public(TargetNet) == net_surface
    assert all("predict_proba" in vars(cls) for cls in (SourceNet, TargetNet))  # each wrapped on its own


def test_ls_cross_entropy_matches_manual(rng):
    logits = rng.normal(size=(6, 4))
    labels = rng.integers(0, 4, 6)
    loss = ls_cross_entropy(Tensor(logits), labels, alpha=0.1).item()

    log_probs = logits - np.log(np.exp(logits - logits.max(axis=1, keepdims=True)).sum(axis=1, keepdims=True)) - logits.max(axis=1, keepdims=True)
    targets = np.full((6, 4), 0.1 / 4)
    targets[np.arange(6), labels] += 0.9
    manual = -(targets * log_probs).sum(axis=1).mean()
    assert abs(loss - manual) < 1e-12


def test_ls_cross_entropy_alpha_zero_is_plain_ce(rng):
    logits = rng.normal(size=(5, 3))
    labels = rng.integers(0, 3, 5)
    loss = ls_cross_entropy(Tensor(logits), labels, alpha=0.0).item()
    probs = softmax(Tensor(logits)).data
    manual = -np.log(probs[np.arange(5), labels]).mean()
    assert abs(loss - manual) < 1e-12


def test_minibatch_indices_cover_once():
    rng = np.random.default_rng(0)
    batches = list(minibatch_indices(103, 10, rng))
    sizes = [len(b) for b in batches]
    assert sizes == [10] * 10 + [3]
    assert sorted(np.concatenate(batches)) == list(range(103))


def test_minibatch_indices_drop_small_tail():
    rng = np.random.default_rng(0)
    batches = list(minibatch_indices(65, 64, rng, min_size=2))
    assert [len(b) for b in batches] == [64]
    batches = list(minibatch_indices(66, 64, rng, min_size=2))
    assert [len(b) for b in batches] == [64, 2]


def test_minibatch_indices_deterministic():
    a = list(minibatch_indices(20, 6, np.random.default_rng(5)))
    b = list(minibatch_indices(20, 6, np.random.default_rng(5)))
    assert all(np.array_equal(x, y) for x, y in zip(a, b))


def test_batches_per_epoch_accounting():
    assert _batches_per_epoch(128, 64, 2) == 2
    assert _batches_per_epoch(130, 64, 2) == 3  # trailing pair is kept
    assert _batches_per_epoch(129, 64, 2) == 2  # single leftover is dropped
    assert _batches_per_epoch(3, 64, 2) == 1
    assert _batches_per_epoch(129, 64, 1) == 3  # min batch 1 keeps every leftover
    assert _batches_per_epoch(0, 64, 1) == 0
    for n in range(0, 140, 7):
        for batch_size in (1, 2, 5, 64):
            for min_size in range(1, min(batch_size, 2) + 1):
                batches = minibatch_indices(n, batch_size, np.random.default_rng(0), min_size=min_size)
                assert len(list(batches)) == _batches_per_epoch(n, batch_size, min_size)


def _train(phase, n=40, **overrides):
    """One short run of the source, distillation or fine-tuning phase."""
    x, y = make_blobs(20, [(-2.0, 0.0), (2.0, 0.0)], 0.3, np.random.default_rng(0))
    x, y = x[:n], y[:n]
    kwargs = {"epochs": 1, "batch_size": 16, "lr_backbone": 1e-3, **overrides}
    if phase == "source":
        net = SourceNet(2, 2, hidden=(8,), rng=np.random.default_rng(1))
        return train_source_net([net], [x], [y], [0], **kwargs)[0]
    net = TargetNet(2, 2, hidden=(8,), bottleneck_dim=4, rng=np.random.default_rng(1))
    if phase == "distill":
        bank = MemoryBank(np.full((len(x), 2), 0.5))
        return run_distillation([bank], [net], x, [0], **kwargs)[0]
    return run_finetune([net], x, [0], **kwargs)[0]


PHASE_MIN_BATCH = {"source": SourceNet.min_batch, "distill": TargetNet.min_batch, "finetune": TargetNet.min_batch}


@pytest.mark.parametrize("phase", sorted(PHASE_MIN_BATCH))
def test_training_rejects_bad_input(phase):
    min_batch = PHASE_MIN_BATCH[phase]
    assert len(_train(phase, batch_size=min_batch)) == 1
    assert len(_train(phase, n=min_batch)) == 1
    bad = [
        ("batch_size must be", dict(batch_size=min_batch - 1)),
        ("epochs must be", dict(epochs=-1)),
        (f"got {min_batch - 1} samples", dict(n=min_batch - 1)),
        *(("learning rate must be", dict(lr_backbone=lr)) for lr in (0.0, -1e-3, float("nan"), float("inf"))),
    ]
    for message, overrides in bad:
        with pytest.raises(ContractError, match=f"^{phase}: {message}"):
            _train(phase, **overrides)


def test_train_source_net_rejects_non_finite_loss():
    (domain,), _ = generate(preset("moons-rot30"))
    net = SourceNet(2, 2, rng=np.random.default_rng(0))
    with pytest.raises(ContractError, match=r"source: loss is nan at epoch 2, step \d+ of 32"):
        with np.errstate(over="ignore", invalid="ignore"):
            train_source_net([net], [domain.features], [domain.labels], [0], epochs=2, lr_backbone=1e8)


def test_non_finite_loss_names_the_diverging_member():
    # one member of a stack of two diverges; the error names it, as it names a lone net given a name,
    # and a lone net without a name is not named
    (domain,), _ = generate(preset("moons-rot30"))
    names = ["seed 7, source 0", "seed 7, source 1"]
    for diverging in (0, 1):
        nets = [SourceNet(2, 2, rng=np.random.default_rng(i)) for i in range(2)]
        nets[diverging].trunk[0].bias.data[0] = np.inf
        message = rf"^source: loss is nan at epoch 1, step 1 of 32 \({names[diverging]}\)$"
        with pytest.raises(ContractError, match=message):
            train_source_net(nets, [domain.features] * 2, [domain.labels] * 2, [0, 1], epochs=2, names=names)
    net = SourceNet(2, 2, rng=np.random.default_rng(0))
    net.trunk[0].bias.data[0] = np.inf
    with pytest.raises(ContractError, match=r"^source: loss is nan at epoch 1, step 1 of 32$"):
        train_source_net([net], [domain.features], [domain.labels], [0], epochs=2)
    with pytest.raises(ContractError, match=r"^source: loss is nan at epoch 1, step 1 of 32 \(seed 7, source 0\)$"):
        train_source_net([net], [domain.features], [domain.labels], [0], epochs=2, names=names[:1])


@pytest.mark.parametrize("phase", ["distill", "finetune"])
def test_failed_check_names_the_diverging_member(phase):
    # a non-finite student fails a probability check inside the step, before
    # there is a loss; the error names the step and member as a loss error does,
    # also where distillation's one forward leads with a clean and a mixed batch
    x, _ = make_blobs(20, [(-2.0, 0.0), (2.0, 0.0)], 0.3, np.random.default_rng(0))
    for members, diverging in [(2, 0), (2, 1), (3, 0), (3, 1), (3, 2)]:
        seeds = list(range(3, 3 + members))
        names = [f"seed {seed}" for seed in seeds]
        nets = [TargetNet(2, 2, hidden=(8,), bottleneck_dim=4, rng=np.random.default_rng(i)) for i in range(members)]
        nets[diverging].trunk[0].bias.data[0] = np.inf
        message = (rf"^{phase}: student rows has negative or NaN entries \(min=nan\) "
                   rf"at epoch 1, step 1 of 6 \({names[diverging]}\)$")
        with pytest.raises(ContractError, match=message):
            if phase == "distill":
                banks = [MemoryBank(np.full((len(x), 2), 0.5)) for _ in nets]
                run_distillation(banks, nets, x, seeds, epochs=2, batch_size=16, names=names)
            else:
                run_finetune(nets, x, seeds, epochs=2, batch_size=16, names=names)


@pytest.mark.parametrize("phase", ["distill", "finetune"])
def test_a_diverged_epoch_end_names_the_member(phase):
    # one step per epoch leaves both members' parameters overflowing; the
    # loss of that step was finite, so the epoch-end forward meets the NaN
    x, _ = make_blobs(8, [(-2.0, 0.0), (2.0, 0.0)], 0.3, np.random.default_rng(0))
    nets = [TargetNet(2, 2, hidden=(8,), bottleneck_dim=4, rng=np.random.default_rng(i)) for i in range(2)]
    calls = []
    kwargs = dict(epochs=2, batch_size=16, lr_backbone=1e150)
    message = (rf"^{phase}: epoch-end predictions has negative or NaN entries \(min=nan\) "
               rf"at epoch 1, step 1 of 2 \(seed 3\)$")
    with pytest.raises(ContractError, match=message):
        if phase == "distill":
            banks = [MemoryBank(np.full((len(x), 2), 0.5)) for _ in nets]
            run_distillation(banks, nets, x, [3, 4], **kwargs, eval_fn=calls.append, names=["seed 3", "seed 4"])
        else:
            run_finetune(nets, x, [3, 4], **kwargs, eval_fn=calls.append, names=["seed 3", "seed 4"])
    assert calls == []
    if phase == "distill":
        assert [bank.epoch for bank in banks] == [0, 0]


def test_a_non_finite_running_statistic_names_the_member():
    # eval mode divides by the square root of an infinite variance, so the predictions pass their check,
    # but the net could not be saved and loaded again
    x, _ = make_blobs(8, [(-2.0, 0.0), (2.0, 0.0)], 0.3, np.random.default_rng(0))
    nets = [TargetNet(2, 2, hidden=(8,), bottleneck_dim=4, rng=np.random.default_rng(i)) for i in range(2)]
    nets[1].bn.running_var[0] = np.inf
    assert np.isfinite(nets[1].predict_proba(x)).all()
    message = r"^finetune: a parameter or running statistic is not finite at epoch 1, step 1 of 2 \(seed 4\)$"
    with pytest.raises(ContractError, match=message):
        run_finetune(nets, x, [3, 4], epochs=2, batch_size=16, freeze_bn_stats=True, names=["seed 3", "seed 4"])


def test_every_phase_returns_records():
    assert not inspect.isgeneratorfunction(train_epochs)
    terms = {"source": set(), "distill": {"kd", "mix", "mi"}, "finetune": {"mi", "cond_entropy"}}
    for phase, names in terms.items():
        history = _train(phase, epochs=2)
        assert [(record["phase"], record["epoch"]) for record in history] == [(phase, 1), (phase, 2)]
        for record in history:
            assert set(record) == {"phase", "epoch", "loss", *names}
            assert all(type(record[name]) is float for name in ("loss", *names))


def test_train_source_net_learns_blobs(rng):
    x, y = make_blobs(60, [(-2.0, 0.0), (2.0, 0.0)], 0.3, rng)
    net = SourceNet(2, 2, hidden=(16, 16), rng=np.random.default_rng(1))
    (history,) = train_source_net([net], [x], [y], [3], epochs=10, batch_size=32)
    assert len(history) == 10
    assert [record["epoch"] for record in history] == list(range(1, 11))
    assert history[-1]["loss"] < history[0]["loss"]
    pred = net.predict_proba(x).argmax(axis=1)
    assert (pred == y).mean() == 1.0


def test_checkpoint_round_trip_bit_exact(tmp_path, rng):
    net = TargetNet(2, 4, hidden=(8, 8), bottleneck_dim=5, rng=np.random.default_rng(2))
    # give the running stats non-default values
    net.forward(rng.normal(size=(32, 2)), mode="train")
    path = tmp_path / "net.json"
    save_checkpoint(net, str(path), seed=123)
    loaded = load_checkpoint(str(path))
    assert type(loaded) is TargetNet
    assert loaded.arch() == net.arch()
    for name, param in net.named_params().items():
        assert np.array_equal(loaded.named_params()[name].data, param.data), name
    for name, stat in net.running_stats().items():
        assert np.array_equal(loaded.running_stats()[name], stat), name
    x = rng.normal(size=(6, 2))
    assert np.array_equal(net.predict_proba(x), loaded.predict_proba(x))


def test_checkpoint_source_round_trip(tmp_path):
    net = SourceNet(3, 2, hidden=(4,), rng=np.random.default_rng(0))
    path = tmp_path / "src.json"
    save_checkpoint(net, str(path))
    loaded = load_checkpoint(str(path))
    assert type(loaded) is SourceNet
    x = np.random.default_rng(1).normal(size=(4, 3))
    assert np.array_equal(net.predict_proba(x), loaded.predict_proba(x))


def test_net_state_version_check():
    net = SourceNet(2, 2, rng=np.random.default_rng(0))
    state = net_state(net)
    state["format_version"] = 999
    with pytest.raises(ContractError):
        net_from_state(state)


def test_checkpoint_unknown_kind(tmp_path):
    net = SourceNet(2, 2, rng=np.random.default_rng(0))
    state = net_state(net)
    state["arch"]["kind"] = "mystery"
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(state))
    with pytest.raises(ContractError):
        load_checkpoint(str(path))


def _target_state():
    net = TargetNet(2, 3, hidden=(4,), bottleneck_dim=2, rng=np.random.default_rng(0))
    net.forward(np.random.default_rng(1).normal(size=(8, 2)), mode="train")
    return json.loads(json.dumps(net_state(net)))


def _edit(edit):
    state = _target_state()
    edit(state)
    return state


def _set(path, value):
    def edit(state):
        *parents, key = path
        for name in parents:
            state = state[name]
        state[key] = value
    return edit


def _drop(path):
    def edit(state):
        *parents, key = path
        for name in parents:
            state = state[name]
        del state[key]
    return edit


MALFORMED_CHECKPOINTS = {
    "list": lambda: [1, 2],
    "string": lambda: "checkpoint",
    "no version": lambda: _edit(_drop(["format_version"])),
    "version 2": lambda: _edit(_set(["format_version"], 2)),
    "arch list": lambda: _edit(_set(["arch"], [1])),
    "no arch": lambda: _edit(_drop(["arch"])),
    "unknown kind": lambda: _edit(_set(["arch", "kind"], "mystery")),
    "no in_dim": lambda: _edit(_drop(["arch", "in_dim"])),
    "string in_dim": lambda: _edit(_set(["arch", "in_dim"], "2")),
    "bool in_dim": lambda: _edit(_set(["arch", "in_dim"], True)),
    "zero classes": lambda: _edit(_set(["arch", "num_classes"], 0)),
    "float hidden": lambda: _edit(_set(["arch", "hidden"], [4.0])),
    "string hidden": lambda: _edit(_set(["arch", "hidden"], "4")),
    "no bottleneck_dim": lambda: _edit(_drop(["arch", "bottleneck_dim"])),
    "unknown arch key": lambda: _edit(_set(["arch", "dropout"], 1)),
    "arch disagrees with params": lambda: _edit(_set(["arch", "in_dim"], 3)),
    "params empty": lambda: _edit(_set(["params"], {})),
    "params list": lambda: _edit(_set(["params"], [])),
    "param missing": lambda: _edit(_drop(["params", "classifier.scale"])),
    "param unknown": lambda: _edit(_set(["params", "extra.weight"], [1.0])),
    "param wrong shape": lambda: _edit(_set(["params", "bn.gamma"], [1.0, 1.0])),
    "param ragged": lambda: _edit(_set(["params", "trunk.0.weight"], [[1.0, 2.0, 3.0, 4.0], [1.0]])),
    "param not numbers": lambda: _edit(_set(["params", "bn.beta"], [{}, {}, {}, {}])),
    "param strings": lambda: _edit(_set(["params", "bn.beta"], ["0.0"] * 4)),
    "param beyond 64 bits": lambda: _edit(_set(["params", "bn.beta"], [10**400, 0, 0, 0])),
    "param nan": lambda: _edit(_set(["params", "classifier.bias"], [0.0, float("nan"), 0.0])),
    "param inf": lambda: _edit(_set(["params", "trunk.0.bias"], [0.0, float("inf"), 0.0, 0.0])),
    "no running stats": lambda: _edit(_set(["running"], {})),
    "running missing": lambda: _edit(_drop(["running", "bn.running_var"])),
    "running wrong shape": lambda: _edit(_set(["running", "bn.running_mean"], [0.0])),
    "running nan": lambda: _edit(_set(["running", "bn.running_mean"], [0.0, 0.0, float("nan"), 0.0])),
    "running negative var": lambda: _edit(_set(["running", "bn.running_var"], [1.0, -1.0, 1.0, 1.0])),
    "source with running stats": lambda: {
        **net_state(SourceNet(2, 3, hidden=(4,), rng=np.random.default_rng(0))),
        "running": _target_state()["running"],
    },
}


@pytest.mark.parametrize("case", sorted(MALFORMED_CHECKPOINTS))
def test_malformed_checkpoint_is_a_contract_error(case, tmp_path):
    state = MALFORMED_CHECKPOINTS[case]()
    with pytest.raises(ContractError):
        net_from_state(state)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(state))
    with pytest.raises(ContractError):
        load_checkpoint(str(path))


def test_checkpoint_that_is_not_json_is_a_contract_error(tmp_path):
    for name, data in (("truncated.json", b'{"format_version": 1, "arch"'), ("binary.json", b"\xff\xfe\x00")):
        path = tmp_path / name
        path.write_bytes(data)
        with pytest.raises(ContractError, match="is not JSON"):
            load_checkpoint(str(path))


def test_valid_checkpoint_states_load():
    # the edits above start from a state that loads
    net = net_from_state(_target_state())
    assert type(net) is TargetNet and net.arch()["hidden"] == [4]
    empty = net_from_state(net_state(SourceNet(2, 3, hidden=(), rng=np.random.default_rng(0))))
    assert empty.trunk == []
    empty = net_from_state(net_state(TargetNet(2, 3, hidden=(), rng=np.random.default_rng(0))))
    assert empty.trunk == [] and empty.bn.running_mean.shape == (2,)


FUZZ_STATES = [_target_state(), net_state(SourceNet(2, 3, hidden=(3,), rng=np.random.default_rng(0))),
               net_state(TargetNet(2, 3, hidden=(), bottleneck_dim=2, rng=np.random.default_rng(0)))]
# odd sizes, non-finite and negative numbers, other shapes, and any JSON value
STATE_VALUES = JSON | st.sampled_from([0, -1, -1e-3, 1.5, True, 2**63, 10**400, float("nan"), float("inf"),
                                       float("-inf"), [], [1.0], [[1.0, 2.0]], [3000], "1.0"])


@st.composite
def mutated_states(draw):
    state = draw(st.sampled_from(FUZZ_STATES))
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(key_paths(state)[1:]))
        state = replaced(state, path, draw(st.just(DROP) | STATE_VALUES))
    return state


@given(mutated_states())
@settings(max_examples=300, deadline=None)
def test_net_from_state_fuzz(state):
    # a dropped key, a changed shape, a non-finite value, a negative variance or an odd arch
    # size is a ContractError, never another exception; what loads holds the state's numbers
    try:
        net = net_from_state(state)
    except ContractError:
        return
    assert net.arch() == state["arch"]
    for name, p in net.named_params().items():
        assert np.array_equal(p.data, state["params"][name])
    for name, r in net.running_stats().items():
        assert np.array_equal(r, state["running"][name]) and (name != "bn.running_var" or (r >= 0).all())


def test_oversized_arch_is_rejected_before_building(monkeypatch):
    # a small file whose arch claims wide layers must not get them allocated
    def refuse(*args, **kwargs):
        raise AssertionError("net built before its parameter shapes were checked")

    states = []
    for hidden in ([3000], [3000, 3000]):
        state = net_state(SourceNet(2, 3, hidden=(4,), rng=np.random.default_rng(0)))
        state["arch"]["hidden"] = hidden
        states.append(state)
    states.append(_edit(_set(["arch", "bottleneck_dim"], 3000)))
    monkeypatch.setattr(nets, "SourceNet", refuse)
    monkeypatch.setattr(nets, "TargetNet", refuse)
    for state in states:
        with pytest.raises(ContractError, match="param"):
            net_from_state(state)


def test_write_atomically_leaves_no_partial_file(tmp_path):
    path = tmp_path / "sub" / "out.txt"
    failing = "half of a file \ud800"  # a lone surrogate, which UTF-8 cannot encode

    with pytest.raises(UnicodeEncodeError):
        write_atomically(str(path), failing)
    assert not path.exists()
    assert list(path.parent.iterdir()) == []
    write_atomically(str(path), "old\n")
    with pytest.raises(UnicodeEncodeError):
        write_atomically(str(path), failing)
    assert path.read_text() == "old\n"  # the previous file is untouched
    assert [p.name for p in path.parent.iterdir()] == ["out.txt"]


def test_save_checkpoint_failure_leaves_no_file(tmp_path, monkeypatch):
    net = SourceNet(2, 2, hidden=(4,), rng=np.random.default_rng(0))
    path = tmp_path / "net.json"
    monkeypatch.setattr(json, "dumps", lambda *args, **kwargs: 1 / 0)
    with pytest.raises(ZeroDivisionError):
        save_checkpoint(net, str(path))
    assert list(tmp_path.iterdir()) == []


def test_clone_net_is_independent(rng):
    net = TargetNet(2, 3, hidden=(4,), rng=np.random.default_rng(0))
    twin = clone_net(net)
    x = rng.normal(size=(5, 2))
    assert np.array_equal(net.predict_proba(x), twin.predict_proba(x))
    net.bottleneck.weight.data += 1.0
    net.bn.running_mean += 5.0
    assert not np.array_equal(net.predict_proba(x), twin.predict_proba(x))
