"""Fused layer and loss ops against the per-op expressions they replace.

Each fused op is one tape record. Its forward must equal, bit for bit,
the same expression built from the per-op primitives in `per_op`; its
hand-written VJP must agree with the per-op tape within 1e-10 and with
central differences (`grad_check`) within 1e-6.
"""

import numpy as np
import pytest

from bbadapt import nets
from bbadapt.distill import AdaptConfig, MemoryBank, distill_loss, mi_loss, run_distillation
from bbadapt.errors import DimensionError
from bbadapt.finetune import FinetuneConfig, run_finetune
from bbadapt.nets import BatchNorm, SourceNet, TargetNet, WeightNormLinear, soft_cross_entropy, train_source_net
from bbadapt.tensor import GradTape, Tensor, affine, grad_check, kl_div, softmax, stop_recording

from per_op import (
    div,
    exp,
    log_clamped,
    matmul,
    pow_const,
    reduce_mean,
    reduce_sum,
    relu,
    reshape,
    sqrt,
    transpose,
)

# per-op references: the expressions the fused ops replaced ---------------


def ref_affine(x, weight, bias, use_relu):
    out = matmul(x, weight) + bias
    return relu(out) if use_relu else out


def ref_softmax(t):
    shift = Tensor(t.data.max(axis=-1, keepdims=True))
    e = exp(t - shift)
    return div(e, reduce_sum(e, axis=-1, keepdims=True))


def ref_batchnorm(bn, x, train):
    if train:
        mu = reduce_mean(x, axis=0)
        centered = x - mu
        var = reduce_mean(centered * centered, axis=0)
        out = div(centered, sqrt(var + nets.BN_EPS))
    else:
        inv = 1.0 / np.sqrt(bn.running_var + nets.BN_EPS)
        out = (x - Tensor(bn.running_mean)) * Tensor(inv)
    return out * bn.gamma + bn.beta


def ref_weightnorm(layer, x):
    norm = sqrt(reduce_sum(layer.direction * layer.direction, axis=1, keepdims=True))
    unit = div(layer.direction, norm)
    weight = reshape(layer.scale, (layer.out_dim, 1)) * unit
    return matmul(x, transpose(weight)) + layer.bias


def ref_soft_cross_entropy(targets, probs):
    return -reduce_mean(reduce_sum(Tensor(targets) * log_clamped(probs), axis=-1))


def ref_distill_loss(rows, probs):
    t = Tensor(rows)
    return reduce_mean(reduce_sum(t * (log_clamped(t) - log_clamped(probs)), axis=-1))


def ref_mi_loss(p):
    mean_p = reduce_mean(p, axis=0)
    marginal = -reduce_sum(mean_p * log_clamped(mean_p))
    conditional = -reduce_mean(reduce_sum(p * log_clamped(p), axis=-1))
    return marginal - conditional


def ref_kl_div(p, q):
    return reduce_sum(p * (log_clamped(p) - log_clamped(q)))


# helpers -------------------------------------------------------------------


def taped(fn, params):
    """Value, gradients and record count of `fn()` on a fresh tape."""
    with GradTape() as tape:
        out = fn()
    weights = Tensor(np.random.default_rng(99).normal(size=out.shape))
    with tape:  # a random cotangent for non-scalar outputs, recorded last
        target = out if out.size == 1 else reduce_sum(out * weights)
    return out.data, tape.gradient(target, params), len(tape)


def assert_matches_reference(fused, reference, params, records=1):
    value, grads, count = taped(fused, params)
    ref_value, ref_grads, _ = taped(reference, params)
    assert value.shape == ref_value.shape
    assert np.all(value == ref_value), "forward must be bitwise equal"
    for g, ref in zip(grads, ref_grads):
        assert np.max(np.abs(g - ref), initial=0.0) < 1e-10
    # the fused op itself is one record (a non-scalar output adds the two
    # that reduce it to a scalar)
    shape = value.shape
    assert count == records + (0 if np.prod(shape) == 1 else 2)


def clamped_probs(rng, n, k):
    """Probability rows, some entries inside the 1e-8 log clamp."""
    logits = rng.normal(0.0, 2.0, (n, k))
    logits[0, 0] = -40.0
    logits[1:, -1] = -45.0  # the last class is clamped in every row but the first
    logits[0, -1] = -42.0
    return softmax(Tensor(logits)).data, logits


def grad_check_all(f, params):
    return max(grad_check(lambda _: f(), p) for p in params)


SEEDS = range(3)

# affine ------------------------------------------------------------------------


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("use_relu", [False, True])
def test_affine_matches_per_op(seed, use_relu):
    rng = np.random.default_rng(seed)
    x = Tensor(rng.normal(size=(7, 4)), requires_grad=True)
    w = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
    b = Tensor(rng.normal(size=3), requires_grad=True)
    params = [x, w, b]
    assert_matches_reference(lambda: affine(x, w, b, relu=use_relu), lambda: ref_affine(x, w, b, use_relu), params)
    assert grad_check_all(lambda: reduce_sum(pow_const(affine(x, w, b, relu=use_relu), 2.0)), params) < 1e-6


def test_affine_skips_input_gradient_of_constants():
    rng = np.random.default_rng(0)
    w = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
    b = Tensor(np.zeros(3), requires_grad=True)
    x = Tensor(rng.normal(size=(5, 4)))
    with GradTape() as tape:
        loss = reduce_sum(affine(x, w, b, relu=True))
    gw, gb = tape.gradient(loss, [w, b])
    assert gw.shape == (4, 3) and gb.shape == (3,)
    with pytest.raises(DimensionError):
        affine(Tensor(np.ones((2, 5))), w, b)


# softmax -----------------------------------------------------------------------


@pytest.mark.parametrize("seed", SEEDS)
def test_softmax_matches_per_op(seed):
    rng = np.random.default_rng(seed)
    logits = Tensor(rng.normal(0.0, 5.0, (6, 4)), requires_grad=True)
    assert_matches_reference(lambda: softmax(logits), lambda: ref_softmax(logits), [logits])
    weights = Tensor(rng.normal(size=(6, 4)))
    assert grad_check_all(lambda: reduce_sum(softmax(logits) * weights), [logits]) < 1e-6


# batch norm --------------------------------------------------------------------


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("train", [True, False])
def test_batchnorm_matches_per_op(seed, train):
    rng = np.random.default_rng(seed)
    bn = BatchNorm(3)
    bn.gamma.data = rng.uniform(0.5, 2.0, 3)
    bn.beta.data = rng.normal(size=3)
    bn.running_mean = rng.normal(size=3)
    bn.running_var = rng.uniform(0.5, 3.0, 3)
    x = Tensor(rng.normal(1.0, 2.0, (8, 3)), requires_grad=True)
    params = [x, bn.gamma, bn.beta]
    assert_matches_reference(lambda: bn(x, train=train, update_stats=False), lambda: ref_batchnorm(bn, x, train), params)
    weights = Tensor(rng.normal(size=(8, 3)))
    assert grad_check_all(lambda: reduce_sum(bn(x, train=train, update_stats=False) * weights), params) < 1e-6


def test_batchnorm_running_stats_match_per_op():
    rng = np.random.default_rng(4)
    x = rng.normal(2.0, 3.0, (9, 3))
    bn = BatchNorm(3)
    bn(Tensor(x), train=True, update_stats=True)
    mu = reduce_mean(Tensor(x), axis=0)
    centered = Tensor(x) - mu
    var = reduce_mean(centered * centered, axis=0)
    assert np.all(bn.running_mean == 0.9 * np.zeros(3) + 0.1 * mu.data)
    assert np.all(bn.running_var == 0.9 * np.ones(3) + 0.1 * var.data * (9 / 8))


# weight norm -------------------------------------------------------------------


@pytest.mark.parametrize("seed", SEEDS)
def test_weightnorm_matches_per_op(seed):
    rng = np.random.default_rng(seed)
    layer = WeightNormLinear(5, 3, rng)
    layer.direction.data *= rng.uniform(0.3, 3.0, (3, 1))  # rows away from unit norm
    layer.bias.data = rng.normal(size=3)
    x = Tensor(rng.normal(size=(6, 5)), requires_grad=True)
    params = [x, layer.direction, layer.scale, layer.bias]
    assert_matches_reference(lambda: layer(x), lambda: ref_weightnorm(layer, x), params)
    weights = Tensor(rng.normal(size=(6, 3)))
    assert grad_check_all(lambda: reduce_sum(layer(x) * weights), params) < 1e-6


# loss ops ------------------------------------------------------------------------


@pytest.mark.parametrize("seed", SEEDS)
def test_soft_cross_entropy_matches_per_op(seed):
    rng = np.random.default_rng(seed)
    probs, logits = clamped_probs(rng, 6, 4)
    targets = rng.dirichlet(np.ones(4), 6)
    p = Tensor(probs, requires_grad=True)
    assert_matches_reference(lambda: soft_cross_entropy(targets, p), lambda: ref_soft_cross_entropy(targets, p), [p])
    z = Tensor(logits, requires_grad=True)
    assert grad_check_all(lambda: soft_cross_entropy(targets, softmax(z)), [z]) < 1e-6


@pytest.mark.parametrize("seed", SEEDS)
def test_distill_loss_matches_per_op(seed):
    rng = np.random.default_rng(seed)
    probs, logits = clamped_probs(rng, 6, 4)
    rows, _ = clamped_probs(np.random.default_rng(seed + 10), 6, 4)
    p = Tensor(probs, requires_grad=True)
    assert_matches_reference(lambda: distill_loss(rows, p), lambda: ref_distill_loss(rows, p), [p])
    z = Tensor(logits, requires_grad=True)
    assert grad_check_all(lambda: distill_loss(rows, softmax(z)), [z]) < 1e-6


@pytest.mark.parametrize("seed", SEEDS)
def test_mi_loss_matches_per_op(seed):
    rng = np.random.default_rng(seed)
    probs, logits = clamped_probs(rng, 6, 4)
    assert probs[:, -1].mean() < 1e-8  # the marginal is clamped too
    p = Tensor(probs, requires_grad=True)
    assert_matches_reference(lambda: mi_loss(p), lambda: ref_mi_loss(p), [p])
    z = Tensor(logits, requires_grad=True)
    assert grad_check_all(lambda: mi_loss(softmax(z)), [z]) < 1e-6


@pytest.mark.parametrize("seed", SEEDS)
def test_kl_div_matches_per_op(seed):
    rng = np.random.default_rng(seed)
    probs, logits = clamped_probs(rng, 2, 5)
    # both rows have entries inside the clamp; q's first one is where p is not
    assert probs[1, -1] < 1e-8 and probs[0, 0] < 1e-8 < probs[1, 0]
    p = Tensor(probs[1], requires_grad=True)
    q = Tensor(probs[0], requires_grad=True)
    assert_matches_reference(lambda: kl_div(p, q), lambda: ref_kl_div(p, q), [p, q])
    zp = Tensor(logits[1], requires_grad=True)
    zq = Tensor(logits[0], requires_grad=True)
    assert grad_check_all(lambda: kl_div(softmax(zp), softmax(zq)), [zp, zq]) < 1e-6


# whole nets --------------------------------------------------------------------


def ref_forward(net, x, train):
    h = Tensor(x)
    for layer in net.trunk:
        h = ref_affine(h, layer.weight, layer.bias, True)
    if isinstance(net, SourceNet):
        return ref_affine(h, net.head.weight, net.head.bias, False)
    h = ref_batchnorm(net.bn, h, train)
    h = ref_affine(h, net.bottleneck.weight, net.bottleneck.bias, False)
    return ref_weightnorm(net.classifier, h)


@pytest.mark.parametrize("cls", [SourceNet, TargetNet])
def test_net_forwards_match_per_op(cls):
    rng = np.random.default_rng(5)
    net = cls(2, 4, hidden=(8, 8), rng=np.random.default_rng(6))
    x = rng.normal(size=(10, 2))
    net.forward(x, mode="train")  # moves the target's running stats off their defaults
    with stop_recording():
        ref_probs = ref_softmax(ref_forward(net, x, train=False)).data
    assert net.predict_proba(x).tobytes() == ref_probs.tobytes()
    params = net.backbone_params() + net.new_params()
    assert_matches_reference(
        lambda: net.forward(x, mode="train", update_stats=False),
        lambda: ref_forward(net, x, train=True),
        params,
        records=len(net.trunk) + (1 if cls is SourceNet else 3),
    )


def test_eval_forward_records_nothing():
    net = TargetNet(2, 3, hidden=(4,), rng=np.random.default_rng(0))
    with GradTape() as tape:
        net.predict_proba(np.zeros((3, 2)))
    assert len(tape) == 0


# records per training step ---------------------------------------------------


def test_records_per_step_are_pinned(monkeypatch):
    counts = []
    gradient = GradTape.gradient

    def counting(self, target, sources):
        counts.append(len(self))
        return gradient(self, target, sources)

    monkeypatch.setattr(GradTape, "gradient", counting)
    rng = np.random.default_rng(0)
    x = rng.normal(size=(16, 2))
    train_source_net(SourceNet(2, 3, rng=np.random.default_rng(1)), x, rng.integers(0, 3, 16), epochs=1, batch_size=8)
    # 2 trunk layers + head, softmax, cross entropy
    assert counts == [5, 5]
    counts.clear()
    net = TargetNet(2, 3, rng=np.random.default_rng(2))
    bank = MemoryBank(rng.dirichlet(np.ones(3), 16))
    run_distillation(AdaptConfig(epochs=1, batch_size=8), bank, net, x)
    # (5 layers + softmax) per forward, twice; KL, mixup CE, MI; 3 to combine
    assert counts == [18, 18]
    counts.clear()
    run_finetune(FinetuneConfig(epochs=1, batch_size=8), net, x)
    # 5 layers, softmax, MI, negation
    assert counts == [8, 8]
