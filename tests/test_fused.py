"""Fused layer and loss ops against the per-op expressions they replace.

Each fused op is one tape record. Its forward must equal, bit for bit,
the same expression built from the per-op primitives in `per_op`; its
hand-written VJP must agree with the per-op tape within 1e-10 and with
central differences (`grad_check`) within 1e-6.

Every op on the training path also runs on a stack of members (one
leading member axis on each argument). There each member's slice of the
value and of the VJP must equal, bit for bit, the op on that member alone.

A training step records the net's forward and then the phase's objective
over the logits, each composed of the raw forms of the ops above. Each
objective must equal, bit for bit, the tape of its terms' own records.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bbadapt import distill, finetune, nets
from bbadapt.distill import MemoryBank, distill_loss, mi_loss, mixup_loss, run_distillation, total_loss
from bbadapt.errors import DimensionError
from bbadapt.finetune import run_finetune
from bbadapt.nets import (
    BatchNorm,
    RngStack,
    SourceNet,
    TargetNet,
    WeightNormLinear,
    ls_cross_entropy,
    soft_cross_entropy,
    stack_nets,
    train_source_net,
)
from bbadapt.tensor import LOG_EPS, GradTape, Tensor, affine, grad_check, softmax

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
    ref_probs = ref_softmax(ref_forward(net, x, train=False)).data
    assert net.predict_proba(x).tobytes() == ref_probs.tobytes()
    params = net.backbone_params() + net.new_params()
    # the train forward is one record, whatever the depth
    assert_matches_reference(
        lambda: net.forward(x, mode="train", update_stats=False), lambda: ref_forward(net, x, train=True), params
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

    def counting(self, target, sources, out=None):
        counts.append(len(self))
        return gradient(self, target, sources, out=out)

    monkeypatch.setattr(GradTape, "gradient", counting)
    rng = np.random.default_rng(0)
    x = rng.normal(size=(16, 2))
    y = rng.integers(0, 3, 16)
    rows = rng.dirichlet(np.ones(3), 16)
    for members in (1, 2):  # a stack's step records what a single net's does
        seeds = list(range(members))
        counts.clear()
        sources = [SourceNet(2, 3, rng=np.random.default_rng(1 + i)) for i in seeds]
        train_source_net(sources, [x] * members, [y] * members, seeds, epochs=1, batch_size=8)
        # the net's forward (2 trunk layers + head); softmax and cross entropy
        assert counts == [2, 2]
        counts.clear()
        targets = [TargetNet(2, 3, rng=np.random.default_rng(2 + i)) for i in seeds]
        banks = [MemoryBank(rows) for _ in seeds]
        run_distillation(banks, targets, x, seeds, epochs=1, batch_size=8)
        # the net's forward (5 layers) over the clean and mixed batches at once;
        # softmax, KL, mixup CE, MI and kd + beta * mix - mi
        assert counts == [2, 2]
        counts.clear()
        run_finetune(targets, x, seeds, epochs=1, batch_size=8)
        # the net's forward (5 layers); softmax, MI and its negation
        assert counts == [2, 2]


# composed objectives: the tape of their terms, bit for bit ----------------------------


def gradient_at(build, inputs, cotangent):
    """`build()`'s loss and terms, its record count, and the gradients of
    sum(loss * cotangent) with respect to `inputs`."""
    with GradTape() as tape:
        loss, terms = build()
        count = len(tape)
        target = loss * Tensor(cotangent)
    return loss.data, terms, count, tape.gradient(target, inputs)


def assert_same_bits(got: dict, want: dict):
    assert {key: np.asarray(value).tobytes() for key, value in got.items()} == {
        key: np.asarray(value).tobytes() for key, value in want.items()}


OBJECTIVE_CASES = dict(members=st.integers(1, 3), n=st.integers(2, 9), scale=st.floats(0.5, 15.0),
                       seed=st.integers(0, 2**32 - 1))


@given(beta=st.just(0.0) | st.floats(0.0, 3.0), drop_mi=st.booleans(), **OBJECTIVE_CASES)
@settings(max_examples=60, deadline=None)
def test_distill_objective_is_its_terms_tape(beta, drop_mi, members, n, scale, seed):
    # as total_loss: without the mixup term the logits are the clean batch's, with it the
    # clean and the mixed batch's along a leading axis
    rng = np.random.default_rng(seed)
    mixing = beta != 0.0
    logits = rng.normal(0.0, scale, (2, members, n, 4) if mixing else (members, n, 4))
    rows = rng.dirichlet(np.ones(4), (members, n))
    mix = distill._mixer(np.zeros((members, n, 1)), RngStack(range(members)), 0.3) if mixing else None
    cotangent = rng.normal(size=members)
    z = Tensor(logits, requires_grad=True)
    loss, terms, count, (grad,) = gradient_at(lambda: distill._objective(rows, z, mix, beta, drop_mi), [z], cotangent)
    assert count == 1
    batches = [Tensor(a, requires_grad=True) for a in (logits if mixing else [logits])]

    def per_term():
        probs = softmax(batches[0])
        zero = Tensor(np.zeros(members))
        l_kd = distill_loss(rows, probs)
        l_mix = soft_cross_entropy(mix(probs.data), softmax(batches[1])) if mixing else zero
        l_im = zero if drop_mi else mi_loss(probs)
        return l_kd + Tensor(beta) * l_mix - l_im, {"kd": l_kd.data, "mix": l_mix.data, "mi": l_im.data}

    ref_loss, ref_terms, _, ref_grads = gradient_at(per_term, batches, cotangent)
    assert loss.tobytes() == ref_loss.tobytes()
    assert_same_bits(terms, ref_terms)
    assert grad.tobytes() == np.stack(ref_grads).reshape(logits.shape).tobytes()


@given(**OBJECTIVE_CASES)
@settings(max_examples=40, deadline=None)
def test_finetune_objective_is_its_terms_tape(members, n, scale, seed):
    rng = np.random.default_rng(seed)
    logits = rng.normal(0.0, scale, (members, n, 4))
    cotangent = rng.normal(size=members)
    z, ref_z = Tensor(logits, requires_grad=True), Tensor(logits, requires_grad=True)
    loss, terms, count, (grad,) = gradient_at(lambda: finetune._objective(z), [z], cotangent)
    assert count == 1

    def per_term():
        probs = softmax(ref_z)
        mi, p = mi_loss(probs), probs.data
        return -mi, {"mi": mi.data, "cond_entropy": -(p * np.log(np.maximum(p, LOG_EPS))).sum(axis=-1).mean(axis=-1)}

    ref_loss, ref_terms, _, (ref_grad,) = gradient_at(per_term, [ref_z], cotangent)
    assert loss.tobytes() == ref_loss.tobytes()
    assert_same_bits(terms, ref_terms)
    assert grad.tobytes() == ref_grad.tobytes()


@given(**OBJECTIVE_CASES)
@settings(max_examples=40, deadline=None)
def test_source_objective_is_its_terms_tape(members, n, scale, seed):
    rng = np.random.default_rng(seed)
    logits = rng.normal(0.0, scale, (members, n, 4))
    labels = rng.integers(0, 4, (members, n))
    cotangent = rng.normal(size=members)
    z, ref_z = Tensor(logits, requires_grad=True), Tensor(logits, requires_grad=True)
    loss, _, count, (grad,) = gradient_at(lambda: (ls_cross_entropy(z, labels, alpha=0.1), {}), [z], cotangent)
    assert count == 1
    targets = np.where(labels[..., None] == np.arange(4), 0.025 + 0.9, 0.025)
    ref_loss, _, _, (ref_grad,) = gradient_at(lambda: (soft_cross_entropy(targets, softmax(ref_z)), {}), [ref_z],
                                              cotangent)
    assert loss.tobytes() == ref_loss.tobytes()
    assert grad.tobytes() == ref_grad.tobytes()


# stacks: each member's slice is the member alone ------------------------------------


def value_and_vjp(fn, inputs, cotangent):
    """fn()'s value and the gradients of sum(fn() * cotangent) with respect
    to `inputs`: the op's VJP at that cotangent."""
    with GradTape() as tape:
        out = fn()
        target = reduce_sum(out * Tensor(cotangent))
    return out.data, tape.gradient(target, inputs)


def assert_stack_matches_members(build, members, seed=0):
    """`build(arrays) -> (fn, inputs, state)` makes an op on Tensors built
    from `arrays`, the Tensors whose gradients count, and a function
    returning arrays the op may change. Built from the members' arrays
    stacked along a new leading axis, the op's value, VJP and state must
    equal, slice by slice and bit for bit, those built from each member's
    arrays alone."""
    stacked = [np.stack(column) for column in zip(*members)]
    shape = build(stacked)[0]().shape
    assert shape[0] == len(members)
    cotangent = np.random.default_rng(seed).normal(size=shape)
    fn, inputs, state = build(stacked)
    value, grads = value_and_vjp(fn, inputs, cotangent)
    for i, arrays in enumerate(members):
        fn, inputs, member_state = build(list(arrays))
        member_value, member_grads = value_and_vjp(fn, inputs, cotangent[i])
        assert value[i].tobytes() == member_value.tobytes()
        assert len(grads) == len(member_grads)
        for g, member_g in zip(grads, member_grads):
            assert g[i].tobytes() == member_g.tobytes()
        for a, member_a in zip(state(), member_state()):
            assert a[i].tobytes() == member_a.tobytes()


def grad_tensors(*arrays):
    return [Tensor(a, requires_grad=True) for a in arrays]


def no_state():
    return []


def build_affine(relu):
    def build(arrays):
        x, w, b = grad_tensors(*arrays)
        return lambda: affine(x, w, b, relu=relu), [x, w, b], no_state
    return build


def build_softmax(arrays):
    (z,) = grad_tensors(*arrays)
    return lambda: softmax(z), [z], no_state


def build_batchnorm(train, update_stats):
    def build(arrays):
        x, gamma, beta = grad_tensors(*arrays[:3])
        bn = BatchNorm(3)
        bn.gamma, bn.beta, bn.running_mean, bn.running_var = gamma, beta, arrays[3], arrays[4]
        return (lambda: bn(x, train=train, update_stats=update_stats), [x, gamma, beta],
                lambda: [bn.running_mean, bn.running_var])
    return build


def build_weightnorm(arrays):
    x, direction, scale, bias = grad_tensors(*arrays)
    layer = WeightNormLinear(5, 3, np.random.default_rng(0))
    layer.direction, layer.scale, layer.bias = direction, scale, bias
    return lambda: layer(x), [x, direction, scale, bias], no_state


def build_loss(loss):
    """A loss of constant rows (the first array) and probabilities."""
    def build(arrays):
        (p,) = grad_tensors(arrays[1])
        return lambda: loss(arrays[0], p), [p], no_state
    return build


def build_ls_cross_entropy(arrays):
    (z,) = grad_tensors(arrays[0])
    return lambda: ls_cross_entropy(z, arrays[1], alpha=0.1), [z], no_state


def build_mi_loss(arrays):
    (p,) = grad_tensors(*arrays)
    return lambda: mi_loss(p), [p], no_state


def layer_members(rng):
    return [[rng.normal(size=(7, 4)), rng.normal(size=(4, 3)), rng.normal(size=3)] for _ in range(2)]


def batchnorm_members(rng):
    return [[rng.normal(1.0, 2.0, (8, 3)), rng.uniform(0.5, 2.0, 3), rng.normal(size=3), rng.normal(size=3),
             rng.uniform(0.5, 3.0, 3)] for _ in range(2)]


def weightnorm_members(rng):
    return [[rng.normal(size=(6, 5)), rng.normal(size=(3, 5)) * rng.uniform(0.3, 3.0, (3, 1)),
             rng.uniform(0.5, 2.0, 3), rng.normal(size=3)] for _ in range(2)]


def row_members(rng):
    """Two members' (rows, probabilities), both with entries inside the log clamp."""
    return [[clamped_probs(rng, 6, 4)[0], clamped_probs(rng, 6, 4)[0]] for _ in range(2)]


STACK_CASES = {
    "affine": (build_affine(False), layer_members),
    "affine relu": (build_affine(True), layer_members),
    "softmax": (build_softmax, lambda rng: [[rng.normal(0.0, 5.0, (6, 4))] for _ in range(2)]),
    "batchnorm train": (build_batchnorm(True, False), batchnorm_members),
    "batchnorm train, stats updated": (build_batchnorm(True, True), batchnorm_members),
    "batchnorm eval": (build_batchnorm(False, False), batchnorm_members),
    "weightnorm": (build_weightnorm, weightnorm_members),
    "soft cross entropy": (build_loss(soft_cross_entropy), row_members),
    "label-smoothed cross entropy": (
        build_ls_cross_entropy, lambda rng: [[rng.normal(size=(6, 4)), rng.integers(0, 4, 6)] for _ in range(2)]),
    "distill loss": (build_loss(distill_loss), row_members),
    "mi loss": (build_mi_loss, lambda rng: [[clamped_probs(rng, 6, 4)[0]] for _ in range(2)]),
}


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("case", sorted(STACK_CASES))
def test_op_on_a_stack_matches_each_member(case, seed):
    build, members = STACK_CASES[case]
    assert_stack_matches_members(build, members(np.random.default_rng(seed)), seed=seed)


def test_renorm_on_a_stack_matches_each_member():
    rng = np.random.default_rng(3)
    layers = [WeightNormLinear(5, 3, rng) for _ in range(2)]
    for layer in layers:
        layer.direction.data *= rng.uniform(0.3, 3.0, (3, 1))
    stacked = WeightNormLinear(5, 3, rng)
    stacked.direction.data = np.stack([layer.direction.data for layer in layers])
    stacked.renorm()
    for i, layer in enumerate(layers):
        layer.renorm()
        assert stacked.direction.data[i].tobytes() == layer.direction.data.tobytes()


def member_nets(cls, count=2):
    return [cls(2, 4, hidden=(8, 8), rng=np.random.default_rng(10 + i)) for i in range(count)]


def assert_slices_match(stack, nets, grads=None, member_grads=None):
    """Each net's parameters and running statistics (and gradients, when
    given) equal, bit for bit, its slice of the stack's."""
    for i, net in enumerate(nets):
        for name, p in stack.named_params().items():
            assert p.data[i].tobytes() == net.named_params()[name].data.tobytes(), name
        for name, r in stack.running_stats().items():
            assert r[i].tobytes() == net.running_stats()[name].tobytes(), name
        if grads is not None:
            for g, member_g in zip(grads, member_grads[i]):
                assert g[i].tobytes() == member_g.tobytes()


@pytest.mark.parametrize("mode", ["train", "eval"])
@pytest.mark.parametrize("cls", [SourceNet, TargetNet])
def test_net_forward_on_a_stack_matches_each_member(cls, mode):
    rng = np.random.default_rng(5)
    nets = member_nets(cls)
    stack = stack_nets(nets)
    assert stack.lead == (2,)
    x = rng.normal(size=(2, 10, 2))
    cotangent = rng.normal(size=(2, 10, 4))
    value, grads = value_and_vjp(lambda: stack.forward(x, mode=mode), list(stack.named_params().values()), cotangent)
    member_grads = []
    for i, net in enumerate(nets):
        member_value, g = value_and_vjp(lambda: net.forward(x[i], mode=mode), list(net.named_params().values()),
                                        cotangent[i])
        assert value[i].tobytes() == member_value.tobytes()
        member_grads.append(g)
        assert stack.predict_proba(x)[i].tobytes() == net.predict_proba(x[i]).tobytes()
    assert_slices_match(stack, nets, grads, member_grads)
    with pytest.raises(DimensionError, match=r"expected \(2, n, 2\) features"):
        stack.forward(x[0])


@pytest.mark.parametrize("beta, drop_mi", [(1.0, False), (0.0, False), (1.7, True)])
def test_total_loss_on_a_stack_matches_each_member(beta, drop_mi):
    rng = np.random.default_rng(6)
    nets = member_nets(TargetNet)
    stack = stack_nets(nets)
    x = rng.normal(size=(2, 8, 2))
    rows = rng.dirichlet(np.ones(4), size=(2, 8))
    params = list(stack.named_params().values())
    cotangent = rng.normal(size=2)
    draws = RngStack([11, 12])
    with GradTape() as tape:
        loss, terms = total_loss(rows, stack, x, draws, beta=beta, mixup_alpha=0.3, drop_mi=drop_mi)
        target = reduce_sum(loss * Tensor(cotangent))
    grads = tape.gradient(target, params)
    member_grads = []
    for i, net in enumerate(nets):
        with GradTape() as tape:
            member_loss, member_terms = total_loss(rows[i], net, x[i], np.random.default_rng(11 + i), beta=beta,
                                                   mixup_alpha=0.3, drop_mi=drop_mi)
            target = member_loss * Tensor(cotangent[i])
        member_grads.append(tape.gradient(target, list(net.named_params().values())))
        assert loss.data[i] == member_loss.item()
        assert {key: term[i] for key, term in terms.items()} == member_terms
    assert_slices_match(stack, nets, grads, member_grads)


def test_mixup_on_a_stack_draws_each_members_own_numbers():
    rng = np.random.default_rng(7)
    nets = member_nets(TargetNet)
    stack = stack_nets(nets)
    x = rng.normal(size=(2, 9, 2))
    value = mixup_loss(stack, x, RngStack([3, 4]), alpha=0.3).data
    for i, net in enumerate(nets):
        assert value[i] == mixup_loss(net, x[i], np.random.default_rng(3 + i), alpha=0.3).item()
