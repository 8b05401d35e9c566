import math

import numpy as np
import pytest

from bbadapt.distill import (
    AdaptConfig,
    MemoryBank,
    distill_loss,
    mi_loss,
    mixup_loss,
    run_distillation,
    soft_cross_entropy,
    total_loss,
)
from bbadapt.errors import ContractError, DimensionError
from bbadapt.nets import TargetNet
from bbadapt.tensor import GradTape, Tensor, softmax

from conftest import make_blobs

CLAMP = 1e-8


def clamped_log(v):
    return math.log(max(v, CLAMP))


def naive_kl_rows(targets, probs):
    total = 0.0
    for t_row, p_row in zip(targets, probs):
        total += sum(t * (clamped_log(t) - clamped_log(p)) for t, p in zip(t_row, p_row))
    return total / len(targets)


def naive_mi(probs):
    n, k = len(probs), len(probs[0])
    mean = [sum(row[j] for row in probs) / n for j in range(k)]
    marginal = -sum(m * clamped_log(m) for m in mean)
    conditional = -sum(sum(p * clamped_log(p) for p in row) for row in probs) / n
    return marginal - conditional


def small_net(seed=0, k=3):
    return TargetNet(2, k, hidden=(8,), bottleneck_dim=4, rng=np.random.default_rng(seed))


# memory bank ------------------------------------------------------------


def test_bank_validates_rows(rng):
    with pytest.raises(ContractError):
        MemoryBank(np.array([0.5, 0.5]))
    with pytest.raises(ContractError):
        MemoryBank(np.array([[0.7, 0.7]]))
    with pytest.raises(ContractError):
        MemoryBank(np.array([[-0.1, 1.1]]))
    for rows in ([[np.nan, np.nan], [0.5, 0.5]], [[np.nan, 1.0]], [[0.5, 0.5], [1.0, np.nan]]):
        with pytest.raises(ContractError):
            MemoryBank(np.array(rows))
    bank = MemoryBank(rng.dirichlet(np.ones(3), size=5))
    assert len(bank) == 5
    assert bank.num_classes == 3
    assert bank.epoch == 0


def test_bank_copies_input(rng):
    rows = rng.dirichlet(np.ones(3), size=4)
    bank = MemoryBank(rows)
    rows[0, 0] = 99.0
    assert bank.rows[0, 0] != 99.0


def test_ema_update_formula(rng):
    rows = rng.dirichlet(np.ones(4), size=6)
    fresh = rng.dirichlet(np.ones(4), size=6)
    gamma = 0.37
    bank = MemoryBank(rows)
    bank.ema_update(fresh, gamma)
    assert np.array_equal(bank.rows, gamma * rows + (1.0 - gamma) * fresh)
    assert bank.epoch == 1


def test_ema_update_boundaries(rng):
    rows = rng.dirichlet(np.ones(3), size=5)
    fresh = rng.dirichlet(np.ones(3), size=5)
    keep = MemoryBank(rows)
    keep.ema_update(fresh, 1.0)
    assert np.array_equal(keep.rows, rows)  # bitwise, not approximately
    replace = MemoryBank(rows)
    replace.ema_update(fresh, 0.0)
    assert np.array_equal(replace.rows, fresh)


def test_ema_update_validation(rng):
    bank = MemoryBank(rng.dirichlet(np.ones(3), size=5))
    fresh = rng.dirichlet(np.ones(3), size=5)
    with pytest.raises(ContractError):
        bank.ema_update(fresh, 1.5)
    with pytest.raises(ContractError):
        bank.ema_update(fresh[:4], 0.5)
    with pytest.raises(ContractError):
        bank.ema_update(np.abs(fresh) + 1.0, 0.5)
    with pytest.raises(ContractError):
        bank.ema_update(np.full((5, 3), np.nan), 0.5)


# losses ------------------------------------------------------------------


def test_soft_cross_entropy_manual(rng):
    targets = rng.dirichlet(np.ones(3), size=4)
    probs = rng.dirichlet(np.ones(3), size=4)
    got = soft_cross_entropy(targets, Tensor(probs)).item()
    want = -np.mean([sum(t * clamped_log(p) for t, p in zip(tr, pr)) for tr, pr in zip(targets, probs)])
    assert abs(got - want) < 1e-12
    with pytest.raises(DimensionError):
        soft_cross_entropy(targets[:2], Tensor(probs))


def test_distill_loss_matches_naive(rng):
    for k in (2, 3, 5):
        targets = rng.dirichlet(np.ones(k), size=6)
        probs = rng.dirichlet(np.ones(k), size=6)
        got = distill_loss(targets, Tensor(probs)).item()
        assert abs(got - naive_kl_rows(targets, probs)) < 1e-12


def test_distill_loss_zero_for_identical(rng):
    rows = rng.dirichlet(np.ones(4), size=5)
    assert distill_loss(rows, Tensor(rows.copy())).item() == 0.0


def test_distill_loss_validates_rows(rng):
    good = rng.dirichlet(np.ones(3), size=4)
    with pytest.raises(ContractError):
        distill_loss(good * 2.0, Tensor(good))
    with pytest.raises(DimensionError):
        distill_loss(good[:, :2], Tensor(good))
    with pytest.raises(ContractError):
        distill_loss(good, Tensor(np.full((4, 3), np.nan)))


def test_mi_loss_matches_naive(rng):
    for k in (2, 4):
        probs = rng.dirichlet(np.ones(k), size=8)
        got = mi_loss(Tensor(probs)).item()
        assert abs(got - naive_mi(probs)) < 1e-12


def test_mi_loss_uniform_rows_is_zero():
    probs = np.full((6, 4), 0.25)
    assert abs(mi_loss(Tensor(probs)).item()) < 1e-15


def test_mi_loss_confident_balanced_is_log_k():
    probs = np.vstack([np.eye(3), np.eye(3)])
    assert abs(mi_loss(Tensor(probs)).item() - math.log(3)) < 1e-12


def test_mi_loss_validation(rng):
    with pytest.raises(ContractError):
        mi_loss(Tensor(np.array([0.5, 0.5])))
    with pytest.raises(ContractError):
        mi_loss(Tensor(rng.dirichlet(np.ones(3), size=4) * 1.5))


def test_mixup_needs_two_samples(rng):
    net = small_net()
    with pytest.raises(ContractError):
        mixup_loss(net, rng.normal(size=(1, 2)), np.random.default_rng(0))


def test_mixup_deterministic_under_seed(rng):
    net = small_net()
    batch = rng.normal(size=(8, 2))
    a = mixup_loss(net, batch, np.random.default_rng(3)).item()
    b = mixup_loss(net, batch, np.random.default_rng(3)).item()
    assert a == b


class ForcedLambda:
    """A generator whose `beta()` returns a fixed mixing weight and whose
    permutations come from `default_rng(0)`."""

    def __init__(self, lam):
        self.lam = lam
        self.rng = np.random.default_rng(0)

    def beta(self, a, b):
        return self.lam

    def permutation(self, n):
        return self.rng.permutation(n)


def test_mixup_lambda_one_reduces_to_self_consistency(rng):
    net = small_net()
    batch = rng.normal(size=(6, 2))
    loss = mixup_loss(net, batch, ForcedLambda(1.0)).item()
    probs = softmax(net.forward(batch, mode="train", update_stats=False)).data
    want = -np.mean([sum(p * clamped_log(p) for p in row) for row in probs])
    assert abs(loss - want) < 1e-12


def test_mixup_lambda_zero_uses_partner(rng):
    # lam=0 collapses the mixture onto the permuted partner, so the loss is
    # the mean self cross entropy of the permuted batch, which equals the
    # unpermuted one
    net = small_net()
    batch = rng.normal(size=(6, 2))
    loss = mixup_loss(net, batch, ForcedLambda(0.0)).item()
    probs = softmax(net.forward(batch, mode="train", update_stats=False)).data
    want = -np.mean([sum(p * clamped_log(p) for p in row) for row in probs])
    assert abs(loss - want) < 1e-12


def test_mixup_never_touches_running_stats(rng):
    net = small_net()
    batch = rng.normal(size=(8, 2))
    stats_before = {k: v.copy() for k, v in net.running_stats().items()}
    mixup_loss(net, batch, np.random.default_rng(0))
    for k, v in net.running_stats().items():
        assert np.array_equal(v, stats_before[k])


def test_total_loss_clean_forward_updates_stats(rng):
    net = small_net()
    batch = rng.normal(size=(8, 2))
    bank_rows = rng.dirichlet(np.ones(3), size=8)
    stats_before = {k: v.copy() for k, v in net.running_stats().items()}
    cfg = AdaptConfig(seed=0)
    total_loss(cfg, bank_rows, net, batch, np.random.default_rng(0))
    changed = any(not np.array_equal(v, stats_before[k]) for k, v in net.running_stats().items())
    assert changed


def test_total_loss_term_composition(rng):
    # dropping a term changes only that term: kd + beta*mix - mi holds
    # exactly when the same draws and statistics are replayed
    net = small_net(seed=5)
    batch = rng.normal(size=(10, 2))
    bank_rows = rng.dirichlet(np.ones(3), size=10)
    stats = {k: v.copy() for k, v in net.running_stats().items()}

    full_cfg = AdaptConfig(beta=1.7, seed=0)
    loss_full, parts_full = total_loss(full_cfg, bank_rows, net, batch, np.random.default_rng(9))

    net.set_running_stats(stats)
    base_cfg = AdaptConfig(beta=0.0, seed=0)
    loss_base, parts_base = total_loss(base_cfg, bank_rows, net, batch, np.random.default_rng(9))

    net.set_running_stats(stats)
    probs = softmax(net.forward(batch, mode="train", update_stats=False))
    l_mix = mixup_loss(net, batch, np.random.default_rng(9), alpha=full_cfg.mixup_alpha, probs=probs)

    assert abs(loss_full.item() - (loss_base.item() + 1.7 * l_mix.item())) < 1e-9
    assert parts_base["mix"] == 0.0
    assert abs(parts_full["mix"] - l_mix.item()) < 1e-12
    assert abs(parts_full["kd"] - parts_base["kd"]) < 1e-12


def test_total_loss_drop_mi(rng):
    net = small_net()
    batch = rng.normal(size=(6, 2))
    bank_rows = rng.dirichlet(np.ones(3), size=6)
    cfg = AdaptConfig(drop_mi=True, beta=0.0, seed=0)
    loss, parts = total_loss(cfg, bank_rows, net, batch, np.random.default_rng(0))
    assert parts["mi"] == 0.0
    assert abs(loss.item() - parts["kd"]) < 1e-12


def test_total_loss_gradient_reaches_all_params(rng):
    net = small_net()
    batch = rng.normal(size=(8, 2))
    bank_rows = rng.dirichlet(np.ones(3), size=8)
    cfg = AdaptConfig(seed=0)
    params = net.backbone_params() + net.new_params()
    with GradTape() as tape:
        loss, _ = total_loss(cfg, bank_rows, net, batch, np.random.default_rng(1))
    grads = tape.gradient(loss, params)
    assert all(np.any(g != 0.0) for g in grads)


# config and loop ---------------------------------------------------------


def test_adapt_config_validation():
    AdaptConfig().validate()
    with pytest.raises(ContractError):
        AdaptConfig(gamma=1.2).validate()
    with pytest.raises(ContractError):
        AdaptConfig(beta=-0.5).validate()
    with pytest.raises(ContractError):
        AdaptConfig(mixup_alpha=0.0).validate()
    x, bank, net = _distill_setup()
    with pytest.raises(ContractError, match="batch_size"):
        run_distillation(AdaptConfig(batch_size=1), bank, net, x)
    with pytest.raises(ContractError, match="epochs"):
        run_distillation(AdaptConfig(epochs=-1), bank, net, x)


def _distill_setup(n=40, k=3, seed=0):
    rng = np.random.default_rng(seed)
    x, _ = make_blobs(n // 2, [(-1.5, 0.0), (1.5, 0.0)], 0.4, rng)
    bank = MemoryBank(rng.dirichlet(np.ones(k) * 5.0, size=x.shape[0]))
    net = small_net(seed=seed, k=k)
    return x, bank, net


def test_run_distillation_metrics_and_bank_epochs():
    x, bank, net = _distill_setup()
    cfg = AdaptConfig(epochs=3, batch_size=16, seed=1)
    history = run_distillation(cfg, bank, net, x, eval_fn=lambda n: 42.0)
    assert [rec["epoch"] for rec in history] == [1, 2, 3]
    assert all(rec["phase"] == "distill" for rec in history)
    assert all({"loss", "kd", "mix", "mi", "accuracy"} <= set(rec) for rec in history)
    assert bank.epoch == 3


def test_run_distillation_eval_fn_sees_updated_bank():
    x, bank, net = _distill_setup()
    prev_rows = [bank.rows.copy()]
    checks = []

    def eval_fn(trained):
        # called after the EMA update: the bank must already hold the blend
        fresh = trained.predict_proba(x)
        expected = 0.6 * prev_rows[0] + 0.4 * fresh
        checks.append(bool(np.allclose(bank.rows, expected, atol=1e-12)))
        prev_rows[0] = bank.rows.copy()
        return 0.0

    cfg = AdaptConfig(epochs=2, batch_size=16, seed=1, gamma=0.6)
    run_distillation(cfg, bank, net, x, eval_fn=eval_fn)
    assert checks == [True, True]


def test_run_distillation_gamma_zero_bank_equals_student():
    x, bank, net = _distill_setup()
    deviations = []

    def eval_fn(trained):
        deviations.append(np.max(np.abs(bank.rows - trained.predict_proba(x))))
        return 0.0

    cfg = AdaptConfig(epochs=3, batch_size=16, seed=1, gamma=0.0)
    run_distillation(cfg, bank, net, x, eval_fn=eval_fn)
    assert max(deviations) < 1e-9


def test_run_distillation_gamma_one_bank_frozen():
    x, bank, net = _distill_setup()
    init_rows = bank.rows.copy()
    cfg = AdaptConfig(epochs=3, batch_size=16, seed=1, gamma=1.0)
    run_distillation(cfg, bank, net, x)
    assert np.array_equal(bank.rows, init_rows)


def test_run_distillation_deterministic():
    x, bank_a, net_a = _distill_setup(seed=7)
    _, bank_b, net_b = _distill_setup(seed=7)
    cfg = AdaptConfig(epochs=2, batch_size=16, seed=3)
    run_distillation(cfg, bank_a, net_a, x)
    run_distillation(cfg, bank_b, net_b, x)
    for name, p in net_a.named_params().items():
        assert np.array_equal(p.data, net_b.named_params()[name].data), name
    assert np.array_equal(bank_a.rows, bank_b.rows)


def test_run_distillation_bank_size_mismatch():
    x, bank, net = _distill_setup()
    cfg = AdaptConfig(epochs=1, batch_size=16, seed=0)
    with pytest.raises(ContractError):
        run_distillation(cfg, MemoryBank(bank.rows[:10]), net, x)


def test_run_distillation_trains_toward_bank():
    # with a confident consistent teacher the student should fit it
    rng = np.random.default_rng(2)
    x, y = make_blobs(30, [(-2.0, 0.0), (2.0, 0.0)], 0.3, rng)
    rows = np.full((60, 2), 0.05)
    rows[np.arange(60), y] = 0.95
    bank = MemoryBank(rows)
    net = small_net(seed=1, k=2)
    cfg = AdaptConfig(epochs=10, batch_size=16, seed=4, gamma=1.0, drop_mi=True, beta=0.0)
    history = run_distillation(cfg, bank, net, x)
    assert history[-1]["kd"] < history[0]["kd"]
    pred = net.predict_proba(x).argmax(axis=1)
    assert (pred == y).mean() > 0.9
