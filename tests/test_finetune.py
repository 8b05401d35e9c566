import numpy as np
import pytest

from bbadapt.distill import MemoryBank, run_distillation
from bbadapt.errors import ContractError
from bbadapt.finetune import run_finetune
from bbadapt.nets import TargetNet

from conftest import make_blobs


def _setup(seed=0):
    rng = np.random.default_rng(seed)
    x, y = make_blobs(30, [(-2.0, 0.0), (2.0, 0.0)], 0.35, rng)
    net = TargetNet(2, 2, hidden=(8,), bottleneck_dim=4, rng=np.random.default_rng(seed))
    return x, y, net


def test_config_validation():
    x, _, net = _setup()
    with pytest.raises(ContractError, match="epochs"):
        run_finetune([net], x, [2020], epochs=-1)
    with pytest.raises(ContractError, match="batch_size"):
        run_finetune([net], x, [2020], batch_size=1)


def test_metrics_shape():
    x, _, net = _setup()
    (history,) = run_finetune([net], x, [1], epochs=3, batch_size=16, eval_fn=lambda n: 1.0)
    assert [rec["epoch"] for rec in history] == [1, 2, 3]
    assert all(rec["phase"] == "finetune" for rec in history)
    assert all({"loss", "mi", "cond_entropy", "accuracy"} <= set(rec) for rec in history)
    # the recorded loss is the negated objective
    assert all(abs(rec["loss"] + rec["mi"]) < 1e-12 for rec in history)


def test_mi_rises_and_entropy_falls():
    x, _, net = _setup(seed=3)
    (history,) = run_finetune([net], x, [2], epochs=12, batch_size=16)
    assert history[-1]["mi"] > history[0]["mi"]
    assert history[-1]["cond_entropy"] < history[0]["cond_entropy"]


def test_freeze_bn_stats_switch():
    x, _, net = _setup(seed=1)
    stats = {k: v.copy() for k, v in net.running_stats().items()}
    run_finetune([net], x, [1], epochs=2, batch_size=16, freeze_bn_stats=True)
    for k, v in net.running_stats().items():
        assert np.array_equal(v, stats[k])

    x, _, net2 = _setup(seed=1)
    stats2 = {k: v.copy() for k, v in net2.running_stats().items()}
    run_finetune([net2], x, [1], epochs=2, batch_size=16)
    assert any(not np.array_equal(v, stats2[k]) for k, v in net2.running_stats().items())


def test_finetune_deterministic():
    x, _, net_a = _setup(seed=2)
    _, _, net_b = _setup(seed=2)
    run_finetune([net_a], x, [5], epochs=3, batch_size=16)
    run_finetune([net_b], x, [5], epochs=3, batch_size=16)
    for name, p in net_a.named_params().items():
        assert np.array_equal(p.data, net_b.named_params()[name].data), name


def test_finetune_after_distill_keeps_cluster_assignment():
    # distill toward a confident teacher, then fine-tune; the sharpened
    # model should still follow the teacher's clustering
    x, y, net = _setup(seed=4)
    rows = np.full((x.shape[0], 2), 0.05)
    rows[np.arange(x.shape[0]), y] = 0.95
    run_distillation([MemoryBank(rows)], [net], x, [1], epochs=8, batch_size=16, gamma=1.0)
    before = (net.predict_proba(x).argmax(axis=1) == y).mean()
    run_finetune([net], x, [1], epochs=8, batch_size=16)
    after = (net.predict_proba(x).argmax(axis=1) == y).mean()
    assert before > 0.9
    assert after >= before - 0.05


def test_zero_epochs_is_noop():
    x, _, net = _setup()
    params = {k: p.data.copy() for k, p in net.named_params().items()}
    histories = run_finetune([net], x, [1], epochs=0, batch_size=16)
    assert histories == [[]]
    for name, p in net.named_params().items():
        assert np.array_equal(p.data, params[name])
