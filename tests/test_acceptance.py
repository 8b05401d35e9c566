"""Acceptance battery: one test per shipped guarantee.

Each test prints a single [PASS]/[FAIL] line (visible with -s) and then
asserts. Scenario runs are cached at module level so ablation variants
reuse the trained source models of their preset and seed.
"""

import json

import numpy as np

from bbadapt.cli import (
    ExperimentConfig,
    source_handles,
    main,
    run_seeds,
    train_source_models,
)
from bbadapt.distill import (
    MemoryBank,
    distill_loss,
    mi_loss,
    mixup_loss,
    run_distillation,
    total_loss,
)
from bbadapt.nets import SourceNet, TargetNet, ls_cross_entropy
from bbadapt.predictors import InProcessPredictor, TopK, ada_ls, init_teacher, write_cache
from bbadapt.scenarios import ScenarioSpec, Shift, generate, preset
from bbadapt.service import PredictionServer
from bbadapt.tensor import GradTape, Tensor, grad_check, softmax


def _check(tag: str, ok: bool, detail: str):
    print(f"[{'PASS' if ok else 'FAIL'}] {tag}: {detail}")
    assert ok, f"{tag}: {detail}"


# cached full-scale runs --------------------------------------------------

_SOURCE_NETS = {}
_RUNS = {}


def _seed_nets(cfg, preset_name, sources):
    """The source nets of each of the config's seeds, trained as one stack."""
    key = (preset_name, cfg.seeds)
    if key not in _SOURCE_NETS:
        _SOURCE_NETS[key] = train_source_models(cfg, sources, cfg.seeds)
    return _SOURCE_NETS[key]


def run_preset(preset_name, **overrides):
    """Mean accuracies for one preset variant, cached across tests."""
    key = (preset_name, tuple(sorted(overrides.items())))
    if key in _RUNS:
        return _RUNS[key]
    cfg = ExperimentConfig(scenario=preset(preset_name), **overrides)
    sources, target = generate(cfg.scenario)
    handles = [source_handles(cfg, nets) for nets in _seed_nets(cfg, preset_name, sources)]
    rows = [out["summary"] for out in run_seeds(cfg, target, handles, cfg.seeds)]
    result = {
        "no_adapt": float(np.mean([r["no_adapt"] for r in rows])),
        "distilled": float(np.mean([r["accuracy_distilled"] for r in rows])),
        "final": float(np.mean([r["accuracy_final"] for r in rows])),
        "rows": rows,
    }
    _RUNS[key] = result
    return result


# 1. gradient fidelity ----------------------------------------------------


def _tape_grads(fn, params):
    with GradTape() as tape:
        loss = fn()
    return tape.gradient(loss, params)


def _max_grad_err(fn, params):
    return max(grad_check(fn, p) for p in params)


def test_c01_gradient_fidelity():
    worst = {}
    for seed in range(5):
        rng = np.random.default_rng(seed)
        k = 4
        x = rng.normal(0.0, 1.5, (16, 2))
        labels = rng.integers(0, k, 16)
        rows = rng.dirichlet(np.full(k, 0.7), 16)
        src = SourceNet(2, k, hidden=(16,), rng=np.random.default_rng(seed + 100))
        tgt = TargetNet(2, k, hidden=(16,), bottleneck_dim=8, rng=np.random.default_rng(seed + 200))
        src_params = src.backbone_params() + src.new_params()
        tgt_params = tgt.backbone_params() + tgt.new_params()

        # mixup targets are stop-gradient by construction, so the
        # finite-difference reference must hold them constant; the frozen
        # closure is tied to the live loss by a tape-gradient comparison.
        endpoint = softmax(tgt.forward(x, mode="train", update_stats=False)).data.copy()

        def f_ls(_):
            return ls_cross_entropy(src.forward(x, mode="train"), labels, alpha=0.1)

        def f_kl(_):
            return distill_loss(rows, softmax(tgt.forward(x, mode="train")))

        def f_mi(_):
            return mi_loss(softmax(tgt.forward(x, mode="train")))

        def f_mix(_):
            return mixup_loss(tgt, x, np.random.default_rng(77), alpha=0.3, probs=endpoint)

        def f_total(_):
            probs = softmax(tgt.forward(x, mode="train"))
            l_mix = mixup_loss(tgt, x, np.random.default_rng(77), alpha=0.3, probs=endpoint)
            return distill_loss(rows, probs) + Tensor(1.0) * l_mix - mi_loss(probs)

        live_mix = _tape_grads(
            lambda: mixup_loss(tgt, x, np.random.default_rng(77), alpha=0.3), tgt_params
        )
        frozen_mix = _tape_grads(lambda: f_mix(None), tgt_params)
        for a, b in zip(live_mix, frozen_mix):
            assert np.allclose(a, b, atol=1e-12)
        live_total = _tape_grads(
            lambda: total_loss(rows, tgt, x, np.random.default_rng(77), beta=1.0, mixup_alpha=0.3)[0], tgt_params
        )
        frozen_total = _tape_grads(lambda: f_total(None), tgt_params)
        for a, b in zip(live_total, frozen_total):
            assert np.allclose(a, b, atol=1e-12)

        for name, fn, params in (
            ("smoothed-ce", f_ls, src_params),
            ("distill-kl", f_kl, tgt_params),
            ("mixup", f_mix, tgt_params),
            ("mutual-info", f_mi, tgt_params),
            ("total", f_total, tgt_params),
        ):
            err = _max_grad_err(fn, params)
            worst[name] = max(worst.get(name, 0.0), err)
    peak = max(worst.values())
    detail = ", ".join(f"{name} {err:.2e}" for name, err in worst.items())
    _check("criterion 01 gradient fidelity", peak < 1e-4, detail)


# 2. formula oracles ------------------------------------------------------


def _naive_ada_ls(p, r):
    k = len(p)
    if r >= k:
        return np.asarray(p, dtype=np.float64).copy()
    order = sorted(range(k), key=lambda i: (-p[i], i))
    keep = set(order[:r])
    kept = sum(p[i] for i in keep)
    share = max(0.0, 1.0 - kept) / (k - r)
    return np.array([p[i] if i in keep else share for i in range(k)])


class _TableHandle:
    """Predictor stub that discloses a fixed probability table in full."""

    disclosure = "full-soft"
    predictor_id = "table"

    def __init__(self, rows):
        self.rows = np.asarray(rows, dtype=np.float64)
        self.num_classes = self.rows.shape[1]
        self.r = self.num_classes

    def query(self, features):
        records = []
        for row in self.rows:
            order = sorted(range(len(row)), key=lambda i: (-row[i], i))
            records.append(
                TopK(
                    tuple(order),
                    tuple(float(row[i]) for i in order),
                    self.num_classes,
                    self.num_classes,
                )
            )
        return records


def _grid_rows(n, k, rng):
    # entries are multiples of 1/64, exact under 9-digit quantization
    counts = rng.multinomial(64 - k, np.full(k, 1.0 / k), size=n) + 1
    return counts / 64.0


def test_c02_formula_oracles():
    rng = np.random.default_rng(2021)
    worst = {"ada_ls": 0.0, "init_teacher": 0.0, "ema_update": 0.0, "mi": 0.0, "kl": 0.0}

    for k in range(2, 6):
        draws = list(rng.dirichlet(np.full(k, 0.5), 200))
        draws.extend(np.eye(k))
        draws.append(np.full(k, 1.0 / k))
        for p in draws:
            for r in range(1, k + 1):
                got = ada_ls(p, r).probs
                worst["ada_ls"] = max(worst["ada_ls"], float(np.abs(got - _naive_ada_ls(p, r)).max()))

        rows_a = _grid_rows(12, k, rng)
        rows_b = _grid_rows(12, k, rng)
        features = np.zeros((12, 2))
        for r in range(1, k + 1):
            bank = init_teacher([_TableHandle(rows_a), _TableHandle(rows_b)], features, r=r)
            expect = np.stack(
                [
                    (_naive_ada_ls(a, r) + _naive_ada_ls(b, r)) / 2.0
                    for a, b in zip(rows_a, rows_b)
                ]
            )
            worst["init_teacher"] = max(worst["init_teacher"], float(np.abs(bank.rows - expect).max()))

        start = rng.dirichlet(np.full(k, 1.0), 10)
        fresh = rng.dirichlet(np.full(k, 1.0), 10)
        for gamma in (0.0, 0.3, 0.6, 1.0):
            bank = MemoryBank(start)
            bank.ema_update(fresh, gamma)
            expect = gamma * start + (1.0 - gamma) * fresh
            worst["ema_update"] = max(worst["ema_update"], float(np.abs(bank.rows - expect).max()))

        batch = rng.dirichlet(np.full(k, 0.4), 32)
        mean_p = batch.mean(axis=0)
        h = lambda v: -float(sum(vi * np.log(max(vi, 1e-8)) for vi in v))
        expect_mi = h(mean_p) - sum(h(row) for row in batch) / len(batch)
        worst["mi"] = max(worst["mi"], abs(mi_loss(batch).item() - expect_mi))

        for _ in range(50):  # KL as distillation trains with it, on one-row batches
            p = rng.dirichlet(np.full(k, 0.8))
            q = rng.dirichlet(np.full(k, 0.8))
            expect_kl = sum(
                pi * (np.log(max(pi, 1e-8)) - np.log(max(qi, 1e-8))) for pi, qi in zip(p, q)
            )
            worst["kl"] = max(worst["kl"], abs(distill_loss(p[None], Tensor(q[None])).item() - expect_kl))
        sparse = np.zeros(k)
        sparse[0] = 1.0
        expect_kl = sum(
            pi * (np.log(max(pi, 1e-8)) - np.log(max(qi, 1e-8)))
            for pi, qi in zip(np.full(k, 1.0 / k), sparse)
        )
        got = distill_loss(np.full((1, k), 1.0 / k), Tensor(sparse[None])).item()
        worst["kl"] = max(worst["kl"], abs(got - expect_kl))

    peak = max(worst.values())
    detail = ", ".join(f"{name} {err:.2e}" for name, err in worst.items())
    _check("criterion 02 formula oracles", peak <= 1e-9, detail)


# 3. truncation keeps the argmax ------------------------------------------


def test_c03_truncation_preserves_argmax():
    rng = np.random.default_rng(2020)
    checked = 0
    violations = 0
    while checked < 10000:
        p = rng.dirichlet(np.full(10, 0.5))
        top = np.sort(p)[-2:]
        if top[0] == top[1]:
            continue
        checked += 1
        for r in (1, 3):
            if int(np.argmax(ada_ls(p, r).probs)) != int(np.argmax(p)):
                violations += 1
    _check(
        "criterion 03 argmax preservation",
        violations == 0,
        f"{checked} vectors, r in (1, 3), {violations} violations",
    )


# 4. adaptation beats the frozen teacher ----------------------------------


def test_c04_adaptation_gain_over_baseline():
    run = run_preset("moons-rot30")
    chance = 100.0 / 2
    gain = run["final"] - run["no_adapt"]
    ok = chance < run["no_adapt"] < 95.0 and gain >= 5.0
    _check(
        "criterion 04 adaptation gain",
        ok,
        f"no-adapt {run['no_adapt']:.2f}, final {run['final']:.2f}, gain {gain:+.2f}",
    )


# 5. ablation ordering ----------------------------------------------------


def test_c05_ablation_ordering():
    full = run_preset("gauss4-rot30")
    womix = run_preset("gauss4-rot30", drop_mix=True)
    womi = run_preset("gauss4-rot30", drop_mi=True)
    order_ok = (
        full["final"] >= womix["final"] - 1.0 and womix["final"] >= womi["final"] - 1.0
    )
    ft_ok = all(v["final"] >= v["distilled"] - 0.5 for v in (full, womix, womi))
    _check(
        "criterion 05 ablation ordering",
        order_ok and ft_ok,
        f"full {full['final']:.2f} >= no-mix {womix['final']:.2f} >= no-mi {womi['final']:.2f} "
        f"(slack 1.0); fine-tune give-back <= 0.5: {ft_ok}",
    )


# 6. teacher encodings ----------------------------------------------------


def test_c06_teacher_encoding_ordering():
    adals = run_preset("gauss4-rot30")
    hard = run_preset("gauss4-rot30", teacher="hard")
    ls = run_preset("gauss4-rot30", teacher="ls")
    ok = adals["final"] >= hard["final"] - 1.0 and adals["final"] >= ls["final"] - 1.0
    _check(
        "criterion 06 teacher encodings",
        ok,
        f"adals {adals['final']:.2f} vs hard {hard['final']:.2f} vs ls {ls['final']:.2f} (slack 1.0)",
    )


# 7. EMA boundary behavior -------------------------------------------------


def test_c07_ema_boundary_behavior():
    scenario = ScenarioSpec(
        family="gaussians", num_classes=3, n_source=120, n_target=90,
        target_shift=Shift(rotation_deg=20.0), seed=5, noise=0.3,
    )
    cfg = ExperimentConfig(scenario=scenario, seeds=(2019,), source_epochs=15,
                           batch_size=32, hidden=(16,), bottleneck_dim=8)
    sources, target = generate(scenario)
    handles = source_handles(cfg, train_source_models(cfg, sources, [2019])[0])
    initial = init_teacher(handles, target.features, r=1)

    frozen_bank = MemoryBank(initial.rows)
    net = TargetNet(2, 3, hidden=(16,), bottleneck_dim=8, rng=np.random.default_rng(1))
    run_distillation([frozen_bank], [net], target.features, [0], gamma=1.0, epochs=3, batch_size=32)
    frozen_ok = np.array_equal(frozen_bank.rows, initial.rows)

    tracking_bank = MemoryBank(initial.rows)
    net = TargetNet(2, 3, hidden=(16,), bottleneck_dim=8, rng=np.random.default_rng(1))
    gaps = []

    def eval_fn(probs):
        gaps.append(float(np.abs(tracking_bank.rows - net.predict_proba(target.features)).max()))
        return 0.0

    run_distillation([tracking_bank], [net], target.features, [0], gamma=0.0, epochs=3, batch_size=32,
                     eval_fn=eval_fn)
    tracking_ok = len(gaps) == 3 and max(gaps) <= 1e-9
    _check(
        "criterion 07 ema boundaries",
        frozen_ok and tracking_ok,
        f"gamma=1 bit-identical: {frozen_ok}; gamma=0 per-epoch gap {max(gaps):.2e}",
    )


# 8. multi-source regime ---------------------------------------------------


def test_c08_multi_source_gain():
    run = run_preset("multi3-gauss4")
    gain = run["final"] - run["no_adapt"]
    _check(
        "criterion 08 multi-source gain",
        gain >= 3.0,
        f"no-adapt {run['no_adapt']:.2f}, final {run['final']:.2f}, gain {gain:+.2f}",
    )


# 9. partial-set regime ----------------------------------------------------


def test_c09_partial_set_truncation():
    r1 = run_preset("partial-gauss8")
    rk = run_preset("partial-gauss8", r=8)
    ok = (
        r1["final"] >= rk["final"] - 0.5
        and r1["final"] > r1["no_adapt"]
        and rk["final"] > rk["no_adapt"]
    )
    _check(
        "criterion 09 partial-set truncation",
        ok,
        f"r=1 {r1['final']:.2f} (no-adapt {r1['no_adapt']:.2f}) vs "
        f"r=K {rk['final']:.2f} (no-adapt {rk['no_adapt']:.2f})",
    )


# 10. service and cache backings agree -------------------------------------


def test_c10_service_matches_cache(tmp_path):
    cfg = ExperimentConfig(
        scenario=preset("moons-rot30"), seeds=(2019,),
        source_epochs=15, adapt_epochs=10, finetune_epochs=10,
    )
    cfg_path = tmp_path / "experiment.json"
    cfg_path.write_text(json.dumps(cfg.to_dict()))
    sources, target = generate(cfg.scenario)
    net = train_source_models(cfg, sources, [2019])[0][0]

    cache_path = tmp_path / "preds.ndjson"
    write_cache(str(cache_path), InProcessPredictor(net, disclosure="top-r", r=1), target.features)

    server = PredictionServer(InProcessPredictor(net, disclosure="top-r", r=1))
    server.start_background()
    host, port = server.endpoint
    run_svc, run_cache = tmp_path / "svc", tmp_path / "cache"
    try:
        assert main(["adapt", "--config", str(cfg_path), "--outdir", str(run_svc),
                     "--endpoints", f"{host}:{port}"]) == 0
        assert main(["adapt", "--config", str(cfg_path), "--outdir", str(run_cache),
                     "--caches", str(cache_path)]) == 0
    finally:
        server.shutdown()
        server.server_close()
    svc = json.loads((run_svc / "report.json").read_text())
    cache = json.loads((run_cache / "report.json").read_text())
    diffs = [
        abs(a["accuracy_final"] - b["accuracy_final"])
        for a, b in zip(svc["per_seed"], cache["per_seed"])
    ]
    _check(
        "criterion 10 service equals cache",
        max(diffs) <= 0.1,
        f"final {svc['final_mean']:.2f} vs {cache['final_mean']:.2f}, max seed gap {max(diffs):.3f}",
    )


# 11. manifest determinism --------------------------------------------------


def test_c11_manifest_determinism(tmp_path):
    cfg = ExperimentConfig(
        scenario=preset("moons-rot30"), seeds=(2019,),
        source_epochs=5, adapt_epochs=3, finetune_epochs=3,
    )
    cfg_path = tmp_path / "experiment.json"
    cfg_path.write_text(json.dumps(cfg.to_dict()))
    first, second = tmp_path / "first", tmp_path / "second"
    assert main(["adapt", "--config", str(cfg_path), "--outdir", str(first)]) == 0
    assert main(["adapt", "--config", str(first / "manifest.json"), "--outdir", str(second)]) == 0
    metrics_equal = (
        (first / "metrics_seed2019.ndjson").read_bytes()
        == (second / "metrics_seed2019.ndjson").read_bytes()
    )
    report_equal = (first / "report.json").read_bytes() == (second / "report.json").read_bytes()
    _check(
        "criterion 11 manifest determinism",
        metrics_equal and report_equal,
        f"metrics byte-identical: {metrics_equal}, report byte-identical: {report_equal}",
    )
