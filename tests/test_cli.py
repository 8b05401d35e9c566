import json
import re
import shutil
from dataclasses import fields

import numpy as np
import pytest

from bbadapt import cli
from bbadapt.cli import (
    ExperimentConfig,
    handles_from_nets,
    main,
    run_seed,
    train_source_models,
)
from bbadapt.errors import ContractError
from bbadapt.nets import SourceNet, net_state, save_checkpoint
from bbadapt.predictors import InProcessPredictor, init_teacher, read_cache
from bbadapt.scenarios import DomainData, ScenarioSpec, Shift, generate


def small_config(**overrides):
    scenario = ScenarioSpec(
        family="gaussians",
        num_classes=3,
        n_source=120,
        n_target=90,
        target_shift=Shift(rotation_deg=25.0),
        seed=5,
        noise=0.35,
    )
    base = dict(
        scenario=scenario,
        seeds=(2019,),
        source_epochs=15,
        adapt_epochs=2,
        finetune_epochs=2,
        batch_size=32,
        hidden=(16,),
        bottleneck_dim=8,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


@pytest.fixture(scope="module")
def cfg_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cfg") / "experiment.json"
    path.write_text(json.dumps(small_config().to_dict()))
    return path


@pytest.fixture(scope="module")
def run_a(cfg_file, tmp_path_factory):
    outdir = tmp_path_factory.mktemp("runs") / "a"
    assert main(["adapt", "--config", str(cfg_file), "--outdir", str(outdir)]) == 0
    return outdir


def test_config_dict_round_trip():
    cfg = small_config(teacher="ls", disclosure="hard", drop_mi=True)
    assert ExperimentConfig.from_dict(cfg.to_dict()) == cfg


def test_config_accepts_manifest_wrapper():
    cfg = small_config()
    manifest = {"version": "0.0-test", "config": cfg.to_dict()}
    assert ExperimentConfig.from_dict(manifest) == cfg


def test_config_from_dict_rejects_bad_input():
    good = small_config().to_dict()
    bad_values = {
        "seeds": "2019",
        "hidden": "64",
        "drop_mi": "false",
        "freeze_bn_stats": 0,
        "r": 1.5,
        "batch_size": "32",
        "beta": "1.0",
        "teacher": 1,
    }
    for key, value in bad_values.items():
        with pytest.raises(ContractError, match=key):
            ExperimentConfig.from_dict({**good, key: value})
    with pytest.raises(ContractError, match="bogus"):
        ExperimentConfig.from_dict({**good, "bogus": 1})
    scenario = dict(good["scenario"])
    del scenario["family"]
    with pytest.raises(ContractError, match="family"):
        ExperimentConfig.from_dict({**good, "scenario": scenario})
    with pytest.raises(ContractError, match="translation"):
        ExperimentConfig.from_dict({**good, "scenario": {**good["scenario"], "target_shift": {"translation": "0"}}})
    with pytest.raises(ContractError):
        ExperimentConfig.from_dict([good])
    # integral floats are integers; absent optional keys take their defaults
    assert ExperimentConfig.from_dict({**good, "r": 2.0}).r == 2
    minimal = ExperimentConfig.from_dict({"scenario": {"family": "moons", "num_classes": 2}})
    assert minimal == ExperimentConfig(scenario=ScenarioSpec(family="moons", num_classes=2))


def test_config_validation():
    with pytest.raises(ContractError):
        small_config(teacher="oracle").validate()
    with pytest.raises(ContractError):
        small_config(r=0).validate()
    with pytest.raises(ContractError):
        small_config(r=4).validate()
    with pytest.raises(ContractError):
        small_config(teacher="hard", disclosure="full-soft").validate()
    with pytest.raises(ContractError):
        small_config(teacher="adals", disclosure="hard").validate()
    with pytest.raises(ContractError):
        small_config(seeds=()).validate()


def test_disclosed_r():
    assert small_config(r=1).disclosed_r() == 1
    assert small_config(r=3).disclosed_r() == 3  # auto at r = K is full disclosure
    assert small_config(teacher="hard").disclosed_r() == 0
    assert small_config(teacher="ls").disclosed_r() == 0
    assert small_config(disclosure="full-soft", r=1).disclosed_r() == 3
    assert small_config(disclosure="hard").disclosed_r() == 0
    assert small_config(disclosure="hard").disclosure_args() == {"disclosure": "hard", "r": 0}
    assert small_config(r=2).disclosure_args() == {"disclosure": "top-r", "r": 2}
    with pytest.raises(ContractError):
        small_config(disclosure="soft").disclosed_r()


def test_adapt_writes_run_artifacts(run_a, cfg_file):
    for name in ("manifest.json", "report.json", "metrics_seed2019.ndjson",
                 "distilled_seed2019.json", "target_seed2019.json"):
        assert (run_a / name).exists()
    manifest = json.loads((run_a / "manifest.json").read_text())
    assert ExperimentConfig.from_dict(manifest) == small_config()
    report = json.loads((run_a / "report.json").read_text())
    assert report["seeds"] == [2019]
    assert len(report["per_seed"]) == 1
    assert report["per_seed"][0]["seed"] == 2019
    assert 0.0 <= report["final_mean"] <= 100.0
    lines = [json.loads(l) for l in (run_a / "metrics_seed2019.ndjson").read_text().splitlines()]
    assert len(lines) == 4
    assert [l["phase"] for l in lines] == ["distill", "distill", "finetune", "finetune"]
    assert all(l["seed"] == 2019 and "loss" in l and "accuracy" in l for l in lines)


def test_rerun_is_byte_identical(run_a, cfg_file, tmp_path):
    outdir = tmp_path / "b"
    assert main(["adapt", "--config", str(cfg_file), "--outdir", str(outdir)]) == 0
    for name in ("report.json", "metrics_seed2019.ndjson", "manifest.json"):
        assert (outdir / name).read_bytes() == (run_a / name).read_bytes()


def test_adapt_from_manifest_reproduces(run_a, tmp_path):
    outdir = tmp_path / "from_manifest"
    assert main(["adapt", "--config", str(run_a / "manifest.json"), "--outdir", str(outdir)]) == 0
    assert (outdir / "metrics_seed2019.ndjson").read_bytes() == (run_a / "metrics_seed2019.ndjson").read_bytes()
    assert (outdir / "report.json").read_bytes() == (run_a / "report.json").read_bytes()


def test_checkpoint_cache_and_adapt_paths_agree(cfg_file, tmp_path):
    # train-source -> serve predictions from checkpoint or cache; both
    # adapt runs must produce identical artifacts
    srcdir = tmp_path / "sources"
    assert main(["train-source", "--config", str(cfg_file), "--seed", "2020",
                 "--outdir", str(srcdir)]) == 0
    ckpt = srcdir / "source0_seed2020.json"
    assert ckpt.exists()
    summary = json.loads((srcdir / "sources_seed2020.json").read_text())
    assert summary["sources"][0]["train_accuracy"] > 80.0

    # the second case, top-r at r = K, is full disclosure on both backings
    for tag, flags in (("auto", []), ("top3", ["--disclosure", "top-r", "--r", "3"])):
        cache = tmp_path / f"preds_{tag}.ndjson"
        assert main(["cache-predictions", "--config", str(cfg_file), *flags,
                     "--checkpoint", str(ckpt), "--out", str(cache)]) == 0
        assert len(cache.read_text().splitlines()) == 90

        run_ckpt = tmp_path / f"run_ckpt_{tag}"
        run_cache = tmp_path / f"run_cache_{tag}"
        assert main(["adapt", "--config", str(cfg_file), *flags, "--outdir", str(run_ckpt),
                     "--source-checkpoints", str(ckpt)]) == 0
        assert main(["adapt", "--config", str(cfg_file), *flags, "--outdir", str(run_cache),
                     "--caches", str(cache)]) == 0
        for name in ("report.json", "metrics_seed2019.ndjson"):
            assert (run_ckpt / name).read_bytes() == (run_cache / name).read_bytes()


def test_cli_surface_is_pinned(run_a, capsys):
    # the override flags are derived from the config fields; neither may drift
    with pytest.raises(SystemExit):
        main(["adapt", "--help"])
    options = set(re.findall(r"--[a-z][a-z-]*", capsys.readouterr().out)) - {"--help"}
    assert options == {
        "--adapt-epochs", "--batch-size", "--beta", "--caches", "--config", "--disclosure", "--drop-mi",
        "--drop-mix", "--endpoints", "--finetune-epochs", "--freeze-bn-stats", "--gamma", "--lr",
        "--mixup-alpha", "--no-drop-mi", "--no-drop-mix", "--no-freeze-bn-stats", "--outdir", "--preset",
        "--r", "--scenario-seed", "--seeds", "--source-checkpoints", "--source-epochs", "--teacher",
    }
    manifest = json.loads((run_a / "manifest.json").read_text())
    assert set(manifest["config"]) == {f.name for f in fields(ExperimentConfig)}


def test_report_command(run_a, tmp_path, capsys):
    curves = tmp_path / "curves.tsv"
    assert main(["report", str(run_a), str(tmp_path / "missing"), "--curves", str(curves)]) == 0
    out = capsys.readouterr().out
    assert "no-adapt" in out
    assert "absent" in out
    rows = curves.read_text().splitlines()
    assert rows[0] == "run\tseed\tphase\tepoch\tloss\taccuracy"
    assert len(rows) == 1 + 4


def test_report_on_a_malformed_report_exits_2(run_a, tmp_path, capsys):
    good = json.loads((run_a / "report.json").read_text())
    reports = {
        "empty_object": b"{}",
        "list": b"[]",
        "string_mean": json.dumps({**good, "final_mean": "90"}).encode(),
        "string_seeds": json.dumps({**good, "seeds": ["2019"]}).encode(),
        "truncated": b'{"seeds": [',
        "not_utf8": b"\xff\xfe\x00garbage\n",
    }
    for name, data in reports.items():
        rundir = tmp_path / name
        rundir.mkdir()
        (rundir / "report.json").write_bytes(data)
        assert main(["report", str(run_a), str(rundir)]) == 2, name
        captured = capsys.readouterr()
        assert captured.err.startswith("error: report ") and str(rundir / "report.json") in captured.err, name
        assert captured.err.count("\n") == 1 and captured.out == "", name


def test_report_on_a_malformed_metrics_line_exits_2(run_a, tmp_path, capsys):
    seed = json.loads((run_a / "report.json").read_text())["seeds"][0]
    good = (run_a / f"metrics_seed{seed}.ndjson").read_bytes()
    lines = {
        "no_phase": b'{"seed": 2019}\n',
        "not_json": good + b"{truncated\n",
        "not_object": good + b"[1, 2]\n",
        "not_utf8": b"\xff\xfe\x00garbage\n",
    }
    for name, data in lines.items():
        rundir = tmp_path / name
        shutil.copytree(run_a, rundir)
        metrics = rundir / f"metrics_seed{seed}.ndjson"
        metrics.write_bytes(data)
        curves = tmp_path / f"{name}.tsv"
        assert main(["report", str(rundir), "--curves", str(curves)]) == 2, name
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: metrics {metrics} line "), name
        assert captured.out == "" and not curves.exists(), name


def test_preset_with_overrides(tmp_path):
    outdir = tmp_path / "preset_run"
    code = main([
        "adapt", "--preset", "moons-rot30", "--seeds", "2019",
        "--source-epochs", "2", "--adapt-epochs", "1", "--finetune-epochs", "1",
        "--outdir", str(outdir),
    ])
    assert code == 0
    manifest = json.loads((outdir / "manifest.json").read_text())
    cfg = ExperimentConfig.from_dict(manifest)
    assert cfg.scenario.family == "moons"
    assert cfg.seeds == (2019,)
    assert cfg.adapt_epochs == 1


def test_target_labels_never_reach_training():
    # poisoned labels may change reported accuracy but not a single weight
    cfg = small_config(adapt_epochs=2, finetune_epochs=1)
    sources, target = generate(cfg.scenario)
    handles = handles_from_nets(cfg, train_source_models(cfg, sources, 2019))
    poisoned = DomainData(target.features, (target.labels + 1) % 3)
    out_clean = run_seed(cfg, target, handles, 2019)
    out_poisoned = run_seed(cfg, poisoned, handles, 2019)
    state_clean = net_state(out_clean["net"], seed=0)
    state_poisoned = net_state(out_poisoned["net"], seed=0)
    assert state_clean["params"] == state_poisoned["params"]
    assert state_clean["running"] == state_poisoned["running"]
    assert np.array_equal(
        out_clean["net"].predict_proba(target.features),
        out_poisoned["net"].predict_proba(target.features),
    )
    assert out_clean["summary"]["no_adapt"] != out_poisoned["summary"]["no_adapt"]


def test_frozen_hard_teacher_stays_one_hot():
    # gamma=1 pins the bank; a hard teacher bank must stay exactly one-hot
    cfg = small_config(teacher="hard", gamma=1.0, drop_mi=True, drop_mix=True,
                       adapt_epochs=2, finetune_epochs=0)
    sources, target = generate(cfg.scenario)
    handles = handles_from_nets(cfg, train_source_models(cfg, sources, 2019))
    initial = init_teacher(handles, target.features, r=cfg.r, hard_mode="onehot")
    out = run_seed(cfg, target, handles, 2019)
    assert np.array_equal(out["bank"].rows, initial.rows)
    assert np.all(np.sort(out["bank"].rows, axis=1)[:, :-1] == 0.0)


def test_main_error_exits(tmp_path, capsys):
    assert main(["adapt", "--outdir", str(tmp_path / "x")]) == 2
    assert "error:" in capsys.readouterr().err
    assert main(["adapt", "--config", str(tmp_path / "nope.json"), "--outdir", str(tmp_path / "x")]) == 2
    assert main(["adapt", "--preset", "moons-rot30", "--teacher", "hard",
                 "--disclosure", "full-soft", "--outdir", str(tmp_path / "x")]) == 2
    assert main(["cache-predictions", "--preset", "moons-rot30", "--out", str(tmp_path / "c.ndjson")]) == 2
    assert main(["finetune-only", "--checkpoint", str(tmp_path / "nope.json"),
                 "--outdir", str(tmp_path / "x")]) == 2
    (tmp_path / "bad.bin").write_bytes(b"\xff\xfe\x00garbage\n")

    good = small_config().to_dict()
    no_family = {**good, "scenario": {k: v for k, v in good["scenario"].items() if k != "family"}}
    configs = {
        "unknown_key.json": json.dumps({**good, "bogus": 1}),
        "no_family.json": json.dumps(no_family),
        "string_seeds.json": json.dumps({**good, "seeds": "2019"}),
        "string_bool.json": json.dumps({**good, "drop_mi": "false"}),
        "malformed.json": '{"config": ',
    }
    for name, text in configs.items():
        (tmp_path / name).write_text(text)
    capsys.readouterr()
    adapt = ["adapt", "--outdir", str(tmp_path / "x")]
    cache = ["cache-predictions", "--out", str(tmp_path / "c.ndjson"), "--preset", "moons-rot30"]
    for argv in (
        *([*adapt, "--config", str(tmp_path / name)] for name in configs),
        [*adapt, "--preset", "moons-rot30", "--seeds", "a,b"],
        [*adapt, "--preset", "moons-rot30", "--seeds=-1"],
        [*adapt, "--preset", "moons-rot30", "--endpoints", "host:abc"],
        [*adapt, "--preset", "moons-rot30", "--endpoints", "localhost"],
        [*cache, "--endpoint", "host:abc"],
        [*cache, "--endpoint", "localhost"],
        [*adapt, "--preset", "moons-rot30", "--batch-size", "0"],
        [*adapt, "--preset", "moons-rot30", "--source-epochs", "-1"],
        [*adapt, "--preset", "moons-rot30", "--lr", "0"],
        [*adapt, "--preset", "moons-rot30", "--lr", "nan"],
        [*adapt, "--preset", "moons-rot30", "--lr", "1e8"],
        [*adapt, "--preset", "moons-rot30", "--scenario-seed", "-1"],
        [*adapt, "--preset", "moons-rot30", "--caches", str(tmp_path / "bad.bin")],
        [*adapt, "--config", str(tmp_path / "bad.bin")],
        [*adapt, "--config", str(tmp_path)],  # a directory, not a file
        ["serve", "--checkpoint", str(tmp_path)],
    ):
        assert main(argv) == 2, argv
        assert "error:" in capsys.readouterr().err, argv


def test_bad_phase_arguments_write_nothing(cfg_file, tmp_path, capsys):
    # every phase's arguments are checked before the first file is written
    for flags in (["--adapt-epochs", "-1"], ["--finetune-epochs", "-1"], ["--batch-size", "1"]):
        outdir = tmp_path / "out"
        assert main(["adapt", "--config", str(cfg_file), *flags, "--outdir", str(outdir)]) == 2, flags
        assert "error:" in capsys.readouterr().err
        assert not outdir.exists(), flags


def test_bad_distillation_settings_exit_before_source_training(tmp_path, capsys, monkeypatch):
    def train_source_models(*args):
        raise AssertionError("source nets trained before the settings were checked")

    monkeypatch.setattr(cli, "train_source_models", train_source_models)
    for flags in (["--gamma", "2"], ["--gamma", "nan"], ["--beta", "-1"], ["--beta", "nan"], ["--beta", "inf"],
                  ["--mixup-alpha", "0"], ["--mixup-alpha", "nan"], ["--mixup-alpha", "inf"]):
        assert main(["adapt", "--preset", "moons-rot30", *flags, "--outdir", str(tmp_path / "x")]) == 2, flags
        assert capsys.readouterr().err.startswith("error: "), flags
        assert not (tmp_path / "x").exists(), flags


def test_serve_surface_is_pinned(capsys):
    with pytest.raises(SystemExit):
        main(["serve", "--help"])
    options = set(re.findall(r"--[a-z][a-z-]*", capsys.readouterr().out)) - {"--help"}
    assert options == {"--checkpoint", "--disclosure", "--host", "--port", "--r"}


def test_diverging_run_prints_only_the_error(tmp_path, capsys, recwarn):
    assert main(["adapt", "--preset", "moons-rot30", "--lr", "1e8", "--outdir", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: source: loss is nan at epoch ") and err.count("\n") == 1, err
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


def test_failed_run_leaves_no_manifest(tmp_path, capsys):
    outdir = tmp_path / "x"
    assert main(["adapt", "--preset", "moons-rot30", "--lr", "1e8", "--outdir", str(outdir)]) == 2
    assert "error:" in capsys.readouterr().err
    assert outdir.is_dir() and list(outdir.iterdir()) == []


@pytest.mark.parametrize("case", ["not an object", "empty params"])
def test_malformed_checkpoint_exits_2(case, cfg_file, tmp_path, capsys):
    state = [1, 2]
    if case == "empty params":
        state = {**net_state(SourceNet(2, 3, rng=np.random.default_rng(0))), "params": {}}
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(state))
    config = ["--config", str(cfg_file)]
    for argv in (
        ["serve", "--checkpoint", str(bad)],
        ["finetune-only", *config, "--checkpoint", str(bad), "--outdir", str(tmp_path / "ft")],
        ["cache-predictions", *config, "--checkpoint", str(bad), "--out", str(tmp_path / "c.ndjson")],
        ["adapt", *config, "--source-checkpoints", str(bad), "--outdir", str(tmp_path / "run")],
    ):
        assert main(argv) == 2, argv
        assert capsys.readouterr().err.startswith("error: checkpoint"), argv
    assert [p.name for p in tmp_path.iterdir()] == ["bad.json"]


def test_cache_predictions_checks_only_the_disclosure(cfg_file, tmp_path, capsys):
    # cache-predictions builds no teacher, so the default adals teacher does
    # not stop a hard cache, nor the hard teacher a full-soft one
    net = SourceNet(2, 3, hidden=(16,), rng=np.random.default_rng(0))
    ckpt = tmp_path / "source.json"
    save_checkpoint(net, str(ckpt), seed=0)
    x = generate(small_config().scenario)[1].features
    for flags, r in ((["--disclosure", "hard"], 0), (["--teacher", "hard", "--disclosure", "full-soft"], 3)):
        cache = tmp_path / f"r{r}.ndjson"
        assert main(["cache-predictions", "--config", str(cfg_file), *flags,
                     "--checkpoint", str(ckpt), "--out", str(cache)]) == 0, flags
        assert read_cache(str(cache), 3).query(x) == InProcessPredictor(net, "top-r" if r else "hard", r).query(x)
    assert "(hard)" in capsys.readouterr().out


def test_adapt_rejects_out_of_range_cache_class(cfg_file, tmp_path, capsys):
    # a cache covering the 90 target samples, one of whose records names class 9 of 3
    lines = [{"sample_id": i, "classes": [9 if i == 5 else 0], "probs": [0.9], "r": 1, "predictor_id": "c"}
             for i in range(90)]
    cache = tmp_path / "bad.ndjson"
    cache.write_text("".join(json.dumps(obj) + "\n" for obj in lines))
    assert main(["adapt", "--config", str(cfg_file), "--outdir", str(tmp_path / "x"), "--caches", str(cache)]) == 2
    assert "error:" in capsys.readouterr().err


def test_finetune_only_command(run_a, tmp_path, capsys):
    outdir = tmp_path / "ft"
    code = main([
        "finetune-only", "--config", str(run_a / "manifest.json"),
        "--checkpoint", str(run_a / "distilled_seed2019.json"),
        "--seed", "2019", "--outdir", str(outdir),
    ])
    assert code == 0
    assert "accuracy before" in capsys.readouterr().out
    assert (outdir / "target_seed2019.json").exists()
    lines = [json.loads(l) for l in (outdir / "metrics_seed2019.ndjson").read_text().splitlines()]
    assert [l["phase"] for l in lines] == ["finetune", "finetune"]
