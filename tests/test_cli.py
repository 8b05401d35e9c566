import contextlib
import functools
import inspect
import io
import json
import multiprocessing.connection
import os
import re
import shutil
import signal
import socket
import struct
import tempfile
import threading
import time
from dataclasses import fields
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bbadapt import cli
from bbadapt.cli import (
    ExperimentConfig,
    source_handles,
    main,
    run_seeds,
    train_source_models,
)
from bbadapt.errors import ContractError
from bbadapt.nets import SourceNet, TargetNet, load_checkpoint, net_state, save_checkpoint
from bbadapt.predictors import InProcessPredictor, init_teacher, read_cache, write_cache
from bbadapt.scenarios import PRESET_NAMES, DomainData, ScenarioSpec, Shift, generate, preset

from conftest import JSON, key_paths, replaced


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
        cache = tmp_path / f"preds_{tag}.json"
        assert main(["cache-predictions", "--config", str(cfg_file), *flags,
                     "--checkpoint", str(ckpt), "--out", str(cache)]) == 0
        assert len(json.loads(cache.read_text())["topk"]) == 90

        run_ckpt = tmp_path / f"run_ckpt_{tag}"
        run_cache = tmp_path / f"run_cache_{tag}"
        assert main(["adapt", "--config", str(cfg_file), *flags, "--outdir", str(run_ckpt),
                     "--source-checkpoints", str(ckpt)]) == 0
        assert main(["adapt", "--config", str(cfg_file), *flags, "--outdir", str(run_cache),
                     "--caches", str(cache)]) == 0
        for name in ("report.json", "metrics_seed2019.ndjson"):
            assert (run_ckpt / name).read_bytes() == (run_cache / name).read_bytes()


@pytest.mark.parametrize("backing", ["in-process", "caches"])
def test_a_seeds_outputs_do_not_depend_on_the_other_seeds(backing, tmp_path):
    # a run's seeds train in lockstep, one stack per phase; each seed's
    # files must be byte-identical to those of a run of that seed alone
    tiny = ["--preset", "multi3-gauss4", "--scenario-seed", "3",
            "--source-epochs", "2", "--adapt-epochs", "2", "--finetune-epochs", "2"]
    flags = []
    if backing == "caches":
        assert main(["train-source", *tiny, "--seed", "5", "--outdir", str(tmp_path / "sources")]) == 0
        caches = [str(tmp_path / f"preds{m}.json") for m in range(3)]
        for m, cache in enumerate(caches):
            checkpoint = str(tmp_path / "sources" / f"source{m}_seed5.json")
            assert main(["cache-predictions", *tiny, "--checkpoint", checkpoint, "--out", cache]) == 0
        flags = ["--caches", ",".join(caches)]
    for seeds in ("11,12", "11", "12"):
        assert main(["adapt", *tiny, *flags, "--seeds", seeds, "--outdir", str(tmp_path / seeds)]) == 0
    for seed in (11, 12):
        for name in (f"metrics_seed{seed}.ndjson", f"distilled_seed{seed}.json", f"target_seed{seed}.json"):
            assert (tmp_path / "11,12" / name).read_bytes() == (tmp_path / str(seed) / name).read_bytes(), name


# seed shares: `run_experiment` trains shares of the seeds in forked children ------------------

TINY_ADAPT = ["adapt", "--preset", "moons-rot30", "--source-epochs", "1", "--adapt-epochs", "1",
              "--finetune-epochs", "1"]
needs_fork = pytest.mark.skipif(not hasattr(os, "fork") or cli._blas_threads() is None,
                                reason="seed shares need os.fork and an OpenBLAS whose threads can be pinned")


@pytest.fixture
def forks(monkeypatch):
    """The pids of the children `os.fork` starts, recorded in the parent."""
    pids, fork = [], os.fork

    def recording_fork():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recording_fork)
    return pids


def _reaped(pids) -> bool:
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)
    return True


def _in_a_child(parent_pid, fn, real=run_seeds):
    """A `run_seeds` that calls `fn(seeds)` in a forked child and runs for real here."""
    def patched(cfg, target, handles, seeds):
        if os.getpid() != parent_pid:
            fn(seeds)
        return real(cfg, target, handles, seeds)

    return patched


def _files(outdir) -> dict:
    return {path.name: path.read_bytes() for path in sorted(outdir.iterdir())}


@needs_fork
@pytest.mark.parametrize("seeds", ["1", "1,2", "1,2,3"])
def test_shares_write_the_files_of_a_serial_run(seeds, tmp_path, monkeypatch, forks):
    count = len(seeds.split(","))
    for name, shares in (("serial", lambda seeds: 1), ("shares", len)):  # one share, or one per seed
        monkeypatch.setattr(cli, "_share_count", shares)
        assert main([*TINY_ADAPT, "--seeds", seeds, "--outdir", str(tmp_path / name)]) == 0
    assert len(forks) == count - 1 and _reaped(forks)
    serial, shared = _files(tmp_path / "serial"), _files(tmp_path / "shares")
    assert len(serial) == 3 * count + 2 and shared == serial


@needs_fork
def test_shares_use_the_cpus_one_blas_thread_each(tmp_path, monkeypatch, forks):
    get_threads = cli._blas_threads()[0]
    before, during = get_threads(), []

    def counting(cfg, target, handles, seeds):
        during.append(get_threads())
        return run_seeds(cfg, target, handles, seeds)

    monkeypatch.setattr(cli, "run_seeds", counting)
    alone = threading.active_count() == 1  # a process with another thread running does not fork
    assert cli._share_count((1, 2, 3)) == (min(len(os.sched_getaffinity(0)), 3) if alone else 1)
    assert cli._share_count((1,)) == 1
    stop = threading.Event()
    waiting = threading.Thread(target=stop.wait)
    waiting.start()
    try:
        assert cli._share_count((1, 2, 3)) == 1
    finally:
        stop.set()
        waiting.join(timeout=10)
    assert not waiting.is_alive()
    assert main([*TINY_ADAPT, "--seeds", "1,2,3", "--outdir", str(tmp_path / "x")]) == 0
    assert len(forks) == cli._share_count((1, 2, 3)) - 1 and _reaped(forks)
    assert during == [1 if forks else before] and get_threads() == before


def test_an_unpinnable_blas_runs_serially(tmp_path, monkeypatch):
    def no_fork():
        raise AssertionError("forked without a pinned BLAS")

    monkeypatch.setattr(cli, "_blas_threads", lambda: None)
    monkeypatch.setattr(os, "fork", no_fork)
    assert main([*TINY_ADAPT, "--seeds", "1,2,3", "--outdir", str(tmp_path / "x")]) == 0
    assert len(list((tmp_path / "x").iterdir())) == 3 * 3 + 2


@needs_fork
def test_a_contract_error_in_a_child_exits_2(tmp_path, capsys, monkeypatch, forks):
    # shares (1), (2) and (3); both children fail, and the first share in seed order to fail is reported
    def refuse(seeds):
        raise ContractError(f"refused seeds {list(seeds)}")

    monkeypatch.setattr(cli, "_share_count", len)
    monkeypatch.setattr(cli, "run_seeds", _in_a_child(os.getpid(), refuse))
    outdir = tmp_path / "x"
    assert main([*TINY_ADAPT, "--seeds", "1,2,3", "--outdir", str(outdir)]) == 2
    assert capsys.readouterr().err == "error: refused seeds [2]\n"
    assert not outdir.exists() and len(forks) == 2 and _reaped(forks)


def _unpicklable_result(*args):
    outs = run_seeds(*args)
    outs[0]["net"] = lambda: None  # a value Connection.send cannot pickle
    return outs


def _cut_off_result(*args):
    def send(self, obj):  # a header and less than it announces, as from a child killed mid-message
        os.write(self.fileno(), struct.pack("!i", 1 << 20) + b"partial")
        os._exit(4)

    multiprocessing.connection.Connection.send = send  # in the child only
    return run_seeds(*args)


@needs_fork
@pytest.mark.parametrize("child, code", [
    pytest.param(lambda *args: os._exit(3), 3, id="exit"),
    pytest.param(lambda *args: os.kill(os.getpid(), signal.SIGKILL), -9, id="killed"),
    pytest.param(_unpicklable_result, 1, id="unpicklable"),
    pytest.param(_cut_off_result, 4, id="cut-off"),
])
def test_a_child_that_ends_without_a_result_raises(child, code, tmp_path, monkeypatch, forks):
    parent = os.getpid()
    monkeypatch.setattr(cli, "_share_count", len)
    monkeypatch.setattr(cli, "run_seeds", lambda *args: (run_seeds if os.getpid() == parent else child)(*args))
    outdir = tmp_path / "x"
    with pytest.raises(RuntimeError, match=rf"seeds \[2\] ended without a result \(exit code {code}\)"):
        main([*TINY_ADAPT, "--seeds", "1,2", "--outdir", str(outdir)])
    assert not outdir.exists() and len(forks) == 1 and _reaped(forks)


@needs_fork
def test_a_failing_parent_share_stops_the_children(tmp_path, capsys, monkeypatch, forks):
    parent = os.getpid()

    def refuse_here(cfg, target, handles, seeds):
        if os.getpid() == parent:
            raise ContractError(f"refused seeds {list(seeds)}")
        time.sleep(60)  # a child still at work when the parent's share fails

    monkeypatch.setattr(cli, "_share_count", len)
    monkeypatch.setattr(cli, "run_seeds", refuse_here)
    outdir = tmp_path / "x"
    started = time.monotonic()
    assert main([*TINY_ADAPT, "--seeds", "1,2", "--outdir", str(outdir)]) == 2
    assert time.monotonic() - started < 30
    assert capsys.readouterr().err == "error: refused seeds [1]\n"
    assert not outdir.exists() and len(forks) == 1 and _reaped(forks)


@pytest.mark.parametrize("share_count", [pytest.param(lambda seeds: 1, id="serial"),
                                         pytest.param(len, id="shares", marks=needs_fork)])
def test_each_fixed_source_is_queried_once_per_run(share_count, tmp_path, monkeypatch):
    # a black box's cost is its queries: one per source and run, whatever the seeds; the log is a
    # file, so a query made in a forked share counts too
    tiny = ["--preset", "multi3-gauss4", *TINY_ADAPT[3:]]
    assert main(["train-source", *tiny, "--seed", "5", "--outdir", str(tmp_path / "sources")]) == 0
    checkpoints = ",".join(str(tmp_path / "sources" / f"source{m}_seed5.json") for m in range(3))
    log, query = tmp_path / "queries.log", InProcessPredictor.query

    def logged(self, features):
        with open(log, "a") as fh:
            fh.write(f"{self.predictor_id}\n")
        return query(self, features)

    monkeypatch.setattr(InProcessPredictor, "query", logged)
    monkeypatch.setattr(cli, "_share_count", share_count)
    for seeds in ("1", "1,2,3"):
        log.write_text("")
        outdir = str(tmp_path / seeds)
        assert main(["adapt", *tiny, "--seeds", seeds, "--source-checkpoints", checkpoints, "--outdir", outdir]) == 0
        assert sorted(log.read_text().split()) == ["source0", "source1", "source2"], seeds


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
        "deep": b"[" * 100_000,
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
        "deep": good + b"[" * 100_000 + b"\n",
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
    handles = source_handles(cfg, train_source_models(cfg, sources, [2019])[0])
    poisoned = DomainData(target.features, (target.labels + 1) % 3)
    (out_clean,) = run_seeds(cfg, target, [handles], [2019])
    (out_poisoned,) = run_seeds(cfg, poisoned, [handles], [2019])
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
    handles = source_handles(cfg, train_source_models(cfg, sources, [2019])[0])
    initial = init_teacher(handles, target.features, r=cfg.r, hard_mode="onehot")
    (out,) = run_seeds(cfg, target, [handles], [2019])
    assert np.array_equal(out["bank"].rows, initial.rows)
    assert np.all(np.sort(out["bank"].rows, axis=1)[:, :-1] == 0.0)


def test_main_error_exits(tmp_path, capsys):
    assert main(["adapt", "--outdir", str(tmp_path / "x")]) == 2
    assert "error:" in capsys.readouterr().err
    assert main(["adapt", "--config", str(tmp_path / "nope.json"), "--outdir", str(tmp_path / "x")]) == 2
    assert main(["adapt", "--preset", "moons-rot30", "--teacher", "hard",
                 "--disclosure", "full-soft", "--outdir", str(tmp_path / "x")]) == 2
    assert main(["cache-predictions", "--preset", "moons-rot30", "--out", str(tmp_path / "c.json")]) == 2
    assert main(["finetune-only", "--checkpoint", str(tmp_path / "nope.json"),
                 "--outdir", str(tmp_path / "x")]) == 2
    (tmp_path / "bad.bin").write_bytes(b"\xff\xfe\x00garbage\n")
    (tmp_path / "deep.json").write_bytes(b"[" * 100_000)
    checkpoint = tmp_path / "source.json"
    save_checkpoint(SourceNet(2, 2, hidden=(4,), rng=np.random.default_rng(0)), str(checkpoint), seed=0)

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
    cache = ["cache-predictions", "--out", str(tmp_path / "c.json"), "--preset", "moons-rot30"]
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
        [*adapt, "--config", str(tmp_path / "deep.json")],  # nested too deep to parse
        ["serve", "--checkpoint", str(tmp_path / "deep.json")],
        ["serve", "--checkpoint", str(checkpoint), "--port", "70000"],
        ["serve", "--checkpoint", str(checkpoint), "--port=-1"],
    ):
        assert main(argv) == 2, argv
        assert "error:" in capsys.readouterr().err, argv


BAD_PHASE_ARGUMENTS = [
    (["--batch-size", "1"], "distill: batch_size must be at least 2, got 1"),
    (["--adapt-epochs", "-1"], "distill: epochs must be nonnegative, got -1"),
    (["--finetune-epochs", "-1"], "finetune: epochs must be nonnegative, got -1"),
    (["--lr", "0"], "source: learning rate must be finite and positive, got 0.0"),
    (["--gamma", "2"], "gamma must lie in [0, 1], got 2.0"),
    (["--beta", "-1"], "beta must be finite and nonnegative, got -1.0"),
    (["--mixup-alpha", "0"], "mixup_alpha must be finite and positive, got 0.0"),
]


def test_bad_phase_arguments_write_nothing(cfg_file, tmp_path, capsys):
    # `validate` checks every phase's arguments before the first file is written: the source phase's
    # even when a cache stands in for the sources, and beta even when --drop-mix leaves it unused
    net = SourceNet(2, 3, hidden=(16,), rng=np.random.default_rng(0))
    cache = tmp_path / "cache.json"
    write_cache(str(cache), InProcessPredictor(net, "top-r", 1), generate(small_config().scenario)[1].features)
    outdir = tmp_path / "out"
    unused = [
        (["--caches", str(cache), "--source-epochs", "-1"], "source: epochs must be nonnegative, got -1"),
        (["--caches", str(cache), "--lr", "0"], "source: learning rate must be finite and positive, got 0.0"),
        (["--drop-mix", "--beta", "-1"], "beta must be finite and nonnegative, got -1.0"),
    ]
    for flags, message in (*BAD_PHASE_ARGUMENTS, *unused):
        assert main(["adapt", "--config", str(cfg_file), *flags, "--outdir", str(outdir)]) == 2, flags
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not outdir.exists(), flags
    assert main(["adapt", "--config", str(cfg_file), "--caches", str(cache), "--outdir", str(outdir)]) == 0


@pytest.mark.parametrize("drop_mix", [False, True])
def test_every_hyper_parameter_reaches_its_phase(drop_mix, tmp_path, monkeypatch):
    # each value differs from the phase's default, so a keyword left out would show
    cfg = small_config(source_epochs=3, ls_alpha=0.2, adapt_epochs=3, finetune_epochs=4, batch_size=16,
                       lr_backbone=2e-3, beta=0.7, gamma=0.5, mixup_alpha=0.4, drop_mix=drop_mix, drop_mi=True,
                       freeze_bn_stats=True)
    config = tmp_path / "experiment.json"
    config.write_text(json.dumps(cfg.to_dict()))
    shared = dict(batch_size=cfg.batch_size, lr_backbone=cfg.lr_backbone)
    expected = {
        "train_source_net": dict(epochs=cfg.source_epochs, **shared, ls_alpha=cfg.ls_alpha),
        "run_distillation": dict(epochs=cfg.adapt_epochs, **shared, beta=0.0 if drop_mix else cfg.beta,
                                 gamma=cfg.gamma, mixup_alpha=cfg.mixup_alpha, drop_mi=cfg.drop_mi),
        "run_finetune": dict(epochs=cfg.finetune_epochs, **shared, freeze_bn_stats=cfg.freeze_bn_stats),
    }
    calls = {name: [] for name in expected}
    for name, want in expected.items():
        phase = getattr(cli, name)
        defaults = inspect.signature(phase).parameters
        assert all(value != defaults[key].default for key, value in want.items()), name

        def spy(*args, _phase=phase, _calls=calls[name], **kwargs):
            _calls.append({key: value for key, value in kwargs.items() if key not in ("eval_fn", "names")})
            return _phase(*args, **kwargs)

        monkeypatch.setattr(cli, name, spy)
    assert main(["adapt", "--config", str(config), "--outdir", str(tmp_path / "run")]) == 0
    distilled = tmp_path / "run" / "distilled_seed2019.json"
    assert main(["finetune-only", "--config", str(config), "--checkpoint", str(distilled),
                 "--outdir", str(tmp_path / "ft")]) == 0
    assert calls == {name: [want] * (2 if name == "run_finetune" else 1) for name, want in expected.items()}


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


def test_a_diverging_step_that_fails_a_check_names_its_seed(tmp_path, capsys, recwarn):
    # a student's predictions go NaN, which a probability check meets before the loss: after two source
    # epochs inside a step; with a trained source from a checkpoint, in the epoch-end forward that feeds
    # the bank after the epoch's last step
    assert main(["train-source", "--preset", "moons-rot30", "--seed", "5", "--outdir", str(tmp_path / "c")]) == 0
    checkpoint = str(tmp_path / "c" / "source0_seed5.json")
    cases = [
        (["--lr", "1e6", "--source-epochs", "2"], r"student rows", r"epoch \d+, step \d+ of 480 \(seed [12]\)"),
        (["--lr", "1e8", "--source-checkpoints", checkpoint], r"epoch-end predictions",
         r"epoch 1, step 16 of 480 \(seed 1\)"),
    ]
    for n, (flags, checked, where) in enumerate(cases):
        capsys.readouterr()
        outdir = tmp_path / f"x{n}"
        assert main(["adapt", "--preset", "moons-rot30", "--seeds", "1,2", *flags, "--outdir", str(outdir)]) == 2
        err = capsys.readouterr().err
        message = rf"error: distill: {checked} has negative or NaN entries \(min=nan\) at {where}\n"
        assert re.fullmatch(message, err), err
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]
        assert not outdir.exists()


def test_a_diverging_finetune_only_writes_nothing(tmp_path, capsys, recwarn):
    # one step per epoch overflows the parameters; the epoch-end forward meets the NaN, not the next loss
    flags = ["--preset", "moons-rot30", "--seeds", "1", "--source-epochs", "2", "--adapt-epochs", "1"]
    assert main(["adapt", *flags, "--finetune-epochs", "0", "--outdir", str(tmp_path / "d")]) == 0
    capsys.readouterr()
    outdir = tmp_path / "f"
    assert main(["finetune-only", "--preset", "moons-rot30", "--checkpoint", str(tmp_path / "d" / "target_seed1.json"),
                 "--seed", "1", "--lr", "1e150", "--finetune-epochs", "1", "--batch-size", "1000",
                 "--outdir", str(outdir)]) == 2
    err = capsys.readouterr().err
    assert err == ("error: finetune: epoch-end predictions has negative or NaN entries (min=nan) "
                   "at epoch 1, step 1 of 1\n"), err
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]
    assert not outdir.exists()


def test_a_negative_seed_exits_2(tmp_path, capsys):
    for argv in (["train-source", "--preset", "moons-rot30", "--seed", "-1", "--outdir", str(tmp_path / "x")],
                 ["finetune-only", "--preset", "moons-rot30", "--checkpoint", str(tmp_path / "none.json"),
                  "--seed", "-3", "--outdir", str(tmp_path / "x")]):
        assert main(argv) == 2, argv
        seed = argv[argv.index("--seed") + 1]
        assert capsys.readouterr().err == f"error: --seed must be a nonnegative integer, got {seed}\n"
    assert list(tmp_path.iterdir()) == []


def test_failed_run_leaves_no_manifest(tmp_path, capsys):
    outdir = tmp_path / "x"
    assert main(["adapt", "--preset", "moons-rot30", "--lr", "1e8", "--outdir", str(outdir)]) == 2
    assert "error:" in capsys.readouterr().err
    assert not outdir.exists()


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
        ["cache-predictions", *config, "--checkpoint", str(bad), "--out", str(tmp_path / "c.json")],
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
        cache = tmp_path / f"r{r}.json"
        assert main(["cache-predictions", "--config", str(cfg_file), *flags,
                     "--checkpoint", str(ckpt), "--out", str(cache)]) == 0, flags
        assert read_cache(str(cache), 3).query(x) == InProcessPredictor(net, "top-r" if r else "hard", r).query(x)
    assert "(hard)" in capsys.readouterr().out


def test_source_handles_of_every_backing(tmp_path):
    # in-process nets then checkpoints as source{i}, endpoints as remote{i}, each at the config's level;
    # then caches as saved, which must be at that level too
    net = SourceNet(2, 3, hidden=(4,), rng=np.random.default_rng(0))
    other = SourceNet(2, 3, hidden=(4,), rng=np.random.default_rng(1))
    ckpt = tmp_path / "source.json"
    save_checkpoint(other, str(ckpt), seed=0)
    x = generate(small_config().scenario)[1].features
    caches = {}
    for r in range(4):
        caches[r] = tmp_path / f"cache{r}.json"
        write_cache(str(caches[r]), InProcessPredictor(net, "top-r" if r else "hard", r, predictor_id="cached"), x)
    assert source_handles(small_config()) == []
    for cfg in (small_config(), small_config(r=2), small_config(teacher="hard"), small_config(disclosure="full-soft")):
        r = cfg.disclosed_r()
        handles = source_handles(cfg, nets=[net, other], checkpoints=[str(ckpt)],
                                 endpoints=["127.0.0.1:7001", "localhost:7002"], caches=[str(caches[r])])
        assert [(type(h).__name__, h.predictor_id, h.r) for h in handles] == [
            ("InProcessPredictor", "source0", r), ("InProcessPredictor", "source1", r),
            ("InProcessPredictor", "source2", r), ("RemotePredictor", "remote0", r),
            ("RemotePredictor", "remote1", r), ("CachedPredictor", "cached", r),
        ]
        for other_r in set(caches) - {r}:
            with pytest.raises(ContractError, match=rf"^handle 'cached' discloses .* \(r={other_r}\), "
                                                    rf"config expects r={r}$"):
                source_handles(cfg, caches=[str(caches[r]), str(caches[other_r])])
        assert [(h.host, h.port) for h in handles[3:5]] == [("127.0.0.1", 7001), ("localhost", 7002)]
        mode = "top-r" if r else "hard"
        assert handles[1].query(x) == handles[2].query(x) == InProcessPredictor(other, mode, r).query(x)
        assert handles[0].query(x) == InProcessPredictor(net, mode, r).query(x)


def test_adapt_rejects_a_cache_saved_at_another_level(cfg_file, tmp_path, capsys):
    # the config discloses at r=1; a cache keeps the level it was saved at, and `source_handles` refuses it
    net = SourceNet(2, 3, hidden=(16,), rng=np.random.default_rng(0))
    cache = tmp_path / "cache.json"
    write_cache(str(cache), InProcessPredictor(net, "top-r", 2), generate(small_config().scenario)[1].features)
    outdir = tmp_path / "out"
    for seeds in ("2019", "2019,2020"):
        assert main(["adapt", "--config", str(cfg_file), "--seeds", seeds, "--caches", str(cache),
                     "--outdir", str(outdir)]) == 2, seeds
        assert capsys.readouterr().err == "error: handle 'source' discloses top-r (r=2), config expects r=1\n"
        assert not outdir.exists(), seeds


def test_adapt_rejects_out_of_range_cache_class(cfg_file, tmp_path, capsys):
    # a cache covering the 90 target samples, whose row 5 names class 9 of 3
    topk = [[[9 if i == 5 else 0, 0.9]] for i in range(90)]
    cache = tmp_path / "bad.json"
    cache.write_text(json.dumps({"num_classes": 3, "predictor_id": "c", "r": 1, "topk": topk}))
    assert main(["adapt", "--config", str(cfg_file), "--outdir", str(tmp_path / "x"), "--caches", str(cache)]) == 2
    assert capsys.readouterr().err.startswith(f"error: cache {cache}: record 5: classes must be integers in [0, 3)")
    assert not (tmp_path / "x").exists()


def test_adapt_rejects_an_old_or_foreign_cache(cfg_file, tmp_path, capsys, monkeypatch):
    # a cache in the old one-line-per-sample format, and one written for 4 classes, not the scenario's 3
    old = tmp_path / "old.ndjson"
    old.write_text("".join(json.dumps({"classes": [0], "predictor_id": "c", "probs": [0.9], "r": 1, "sample_id": i},
                                      sort_keys=True) + "\n" for i in range(90)))
    foreign = tmp_path / "foreign.json"
    net = SourceNet(2, 4, hidden=(4,), rng=np.random.default_rng(0))
    write_cache(str(foreign), InProcessPredictor(net, "top-r", 1), generate(small_config().scenario)[1].features)
    monkeypatch.setattr(cli, "generate", _never)
    for cache in (old, foreign):
        assert main(["adapt", "--config", str(cfg_file), "--outdir", str(tmp_path / "x"), "--caches", str(cache)]) == 2
        assert capsys.readouterr().err.startswith(f"error: cache {cache}"), cache
        assert not (tmp_path / "x").exists()


def test_checkpoint_for_another_scenario_exits_2(cfg_file, tmp_path, capsys, monkeypatch):
    # the scenario maps 2 features to 3 classes; nothing may be generated, trained or written
    monkeypatch.setattr(cli, "generate", _never)
    monkeypatch.setattr(cli, "train_source_models", _never)
    config = ["--config", str(cfg_file)]
    for in_dim, k in ((2, 4), (3, 3)):
        ckpt = tmp_path / f"source_{in_dim}_{k}.json"
        save_checkpoint(SourceNet(in_dim, k, hidden=(4,), rng=np.random.default_rng(0)), str(ckpt), seed=0)
        for argv in (
            ["adapt", *config, "--source-checkpoints", str(ckpt), "--outdir", str(tmp_path / "run")],
            ["cache-predictions", *config, "--checkpoint", str(ckpt), "--out", str(tmp_path / "c.json")],
            ["finetune-only", *config, "--checkpoint", str(ckpt), "--outdir", str(tmp_path / "ft")],
        ):
            assert main(argv) == 2, argv
            assert capsys.readouterr().err.startswith(f"error: checkpoint {ckpt} maps {in_dim} features to {k} "
                                                      "classes, but the scenario has 2 features and 3 classes"), argv
    assert sorted(p.name for p in tmp_path.iterdir()) == ["source_2_4.json", "source_3_3.json"]


def test_train_source_writes_the_same_summary_under_any_outdir(tmp_path):
    # the summary names each checkpoint by its file name, which sits beside it
    summaries = []
    for outdir in (tmp_path / "a", tmp_path / "b" / "nested"):
        assert main(["train-source", "--preset", "moons-rot30", "--seed", "5", "--source-epochs", "1",
                     "--outdir", str(outdir)]) == 0
        summaries.append((outdir / "sources_seed5.json").read_bytes())
        (row,) = json.loads(summaries[-1])["sources"]
        assert (outdir / row["checkpoint"]).is_file()
    assert summaries[0] == summaries[1]


def test_an_overflowing_source_checkpoint_exits_2(tmp_path, capsys, recwarn):
    # a checkpoint that loads, but whose forward overflows: no numpy warning, no NaN cache, one error line
    assert main(["train-source", "--preset", "moons-rot30", "--seed", "5", "--source-epochs", "2",
                 "--outdir", str(tmp_path / "c")]) == 0
    state = json.loads((tmp_path / "c" / "source0_seed5.json").read_text())
    for name in ("trunk.0.weight", "trunk.1.weight"):
        state["params"][name] = (np.array(state["params"][name]) * 1e160).tolist()
    checkpoint = tmp_path / "overflowing.json"
    checkpoint.write_text(json.dumps(state))
    capsys.readouterr()
    out = tmp_path / "out"
    for argv, source in (
        (["cache-predictions", "--checkpoint", str(checkpoint), "--out", str(out / "c.json")], "source0"),
        (["adapt", "--seeds", "1,2", "--source-checkpoints", str(checkpoint), "--outdir", str(out)], "source0"),
    ):
        assert main([argv[0], "--preset", "moons-rot30", *argv[1:]]) == 2, argv
        err = capsys.readouterr().err
        assert err == f"error: predictor '{source}' predictions has negative or NaN entries (min=nan)\n", err
        assert not out.exists() or list(out.iterdir()) == [], argv
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


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


@pytest.mark.parametrize("flags", [["--disclosure", "hard"], ["--teacher", "hard", "--disclosure", "full-soft"]])
def test_train_source_and_finetune_only_check_only_their_fields(flags, run_a, tmp_path, capsys):
    # neither command builds a teacher, so no teacher/disclosure pairing stops it
    assert main(["train-source", "--preset", "moons-rot30", *flags, "--source-epochs", "1",
                 "--seed", "3", "--outdir", str(tmp_path / "src")]) == 0, flags
    assert (tmp_path / "src" / "source0_seed3.json").exists()
    assert main(["finetune-only", "--config", str(run_a / "manifest.json"), *flags, "--finetune-epochs", "1",
                 "--checkpoint", str(run_a / "distilled_seed2019.json"), "--outdir", str(tmp_path / "ft")]) == 0, flags
    assert (tmp_path / "ft" / "target_seed2020.json").exists()
    assert capsys.readouterr().err == ""


BAD_CONFIG_VALUES = [
    ("hidden", [0]),
    ("hidden", [16, -4]),
    ("bottleneck_dim", 0),
    ("ls_alpha", 2.0),
    ("ls_alpha", -0.1),
    ("ls_alpha", float("nan")),
    ("scenario.target_shift.translation", [1.0, 2.0, 3.0]),
    ("scenario.target_shift.translation", [1.0]),
    ("scenario.target_shift.translation", [0.0, float("inf")]),
    ("scenario.target_shift.rotation_deg", float("nan")),
    ("scenario.target_shift.noise_scale", float("inf")),
    ("scenario.target_shift.noise_scale", -1.0),
    ("scenario.noise", -1.0),
    ("scenario.noise", float("nan")),
    ("scenario.noise", float("inf")),
    ("scenario.radius", float("inf")),
    ("scenario.target_shift.translation", [0.0, 6.1e93]),  # batch-norm variances overflow on such features
    ("scenario.target_shift.noise_scale", 1e7),
    ("scenario.noise", 1e7),
    ("scenario.radius", -2e6),
    ("seeds", [1, 1]),
    ("scenario.num_classes", 1_000_000),
    ("scenario.n_source", 10_000_000),
    ("scenario.n_target", 10_000_000),
    ("hidden", [1_000_000]),
    ("hidden", [16] * 9),
    ("bottleneck_dim", 1_000_000),
    ("scenario.source_shifts", [{}] * 17),
]


def _never(*args):
    raise AssertionError("data was generated or nets trained before the config was checked")


@pytest.mark.parametrize("path, value", BAD_CONFIG_VALUES, ids=[f"{p}={v}" for p, v in BAD_CONFIG_VALUES])
def test_bad_config_values_exit_2_before_training(path, value, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "generate", _never)
    monkeypatch.setattr(cli, "train_source_models", _never)
    config = tmp_path / "bad.json"
    config.write_text(json.dumps(replaced(small_config().to_dict(), path.split("."), value)))
    outdir = tmp_path / "x"
    assert main(["adapt", "--config", str(config), "--outdir", str(outdir)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and path.rsplit(".", 1)[-1] in err, err
    assert not outdir.exists()


CONFLICTS = [
    (["adapt", "--config", "c.json", "--preset", "moons-rot30"], "not allowed with argument"),
    (["adapt", "--config", "c.json", "--scenario-seed", "3"], "--scenario-seed"),
    (["adapt", "--preset", "moons-rot30", "--caches", "a.ndjson", "--endpoints", "localhost:1"], "not allowed"),
    (["adapt", "--preset", "moons-rot30", "--caches", "a.ndjson", "--source-checkpoints", "s.json"], "not allowed"),
    (["adapt", "--preset", "moons-rot30", "--endpoints", "localhost:1", "--source-checkpoints", "s.json"],
     "not allowed"),
    (["cache-predictions", "--preset", "moons-rot30", "--checkpoint", "s.json", "--endpoint", "localhost:1"],
     "not allowed"),
]


@pytest.mark.parametrize("argv, message", CONFLICTS,
                         ids=[" ".join(a for a in argv if a.startswith("--")) for argv, _ in CONFLICTS])
def test_conflicting_options_exit_2(argv, message, cfg_file, tmp_path, capsys, monkeypatch):
    # every pair names two sources of one thing; neither may silently win
    monkeypatch.setattr(cli, "generate", _never)
    argv = [str(cfg_file) if a == "c.json" else a for a in argv]
    argv += ["--out" if argv[0] == "cache-predictions" else "--outdir", str(tmp_path / "x")]
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse rejects a pair of exclusive options
        code = exc.code
    assert code == 2, argv
    err = capsys.readouterr().err
    assert "error: " in err and message in err, err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("value", [",", ""])
@pytest.mark.parametrize("flag", ["--caches", "--endpoints", "--source-checkpoints"])
def test_a_source_list_that_names_nothing_exits_2(flag, value, tmp_path, capsys, monkeypatch):
    # fresh source models must not stand in for the sources a run was given
    monkeypatch.setattr(cli, "generate", _never)
    outdir = tmp_path / "x"
    with pytest.raises(SystemExit) as exc:
        main(["adapt", "--preset", "moons-rot30", flag, value, "--outdir", str(outdir)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {flag}: expected one or more comma-separated paths, got {value!r}" in err, err
    assert not outdir.exists()
    assert cli._split_paths("a.json,") == ["a.json"]  # a trailing comma names nothing more


def test_an_unreachable_endpoint_leaves_no_outdir(tmp_path, capsys):
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    outdir = tmp_path / "x"
    assert main(["adapt", "--preset", "moons-rot30", "--endpoints", f"127.0.0.1:{port}", "--outdir", str(outdir)]) == 2
    assert f"predictor at 127.0.0.1:{port} unreachable" in capsys.readouterr().err
    assert not outdir.exists()


PRESET_CONFIGS = [ExperimentConfig(scenario=preset(name)).to_dict() for name in PRESET_NAMES]
NUMBERS = st.integers() | st.floats() | st.sampled_from([10**400, -(10**400), 2**63, 0, -1, 10**7])
VALUE = JSON | NUMBERS | st.lists(NUMBERS, max_size=12)


@st.composite
def near_valid_configs(draw):
    config = draw(st.sampled_from(PRESET_CONFIGS))
    for _ in range(draw(st.integers(1, 3))):
        config = replaced(config, draw(st.sampled_from(key_paths(config)[1:])), draw(VALUE))
    return config


@given(JSON | near_valid_configs())
@settings(max_examples=300, deadline=None)
def test_config_validation_fuzz(obj):
    with mock.patch.object(cli, "generate", _never), mock.patch.object(cli, "train_source_models", _never):
        try:
            ExperimentConfig.from_dict(obj).validate()
        except ContractError:
            pass


# the presets cut to a few dozen samples, one seed and one epoch per phase, and small values of each type
TINY = {"seeds": [1], "source_epochs": 1, "adapt_epochs": 1, "finetune_epochs": 1, "batch_size": 16, "hidden": [8],
        "bottleneck_dim": 4}
TINY_CONFIGS = [{**config, **TINY, "scenario": {**config["scenario"], "n_source": 32, "n_target": 32}}
                for config in PRESET_CONFIGS]


def _at(obj, path):
    return functools.reduce(lambda value, key: value[key], path, obj)


WORDS = sorted({value for config in PRESET_CONFIGS for path in key_paths(config)
                if isinstance(value := _at(config, path), str)} | {*cli.TEACHERS, *cli.DISCLOSURES, "auto"})
SMALL_INTS = st.integers(-2, 40)
SMALL = (st.none() | st.booleans() | st.sampled_from(WORDS) | SMALL_INTS | st.floats()
         | st.lists(SMALL_INTS | st.floats(), max_size=4))
LIKE = {bool: st.booleans(), int: SMALL_INTS, float: st.floats(), str: st.sampled_from(WORDS),
        list: st.lists(SMALL_INTS, max_size=4) | st.lists(st.floats(), max_size=4)}


@st.composite
def tiny_configs(draw):
    config = draw(st.sampled_from(TINY_CONFIGS))
    for _ in range(draw(st.integers(0, 2))):
        path = draw(st.sampled_from(key_paths(config)[1:]))
        config = replaced(config, path, draw(LIKE.get(type(_at(config, path)), SMALL)))
    return config


@given(tiny_configs())
@settings(max_examples=25, deadline=None)
def test_a_tiny_config_runs_or_exits_2(obj):
    # what the checks let through trains to the end, and its checkpoints load back; anything they stop,
    # before or during training (a diverging run), exits 2 with one error line and leaves no file
    with tempfile.TemporaryDirectory() as tmp:
        config, outdir, err = os.path.join(tmp, "config.json"), os.path.join(tmp, "run"), io.StringIO()
        with open(config, "w") as fh:
            json.dump(obj, fh)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["adapt", "--config", config, "--outdir", outdir])
        if code == 2:
            assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1, err.getvalue()
            assert not os.path.exists(outdir) or os.listdir(outdir) == []
            return
        assert code == 0, err.getvalue()
        for seed in ExperimentConfig.from_dict(obj).seeds:
            for name in (f"distilled_seed{seed}.json", f"target_seed{seed}.json"):
                assert isinstance(load_checkpoint(os.path.join(outdir, name)), TargetNet)
