"""Experiment driver.

Subcommands cover the full pipeline: train source models, serve one as a
black-box endpoint, cache its predictions, run the two-phase adaptation,
fine-tune an existing checkpoint, and summarize finished runs. Every
adaptation run writes a manifest sufficient to reproduce it exactly;
rerunning a manifest yields byte-identical metrics files. A run from
`--caches`, `--endpoints` or `--source-checkpoints` replays only when it
is given the same sources again, since the manifest does not pin them. An
`ExperimentConfig` holds every hyper-parameter, by default the value its
phase declares; `validate` checks them all before any net trains, and each
phase takes its own as keywords.

Per-seed randomness is split into fixed named streams (source init,
source training, target init, distillation, fine-tuning), so changing one
phase's consumption never shifts another's. A run splits its seeds into
one share per usable CPU; each share trains its seeds' nets of one phase
in lockstep as one stack, each on its own streams, so a seed's outputs
are those it would have alone. Share 0 trains in the calling process and
the others in forked `multiprocessing` children, each training loop and
forward with numpy's BLAS on one thread (`nets._OneBlasThread`, which also
holds the forks); with one seed or one CPU, or where forking or pinning the
BLAS is not possible, the one share runs in the calling process.
"""

from __future__ import annotations

import argparse
import functools
import inspect
import json
import os
import sys
import threading
from dataclasses import dataclass, field, fields, replace
from typing import get_type_hints

import numpy as np

from . import __version__
from .distill import check_distill_args, run_distillation
from .errors import ContractError
from .finetune import run_finetune
from .nets import (
    SourceNet,
    TargetNet,
    _blas_threads,
    _OneBlasThread,
    check_training_args,
    load_checkpoint,
    net_state,
    read_json,
    save_checkpoint,
    train_source_net,
    write_atomically,
)
from .predictors import (DISCLOSURES, CachedPredictor, InProcessPredictor, _answer, init_teacher, read_cache,
                         resolve_r, write_cache)
from .scenarios import (
    PRESET_NAMES,
    DomainData,
    Record,
    ScenarioSpec,
    bank_accuracy,
    evaluate,
    generate,
    holdout,
    preset,
)
from .service import PredictionServer, RemotePredictor

# rng stream tags, composed as default_rng([seed, tag, domain])
_SOURCE_INIT = 11
_SOURCE_TRAIN = 13
_TARGET_INIT = 31
_DISTILL = 41
_FINETUNE = 43

TEACHERS = ("adals", "hard", "ls")
MAX_WIDTH = 1024  # the widest hidden or bottleneck layer a config may ask for
MAX_DEPTH = 8  # the most hidden layers a config may ask for


def _flag(default, spelling: str | None = None, **argparse_kwargs):
    """A field the config-taking subcommands also accept as an override
    flag, spelled `spelling` or else after the field name."""
    return field(default=default, metadata={"flag": spelling, **argparse_kwargs})


def _paper(phase, name: str):
    """The default `phase` declares for its parameter `name`: the paper's value."""
    return inspect.signature(phase).parameters[name].default


@dataclass
class ExperimentConfig(Record):
    """Everything one adaptation run depends on."""

    scenario: ScenarioSpec
    seeds: tuple[int, ...] = _flag((2019, 2020, 2021), help="comma-separated training seeds")
    source_epochs: int = _flag(_paper(train_source_net, "epochs"))
    ls_alpha: float = _paper(train_source_net, "ls_alpha")
    teacher: str = _flag("adals", choices=TEACHERS)
    disclosure: str = _flag("auto", choices=("auto", *DISCLOSURES))  # auto resolves from teacher and r
    r: int = _flag(1)
    beta: float = _flag(_paper(run_distillation, "beta"))
    gamma: float = _flag(_paper(run_distillation, "gamma"))
    mixup_alpha: float = _flag(_paper(run_distillation, "mixup_alpha"))
    drop_mix: bool = _flag(False)
    drop_mi: bool = _flag(_paper(run_distillation, "drop_mi"))
    adapt_epochs: int = _flag(_paper(run_distillation, "epochs"))
    finetune_epochs: int = _flag(_paper(run_finetune, "epochs"))
    batch_size: int = _flag(_paper(run_distillation, "batch_size"))
    lr_backbone: float = _flag(_paper(run_distillation, "lr_backbone"), "--lr")
    freeze_bn_stats: bool = _flag(_paper(run_finetune, "freeze_bn_stats"))
    hidden: tuple[int, ...] = _paper(TargetNet, "hidden")
    bottleneck_dim: int = _paper(TargetNet, "bottleneck_dim")

    def validate(self):
        """ContractError unless every field `adapt` uses is usable, checked
        before any net trains, every phase's epochs, batch size and learning
        rate included. The scenario checks itself when built."""
        self.validate_source()
        if not 0 < self.bottleneck_dim <= MAX_WIDTH:
            raise ContractError(f"bottleneck_dim must lie in [1, {MAX_WIDTH}], got {self.bottleneck_dim}")
        k = self.scenario.num_classes
        if self.teacher not in TEACHERS:
            raise ContractError(f"unknown teacher {self.teacher!r}, expected one of {TEACHERS}")
        if not 1 <= self.r <= k:
            raise ContractError(f"r must lie in [1, {k}], got {self.r}")
        if self.teacher in ("hard", "ls") and self.disclosure not in ("auto", "hard"):
            raise ContractError(f"teacher {self.teacher!r} requires hard disclosure")
        if self.teacher == "adals" and self.disclosure == "hard":
            raise ContractError("an adaptive-smoothing teacher needs probabilities, not hard labels")
        if not self.seeds or min(self.seeds) < 0 or len(set(self.seeds)) != len(self.seeds):
            raise ContractError(f"seeds must be one or more distinct nonnegative integers, got {list(self.seeds)}")
        self.disclosed_r()  # rejects an unknown disclosure name
        check_distill_args(self.beta, self.gamma, self.mixup_alpha)
        for phase, epochs in (("distill", self.adapt_epochs), ("finetune", self.finetune_epochs)):
            check_training_args(phase, epochs, self.batch_size, self.lr_backbone, TargetNet.min_batch)

    def validate_source(self):
        """The part of `validate` that covers source training: at most
        MAX_DEPTH hidden widths in [1, MAX_WIDTH], `ls_alpha` in [0, 1] and
        the source phase's epochs, batch size and learning rate."""
        if not (len(self.hidden) <= MAX_DEPTH and all(0 < width <= MAX_WIDTH for width in self.hidden)):
            raise ContractError(f"hidden must be at most {MAX_DEPTH} widths in [1, {MAX_WIDTH}], "
                                f"got {list(self.hidden)}")
        if not 0.0 <= self.ls_alpha <= 1.0:
            raise ContractError(f"ls_alpha must lie in [0, 1], got {self.ls_alpha}")
        check_training_args("source", self.source_epochs, self.batch_size, self.lr_backbone, SourceNet.min_batch)

    def disclosed_r(self) -> int:
        """The truncation level the sources disclose at (see `resolve_r`).

        `auto` stands for hard labels under the hard and ls teachers and for
        top-r at r under adals, which at r = K is full disclosure.
        """
        mode = self.disclosure
        if mode == "auto":
            mode = "top-r" if self.teacher == "adals" else "hard"
        return resolve_r(mode, self.r, self.scenario.num_classes)

    @classmethod
    def from_dict(cls, obj) -> "ExperimentConfig":
        if isinstance(obj, dict) and "config" in obj and "scenario" not in obj:
            obj = obj["config"]  # accept a whole manifest
        return super().from_dict(obj)


# pipeline building blocks ----------------------------------------------


def train_source_models(cfg: ExperimentConfig, sources, seeds) -> list[list]:
    """For each seed, one trained source net per source domain, all
    streams seeded. Every seed's nets train in lockstep as one stack."""
    members = [(seed, m) for seed in seeds for m in range(len(sources))]
    nets = [
        SourceNet(cfg.scenario.in_dim, cfg.scenario.num_classes, hidden=cfg.hidden,
                  rng=np.random.default_rng([seed, _SOURCE_INIT, m]))
        for seed, m in members
    ]
    train_source_net(nets, [sources[m].features for _, m in members], [sources[m].labels for _, m in members],
                     [[seed, _SOURCE_TRAIN, m] for seed, m in members], epochs=cfg.source_epochs,
                     batch_size=cfg.batch_size, ls_alpha=cfg.ls_alpha, lr_backbone=cfg.lr_backbone,
                     names=[f"seed {seed}, source {m}" for seed, m in members])
    return [nets[i : i + len(sources)] for i in range(0, len(nets), len(sources))]


def source_handles(cfg: ExperimentConfig, nets=(), checkpoints=(), endpoints=(), caches=()) -> list:
    """The one place a run's sources become predictor handles, in this
    order: the trained `nets` and then the nets saved at `checkpoints`,
    served in-process as `source{i}`, and the HOST:PORT `endpoints` as
    `remote{i}`, each disclosing at `cfg.disclosed_r()`; then the
    prediction `caches` as saved, a ContractError unless at that level."""
    r, k = cfg.disclosed_r(), cfg.scenario.num_classes
    mode = "top-r" if r else "hard"
    in_process = [*nets, *(_checked_checkpoint(path, cfg) for path in checkpoints)]
    cached = [read_cache(path, k) for path in caches]
    for h in cached:
        if h.r != r:
            raise ContractError(f"handle '{h.predictor_id}' discloses {h.disclosure} (r={h.r}), config expects r={r}")
    return [
        *(InProcessPredictor(net, mode, r, predictor_id=f"source{i}") for i, net in enumerate(in_process)),
        *(RemotePredictor(*_parse_endpoint(endpoint), k, mode, r, predictor_id=f"remote{i}")
          for i, endpoint in enumerate(endpoints)),
        *cached,
    ]


def run_seeds(cfg: ExperimentConfig, target: DomainData, handles, seeds) -> list[dict]:
    """The full adaptation of each seed, given one list of predictor
    handles per seed, each disclosing at `cfg.disclosed_r()` (as
    `source_handles` makes them): teacher init, then distillation and
    fine-tuning, each one stack of every seed's target net. Labels are
    touched only by the baseline computation and the evaluation callback."""
    cfg.validate()
    hard_mode = "onehot" if cfg.teacher == "hard" else "ls"
    banks = [init_teacher(seed_handles, target.features, r=cfg.r, hard_mode=hard_mode) for seed_handles in handles]
    no_adapt = [bank_accuracy(bank.rows, target.labels) for bank in banks]
    eval_fn = functools.partial(bank_accuracy, labels=target.labels)
    nets = [
        TargetNet(target.features.shape[1], handles[0][0].num_classes, hidden=cfg.hidden,
                  bottleneck_dim=cfg.bottleneck_dim, rng=np.random.default_rng([seed, _TARGET_INIT]))
        for seed in seeds
    ]
    names = [f"seed {seed}" for seed in seeds]
    metrics = run_distillation(banks, nets, target.features, [[seed, _DISTILL] for seed in seeds],
                               epochs=cfg.adapt_epochs, batch_size=cfg.batch_size, lr_backbone=cfg.lr_backbone,
                               beta=0.0 if cfg.drop_mix else cfg.beta, gamma=cfg.gamma, mixup_alpha=cfg.mixup_alpha,
                               drop_mi=cfg.drop_mi, eval_fn=eval_fn, names=names)
    distilled = [evaluate(net, target) for net in nets]
    states = [net_state(net, seed=seed) for net, seed in zip(nets, seeds)]
    finetuned = run_finetune(nets, target.features, [[seed, _FINETUNE] for seed in seeds],
                             epochs=cfg.finetune_epochs, batch_size=cfg.batch_size, lr_backbone=cfg.lr_backbone,
                             freeze_bn_stats=cfg.freeze_bn_stats, eval_fn=eval_fn, names=names)
    finals = [evaluate(net, target) for net in nets]
    return [
        {
            "summary": {
                "seed": seed,
                "no_adapt": no_adapt[i],
                "accuracy_distilled": distilled[i]["accuracy"],
                "accuracy_final": finals[i]["accuracy"],
                "per_class_final": finals[i]["per_class_accuracy"],
            },
            "metrics": metrics[i] + finetuned[i],
            "net": nets[i],
            "bank": banks[i],
            "distilled_state": states[i],
        }
        for i, seed in enumerate(seeds)
    ]


def _share_count(seeds) -> int:
    """How many shares `_in_shares` splits `seeds` into: one per usable
    CPU, at most one per seed, and 1 (serial) unless this process can
    fork safely (no other thread running) and pin numpy's BLAS."""
    if len(seeds) < 2 or not hasattr(os, "fork") or threading.active_count() > 1 or _blas_threads() is None:
        return 1
    return min(len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1, len(seeds))


def _in_shares(work, seeds) -> list:
    """`work(share)` for contiguous shares of `seeds`, its lists joined in
    seed order. Share 0 runs here; every other share runs at the same time
    in a `multiprocessing` child forked from this process, which sends back
    through a one-way pipe what `work` returned or raised.

    The first share in seed order to raise decides the error; a child that
    ends without a result, such as one killed or one whose result cannot be
    pickled, is a RuntimeError naming its seeds and its exit code. No child
    outlives the call: one whose result arrived is joined, and if a share
    fails, the rest are killed and joined.
    """
    k = _share_count(seeds)
    if k == 1:
        return work(seeds)
    import multiprocessing

    def send(share, sender):
        try:
            message = ("value", work(share))
        except BaseException as exc:  # sent to the parent, which raises it
            message = ("raised", exc)
        sender.send(message)

    context = multiprocessing.get_context("fork")
    bounds = [len(seeds) * i // k for i in range(k + 1)]
    shares = [seeds[a:b] for a, b in zip(bounds, bounds[1:])]
    children = []  # (share, process, read end of its pipe)
    # the children inherit one BLAS thread, so no process sets the count while they run: OpenBLAS stops its
    # worker at a fork and restarts it at the next count set, and a restarted worker spins for about 0.1 s
    with _OneBlasThread():
        try:
            for share in shares[1:]:
                receiver, sender = context.Pipe(duplex=False)
                process = context.Process(target=send, args=(share, sender))
                with sender:  # once the child holds the only write end, the pipe ends when the child does
                    process.start()
                children.append((share, process, receiver))
            results = work(shares[0])
            for share, process, receiver in children:
                try:
                    kind, value = receiver.recv()
                except (EOFError, OSError):  # nothing, or a cut-off message
                    kind = None
                process.join()
                if kind is None:
                    raise RuntimeError(f"the process running seeds {list(share)} ended without a result "
                                       f"(exit code {process.exitcode})")
                if kind == "raised":
                    raise value
                results += value
            return results
        finally:
            for _, process, receiver in children:
                receiver.close()
                process.kill()  # a no-op for a child already joined
                process.join()
                process.close()


def run_experiment(cfg: ExperimentConfig, outdir: str, fixed_handles=None) -> dict:
    """Run every seed, persist metrics, checkpoints, report and manifest.

    `fixed_handles` (cache/remote/checkpoint backings), unless None or
    empty, are shared across seeds, and each is queried once, over the
    target set, before any share forks; otherwise fresh source models are
    trained per seed. The seeds train in shares, one per usable CPU, each
    share one lockstep stack per phase (`_in_shares`). Each share encodes
    its seeds' metrics and distilled-net files; this process writes the
    files once every seed has trained, in seed order. Each file is written
    atomically, and `manifest.json` last, so a run that fails leaves no
    manifest behind.
    """
    cfg.validate()  # before the first file is written
    sources, target = generate(cfg.scenario)
    x = target.features
    fixed_handles = [CachedPredictor(*_answer(h, x), h.num_classes, h.predictor_id) for h in fixed_handles or ()]

    def run_share(seeds):
        if fixed_handles:
            handles = [fixed_handles] * len(seeds)
        else:
            handles = [source_handles(cfg, nets) for nets in train_source_models(cfg, sources, seeds)]
        outs = run_seeds(cfg, target, handles, seeds)
        for seed, out in zip(seeds, outs):  # encoded by the share that trained the seed
            out["files"] = {f"metrics_seed{seed}.ndjson": _metrics_text(seed, out.pop("metrics")),
                            f"distilled_seed{seed}.json": _json_text(out.pop("distilled_state"))}
        return outs

    per_seed = []
    for seed, out in zip(cfg.seeds, _in_shares(run_share, cfg.seeds)):
        for name, text in out["files"].items():
            write_atomically(os.path.join(outdir, name), text)
        save_checkpoint(out["net"], os.path.join(outdir, f"target_seed{seed}.json"), seed=seed)
        per_seed.append(out["summary"])
    finals = np.array([row["accuracy_final"] for row in per_seed])
    distilled = np.array([row["accuracy_distilled"] for row in per_seed])
    baselines = np.array([row["no_adapt"] for row in per_seed])
    report = {
        "version": __version__,
        "seeds": list(cfg.seeds),
        "per_seed": per_seed,
        "no_adapt_mean": float(baselines.mean()),
        "distilled_mean": float(distilled.mean()),
        "distilled_std": float(distilled.std()),
        "final_mean": float(finals.mean()),
        "final_std": float(finals.std()),
    }
    _write_json(os.path.join(outdir, "report.json"), report)
    _write_json(os.path.join(outdir, "manifest.json"), {"version": __version__, "config": cfg.to_dict()})
    return report


# persistence helpers ----------------------------------------------------


def _json_text(obj: dict) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _metrics_text(seed: int, records: list) -> str:
    return "".join(json.dumps({"seed": seed, **rec}, sort_keys=True) + "\n" for rec in records)


def _write_json(path: str, obj: dict):
    write_atomically(path, _json_text(obj))


def _write_metrics(path: str, seed: int, records: list):
    write_atomically(path, _metrics_text(seed, records))


def _print_report(report: dict):
    print(f"seeds: {report['seeds']}")
    header = f"{'seed':>6} {'no-adapt':>10} {'distilled':>10} {'final':>10}"
    print(header)
    for row in report["per_seed"]:
        print(
            f"{row['seed']:>6} {row['no_adapt']:>10.2f} "
            f"{row['accuracy_distilled']:>10.2f} {row['accuracy_final']:>10.2f}"
        )
    print(
        f"{'mean':>6} {report['no_adapt_mean']:>10.2f} "
        f"{report['distilled_mean']:>10.2f} {report['final_mean']:>10.2f}"
    )
    print(f"final accuracy: {report['final_mean']:.2f} +/- {report['final_std']:.2f}")


# subcommands ------------------------------------------------------------


def _override_fields():
    return [f for f in fields(ExperimentConfig) if "flag" in f.metadata]


def _parse_ints(text: str) -> tuple:
    try:
        return tuple(int(s) for s in text.split(","))
    except ValueError:
        raise ContractError(f"expected comma-separated integers, got {text!r}") from None


def _parse_endpoint(text: str) -> tuple:
    """HOST:PORT as (host, port), or a ContractError."""
    host, _, port = text.rpartition(":")
    try:
        number = int(port)
    except ValueError:
        number = 0
    if not host or not 0 < number < 65536:
        raise ContractError(f"expected HOST:PORT, got {text!r}")
    return host, number


def _split_paths(value: str) -> list:
    """The comma-separated paths in `value`, at least one; empty names, as after a trailing comma, are skipped."""
    paths = [p for p in value.split(",") if p]
    if not paths:
        raise argparse.ArgumentTypeError(f"expected one or more comma-separated paths, got {value!r}")
    return paths


def _checked_checkpoint(path: str, cfg: ExperimentConfig):
    """The net saved at `path`, if it maps the scenario's features to its classes."""
    net, scn = load_checkpoint(path), cfg.scenario
    if (net.in_dim, net.num_classes) != (scn.in_dim, scn.num_classes):
        raise ContractError(f"checkpoint {path} maps {net.in_dim} features to {net.num_classes} classes, "
                            f"but the scenario has {scn.in_dim} features and {scn.num_classes} classes")
    return net


def _load_config(args, check=ExperimentConfig.validate) -> ExperimentConfig:
    """The config the arguments name, with their overrides applied and,
    unless `check` is None, passed through `check`. Each subcommand checks
    only the fields it uses."""
    if getattr(args, "seed", 0) < 0:  # train-source and finetune-only take one --seed
        raise ContractError(f"--seed must be a nonnegative integer, got {args.seed}")
    if args.config:
        if args.scenario_seed is not None:
            raise ContractError("--scenario-seed applies to --preset; a --config file names its own scenario")
        cfg = ExperimentConfig.from_dict(read_json(args.config, "config"))
    elif args.preset:
        seed = 2020 if args.scenario_seed is None else args.scenario_seed
        cfg = ExperimentConfig(scenario=preset(args.preset, seed=seed))
    else:
        raise ContractError("pass --config FILE or --preset NAME")
    overrides = {f.name: getattr(args, f.name) for f in _override_fields() if getattr(args, f.name) is not None}
    if "seeds" in overrides:
        overrides["seeds"] = _parse_ints(overrides["seeds"])
    if overrides:
        cfg = replace(cfg, **overrides)
    if check is not None:
        check(cfg)
    return cfg


def cmd_train_source(args) -> int:
    cfg = _load_config(args, check=ExperimentConfig.validate_source)
    scn = cfg.scenario
    sources, _ = generate(scn)
    (nets,) = train_source_models(cfg, sources, [args.seed])
    rows = []
    for m, (net, domain) in enumerate(zip(nets, sources)):
        path = os.path.join(args.outdir, name := f"source{m}_seed{args.seed}.json")  # the summary beside it names it
        save_checkpoint(net, path, seed=args.seed)
        train_acc = evaluate(net, domain)["accuracy"]
        test_acc = evaluate(net, holdout(scn, m, max(200, scn.n_source // 2)))["accuracy"]
        rows.append({"domain": m, "checkpoint": name, "train_accuracy": train_acc, "test_accuracy": test_acc})
        print(f"source {m}: train {train_acc:.2f}  test {test_acc:.2f}  -> {path}")
    _write_json(os.path.join(args.outdir, f"sources_seed{args.seed}.json"), {"sources": rows})
    return 0


def cmd_serve(args) -> int:
    net = load_checkpoint(args.checkpoint)
    handle = InProcessPredictor(net, disclosure=args.disclosure, r=args.r)
    server = PredictionServer(handle, host=args.host, port=args.port)
    host, port = server.endpoint
    print(f"serving {args.disclosure} predictions on {host}:{port}", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
    return 0


def cmd_cache_predictions(args) -> int:
    cfg = _load_config(args, check=ExperimentConfig.disclosed_r)  # no teacher is built here
    handles = source_handles(cfg, checkpoints=args.checkpoint, endpoints=args.endpoint)
    if not handles:
        raise ContractError("pass --checkpoint FILE or --endpoint HOST:PORT")
    (handle,) = handles
    _, target = generate(cfg.scenario)
    count = write_cache(args.out, handle, target.features)
    print(f"cached {count} predictions ({handle.disclosure}) at {args.out}")
    return 0


def cmd_adapt(args) -> int:
    cfg = _load_config(args)
    handles = source_handles(cfg, checkpoints=args.source_checkpoints, endpoints=args.endpoints, caches=args.caches)
    report = run_experiment(cfg, args.outdir, fixed_handles=handles)
    _print_report(report)
    return 0


def cmd_finetune_only(args) -> int:
    cfg = _load_config(args, check=None)  # the net's sizes come from the checkpoint; run_finetune checks the rest
    net = _checked_checkpoint(args.checkpoint, cfg)
    _, target = generate(cfg.scenario)
    before = evaluate(net, target)["accuracy"]
    (metrics,) = run_finetune([net], target.features, [[args.seed, _FINETUNE]], epochs=cfg.finetune_epochs,
                              batch_size=cfg.batch_size, lr_backbone=cfg.lr_backbone,
                              freeze_bn_stats=cfg.freeze_bn_stats,
                              eval_fn=functools.partial(bank_accuracy, labels=target.labels))
    after = evaluate(net, target)["accuracy"]
    _write_metrics(os.path.join(args.outdir, f"metrics_seed{args.seed}.ndjson"), args.seed, metrics)
    save_checkpoint(net, os.path.join(args.outdir, f"target_seed{args.seed}.json"), seed=args.seed)
    print(f"accuracy before {before:.2f} -> after {after:.2f}")
    return 0


def _read_report(path: str) -> dict:
    """The `report.json` at `path`; ContractError unless it holds the
    numbers `report` prints and the integer seeds it follows."""
    report = read_json(path, "report")
    numbers = ("no_adapt_mean", "distilled_mean", "distilled_std", "final_mean", "final_std")
    if not (
        isinstance(report, dict)
        and all(type(report.get(key)) in (int, float) for key in numbers)
        and isinstance(report.get("seeds"), list)
        and all(type(seed) is int for seed in report["seeds"])
    ):
        raise ContractError(f"report {path} lacks the numbers or the seeds of a run report")
    return report


def _curve_lines(name: str, seed: int, path: str) -> list[str]:
    """The TSV lines of the metrics file at `path`; ContractError, naming
    the file and the line, unless every line is a JSON object holding
    `phase`, `epoch` and `loss`."""
    lines = []
    with open(path, "rb") as fh:
        for number, line in enumerate(fh, 1):
            try:
                rec = json.loads(line)
            except (ValueError, RecursionError):  # not UTF-8, not JSON, or nested too deep
                rec = None
            if not (isinstance(rec, dict) and {"phase", "epoch", "loss"} <= rec.keys()):
                raise ContractError(f"metrics {path} line {number} is not an object with phase, epoch and loss")
            lines.append(
                f"{name}\t{seed}\t{rec['phase']}\t{rec['epoch']}\t{rec['loss']!r}\t{rec.get('accuracy', '')!r}\n"
            )
    return lines


def cmd_report(args) -> int:
    rows = []
    for rundir in args.rundirs:
        path = os.path.join(rundir, "report.json")
        rows.append((rundir, os.path.basename(os.path.normpath(rundir)),
                     _read_report(path) if os.path.exists(path) else None))
    curves = ["run\tseed\tphase\tepoch\tloss\taccuracy\n"]  # every line checked before any is written
    for rundir, name, report in rows:
        if args.curves and report is not None:
            for seed in report["seeds"]:
                mpath = os.path.join(rundir, f"metrics_seed{seed}.ndjson")
                if os.path.exists(mpath):
                    curves += _curve_lines(name, seed, mpath)
    name_width = max(3, *(len(name) for _, name, _ in rows))
    print(f"{'run':<{name_width}} {'no-adapt':>10} {'distilled':>16} {'final':>16}")
    for _, name, report in rows:
        if report is None:
            print(f"{name:<{name_width}} {'absent':>10}")
            continue
        print(
            f"{name:<{name_width}} {report['no_adapt_mean']:>10.2f} "
            f"{report['distilled_mean']:>9.2f}+/-{report['distilled_std']:<4.2f} "
            f"{report['final_mean']:>9.2f}+/-{report['final_std']:<4.2f}"
        )
    if args.curves:
        write_atomically(args.curves, "".join(curves))
        print(f"curves written to {args.curves}")
    return 0


# parser -----------------------------------------------------------------


def _add_config_args(sub):
    source = sub.add_mutually_exclusive_group()
    source.add_argument("--config", help="experiment config or manifest JSON")
    source.add_argument("--preset", choices=PRESET_NAMES, help="built-in scenario preset")
    sub.add_argument("--scenario-seed", type=int, default=None, help="data seed for --preset")
    hints = get_type_hints(ExperimentConfig)
    for f in _override_fields():
        kwargs = dict(f.metadata)
        spelling = kwargs.pop("flag") or "--" + f.name.replace("_", "-")
        if hints[f.name] is bool:
            kwargs["action"] = argparse.BooleanOptionalAction
        elif hints[f.name] in (int, float):
            kwargs["type"] = hints[f.name]
        sub.add_argument(spelling, dest=f.name, default=None, **kwargs)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The `bbadapt` parser, built once per process: a build takes about
    2 ms and leaves its formatters and actions in reference cycles that only
    the collector frees. `parse_args` does not change it."""
    parser = argparse.ArgumentParser(prog="bbadapt", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("train-source", help="train source models on their own domains")
    _add_config_args(sub)
    sub.add_argument("--seed", type=int, default=2020)
    sub.add_argument("--outdir", required=True)
    sub.set_defaults(func=cmd_train_source)

    sub = subs.add_parser("serve", help="serve a checkpoint as a black-box predictor")
    sub.add_argument("--checkpoint", required=True)
    sub.add_argument("--host", default="127.0.0.1")
    sub.add_argument("--port", type=int, default=0)
    sub.add_argument("--disclosure", choices=DISCLOSURES, default="top-r")
    sub.add_argument("--r", type=int, default=1)
    sub.set_defaults(func=cmd_serve)

    sub = subs.add_parser("cache-predictions", help="query a predictor over the target set, write a cache")
    _add_config_args(sub)
    source = sub.add_mutually_exclusive_group()
    source.add_argument("--checkpoint", nargs=1, default=(), help="source checkpoint for an in-process predictor")
    source.add_argument("--endpoint", nargs=1, default=(), help="HOST:PORT of a served predictor")
    sub.add_argument("--out", required=True)
    sub.set_defaults(func=cmd_cache_predictions)

    sub = subs.add_parser("adapt", help="run the full two-phase adaptation")
    _add_config_args(sub)
    sub.add_argument("--outdir", required=True)
    sources = sub.add_mutually_exclusive_group()
    paths = dict(type=_split_paths, default=())
    sources.add_argument("--caches", **paths, help="comma-separated prediction cache files, one per source")
    sources.add_argument("--endpoints", **paths, help="comma-separated HOST:PORT endpoints, one per source")
    sources.add_argument("--source-checkpoints", **paths, help="comma-separated checkpoints")
    sub.set_defaults(func=cmd_adapt)

    sub = subs.add_parser("finetune-only", help="fine-tune a distilled checkpoint")
    _add_config_args(sub)
    sub.add_argument("--checkpoint", required=True)
    sub.add_argument("--seed", type=int, default=2020)
    sub.add_argument("--outdir", required=True)
    sub.set_defaults(func=cmd_finetune_only)

    sub = subs.add_parser("report", help="summarize finished runs")
    sub.add_argument("rundirs", nargs="+")
    sub.add_argument("--curves", help="write epoch curves as TSV to this path")
    sub.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ContractError, OSError) as exc:  # TransportError and StartupError are OSErrors
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
