#!/usr/bin/env python3
"""The bbadapt benchmark: one workload per run, end to end or traced.

    python3 perfbench/run.py --workload adapt-multi3 --seed 1 --seconds 20 --trace 0

The program is imported from the `src/` directory next to `perfbench/`
and from nowhere else, so the command fails when that source is missing.
The seed fixes every input: scenario seed, training seeds and the order
of calls. Each workload is a closed loop (one caller, next operation only
after the previous one returns) that runs for `--seconds`, checks every
output, and prints one `name value unit` line per metric. The last line
of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics with
`--trace 0`, the per-layer metrics of a traced run with `--trace 1`.
README.md beside this file says why each workload and metric exists.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import resource
import select
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

import numpy as np

from spans import MODULES, Tracer

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, "perfbench", "out")

# spans a workload must produce; a missing one is a failed check, because
# then the per-layer numbers would silently describe less than they claim
REQUIRED_SPANS = {
    "adapt-multi3": (
        "cli.run_experiment", "cli.io", "scenarios.generate", "scenarios.evaluate",
        "nets.train_source_net", "nets.sgd_step", "nets.predict_proba", "nets.save_checkpoint",
        "tensor.gradient", "distill.run_distillation", "distill.total_loss", "distill.ema_update",
        "finetune.run_finetune", "predictors.init_teacher", "predictors.query", "predictors.quantize_probs",
    ),
    "query-tcp": (
        "scenarios.generate", "nets.train_source_net", "nets.save_checkpoint", "nets.load_checkpoint",
        "predictors.query", "service.query", "service.server_start",
    ),
    "snapshot-cache": (
        "scenarios.generate", "nets.train_source_net", "nets.save_checkpoint", "nets.load_checkpoint",
        "nets.predict_proba", "predictors.query", "predictors.quantize_probs", "predictors.write_cache",
        "predictors.read_cache", "predictors.init_teacher",
    ),
}

PHASES = {"nets.train_source_net": "source", "distill.run_distillation": "distill", "finetune.run_finetune": "finetune"}


def load_program():
    """Import bbadapt from this checkout's `src/`, refusing any other copy."""
    init = os.path.join(SRC, "bbadapt", "__init__.py")
    if not os.path.isfile(init):
        raise SystemExit(f"perfbench: {init} is missing; run from a bbadapt source checkout")
    sys.path.insert(0, SRC)
    import bbadapt
    import bbadapt.cli

    if os.path.realpath(bbadapt.__file__) != os.path.realpath(init):
        raise SystemExit(f"perfbench: imported bbadapt from {bbadapt.__file__}, expected {init}")
    return bbadapt


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env


def tail(values) -> str:
    """The highest percentile with at least ten samples beyond it."""
    for q in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if len(values) * (100.0 - q) / 100.0 >= 10:
            return f"p{q:g} {np.percentile(values, q):.6g} (n={len(values)})"
    return f"no percentile has 10 samples beyond it (n={len(values)})"


class Run:
    """What one benchmark run owns: a temp directory, child processes,
    the tracer, and the record of failed checks."""

    def __init__(self, bb, tracer):
        os.makedirs(OUT, exist_ok=True)
        self.bb = bb
        self.tracer = tracer
        self.tmp = tempfile.mkdtemp(prefix="run-", dir=OUT)
        self.children = []
        self.failures = []

    def fail(self, message: str):
        print(f"CHECK FAILED: {message}", file=sys.stderr, flush=True)
        self.failures.append(message)

    def cli(self, argv) -> int:
        """Run a `bbadapt` subcommand in this process, its report discarded."""
        with contextlib.redirect_stdout(io.StringIO()):
            return self.bb.cli.main(argv)

    def spawn(self, argv, **kwargs) -> subprocess.Popen:
        proc = subprocess.Popen([sys.executable, *argv], cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL, **kwargs)
        self.children.append(proc)
        return proc

    def stop(self, proc: subprocess.Popen):
        if proc.poll() is None:
            proc.terminate()
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        for stream in (proc.stdout, proc.stderr):
            if stream:
                stream.close()
        self.children.remove(proc)

    def time_import(self) -> float:
        """Interpreter start plus import of the CLI, in a fresh process."""
        t0 = time.perf_counter()
        proc = self.spawn(["-m", "bbadapt.cli", "--help"], stdout=subprocess.DEVNULL)
        code = proc.wait(timeout=120)
        self.stop(proc)
        if code != 0:
            raise RuntimeError(f"`bbadapt --help` exited with {code}")
        return time.perf_counter() - t0

    def close(self):
        for proc in list(self.children):
            self.stop(proc)
        shutil.rmtree(self.tmp, ignore_errors=True)


class Clock:
    """Times the program's part of one operation, outside the checks."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.parts = {}

    @contextlib.contextmanager
    def __call__(self, name: str):
        with self.tracer.span(name):
            t0 = time.perf_counter()
            try:
                yield
            finally:
                self.parts[name] = self.parts.get(name, 0.0) + time.perf_counter() - t0

    @property
    def total(self) -> float:
        return sum(self.parts.values())


# workloads --------------------------------------------------------------


class Workload:
    """One closed loop: `setups` set-ups, then `op` until time is up.

    `op` times the program's part with the clock it is given, checks the
    outputs, and returns how many of its `units_per_op` units failed.
    """

    units_per_op = 1

    def close(self):
        """Stop whatever the set-up left running."""


class AdaptMulti3(Workload):
    """`bbadapt adapt --preset multi3-gauss4` with two training seeds and
    in-process sources; every operation reruns the same inputs."""

    name = "adapt-multi3"
    setups = 9

    def __init__(self, run: Run, seed: int, tiny: bool):
        rng = np.random.default_rng([seed, 1])
        self.run = run
        self.scenario_seed = int(rng.integers(0, 1_000_000))
        self.seeds = [int(s) for s in rng.choice(1_000_000, size=2, replace=False)]
        self.argv = [
            "adapt", "--preset", "multi3-gauss4", "--scenario-seed", str(self.scenario_seed),
            "--seeds", ",".join(map(str, self.seeds)),
        ]
        if tiny:
            self.argv += ["--source-epochs", "4", "--adapt-epochs", "4", "--finetune-epochs", "4"]
        self.units_per_op = len(self.seeds)
        self.rows_per_op = run.bb.preset("multi3-gauss4", seed=self.scenario_seed).n_target * len(self.seeds)
        self.first = None
        self.finals = []
        self.baselines = []

    def setup(self, rep: int) -> float:
        return self.run.time_import()

    def op(self, i: int, clock: Clock) -> int:
        outdir = os.path.join(self.run.tmp, f"op{i}")
        try:
            with clock("cli.main"):
                code = self.run.cli([*self.argv, "--outdir", outdir])
            return self._check(i, code, outdir)
        finally:
            shutil.rmtree(outdir, ignore_errors=True)

    def _check(self, i: int, code: int, outdir: str) -> int:
        if code != 0:
            self.run.fail(f"op {i}: bbadapt adapt exited with {code}")
            return len(self.seeds)
        with open(os.path.join(outdir, "report.json"), "rb") as fh:
            report_bytes = fh.read()
        report = json.loads(report_bytes)
        rows = {row["seed"]: row for row in report["per_seed"]}
        if sorted(rows) != sorted(self.seeds) or len(report["per_seed"]) != len(self.seeds):
            self.run.fail(f"op {i}: report.json rows are for seeds {sorted(rows)}, expected {sorted(self.seeds)}")
            return len(self.seeds)
        outputs = {seed: self._read(outdir, f"metrics_seed{seed}.ndjson") for seed in self.seeds}
        if self.first is None:
            self.first = (report_bytes, outputs)
            self.finals = [rows[s]["accuracy_final"] for s in self.seeds]
            self.baselines = [rows[s]["no_adapt"] for s in self.seeds]
        elif report_bytes != self.first[0]:
            self.run.fail(f"op {i}: report.json differs from the first run of the same inputs")
        failed = 0
        for seed in self.seeds:
            row = rows[seed]
            accs = [row["no_adapt"], row["accuracy_distilled"], row["accuracy_final"], row["per_class_final"]]
            problems = []
            if not all(isinstance(a, float) and math.isfinite(a) for a in accs):
                problems.append(f"non-finite accuracy in {accs}")
            elif row["accuracy_final"] < row["no_adapt"]:
                problems.append(f"final accuracy {row['accuracy_final']} is below no-adapt {row['no_adapt']}")
            if outputs[seed] != self.first[1][seed]:
                problems.append("metrics file differs from the first run of the same inputs")
            for problem in problems:
                self.run.fail(f"op {i} seed {seed}: {problem}")
            failed += bool(problems)
        return failed

    @staticmethod
    def _read(outdir: str, name: str) -> bytes:
        with open(os.path.join(outdir, name), "rb") as fh:
            return fh.read()

    def summary(self, op_p50_ms: float, clocks) -> list:
        return [
            ("adapt_s_per_seed", op_p50_ms / 1000.0 / len(self.seeds), "s"),
            ("final_accuracy_pct", float(np.mean(self.finals)) if self.finals else float("nan"), "%"),
            ("no_adapt_accuracy_pct", float(np.mean(self.baselines)) if self.baselines else float("nan"), "%"),
        ]


class SourceWorkload(Workload):
    """Shared set-up of the split pipeline: `bbadapt train-source` on the
    partial-gauss8 preset (K=8), then the checkpoint loaded back and
    disclosed at top-r with r=2."""

    preset = "partial-gauss8"
    r = 2
    setups = 5

    def __init__(self, run: Run, seed: int, tiny: bool, stream: int):
        rng = np.random.default_rng([seed, stream])
        self.run = run
        self.scenario_seed = int(rng.integers(0, 1_000_000))
        self.train_seed = int(rng.integers(0, 1_000_000))
        self.rng = rng
        self.tiny = tiny
        if tiny:
            self.setups = 1

    def train_source(self, rep: int):
        bb = self.run.bb
        outdir = os.path.join(self.run.tmp, f"setup{rep}")
        argv = [
            "train-source", "--preset", self.preset, "--scenario-seed", str(self.scenario_seed),
            "--seed", str(self.train_seed), "--outdir", outdir,
        ]
        if self.tiny:
            argv += ["--source-epochs", "4"]
        code = self.run.cli(argv)
        if code != 0:
            raise RuntimeError(f"bbadapt train-source exited with {code}")
        checkpoint = os.path.join(outdir, f"source0_seed{self.train_seed}.json")
        _, target = bb.generate(bb.preset(self.preset, seed=self.scenario_seed))
        handle = bb.InProcessPredictor(bb.load_checkpoint(checkpoint), disclosure="top-r", r=self.r)
        return checkpoint, target, handle


class SnapshotCache(SourceWorkload):
    """In-process source snapshotted to a prediction cache and reloaded."""

    name = "snapshot-cache"

    def __init__(self, run: Run, seed: int, tiny: bool):
        super().__init__(run, seed, tiny, stream=3)
        self.cache_bytes = None
        self.accuracy = float("nan")

    def setup(self, rep: int) -> float:
        t0 = time.perf_counter()
        self.run.time_import()
        _, self.target, self.handle = self.train_source(rep)
        elapsed = time.perf_counter() - t0
        self.rows_per_op = self.target.features.shape[0]
        self.path = os.path.join(self.run.tmp, "cache.ndjson")
        return elapsed

    def op(self, i: int, clock: Clock) -> int:
        bb = self.run.bb
        x = self.target.features
        with clock("bench.cycle"):
            live = bb.init_teacher([self.handle], x, r=self.r)
            bb.write_cache(self.path, self.handle, x)
            cached = bb.read_cache(self.path, self.handle.num_classes)
            bank = bb.init_teacher([cached], x, r=self.r)
        with open(self.path, "rb") as fh:
            data = fh.read()
        os.remove(self.path)
        problems = []
        if bank.rows.tobytes() != live.rows.tobytes():
            problems.append("bank from the reloaded cache differs from the in-process bank")
        if self.cache_bytes is None:
            self.cache_bytes = data
            self.accuracy = bb.scenarios.bank_accuracy(bank.rows, self.target.labels)
        elif data != self.cache_bytes:
            problems.append("cache file differs from the first cycle's")
        for problem in problems:
            self.run.fail(f"cycle {i}: {problem}")
        return int(bool(problems))

    def summary(self, op_p50_ms: float, clocks) -> list:
        rows = self.rows_per_op * len(clocks) / sum(c.total for c in clocks)
        return [("snapshot_rows_per_s", rows, "rows/s"), ("no_adapt_accuracy_pct", self.accuracy, "%")]


class QueryTcp(SourceWorkload):
    """One client in a closed loop over `RemotePredictor.query` against a
    `bbadapt serve` child, alternating 1-row and 32-row calls."""

    name = "query-tcp"
    batch = 32
    units_per_op = 2

    def __init__(self, run: Run, seed: int, tiny: bool):
        super().__init__(run, seed, tiny, stream=2)
        self.server = None

    def setup(self, rep: int) -> float:
        bb = self.run.bb
        if self.server is not None:
            self.run.stop(self.server)
            self.server = None
        t0 = time.perf_counter()
        checkpoint, self.target, handle = self.train_source(rep)
        self.reference = handle.query(self.target.features)
        with self.run.tracer.span("service.server_start"):
            self.server = self.run.spawn(
                ["-m", "bbadapt.cli", "serve", "--checkpoint", checkpoint, "--host", "127.0.0.1", "--port", "0",
                 "--disclosure", "top-r", "--r", str(self.r)],
                stdout=subprocess.PIPE,
            )
            host, port = self._endpoint()
            self.remote = bb.RemotePredictor(host, port, handle.num_classes, disclosure="top-r", r=self.r)
            first = self.remote.query(self.target.features[:1])
        if first != self.reference[:1]:
            raise RuntimeError(f"first served record {first} differs from the in-process {self.reference[:1]}")
        self.rows_per_op = 1 + self.batch
        return time.perf_counter() - t0

    def _endpoint(self):
        ready, _, _ = select.select([self.server.stdout], [], [], 120)
        line = self.server.stdout.readline().decode() if ready else ""
        if " on " not in line:
            raise RuntimeError(f"bbadapt serve did not announce an endpoint (exit {self.server.poll()}): {line!r}")
        host, port = line.rsplit(" on ", 1)[1].strip().rsplit(":", 1)
        return host, int(port)

    def op(self, i: int, clock: Clock) -> int:
        n = self.target.features.shape[0]
        calls = (("single", self.rng.integers(n, size=1)), ("batch", self.rng.choice(n, self.batch, replace=False)))
        failed = 0
        for kind, rows in calls:
            with clock(kind):
                records = self.remote.query(self.target.features[rows])
            if records != [self.reference[j] for j in rows]:
                self.run.fail(f"round {i} {kind} call: served records differ from in-process ones for rows {list(rows)}")
                failed += 1
        return failed

    def summary(self, op_p50_ms: float, clocks) -> list:
        single = [1000.0 * c.parts["single"] for c in clocks if "single" in c.parts]
        batch = [1000.0 * c.parts["batch"] for c in clocks if "batch" in c.parts]
        rows = self.rows_per_op * len(clocks) / sum(c.total for c in clocks)
        return [
            ("query_rows_per_s", rows, "rows/s"),
            ("query_single_p50_ms", statistics.median(single), "ms"),
            ("query_single_tail_ms", tail(single), ""),
            ("query_batch_p50_ms", statistics.median(batch), "ms"),
            ("query_batch_tail_ms", tail(batch), ""),
        ]

    def close(self):
        if self.server is not None:
            self.run.stop(self.server)
            self.server = None


WORKLOADS = {w.name: w for w in (AdaptMulti3, QueryTcp, SnapshotCache)}


# per-layer metrics from the spans -----------------------------------------


def per_layer(tracer: Tracer, traced_ops: int, overhead_ms: float) -> dict:
    spans = tracer.spans
    selfs = tracer.self_times()
    by_name = {}
    for i, span in enumerate(spans):
        by_name.setdefault(span[0], []).append(i)

    def in_ops(i):
        return spans[i][4].startswith("op")

    def durations(name, ops_only=False):
        return [spans[i][2] - spans[i][1] for i in by_name.get(name, ()) if not ops_only or in_ops(i)]

    def mean(values):
        return float(np.mean(values)) if values else 0.0

    def per_op(count):
        return count / traced_ops if traced_ops else 0.0

    def phase(i):
        while i >= 0 and spans[i][0] not in PHASES:
            i = spans[i][3]
        return PHASES.get(spans[i][0]) if i >= 0 else None

    records = {p: [] for p in PHASES.values()}
    for i in by_name.get("tensor.gradient", ()):
        if phase(i):
            records[phase(i)].append(spans[i][5]["records"])
    sgd_in_source = sum(1 for i in by_name.get("nets.sgd_step", ()) if phase(i) == "source")
    calls = {kind: [i for i in by_name.get("service.query", ()) if in_ops(i) and (spans[i][5]["rows"] == 1) == (kind == "single")]
             for kind in ("single", "batch")}
    call_ms = {kind: 1000.0 * statistics.median([spans[i][2] - spans[i][1] for i in idx]) if idx else 0.0
               for kind, idx in calls.items()}
    batch_rows = spans[calls["batch"][0]][5]["rows"] if calls["batch"] else 0

    def per_batch_call(key):
        return mean([spans[i][5].get(key, 0) for i in calls["batch"]])

    metrics = {
        "distill.phase_s": mean(durations("distill.run_distillation")),
        "distill.forward_loss_s": mean(durations("distill.total_loss")),
        "distill.ema_update_s": mean(durations("distill.ema_update")),
        "distill.steps": len(records["distill"]) / max(1, len(by_name.get("distill.run_distillation", ()))),
        "finetune.phase_s": mean(durations("finetune.run_finetune")),
        "finetune.steps": len(records["finetune"]) / max(1, len(by_name.get("finetune.run_finetune", ()))),
        "tensor.backward_s": mean(durations("tensor.gradient")),
        "tensor.records_per_source_step": mean(records["source"]),
        "tensor.records_per_distill_step": mean(records["distill"]),
        "tensor.records_per_finetune_step": mean(records["finetune"]),
        "nets.train_source_s": mean(durations("nets.train_source_net")),
        "nets.sgd_step_s": mean(durations("nets.sgd_step")),
        "nets.sgd_steps": sgd_in_source / max(1, len(by_name.get("nets.train_source_net", ()))),
        "nets.predict_proba_s": mean(durations("nets.predict_proba")),
        "nets.checkpoint_save_s": mean(durations("nets.save_checkpoint")),
        "nets.checkpoint_load_s": mean(durations("nets.load_checkpoint")),
        "scenarios.evaluate_s": mean(durations("scenarios.evaluate")),
        "scenarios.evaluate_calls": per_op(len(durations("scenarios.evaluate", ops_only=True))),
        "scenarios.generate_s": mean(durations("scenarios.generate")),
        "predictors.init_teacher_s": mean(durations("predictors.init_teacher")),
        "predictors.query_s": mean(durations("predictors.query")),
        "predictors.quantize_s": mean(durations("predictors.quantize_probs")),
        "predictors.quantize_calls": per_op(len(durations("predictors.quantize_probs", ops_only=True))),
        "predictors.write_cache_s": mean(durations("predictors.write_cache")),
        "predictors.read_cache_s": mean(durations("predictors.read_cache")),
        "predictors.cache_bytes": mean([spans[i][5]["bytes"] for i in by_name.get("predictors.write_cache", ())]),
        "service.call_single_ms": call_ms["single"],
        "service.call_batch_ms": call_ms["batch"],
        "service.marginal_row_ms": (call_ms["batch"] - call_ms["single"]) / (batch_rows - 1) if batch_rows > 1 else 0.0,
        "service.requests_per_call": per_batch_call("requests"),
        "service.connections_per_call": per_batch_call("connections"),
        "service.server_start_s": statistics.median(durations("service.server_start")) if "service.server_start" in by_name else 0.0,
        "cli.io_s": per_op(sum(durations("cli.io", ops_only=True))),
        "trace.overhead_ms": overhead_ms,
    }
    for module in MODULES:
        own = sum(s for span, s in zip(spans, selfs) if span[0].startswith(module + ".") and span[4].startswith("op"))
        metrics[f"self.{module}_s"] = per_op(own)
    return metrics


# main loop ----------------------------------------------------------------


def peak_rss_mb() -> float:
    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


def bench(args) -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    bb = load_program()
    tracer = Tracer()
    run = Run(bb, tracer)
    workload = WORKLOADS[args.workload](run, args.seed, args.tiny)
    try:
        setup_times = []
        for rep in range(workload.setups):
            with tracer.recording(f"setup{rep}") if args.trace else contextlib.nullcontext():
                setup_times.append(workload.setup(rep))

        # with --trace 1, operations alternate untraced / traced so the
        # difference of their medians is the tracing overhead; operation 0
        # pays first-call costs and is left out of that difference
        clocks, traced = [], []
        attempted = failed = 0
        min_ops = 3 if args.trace else 1
        start = time.perf_counter()
        while len(clocks) < min_ops or time.perf_counter() - start < args.seconds:
            i = len(clocks)
            clock = Clock(tracer)
            is_traced = bool(args.trace) and i % 2 == 1
            with tracer.recording(f"op{i}") if is_traced else contextlib.nullcontext():
                try:
                    bad = workload.op(i, clock)
                except Exception as exc:  # noqa: BLE001 - a crashed operation is a failed one
                    run.fail(f"operation {i} raised {type(exc).__name__}: {exc}")
                    bad = workload.units_per_op
            attempted += workload.units_per_op
            failed += bad
            clocks.append(clock)
            traced.append(is_traced)

        op_ms = [1000.0 * c.total for c in clocks]
        if args.trace:
            for name in REQUIRED_SPANS[workload.name]:
                if not any(span[0] == name for span in tracer.spans):
                    run.fail(f"span {name} never fired on {workload.name}")
            plain = [ms for ms, t in zip(op_ms[1:], traced[1:]) if not t]
            with_trace = [ms for ms, t in zip(op_ms[1:], traced[1:]) if t]
            overhead = statistics.median(with_trace) - statistics.median(plain)
            metrics = per_layer(tracer, sum(traced), overhead)
            tracer.write(
                os.path.join(OUT, f"trace-{workload.name}-seed{args.seed}.ndjson"),
                {"workload": workload.name, "seed": args.seed, "traced_ops": sum(traced), "metrics": metrics},
            )
        else:
            metrics = {
                "setup_s": statistics.median(setup_times),
                "rows_per_s": workload.rows_per_op * len(clocks) / sum(c.total for c in clocks),
            }
        summary = [("ops", f"{len(clocks)} in {time.perf_counter() - start:.1f} s", ""),
                   ("op_p50_ms", statistics.median(op_ms), "ms"), ("op_tail_ms", tail(op_ms), ""),
                   *workload.summary(statistics.median(op_ms), clocks)]
    finally:
        workload.close()
        run.close()
    if not args.trace:
        metrics["peak_rss_mb"] = peak_rss_mb()
    if metrics.keys() != units.keys():
        raise SystemExit(f"perfbench: computed metrics {sorted(metrics)} do not match BENCHMARK.json {sorted(units)}")
    summary.append(("ops_failed_ratio", failed / attempted, f"({failed} of {attempted})"))
    for name, value, unit in summary:
        print(f"{workload.name} {name} {value} {unit}".rstrip())
    for name, value in metrics.items():
        print(f"{workload.name} {name} {value!r} {units[name]}")
    return {
        "correct": not run.failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="few epochs and one set-up; for the smoke test only")
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    result = bench(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
