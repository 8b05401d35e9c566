"""Smoke test of the benchmark at tiny size.

    python3 -m pytest -q perfbench

Every workload must emit every metric named in BENCHMARK.json with its
unit, pass its output checks, and give identical counts in two traced
runs of one seed. Without the program source the command must fail
without printing a result.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(workload: str, trace: int, root: str = ROOT, seed: int = 7) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(root, "perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0.5", "--trace", str(trace), "--tiny"],
        cwd=root, capture_output=True, text=True, timeout=300,
    )


def result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_emitted_with_units(workload):
    out = result(bench(workload, trace=0))
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in out["metrics"].items()} == want
    assert all(v["value"] > 0 for v in out["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_exactly(workload):
    first, second = result(bench(workload, trace=1)), result(bench(workload, trace=1))
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for out in (first, second):
        assert out["correct"] and out["failed"] == 0
        assert {k: v["unit"] for k, v in out["metrics"].items()} == want
    counts = [name for name, unit in want.items() if unit in ("count", "bytes")]
    assert {n: first["metrics"][n]["value"] for n in counts} == {n: second["metrics"][n]["value"] for n in counts}


def test_fails_without_program_source():
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    bare = tempfile.mkdtemp(prefix="bare-", dir=os.path.join(HERE, "out"))
    try:
        shutil.copytree(HERE, os.path.join(bare, "perfbench"), ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        proc = bench(WORKLOADS[0], trace=0, root=bare)
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
