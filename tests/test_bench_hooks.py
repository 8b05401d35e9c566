"""The benchmark's tracer (`perfbench/spans.py`) patches bbadapt by name.

A refactor that moves or renames a traced function or method breaks every
traced benchmark run, so this checks, without installing anything, that
each traced target still resolves the way `Tracer.install` looks it up.
A refactor that stops calling one breaks the traced run too, which fails
when a span in `REQUIRED_SPANS` (`perfbench/run.py`) never fires; so this
also traces tiny versions of two workloads and checks those spans.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

import bbadapt
from bbadapt import cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SPANS = PERFBENCH / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _required_spans() -> dict:
    """`REQUIRED_SPANS` as `perfbench/run.py` declares it, read without
    running that script."""
    for node in ast.parse((PERFBENCH / "run.py").read_text()).body:
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["REQUIRED_SPANS"]:
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/run.py declares no REQUIRED_SPANS")


spans = _load_spans()
REQUIRED_SPANS = _required_spans()


@pytest.mark.parametrize("mod_name, attr", [(t[0], t[1]) for t in spans.TARGETS])
def test_trace_target_resolves(mod_name, attr):
    assert mod_name in spans.MODULES
    module = importlib.import_module(f"bbadapt.{mod_name}")
    if "." in attr:
        cls_name, meth = attr.split(".")
        cls = getattr(module, cls_name)
        assert callable(cls.__dict__.get(meth)), f"{attr} must be defined on {cls_name} itself"
    else:
        assert callable(getattr(module, attr, None)), f"bbadapt.{mod_name} has no function {attr}"


def _assert_required_spans_fire(workload: str, run):
    """Trace `run()` the way the benchmark traces one operation, then check
    that each of the workload's required spans that the tracer records
    inside the program fired (the rest are the benchmark's own spans)."""
    tracer = spans.Tracer()
    with tracer.recording("op1"):
        run()
    fired = {span[0] for span in tracer.spans}
    program_spans = {target[2] for target in spans.TARGETS}
    required = [name for name in REQUIRED_SPANS[workload] if name in program_spans]
    assert {"nets.sgd_step", "tensor.gradient", "nets.predict_proba"} & set(required)
    assert [name for name in required if name not in fired] == []


def test_adapt_fires_the_required_spans(tmp_path):
    argv = ["adapt", "--preset", "multi3-gauss4", "--seeds", "1,2", "--source-epochs", "1",
            "--adapt-epochs", "1", "--finetune-epochs", "1", "--outdir", str(tmp_path)]

    def run():
        assert cli.main(argv) == 0

    _assert_required_spans_fire("adapt-multi3", run)


def test_snapshot_cycle_fires_the_required_spans(tmp_path):
    # as perfbench's snapshot-cache: train a source, then bank, cache, reload, bank
    def run():
        argv = ["train-source", "--preset", "partial-gauss8", "--source-epochs", "1", "--seed", "3",
                "--outdir", str(tmp_path)]
        assert cli.main(argv) == 0
        net = bbadapt.load_checkpoint(str(tmp_path / "source0_seed3.json"))
        handle = bbadapt.InProcessPredictor(net, disclosure="top-r", r=2)
        x = bbadapt.generate(bbadapt.preset("partial-gauss8"))[1].features
        live = bbadapt.init_teacher([handle], x, r=2)
        path = str(tmp_path / "cache.ndjson")
        bbadapt.write_cache(path, handle, x)
        cached = bbadapt.init_teacher([bbadapt.read_cache(path, handle.num_classes)], x, r=2)
        assert cached.rows.tobytes() == live.rows.tobytes()

    _assert_required_spans_fire("snapshot-cache", run)
