"""The benchmark's tracer (`perfbench/spans.py`) patches bbadapt by name.

A refactor that moves or renames a traced function or method breaks every
traced benchmark run, so this checks, without installing anything, that
each traced target still resolves the way `Tracer.install` looks it up.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = _load_spans()


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
