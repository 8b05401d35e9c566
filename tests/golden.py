"""The golden record of bbadapt's outputs: the sha256 of every file that
tiny-epoch runs of each subcommand, and of each config branch the presets
leave untaken, write.

Floating-point results depend on numpy's version and on the kernels its
OpenBLAS picks for the CPU (DYNAMIC_ARCH), so each entry is keyed by
both (`key()`). `test_golden.py` reruns the runs and compares them with
the entry for the current key, or skips when there is none. It reruns
them once more in a child process under the other of the two kernels
in `KERNELS`, which `OPENBLAS_CORETYPE` forces before numpy loads.

    PYTHONPATH=src python tests/golden.py
    OPENBLAS_CORETYPE=Haswell PYTHONPATH=src python tests/golden.py

write the entry for the current key, and for the forced Haswell kernel,
into `golden.json`. Rerun both only when a change alters outputs on
purpose, and list the changed files.
"""

import contextlib
import ctypes
import glob
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
from numpy._core._multiarray_umath import __cpu_features__

from bbadapt import cli, nets
from bbadapt.predictors import InProcessPredictor
from bbadapt.scenarios import PRESET_NAMES
from bbadapt.service import PredictionServer

GOLDEN = Path(__file__).with_name("golden.json")
# the kernels with an entry, and the CPU features each needs: SkylakeX is what OpenBLAS picks on the
# AVX-512 machine the entries were first recorded on, and Haswell is what CI forces, as any AVX2 runner runs it
KERNELS = {"SkylakeX": ("AVX512_SKX",), "Haswell": ("AVX2", "FMA3")}
TINY = ["--source-epochs", "2", "--adapt-epochs", "2", "--finetune-epochs", "2"]
MULTI = ["--preset", "multi3-gauss4", *TINY]
SOURCES = [f"sources/source{m}_seed3.json" for m in range(3)]
# one run per config branch the presets' defaults leave untaken, on gauss4-rot30 (K=4)
VARIANTS = {
    "teacher-hard": ["--teacher", "hard"],
    "teacher-ls": ["--teacher", "ls"],
    "full-soft-r1": ["--disclosure", "full-soft", "--r", "1"],
    "drop-mi": ["--drop-mi"],
    "drop-mix": ["--drop-mix"],
    "freeze-bn-stats": ["--freeze-bn-stats"],
}


def openblas_core() -> str:
    """The name of the CPU core whose kernels numpy's OpenBLAS runs, read
    from the library `nets._blas_threads` found; "none" without one."""
    found = nets._blas_threads()
    if found is None:
        return "none"
    address = ctypes.cast(found[0], ctypes.c_void_p).value
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "*openblas*"))):
        try:
            lib = ctypes.CDLL(path, mode=os.RTLD_NOLOAD)
        except OSError:  # not loaded
            continue
        for prefix in ("scipy_openblas_", "openblas_"):
            get = getattr(lib, f"{prefix}get_num_threads64_", None)
            if get is not None and ctypes.cast(get, ctypes.c_void_p).value == address:
                corename = getattr(lib, f"{prefix}get_corename64_")
                corename.argtypes, corename.restype = (), ctypes.c_char_p
                return corename().decode()
    return "unknown"


def key() -> str:
    return f"numpy {np.__version__}, OpenBLAS core {openblas_core()}"


def entries() -> dict:
    return json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}


def _run(*argv):
    assert cli.main(list(argv)) == 0, argv


def _runs():
    """Every run, in the current directory. Those that could fork seed
    shares come first: a serving thread keeps a run in one process."""
    for preset in PRESET_NAMES:
        _run("adapt", "--preset", preset, *TINY, "--seeds", "1,2", "--outdir", f"shares/{preset}")
        with mock.patch.object(cli, "_share_count", lambda seeds: 1):
            _run("adapt", "--preset", preset, *TINY, "--seeds", "1,2", "--outdir", f"serial/{preset}")
    for name, flags in VARIANTS.items():
        _run("adapt", "--preset", "gauss4-rot30", *TINY, *flags, "--seeds", "1", "--outdir", f"variants/{name}")
    _run("adapt", "--config", "variants/teacher-ls/manifest.json", "--outdir", "replayed")
    _run("report", "shares/moons-rot30", "variants/drop-mi", "replayed", "--curves", "curves.tsv")
    _run("train-source", *MULTI, "--seed", "3", "--outdir", "sources")
    caches = [f"caches/source{m}.json" for m in range(3)]
    for source, cache in zip(SOURCES, caches):
        _run("cache-predictions", *MULTI, "--checkpoint", source, "--out", cache)
    _run("adapt", *MULTI, "--seeds", "1,2", "--source-checkpoints", ",".join(SOURCES), "--outdir", "from-checkpoints")
    _run("adapt", *MULTI, "--seeds", "1,2", "--caches", ",".join(caches), "--outdir", "from-caches")
    _run("finetune-only", *MULTI, "--checkpoint", "from-caches/distilled_seed1.json", "--seed", "1",
         "--outdir", "finetuned")
    servers = [PredictionServer(InProcessPredictor(nets.load_checkpoint(source), "top-r", 1)) for source in SOURCES]
    try:
        for server in servers:
            server.start_background()
        endpoints = ",".join("%s:%d" % server.endpoint for server in servers)
        _run("adapt", *MULTI, "--seeds", "1,2", "--endpoints", endpoints, "--outdir", "from-endpoints")
    finally:
        for server in servers:
            server.shutdown()
            server.server_close()


def other_kernel():
    """The kernel in `KERNELS` this process did not load, if this CPU can
    run it; None otherwise."""
    core = "SkylakeX" if openblas_core() == "Haswell" else "Haswell"
    return core if all(__cpu_features__.get(feature) for feature in KERNELS[core]) else None


def hashes_under(core: str, root) -> tuple:
    """`key()` and `hashes(root)` of a child process whose OpenBLAS runs
    the kernels of `core`."""
    path = [os.path.dirname(os.path.dirname(cli.__file__)), os.environ.get("PYTHONPATH")]  # bbadapt as imported here
    env = {**os.environ, "OPENBLAS_CORETYPE": core, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    child = subprocess.run([sys.executable, __file__, "--hashes", str(root)], env=env, capture_output=True, text=True)
    assert child.returncode == 0, child.stderr
    return tuple(json.loads(child.stdout))


def hashes(root) -> dict:
    """{relative path: sha256} of every file the runs write under `root`."""
    cwd = os.getcwd()
    os.chdir(root)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            _runs()
    finally:
        os.chdir(cwd)
    files = sorted(p for p in Path(root).rglob("*") if p.is_file())
    return {p.relative_to(root).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest() for p in files}


if __name__ == "__main__":
    if sys.argv[1:2] == ["--hashes"]:  # `hashes_under`'s child: print the key and the hashes, write nothing
        print(json.dumps([key(), hashes(sys.argv[2])]))
        sys.exit()
    with tempfile.TemporaryDirectory() as root:
        entry = hashes(root)
    GOLDEN.write_text(json.dumps({**entries(), key(): entry}, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(entry)} hashes under {key()!r} to {GOLDEN}", file=sys.stderr)
