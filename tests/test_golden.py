import golden
import pytest
from bbadapt.scenarios import PRESET_NAMES


@pytest.fixture(scope="module")
def hashes(tmp_path_factory):
    # every file of the tiny runs in `golden.py`, hashed byte for byte
    return golden.hashes(tmp_path_factory.mktemp("golden"))


def files_under(hashes, directory):
    return {name.removeprefix(directory + "/"): digest for name, digest in hashes.items()
            if name.startswith(directory + "/")}


def test_outputs_match_the_golden_entry(hashes):
    key = golden.key()
    entry = golden.entries().get(key)
    if entry is None:
        pytest.skip(f"no golden entry for {key!r}; `python tests/golden.py` writes one")
    assert sorted(name for name in entry.keys() | hashes.keys() if entry.get(name) != hashes.get(name)) == []


def test_outputs_match_the_golden_entry_under_the_other_kernel(tmp_path):
    # a regrouped product can keep one kernel's bits and change another's, so the runs go once more in a
    # child process under the kernel this one did not load
    core = golden.other_kernel()
    if core is None:
        pytest.skip("this CPU cannot run the other kernel with an entry")
    key, hashes = golden.hashes_under(core, tmp_path)
    assert key.endswith(f"OpenBLAS core {core}"), key  # the variable took effect
    entry = golden.entries().get(key)
    if entry is None:
        pytest.skip(f"no golden entry for {key!r}; `OPENBLAS_CORETYPE={core} python tests/golden.py` writes one")
    assert sorted(name for name in entry.keys() | hashes.keys() if entry.get(name) != hashes.get(name)) == []


def test_shares_write_what_one_process_writes(hashes):
    # under any numpy and CPU: a run split into seed shares equals the same run in one process
    for preset in PRESET_NAMES:
        shares, serial = files_under(hashes, f"shares/{preset}"), files_under(hashes, f"serial/{preset}")
        assert len(shares) == 8 and shares == serial, preset


def test_the_three_backings_write_the_same_run(hashes):
    # C10 under any numpy and CPU: checkpoints, caches and endpoints of the same sources give one run
    runs = [files_under(hashes, backing) for backing in ("from-checkpoints", "from-caches", "from-endpoints")]
    assert len(runs[0]) == 8 and runs[0] == runs[1] == runs[2]
