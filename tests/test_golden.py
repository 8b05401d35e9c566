import golden
import pytest


def test_outputs_match_the_golden_entry(tmp_path):
    # every file of the tiny runs in `golden.py`, hashed byte for byte; the checkpoint
    # paths in `sources_seed3.json` are relative, because the runs name their files so
    key = golden.key()
    entry = golden.entries().get(key)
    if entry is None:
        pytest.skip(f"no golden entry for {key!r}; `python tests/golden.py` writes one")
    got = golden.hashes(tmp_path)
    assert sorted(name for name in entry.keys() | got.keys() if entry.get(name) != got.get(name)) == []
