"""The batch disclosure, smoothing and cache code against the one-row
reference in `per_row`: every array must match it bit for bit."""

import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bbadapt.errors import ContractError
from bbadapt.nets import SourceNet
from bbadapt.predictors import (
    InProcessPredictor,
    TopK,
    _topk_columns,
    _topk_text,
    ada_ls,
    disclose,
    init_teacher,
    quantize_probs,
    read_cache,
    teacher_rows,
    write_cache,
)

from conftest import DROP, key_paths, replaced
from per_row import ada_ls_row, cache_text, descending_order, disclose_row, quantize_row, teacher_row, topk_columns


def probability_rows(k: int, seed: int) -> np.ndarray:
    """Random rows plus rows that tie exactly and rows whose entries tie
    only after quantization, the larger raw value at the higher index."""
    gen = np.random.default_rng(seed)
    rows = [gen.dirichlet(np.full(k, c)) for c in (0.1, 0.5, 1.0, 5.0) for _ in range(10)]
    rows += [np.full(k, 1.0 / k), np.eye(k)[k - 1], np.eye(k)[0]]
    pair = np.zeros(k)
    pair[[0, k - 1]] = 0.5  # an exact tie between the first and the last class
    rows.append(pair)
    for _ in range(10):
        row = quantize_row(gen.dirichlet(np.ones(k)))
        lo, hi = np.sort(gen.choice(k, 2, replace=False))
        row[lo] = quantize_row((row[lo] + row[hi]) / 2.0)
        row[hi] = row[lo] * (1.0 + 1e-12)  # larger, but "%.9g" reads the same
        rows.append(row)
    return np.array(rows)


def per_row_columns(rows, r):
    records = [disclose_row(row, r) for row in rows]
    return np.array([rec.classes for rec in records]), np.array([rec.probs for rec in records])


@pytest.mark.parametrize("k", range(2, 11))
def test_disclose_matches_per_row(k):
    rows = probability_rows(k, seed=k)
    assert quantize_probs(rows).tobytes() == quantize_row(rows).tobytes()
    for r in range(k + 1):
        classes, probs = disclose(rows, r)
        want_classes, want_probs = per_row_columns(rows, r)
        assert classes.dtype == np.intp and probs.dtype == np.float64
        assert classes.tobytes() == want_classes.astype(np.intp).tobytes(), r
        assert probs.tobytes() == want_probs.astype(np.float64).tobytes(), r


# the exact quantizer against the text it replaced: each family must match
# `float("%.9g" % p)` bit for bit, and no numpy warning may escape

def assert_quantized_like_text(values):
    values = np.asarray(values, dtype=np.float64)
    assert quantize_probs(values).tobytes() == quantize_row(values).tobytes()


@pytest.mark.filterwarnings("error")
@given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=64))
@settings(max_examples=200, deadline=None)
def test_quantize_probs_matches_text_on_probabilities(values):
    assert_quantized_like_text(values)


@pytest.mark.filterwarnings("error")
def test_quantize_probs_matches_text_at_the_ninth_digit_halfway():
    gen = np.random.default_rng(0)
    m = gen.integers(10**8, 10**9, 2000)
    for j in range(24):  # (m + 0.5) / 10**j sits halfway between two 9-digit decimals
        assert_quantized_like_text((m + 0.5) / 10**j)
        assert_quantized_like_text(np.nextafter((m + 0.5) / 10**j, [[0.0], [2.0]]))


@pytest.mark.filterwarnings("error")
def test_quantize_probs_matches_text_beside_powers_of_ten():
    powers = np.array([10.0**-e for e in range(16)] + [float(f"1e-{e}") for e in range(16)])
    below, above = powers.copy(), powers.copy()
    values = [powers]
    for _ in range(4):  # the four floats on either side of each power
        below, above = np.nextafter(below, 0.0), np.nextafter(above, 2.0)
        values += [below, above]
    assert_quantized_like_text(np.concatenate(values))


@pytest.mark.filterwarnings("error")
def test_quantize_probs_matches_text_outside_the_fast_path():
    tiny = np.finfo(np.float64).tiny
    special = [5e-324, tiny / 3.0, tiny, 1e-300, 1e-15, 9.99999999e-15, 1e-14, 0.0, -0.0, 1.0, np.nan, -np.nan,
               np.inf, -np.inf, -1e-9, -0.5, -1.0, 1.5, 7.25, 123.456789012, 999999999.6, 1e9, 1e12, 1e300,
               0.9999999995, 0.99999999949999, 0.99999999950001]
    assert_quantized_like_text(special)
    assert_quantized_like_text(np.reshape(special[:24], (2, 3, 4)))
    assert_quantized_like_text(np.random.default_rng(1).integers(0, 2**63, 20000, dtype=np.uint64).view(np.float64))
    assert quantize_probs(0.1234567891).shape == () and quantize_probs([]).shape == (0,)


def test_quantization_ties_go_to_the_lower_class():
    row = np.array([0.123456789, 0.123456789 * (1.0 + 1e-12), 0.2, 0.553086422])
    assert row[1] > row[0] and quantize_probs(row)[1] == quantize_probs(row)[0]
    classes, probs = disclose(row[None, :], 4)
    assert classes.tolist() == [[3, 2, 0, 1]]
    assert probs[0, 2] == probs[0, 3]


@pytest.mark.parametrize("k", range(2, 11))
@pytest.mark.parametrize("hard_mode", ["ls", "onehot"])
def test_teacher_rows_match_per_row(k, hard_mode):
    rows = probability_rows(k, seed=100 + k)
    for disclosed_r in range(k + 1):
        records = [disclose_row(row, disclosed_r) for row in rows]
        classes, probs = disclose(rows, disclosed_r)
        smoothing = [disclosed_r] if 0 < disclosed_r < k else range(1, k + 1)
        for r in smoothing:
            got = teacher_rows(classes, probs, disclosed_r, r, k, hard_mode)
            want = np.stack([teacher_row(rec, r, hard_mode) for rec in records])
            assert got.tobytes() == want.tobytes(), (disclosed_r, r)


class RecordsHandle:
    """A handle that answers with fixed records."""

    predictor_id = "records"

    def __init__(self, records, k):
        self.records, self.num_classes = records, k

    def query(self, features):
        return list(self.records)


@pytest.mark.parametrize("k", [2, 5, 10])
@pytest.mark.parametrize("hard_mode", ["ls", "onehot"])
def test_init_teacher_matches_per_row_mean(k, hard_mode):
    rows_a, rows_b = probability_rows(k, seed=k), probability_rows(k, seed=50 + k)
    x = np.zeros((rows_a.shape[0], 2))
    for disclosed_r, r in ((0, 1), (1, 1), (k - 1, k - 1), (k, 1), (k, k)):
        handles = [RecordsHandle([disclose_row(row, disclosed_r) for row in rows], k) for rows in (rows_a, rows_b)]
        want = np.zeros((x.shape[0], k))
        for handle in handles:
            for i, rec in enumerate(handle.records):
                want[i] += teacher_row(rec, r, hard_mode)
        want /= len(handles)
        assert init_teacher(handles, x, r=r, hard_mode=hard_mode).rows.tobytes() == want.tobytes()


@pytest.mark.parametrize("k", range(2, 11))
def test_ada_ls_on_a_vector_matches_per_row(k):
    for row in probability_rows(k, seed=200 + k):
        row = row / row.sum()
        full = TopK(tuple(int(c) for c in descending_order(row)), tuple(row[descending_order(row)]), k, k)
        for r in range(1, k + 1):
            assert ada_ls(row, r).probs.tobytes() == ada_ls_row(full, r).tobytes()


@pytest.mark.parametrize("disclosure,r", [("full-soft", None), ("top-r", 1), ("top-r", 2), ("top-r", 5),
                                          ("hard", None)])
def test_cache_lines_are_json_dumps_per_record(tmp_path, disclosure, r):
    # the cache is one line: json.dumps of the whole saved answer
    net = SourceNet(2, 5, hidden=(8,), rng=np.random.default_rng(3))
    x = np.random.default_rng(4).normal(0.0, 2.0, (64, 2))
    predictor_id = 'src "0" \\ é\t%d %s'  # needs JSON escaping, and holds format directives
    handle = InProcessPredictor(net, disclosure=disclosure, r=r, predictor_id=predictor_id)
    path = tmp_path / "cache.json"
    assert write_cache(str(path), handle, x) == 64
    records = handle.query(x)
    assert path.read_bytes() == cache_text(records, predictor_id).encode()
    cache = read_cache(str(path), 5)
    assert cache.query(x) == records and cache.predictor_id == predictor_id


def test_empty_query_writes_no_cache(tmp_path):
    # an answer without rows has no truncation level, and `read_cache` admits no empty cache
    handle = InProcessPredictor(SourceNet(2, 3, hidden=(4,), rng=np.random.default_rng(0)), disclosure="top-r", r=2)
    path = tmp_path / "empty.json"
    with pytest.raises(ContractError, match="no rows"):
        write_cache(str(path), handle, np.zeros((0, 2)))
    assert list(tmp_path.iterdir()) == []


# a parsed `topk` list: the flat parse against the nested one ----------------

K = 4
# what a replaced value, pair or row may be: any JSON scalar (ints beyond int64 among them), an object, or a
# list of up to three numbers, which may be a pair
ODD = (st.integers() | st.integers(2**63 - 2, 2**65) | st.integers(-(2**65), -(2**63) + 1) | st.floats()
       | st.booleans() | st.none() | st.text(max_size=2)
       | st.dictionaries(st.text(max_size=2), st.integers(0, 1), max_size=1)
       | st.lists(st.integers(-1, K) | st.floats(0, 1), max_size=3))


@st.composite
def topk_values(draw):
    """The `topk` list of a disclosed batch, with up to three values,
    pairs or rows (or the whole list) replaced or removed."""
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    classes, probs = disclose(gen.dirichlet(np.ones(K), size=draw(st.integers(1, 3))), draw(st.integers(0, K)))
    topk = json.loads(_topk_text(classes, probs))
    for _ in range(draw(st.integers(0, 3))):
        path = draw(st.sampled_from(key_paths(topk)))
        topk = replaced(topk, path, draw(ODD | st.just(DROP)) if path else draw(ODD))
    return topk


@given(topk_values(), st.integers(-1, K + 1))
@settings(max_examples=400, deadline=None)
def test_topk_columns_matches_the_nested_parse(topk, r):
    # the same arrays, dtypes included, or the same ContractError
    try:
        want = topk_columns(topk, r, K)
    except ContractError as exc:
        with pytest.raises(ContractError, match=f"^{re.escape(str(exc))}$"):
            _topk_columns(topk, r, K)
        return
    got = _topk_columns(topk, r, K)
    assert [(a.dtype, a.shape, a.tobytes()) for a in got] == [(a.dtype, a.shape, a.tobytes()) for a in want]
