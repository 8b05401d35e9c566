import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bbadapt.errors import ContractError
from bbadapt.nets import SourceNet, train_source_net
from bbadapt.predictors import (
    CachedPredictor,
    InProcessPredictor,
    TopK,
    ada_ls,
    checked_topks,
    disclose,
    init_teacher,
    quantize_probs,
    read_cache,
    resolve_r,
    teacher_rows,
    write_cache,
)

from conftest import JSON, NUMBER, assert_valid_records, make_blobs
from per_row import disclose_row, hard_to_prob, teacher_row


def disclose_one(row, r):
    """`disclose` on one row, as a TopK."""
    classes, probs = disclose([row], r)
    return TopK(tuple(classes[0].tolist()), tuple(probs[0].tolist()), r, len(row))


def hard_rows(classes, k, mode):
    """Teacher rows for hard labels of the given classes."""
    return teacher_rows(np.array(classes)[:, None], np.ones((len(classes), 1)), 0, 0, k, mode)


def naive_ada_ls(p, r):
    """Brute-force reference: sort indices by (-prob, index), keep top r,
    spread the leftover mass uniformly."""
    k = len(p)
    order = sorted(range(k), key=lambda i: (-p[i], i))
    kept = order[:r]
    if r == k:
        return [p[i] for i in range(k)]
    kept_mass = sum(p[i] for i in kept)
    rest = max(0.0, 1.0 - kept_mass) / (k - r)
    out = [rest] * k
    for i in kept:
        out[i] = p[i]
    return out


def test_quantize_probs_nine_digits():
    row = np.array([1.0 / 3.0, 2.0 / 3.0])
    q = quantize_probs(row)
    assert q[0] == 0.333333333
    assert q[1] == 0.666666667
    # idempotent
    assert np.array_equal(quantize_probs(q), q)


def test_quantize_preserves_shape(rng):
    row = rng.dirichlet(np.ones(4), size=3)
    q = quantize_probs(row)
    assert q.shape == row.shape


def test_disclose_row_full_soft_sorted_desc():
    rec = disclose_one([0.2, 0.5, 0.3], 3)
    assert rec.classes == (1, 2, 0)
    assert rec.probs == (0.5, 0.3, 0.2)
    assert rec.r == 3 and rec.k == 3


def test_disclose_row_tie_prefers_lower_index():
    rec = disclose_one([0.4, 0.2, 0.4], 1)
    assert rec.classes == (0,)
    rec = disclose_one([0.25, 0.25, 0.25, 0.25], 4)
    assert rec.classes == (0, 1, 2, 3)


def test_disclose_row_hard_sentinel():
    rec = disclose_one([0.1, 0.7, 0.2], 0)
    assert rec == TopK((1,), (1.0,), 0, 3)


def test_disclose_row_validation():
    with pytest.raises(ContractError):
        disclose([[0.5, 0.5]], -1)
    with pytest.raises(ContractError):
        disclose([[0.5, 0.5]], 3)


def test_resolve_r():
    assert resolve_r("hard", None, 3) == 0
    assert resolve_r("hard", 2, 3) == 0
    assert resolve_r("full-soft", None, 3) == 3
    assert resolve_r("full-soft", 1, 3) == 3
    assert resolve_r("top-r", 2, 3) == 2
    assert resolve_r("top-r", 3, 3) == 3  # top-r at r = K is full disclosure
    for disclosure, r in (("soft", 1), ("top-r", None), ("top-r", 0), ("top-r", 4)):
        with pytest.raises(ContractError):
            resolve_r(disclosure, r, 3)


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_ada_ls_matches_naive_oracle(k):
    gen = np.random.default_rng(k)
    for _ in range(200):
        p = gen.dirichlet(np.ones(k) * gen.uniform(0.2, 3.0))
        for r in range(1, k + 1):
            got = ada_ls(p, r)
            want = naive_ada_ls(list(p), r)
            assert got.r == r
            assert np.max(np.abs(got.probs - np.array(want))) < 1e-9
            assert abs(got.probs.sum() - 1.0) < 1e-9


def test_ada_ls_full_r_is_identity(rng):
    p = rng.dirichlet(np.ones(5))
    out = ada_ls(p, 5).probs
    assert np.array_equal(out, p)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_ada_ls_preserves_argmax(seed):
    p = np.random.default_rng(seed).dirichlet(np.ones(6))
    top = np.sort(p)
    if top[-1] - top[-2] < 1e-12:
        return
    for r in (1, 2, 5):
        assert int(np.argmax(ada_ls(p, r).probs)) == int(np.argmax(p))


def test_ada_ls_from_topk_matches_vector_path(rng):
    p = quantize_probs(rng.dirichlet(np.ones(4)))
    p = p / p.sum()
    p = quantize_probs(p)
    for r in (1, 2, 3):
        rec = disclose_one(p, r)
        via_rec = ada_ls(rec, r).probs
        via_vec = ada_ls(p, r).probs
        assert np.max(np.abs(via_rec - via_vec)) < 1e-9


def test_ada_ls_rejects_bad_inputs():
    with pytest.raises(ContractError):
        ada_ls(np.array([0.5, 0.6]), 1)
    with pytest.raises(ContractError):
        ada_ls(np.array([[0.5, 0.5]]), 1)
    with pytest.raises(ContractError):
        ada_ls(np.array([0.5, 0.5]), 0)
    hard = TopK((1,), (1.0,), 0, 3)
    with pytest.raises(ContractError):
        ada_ls(hard, 1)
    truncated = TopK((2, 0), (0.6, 0.3), 2, 4)
    with pytest.raises(ContractError):
        ada_ls(truncated, 1)
    for p in ([np.nan, np.nan], [0.5, np.nan], [np.nan, 1.0]):
        with pytest.raises(ContractError):
            ada_ls(np.array(p), 1)


def test_ada_ls_full_disclosure_any_r():
    rec = disclose_one([0.1, 0.6, 0.3], 3)
    out = ada_ls(rec, 1).probs
    assert np.allclose(out, [0.2, 0.6, 0.2], atol=1e-12)


def test_hard_to_prob_values():
    assert np.array_equal(hard_rows([2], 4, "onehot"), [[0.0, 0.0, 1.0, 0.0]])
    assert np.allclose(hard_rows([0], 2, "ls"), [[0.95, 0.05]], atol=1e-15)
    out = hard_rows([1, 3], 5, "ls")
    assert abs(out[0, 1] - (0.9 + 0.02)) < 1e-15 and abs(out[1, 3] - (0.9 + 0.02)) < 1e-15
    assert np.allclose(np.delete(out[0], 1), 0.02, atol=1e-15)
    for classes, mode in (([5], "ls"), ([0, -1], "ls"), ([0], "soft")):
        with pytest.raises(ContractError):
            hard_rows(classes, 4, mode)


def test_teacher_row_dispatch():
    hard = disclose([[0.1, 0.2, 0.6, 0.1]], 0)
    assert np.array_equal(teacher_rows(*hard, 0, 1, 4, "onehot"), [[0.0, 0.0, 1.0, 0.0]])
    assert np.array_equal(teacher_rows(*hard, 0, 1, 4, "ls"), [hard_to_prob(2, 4, "ls")])
    soft = disclose([[0.1, 0.6, 0.2, 0.1]], 1)
    assert np.array_equal(teacher_rows(*soft, 1, 1, 4), [teacher_row(disclose_row([0.1, 0.6, 0.2, 0.1], 1), 1)])
    for disclosed_r, r in ((1, 2), (1, 0), (4, 5)):
        with pytest.raises(ContractError):
            teacher_rows(*disclose([[0.1, 0.6, 0.2, 0.1]], disclosed_r), disclosed_r, r, 4)


class StubHandle:
    def __init__(self, rows, r, num_classes, fail_at=None):
        self.rows = rows
        self.r = r
        self.num_classes = num_classes
        self.predictor_id = "stub"
        self.fail_at = fail_at

    def query(self, features):
        if self.fail_at is not None:
            raise ContractError("stub failure")
        return [disclose_row(row, self.r) for row in self.rows]


def test_init_teacher_matches_naive_mean(rng):
    k, n, r = 4, 7, 2
    rows_a = rng.dirichlet(np.ones(k), size=n)
    rows_b = rng.dirichlet(np.ones(k), size=n)
    handles = [StubHandle(rows_a, r, k), StubHandle(rows_b, r, k)]
    bank = init_teacher(handles, np.zeros((n, 2)), r=r)

    for i in range(n):
        want = [
            (a + b) / 2.0
            for a, b in zip(
                naive_ada_ls(list(quantize_probs(rows_a[i])), r),
                naive_ada_ls(list(quantize_probs(rows_b[i])), r),
            )
        ]
        assert np.max(np.abs(bank.rows[i] - np.array(want))) < 1e-9


def test_init_teacher_validation(rng):
    rows = rng.dirichlet(np.ones(3), size=4)
    with pytest.raises(ContractError):
        init_teacher([], np.zeros((4, 2)), r=1)
    mixed = [StubHandle(rows, 1, 3), StubHandle(rows, 1, 4)]
    with pytest.raises(ContractError):
        init_teacher(mixed, np.zeros((4, 2)), r=1)
    short = StubHandle(rows[:2], 1, 3)
    with pytest.raises(ContractError):
        init_teacher([short], np.zeros((4, 2)), r=1)
    mixed_r = StubHandle(rows, 1, 3)
    mixed_r.query = lambda features: [disclose_row(rows[0], 1), disclose_row(rows[1], 2)] * 2
    other_k = StubHandle(rows, 1, 3)
    other_k.query = lambda features: [disclose_row(np.append(row, 0.0), 1) for row in rows]
    for handle in (mixed_r, other_k):
        with pytest.raises(ContractError, match="one r over 3 classes"):
            init_teacher([handle], np.zeros((4, 2)), r=1)


def test_init_teacher_aborts_on_failure(rng):
    rows = rng.dirichlet(np.ones(3), size=4)
    bad = StubHandle(rows, 1, 3, fail_at=0)
    with pytest.raises(ContractError):
        init_teacher([StubHandle(rows, 1, 3), bad], np.zeros((4, 2)), r=1)


def _trained_net(rng):
    x, y = make_blobs(40, [(-2.0, 0.0), (2.0, 0.0), (0.0, 2.5)], 0.4, rng)
    net = SourceNet(2, 3, hidden=(16,), rng=np.random.default_rng(0))
    train_source_net(net, x, y, epochs=5, batch_size=32, seed=1)
    return net, x


def test_in_process_predictor_snapshot_isolated(rng):
    net, x = _trained_net(rng)
    handle = InProcessPredictor(net, disclosure="full-soft")
    before = handle.query(x[:5])
    # training the original after handle creation must not leak through
    net.head.weight.data += 10.0
    after = handle.query(x[:5])
    assert before == after


def test_in_process_predictor_r_resolution(rng):
    net, _ = _trained_net(rng)
    assert InProcessPredictor(net, disclosure="full-soft").r == 3
    assert InProcessPredictor(net, disclosure="hard").r == 0
    assert InProcessPredictor(net, disclosure="top-r", r=2).r == 2
    full = InProcessPredictor(net, disclosure="top-r", r=3)
    assert full.r == 3 and full.disclosure == "full-soft"
    with pytest.raises(ContractError):
        InProcessPredictor(net, disclosure="top-r")
    with pytest.raises(ContractError):
        InProcessPredictor(net, disclosure="soft")


def test_predict_shapes_by_disclosure(rng):
    net, x = _trained_net(rng)
    full = InProcessPredictor(net, disclosure="full-soft").predict(x[0])
    assert isinstance(full, np.ndarray) and full.shape == (3,)
    assert abs(full.sum() - 1.0) < 1e-6
    pairs = InProcessPredictor(net, disclosure="top-r", r=2).predict(x[0])
    assert len(pairs) == 2 and pairs[0][1] >= pairs[1][1]
    hard = InProcessPredictor(net, disclosure="hard").predict(x[0])
    assert hard == int(np.argmax(full))
    with pytest.raises(ContractError):
        InProcessPredictor(net, disclosure="hard").predict(x[:2])


def test_predictions_are_quantized(rng):
    net, x = _trained_net(rng)
    handle = InProcessPredictor(net, disclosure="full-soft")
    for rec in handle.query(x[:10]):
        for p in rec.probs:
            assert p == float("%.9g" % p)


def test_cached_predictor_positional(rng):
    net, x = _trained_net(rng)
    records = InProcessPredictor(net, disclosure="top-r", r=1).query(x[:6])
    cache = CachedPredictor(records, 3, "c")
    assert len(cache) == 6
    assert cache.query(x[:6]) == records
    assert cache.query(None) == records
    assert cache.lookup(2) == records[2]
    with pytest.raises(ContractError):
        cache.query(x[:4])
    with pytest.raises(ContractError):
        cache.predict(x[0])


def test_cached_predictor_validation():
    with pytest.raises(ContractError):
        CachedPredictor([], 3, "c")
    mixed = [TopK((0,), (0.9,), 1, 3), TopK((0, 1), (0.6, 0.3), 2, 3)]
    with pytest.raises(ContractError):
        CachedPredictor(mixed, 3, "c")


def test_cached_predictor_disclosure_inference():
    hard = [TopK((1,), (1.0,), 0, 3)]
    assert CachedPredictor(hard, 3, "c").disclosure == "hard"
    full = [TopK((0, 1, 2), (0.5, 0.3, 0.2), 3, 3)]
    assert CachedPredictor(full, 3, "c").disclosure == "full-soft"
    top = [TopK((0,), (0.5,), 1, 3)]
    assert CachedPredictor(top, 3, "c").disclosure == "top-r"


def test_cache_file_round_trip(tmp_path, rng):
    net, x = _trained_net(rng)
    handle = InProcessPredictor(net, disclosure="top-r", r=2, predictor_id="src0")
    path = tmp_path / "cache.ndjson"
    count = write_cache(str(path), handle, x)
    assert count == x.shape[0]
    cache = read_cache(str(path), 3)
    assert cache.predictor_id == "src0"
    assert cache.query(x) == handle.query(x)
    first = json.loads(path.read_text().splitlines()[0])
    assert set(first) == {"sample_id", "classes", "probs", "r", "predictor_id"}


def test_read_cache_parses_each_line_alone(tmp_path):
    # each file parses as JSON once its lines are joined with commas, but holds a line that is not JSON
    one = '{"sample_id": %d, "classes": [1, 2], "probs": [0.6, 0.3], "r": 2}'
    split = '{"sample_id": 0, "classes": [1\n2], "probs": [0.6, 0.3], "r": 2}'
    for text in (one % 0 + ", " + one % 1, split + "\n" + one % 1):
        path = tmp_path / "lines.ndjson"
        path.write_text(text + "\n")
        with pytest.raises(ContractError, match="record 0 is not JSON"):
            read_cache(str(path), 3)


def test_read_cache_requires_full_coverage(tmp_path):
    lines = [
        {"sample_id": 0, "classes": [1], "probs": [0.8], "r": 1, "predictor_id": "c"},
        {"sample_id": 2, "classes": [0], "probs": [0.7], "r": 1, "predictor_id": "c"},
    ]
    path = tmp_path / "gap.ndjson"
    path.write_text("\n".join(json.dumps(obj) for obj in lines) + "\n")
    with pytest.raises(ContractError):
        read_cache(str(path), 3)


@pytest.mark.parametrize("disclosure,r", [("full-soft", None), ("top-r", 1), ("top-r", 2), ("hard", None)])
def test_checked_topks_accepts_disclosed_records(rng, disclosure, r):
    net, x = _trained_net(rng)
    records = InProcessPredictor(net, disclosure=disclosure, r=r).query(x[:12])
    classes = [list(rec.classes) for rec in records]
    probs = [list(rec.probs) for rec in records]
    assert checked_topks(classes, probs, records[0].r, 3) == records


@pytest.mark.parametrize("classes,probs,r", [
    ([9, 1], [0.6, 0.3], 2),  # class out of range
    ([-1, 1], [0.6, 0.3], 2),
    ([1.5, 2], [0.6, 0.3], 2),  # class not an integer
    ([float("nan"), 2], [0.6, 0.3], 2),
    (["1", 2], [0.6, 0.3], 2),
    ([1, 1], [0.6, 0.3], 2),  # repeated class
    ([1], [0.6], 2),  # pair count other than max(r, 1)
    ([1, 2, 3], [0.6, 0.3, 0.1], 2),
    ([1, 2], [0.6], 2),
    ([], [], 0),
    ([1, 2], [float("nan"), 0.3], 2),  # probability not finite or outside [0, 1]
    ([1, 2], [0.6, float("nan")], 2),
    ([1, 2], [float("inf"), 0.3], 2),
    ([1, 2], [1.5, 0.3], 2),
    ([1, 2], [0.6, -0.1], 2),
    ([1, 2], ["0.6", 0.3], 2),
    ([1, 2], [0.3, 0.6], 2),  # not most probable first
    ([1, 2], [0.6, 0.3], 9),  # r outside [0, K]
    ([1, 2], [0.6, 0.3], -1),
    ([1, 2], [0.6, 0.3], "2"),
    ("12", [0.6, 0.3], 2),  # not lists
    ([1, 2], None, 2),
])
def test_checked_topks_rejects_bad_records(classes, probs, r):
    with pytest.raises(ContractError):
        checked_topks([classes], [probs], r, 8)
    with pytest.raises(ContractError):
        checked_topks([[3, 1], classes, [3, 1]], [[0.6, 0.3], probs, [0.6, 0.3]], r, 8)


def test_checked_topks_names_the_bad_record():
    with pytest.raises(ContractError, match=r"record 2: classes must be integers in \[0, 8\)"):
        checked_topks([[3, 1], [2, 1], [9, 1]], [[0.6, 0.3]] * 3, 2, 8)


def test_read_cache_rejects_bad_records(tmp_path):
    good = {"sample_id": 0, "classes": [3, 1], "probs": [0.6, 0.3], "r": 2, "predictor_id": "c"}
    bad_lines = [
        {**good, "classes": [9, 1]},
        {**good, "classes": [3]},
        {**good, "probs": [float("nan"), 0.3]},
        {**good, "probs": [0.3, 0.6]},
        {**good, "r": 1},
        {**good, "sample_id": "0"},
        {k: v for k, v in good.items() if k != "classes"},
        [good],
    ]
    for i, obj in enumerate(bad_lines):
        path = tmp_path / f"bad{i}.ndjson"
        path.write_text(json.dumps(good | {"sample_id": 1}) + "\n" + json.dumps(obj) + "\n")
        with pytest.raises(ContractError, match="cache"):
            read_cache(str(path), 8)
    repeated = tmp_path / "repeated.ndjson"
    repeated.write_text("".join(json.dumps(good | {"sample_id": i}) + "\n" for i in (0, 1, 0)))
    with pytest.raises(ContractError, match="exactly once"):
        read_cache(str(repeated), 8)


# fuzzing the two parsers of untrusted records ----------------------------

ROW = st.lists(NUMBER, max_size=3)
RECORD = st.fixed_dictionaries(
    {"sample_id": st.integers(0, 3), "classes": ROW | JSON, "probs": ROW | JSON, "r": st.integers(-1, 5) | JSON},
    optional={"predictor_id": JSON},
)


def assert_cache_or_contract_error(path, data: bytes):
    path.write_bytes(data)
    try:
        cache = read_cache(str(path), 4)
    except ContractError:
        return
    assert len(cache) == len([line for line in data.split(b"\n") if line.strip()])
    assert_valid_records(cache.query(None), cache.r, 4)


@given(st.binary(max_size=300))
@settings(max_examples=300, deadline=None)
def test_read_cache_fuzz_bytes(tmp_path_factory, data):
    assert_cache_or_contract_error(tmp_path_factory.mktemp("fuzz") / "cache.ndjson", data)


@given(st.lists(RECORD | JSON, min_size=1, max_size=4),
       st.lists(st.sampled_from([b"\n", b"\n\n", b" \r\n"]), min_size=4, max_size=4))
@settings(max_examples=100, deadline=None)
def test_read_cache_fuzz_json_lines(tmp_path_factory, objs, ends):
    data = b"".join(json.dumps(obj).encode() + end for obj, end in zip(objs, ends))
    assert_cache_or_contract_error(tmp_path_factory.mktemp("fuzz") / "cache.ndjson", data)


def test_read_cache_rejects_deep_nesting(tmp_path):
    good = b'{"sample_id": 0, "classes": [1], "probs": [0.5], "r": 1}\n'
    path = tmp_path / "deep.ndjson"
    for data, record in ((b"[" * 100_000, 0), (good + b"[" * 100_000 + b"]" * 100_000, 1)):
        path.write_bytes(data)
        with pytest.raises(ContractError, match=f"record {record} is not JSON"):
            read_cache(str(path), 4)


@given(st.lists(ROW | JSON, max_size=4) | JSON, st.lists(ROW | JSON, max_size=4) | JSON, st.integers(-1, 5) | JSON)
@settings(max_examples=100, deadline=None)
def test_checked_topks_fuzz(classes, probs, r):
    try:
        records = checked_topks(classes, probs, r, 4)
    except ContractError:
        return
    assert_valid_records(records, r, 4)
