import gc
import json
import re
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bbadapt.errors import ContractError
from bbadapt import predictors
from bbadapt.nets import SourceNet, train_source_net
from bbadapt.predictors import (
    CachedPredictor,
    InProcessPredictor,
    TopK,
    _answer,
    _records,
    ada_ls,
    checked_columns,
    checked_features,
    disclose,
    init_teacher,
    quantize_probs,
    read_cache,
    resolve_r,
    teacher_rows,
    write_cache,
)
from bbadapt import service
from bbadapt.service import PredictionServer, RemotePredictor

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


def test_ada_ls_rejects_bad_inputs():
    with pytest.raises(ContractError):
        ada_ls(np.array([0.5, 0.6]), 1)
    with pytest.raises(ContractError):
        ada_ls(np.array([[0.5, 0.5]]), 1)
    with pytest.raises(ContractError):
        ada_ls(np.array([0.5, 0.5]), 0)
    for p in ([np.nan, np.nan], [0.5, np.nan], [np.nan, 1.0]):
        with pytest.raises(ContractError):
            ada_ls(np.array(p), 1)


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
    train_source_net([net], [x], [y], [1], epochs=5, batch_size=32)
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


def test_predictions_are_quantized(rng):
    net, x = _trained_net(rng)
    handle = InProcessPredictor(net, disclosure="full-soft")
    for rec in handle.query(x[:10]):
        for p in rec.probs:
            assert p == float("%.9g" % p)


def test_checked_features():
    x = checked_features([[1, 2], [3, 4]])
    assert x.dtype == np.float64 and x.tolist() == [[1.0, 2.0], [3.0, 4.0]]
    assert checked_features(np.zeros((0, 2))).shape == (0, 2)
    for bad in (None, 1.0, [1.0, 2.0], [[]], [[1.0, 2.0], [1.0]], [["a", "b"]], [[1j]], np.zeros((2, 2, 1))):
        with pytest.raises(ContractError):
            checked_features(bad)


@pytest.mark.parametrize("bad", [[["1.5", 2.0]], [[1.5, True]], [[False, 0.5]], [np.array([True, False])],
                                 np.array([[True, False]]), np.array([["1.5", "2"]]), np.array([[b"1", b"2"]]),
                                 np.array([[1.5, "2"]], dtype=object), [(1.0, np.str_("2"))]])
def test_strings_and_booleans_are_not_features(rng, bad):
    # numpy reads "1.5" as 1.5 and true as 1.0; the boundary must not
    net, _ = _trained_net(rng)
    with pytest.raises(ContractError, match="not strings or booleans"):
        checked_features(bad)
    with pytest.raises(ContractError, match="not strings or booleans"):
        InProcessPredictor(net, disclosure="top-r", r=2).query(bad)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_features_are_rejected(rng, tmp_path, bad):
    # a non-finite feature would disclose NaN probabilities, which a cache file cannot hold as JSON
    net, x = _trained_net(rng)
    handle = InProcessPredictor(net, disclosure="top-r", r=2)
    write_cache(str(tmp_path / "good.json"), handle, x[:4])
    cache = read_cache(str(tmp_path / "good.json"), 3)
    poisoned = x[:4].copy()
    poisoned[2, 1] = bad
    for h in (handle, cache):
        with pytest.raises(ContractError, match="finite"):
            h.query(poisoned)
        with pytest.raises(ContractError, match="finite"):
            init_teacher([h], poisoned, r=2)
        with pytest.raises(ContractError, match="finite"):
            write_cache(str(tmp_path / "bad.json"), h, poisoned)
        assert not (tmp_path / "bad.json").exists()


def test_public_surface_is_pinned():
    # a handle answers `query` and nothing else; the single-row views must not come back
    imported = {"annotations", "gc", "json", "threading", "chain", "repeat", "NamedTuple", "np", "MemoryBank",
                "ContractError", "clone_net", "read_json", "write_atomically", "check_probabilities"}
    public = {name for name in vars(predictors) if not name.startswith("_")} - imported
    assert public == {
        "DISCLOSURES",
        "CachedPredictor",
        "InProcessPredictor",
        "PredictorHandle",
        "SmoothedPrediction",
        "TopK",
        "ada_ls",
        "checked_columns",
        "checked_features",
        "disclose",
        "init_teacher",
        "quantize_probs",
        "read_cache",
        "resolve_r",
        "teacher_rows",
        "write_cache",
    }
    for cls in (InProcessPredictor, CachedPredictor, RemotePredictor):
        assert {name for name in dir(cls) if not name.startswith("_")} == {
            "disclosure", "num_classes", "predictor_id", "query", "r"}, cls


def test_cached_predictor_positional(rng):
    net, x = _trained_net(rng)
    records = InProcessPredictor(net, disclosure="top-r", r=1).query(x[:6])
    cache = CachedPredictor(*disclose(net.predict_proba(x[:6]), 1), 1, 3, "c")
    assert len(cache) == 6
    assert cache.query(x[:6]) == records
    for features in (x[:4], None, x[:6, :0]):  # too few rows, no batch, no columns
        with pytest.raises(ContractError):
            cache.query(features)


def test_cached_predictor_disclosure_inference():
    for r, disclosure in ((0, "hard"), (3, "full-soft"), (1, "top-r")):
        assert CachedPredictor(*disclose([[0.5, 0.3, 0.2]], r), r, 3, "c").disclosure == disclosure


def test_cache_file_round_trip(tmp_path, rng):
    net, x = _trained_net(rng)
    handle = InProcessPredictor(net, disclosure="top-r", r=2, predictor_id="src0")
    path = tmp_path / "cache.json"
    count = write_cache(str(path), handle, x)
    assert count == x.shape[0]
    cache = read_cache(str(path), 3)
    assert cache.predictor_id == "src0"
    assert cache.query(x) == handle.query(x)
    text = path.read_text()
    assert text.count("\n") == 1 and text.endswith("\n")
    saved = json.loads(text)
    assert set(saved) == {"num_classes", "predictor_id", "r", "topk"}
    assert saved["num_classes"] == 3 and saved["r"] == 2 and len(saved["topk"]) == x.shape[0]


# a cached or remote handle hands `_answer` its columns, and no record is built ---------

def _no_records(*args):
    raise AssertionError("a TopK record was built")


def assert_same_columns(got, want):
    assert [(a.dtype, a.shape, a.tobytes()) for a in got[:2]] == [(a.dtype, a.shape, a.tobytes()) for a in want[:2]]
    assert got[2] == want[2]


def assert_rejects_non_finite_features(handle, x):
    poisoned = x.copy()
    poisoned[3, 1] = np.nan
    with pytest.raises(ContractError, match="finite"):
        _answer(handle, poisoned)


def test_a_cached_handle_answers_with_its_columns(tmp_path, rng, monkeypatch):
    net, x = _trained_net(rng)
    live = InProcessPredictor(net, disclosure="top-r", r=2)
    want = _answer(live, x)
    write_cache(str(tmp_path / "cache.json"), live, x)
    cache = read_cache(str(tmp_path / "cache.json"), 3)
    kept = [cache._classes.copy(), cache._probs.copy()]
    monkeypatch.setattr(predictors, "_records", _no_records)
    assert_same_columns(_answer(cache, x), want)
    init_teacher([cache], x, r=2)
    write_cache(str(tmp_path / "again.json"), cache, x)
    assert (tmp_path / "again.json").read_bytes() == (tmp_path / "cache.json").read_bytes()
    assert [cache._classes.tobytes(), cache._probs.tobytes()] == [a.tobytes() for a in kept]
    with pytest.raises(ContractError, match=f"cache holds {len(x)} samples, queried with {len(x) - 1}"):
        _answer(cache, x[:-1])
    assert_rejects_non_finite_features(cache, x)


def test_a_remote_handle_answers_with_its_columns(rng, monkeypatch):
    net, x = _trained_net(rng)
    live = InProcessPredictor(net, disclosure="top-r", r=2)
    want = _answer(live, x)
    # a served cache, so that neither end builds records
    server = PredictionServer(CachedPredictor(*want, 3, "c"))
    server.start_background()
    try:
        remote = RemotePredictor(*server.endpoint, num_classes=3, disclosure="top-r", r=2)
        monkeypatch.setattr(predictors, "_records", _no_records)
        assert_same_columns(_answer(remote, x), want)
        assert_rejects_non_finite_features(remote, x)
        # a server that answers one row short
        monkeypatch.setattr(service, "_answer", lambda handle, features: (want[0][:-1], want[1][:-1], 2))
        with pytest.raises(ContractError, match=f"expected a 'topk' list of {len(x)} rows"):
            _answer(remote, x)
    finally:
        server.shutdown()
        server.server_close()


def test_a_snapshot_cycle_runs_no_collection(tmp_path, rng):
    # records and parsed topk rows hold no cycles, and refcounting frees them while the collector is paused
    x = rng.normal(size=(1000, 2))
    handle = InProcessPredictor(SourceNet(2, 8, hidden=(16,), rng=np.random.default_rng(0)), disclosure="top-r", r=2)
    path = str(tmp_path / "cache.json")
    generations = []

    def cycle():
        live = init_teacher([handle], x, r=2)
        write_cache(path, handle, x)
        return live, init_teacher([read_cache(path, 8)], x, r=2)

    def count(phase, info):
        if phase == "start":
            generations.append(info["generation"])

    # a cycle as a long run sees it: the first fills the tuple free lists, which a full collection empties,
    # and the young generation starts empty, so only the cycle's own allocations count
    cycle()
    gc.collect(0)
    gc.callbacks.append(count)
    try:
        live, bank = cycle()
    finally:
        gc.callbacks.remove(count)
    assert generations == []
    assert bank.rows.tobytes() == live.rows.tobytes()


def test_the_collector_pause_keeps_the_callers_state(tmp_path, rng):
    rows = rng.dirichlet(np.ones(3), size=4)
    path = tmp_path / "cache.json"
    path.write_text(json.dumps({"num_classes": 3, "predictor_id": "c", "r": 1, "topk": [[[5, 0.8]]]}))
    try:
        gc.disable()  # a collector the caller turned off stays off
        init_teacher([StubHandle(rows, 1, 3)], np.zeros((4, 2)), r=1)
        assert not gc.isenabled()
    finally:
        gc.enable()
    with pytest.raises(ContractError, match="stub failure"):
        init_teacher([StubHandle(rows, 1, 3, fail_at=0)], np.zeros((4, 2)), r=1)
    assert gc.isenabled()
    with pytest.raises(ContractError, match="classes must be integers"):
        read_cache(str(path), 3)
    assert gc.isenabled()


def test_pauses_on_two_threads_leave_the_collector_on():
    # the collector is one per process: only the main thread's pause turns it off, whatever the exit order
    for main_exits_first in (True, False):
        entered, leave, left = threading.Event(), threading.Event(), threading.Event()
        seen = []

        def worker():
            with predictors._GcPause():
                seen.append(gc.isenabled())
                entered.set()
                leave.wait(10)
            left.set()

        main = predictors._GcPause()
        thread = threading.Thread(target=worker)
        if main_exits_first:  # enter main, enter worker, exit main, exit worker
            main.__enter__()
            thread.start()
            assert entered.wait(10) and seen == [False]
            main.__exit__(None, None, None)
            assert gc.isenabled()
            leave.set()
        else:  # enter worker, enter main, exit worker, exit main
            thread.start()
            assert entered.wait(10) and seen == [True]  # a worker's pause leaves the collector running
            main.__enter__()
            leave.set()
            assert left.wait(10) and not gc.isenabled()
            main.__exit__(None, None, None)
        thread.join(10)
        assert not thread.is_alive() and gc.isenabled()


def test_read_cache_requires_full_coverage(tmp_path):
    # a cache answers for every sample it was written for, and for no other count
    good = {"num_classes": 3, "predictor_id": "c", "r": 1, "topk": [[[1, 0.8]], [[0, 0.7]]]}
    path = tmp_path / "cache.json"
    path.write_text(json.dumps(good))
    cache = read_cache(str(path), 3)
    assert len(cache) == 2
    for n in (1, 3):
        with pytest.raises(ContractError, match="cache holds 2 samples"):
            cache.query(np.zeros((n, 2)))
    for text in ("", "\n \n", json.dumps({**good, "topk": []})):
        path.write_text(text)
        with pytest.raises(ContractError, match="cache"):
            read_cache(str(path), 3)


# "topk" rows of a wire response or cache file, checked by checked_columns ------

@pytest.mark.parametrize("disclosure,r", [("full-soft", None), ("top-r", 1), ("top-r", 2), ("hard", None)])
def test_checked_topks_accepts_disclosed_records(rng, disclosure, r):
    net, x = _trained_net(rng)
    records = InProcessPredictor(net, disclosure=disclosure, r=r).query(x[:12])
    classes = [list(rec.classes) for rec in records]
    probs = [list(rec.probs) for rec in records]
    c, p = checked_columns(classes, probs, records[0].r, 3)
    assert c.dtype == np.intp and p.dtype == np.float64
    assert c.tolist() == classes and p.tolist() == probs


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
        checked_columns([classes], [probs], r, 8)
    with pytest.raises(ContractError):
        checked_columns([[3, 1], classes, [3, 1]], [[0.6, 0.3], probs, [0.6, 0.3]], r, 8)


def test_checked_topks_names_the_bad_record():
    with pytest.raises(ContractError, match=r"record 2: classes must be integers in \[0, 8\)"):
        checked_columns([[3, 1], [2, 1], [9, 1]], [[0.6, 0.3]] * 3, 2, 8)


GOOD_CACHE = {"num_classes": 8, "predictor_id": "c", "r": 2, "topk": [[[3, 0.6], [1, 0.3]], [[2, 0.5], [0, 0.4]]]}


def _without(key):
    return {k: v for k, v in GOOD_CACHE.items() if k != key}


def _row(pairs):
    """GOOD_CACHE with its second row replaced by `pairs`."""
    return {**GOOD_CACHE, "topk": [GOOD_CACHE["topk"][0], pairs]}


BAD_CACHES = {
    "class out of range": _row([[9, 0.6], [1, 0.3]]),
    "one pair at r=2": _row([[3, 0.6]]),
    "three values in a pair": _row([[3, 0.6, 0.1], [1, 0.3, 0.1]]),
    "nan probability": _row([[3, float("nan")], [1, 0.3]]),
    "ascending probabilities": _row([[3, 0.3], [1, 0.6]]),
    "string class": _row([["3", 0.6], [1, 0.3]]),
    "r below the pair count": {**GOOD_CACHE, "r": 1},
    "string r": {**GOOD_CACHE, "r": "2"},
    "no num_classes": _without("num_classes"),
    "no predictor_id": _without("predictor_id"),
    "no r": _without("r"),
    "no topk": _without("topk"),
    "extra key": {**GOOD_CACHE, "sample_id": 0},
    "list predictor_id": {**GOOD_CACHE, "predictor_id": [1, 2]},
    "null predictor_id": {**GOOD_CACHE, "predictor_id": None},
    "other num_classes": {**GOOD_CACHE, "num_classes": 4},
    "string num_classes": {**GOOD_CACHE, "num_classes": "8"},
    "topk not a list of rows": {**GOOD_CACHE, "topk": {"0": [[3, 0.6], [1, 0.3]]}},
    "empty topk": {**GOOD_CACHE, "topk": []},
    "a list": [GOOD_CACHE],
}


def test_read_cache_rejects_bad_records(tmp_path):
    path = tmp_path / "cache.json"
    path.write_text(json.dumps(GOOD_CACHE))
    assert len(read_cache(str(path), 8)) == 2
    for obj in BAD_CACHES.values():
        path.write_text(json.dumps(obj))
        with pytest.raises(ContractError, match="cache"):
            read_cache(str(path), 8)


@pytest.mark.parametrize("topk, record", [
    ([[[True, 0.5]], [[0, True]]], 0),
    ([[[1, 0.5]], [[0, True]]], 1),
    ([[[1, 0.5]], [[False, 0.5]]], 1),
])
def test_read_cache_rejects_booleans(tmp_path, topk, record):
    # beside numbers, numpy would read true as 1 and false as 0
    path = tmp_path / "cache.json"
    path.write_text(json.dumps({"num_classes": 3, "predictor_id": "c", "r": 1, "topk": topk}))
    message = f"cache {re.escape(str(path))}: record {record}: classes and probabilities must be numbers"
    with pytest.raises(ContractError, match=message):
        read_cache(str(path), 3)


# fuzzing the two parsers of untrusted records ----------------------------

ROW = st.lists(NUMBER, max_size=3)


@st.composite
def near_valid_caches(draw):
    """A cache `write_cache` could write, with a few values then replaced."""
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    r = draw(st.integers(0, 4))
    classes, probs = disclose(gen.dirichlet(np.ones(4), size=draw(st.integers(1, 3))), r)
    obj = {"num_classes": 4, "predictor_id": draw(st.text(max_size=4)), "r": r,
           "topk": [[list(pair) for pair in zip(*row)] for row in zip(classes.tolist(), probs.tolist())]}
    if draw(st.booleans()):  # one number of one pair
        draw(st.sampled_from(draw(st.sampled_from(obj["topk"]))))[draw(st.integers(0, 1))] = draw(NUMBER | JSON)
    for key in draw(st.lists(st.sampled_from([*obj, "sample_id"]), max_size=2)):  # a value, or one key too many
        obj[key] = draw(NUMBER | JSON)
    return obj


def assert_cache_or_contract_error(path, data: bytes):
    path.write_bytes(data)
    try:
        cache = read_cache(str(path), 4)
    except ContractError:
        return
    assert len(cache) == len(json.loads(data)["topk"])
    assert_valid_records(cache.query(np.zeros((len(cache), 1))), cache.r, 4)


@given(st.binary(max_size=300))
@settings(max_examples=300, deadline=None)
def test_read_cache_fuzz_bytes(tmp_path_factory, data):
    assert_cache_or_contract_error(tmp_path_factory.mktemp("fuzz") / "cache.json", data)


@given(near_valid_caches() | JSON, st.sampled_from([b"", b"\n", b" \r\n"]))
@settings(max_examples=200, deadline=None)
def test_read_cache_fuzz_objects(tmp_path_factory, obj, end):
    data = json.dumps(obj).encode() + end
    assert_cache_or_contract_error(tmp_path_factory.mktemp("fuzz") / "cache.json", data)


def test_read_cache_rejects_deep_nesting(tmp_path):
    head = b'{"num_classes": 4, "predictor_id": "c", "r": 1, "topk": '
    path = tmp_path / "deep.json"
    for data, message in ((b"[" * 100_000, "is not JSON"),
                          (head + b"[" * 100_000 + b"]" * 100_000 + b"}", "is not JSON"),
                          (head + b"[" * 200 + b"]" * 200 + b"}", "pairs per row")):
        path.write_bytes(data)
        with pytest.raises(ContractError, match=message):
            read_cache(str(path), 4)


@given(st.lists(ROW | JSON, max_size=4) | JSON, st.lists(ROW | JSON, max_size=4) | JSON, st.integers(-1, 5) | JSON)
@settings(max_examples=100, deadline=None)
def test_checked_topks_fuzz(classes, probs, r):
    try:
        records = _records(*checked_columns(classes, probs, r, 4), r, 4)
    except ContractError:
        return
    assert_valid_records(records, r, 4)
