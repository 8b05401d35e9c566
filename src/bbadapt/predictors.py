"""The opaque source-predictor boundary.

A predictor handle answers feature queries with disclosed predictions and
nothing else: no parameters, no gradients, no architecture. Three backings
are provided (an in-process model snapshot, a remote endpoint client lives
in `service`, and an on-disk cache), and three disclosure modes:

* ``full-soft`` — the whole probability vector,
* ``top-r`` — the r most probable (class, probability) pairs,
* ``hard`` — the argmax class label alone.

A mode resolves to one number, the truncation level r in [0, K]: 0 is a
hard label, K the full vector, and top-r with r = K is full disclosure.

Every disclosed probability is quantized to 9 significant digits, the same
precision the wire protocol and the cache file use, so the three backings
are interchangeable bit for bit. Disclosure, adaptive label smoothing and
the cache file work on whole batches as arrays; `query` keeps answering
one `TopK` record per row, the form every backing returns.
"""

from __future__ import annotations

import json
from itertools import chain
from typing import NamedTuple

import numpy as np

from .distill import MemoryBank
from .errors import ContractError
from .nets import clone_net, write_atomically
from .tensor import check_probabilities

DISCLOSURES = ("full-soft", "top-r", "hard")


def quantize_probs(probs) -> np.ndarray:
    """Round each probability to 9 significant decimal digits, the whole
    array in one formatting call."""
    a = np.asarray(probs, dtype=np.float64)
    text = ("%.9g " * a.size) % tuple(a.ravel().tolist())
    return np.array(list(map(float, text.split())), dtype=np.float64).reshape(a.shape)


class TopK(NamedTuple):
    """One disclosed prediction: one row of what `disclose` returns.

    `classes` and `probs` are parallel, most probable first (ties broken
    toward the lower class index). `r` is the truncation level; r == k
    means the full vector was disclosed, and r == 0 marks a hard label,
    whose single probability is a placeholder 1.0.
    """

    classes: tuple
    probs: tuple
    r: int
    k: int


class SmoothedPrediction(NamedTuple):
    """A probability row after top-r truncation (see `ada_ls`)."""

    probs: np.ndarray
    r: int


def resolve_r(disclosure: str, r, k: int) -> int:
    """The truncation level a disclosure mode stands for over k classes.

    r is read for top-r only and must then lie in [1, k].
    """
    if disclosure not in DISCLOSURES:
        raise ContractError(f"unknown disclosure {disclosure!r}, expected one of {DISCLOSURES}")
    if disclosure == "hard":
        return 0
    if disclosure == "full-soft":
        return k
    if r is None or not 1 <= r <= k:
        raise ContractError(f"top-r disclosure needs r in [1, {k}], got {r}")
    return int(r)


def disclose(probs, r: int) -> tuple[np.ndarray, np.ndarray]:
    """Disclose a batch of full probability rows at truncation level r
    (see `resolve_r`).

    Returns `classes` (intp) and `probs` (float64), both of shape
    (n, max(r, 1)): each row's quantized probabilities, most probable
    first, ties broken toward the lower class index. A hard label (r == 0)
    is the top class with a placeholder probability 1.0.
    """
    q = quantize_probs(probs)
    if not 0 <= r <= q.shape[1]:
        raise ContractError(f"r must lie in [0, {q.shape[1]}], got {r}")
    # a stable sort keeps equal probabilities in class order
    classes = np.argsort(-q, axis=1, kind="stable")[:, :max(r, 1)]
    return classes, np.take_along_axis(q, classes, axis=1) if r else np.ones((q.shape[0], 1))


def _records(classes: np.ndarray, probs: np.ndarray, r: int, k: int) -> list[TopK]:
    return [TopK(tuple(cs), tuple(ps), r, k) for cs, ps in zip(classes.tolist(), probs.tolist())]


def _columns(records, k: int) -> tuple[np.ndarray, np.ndarray, int]:
    """The `classes` and `probs` arrays of a handle's records, and their one
    truncation level."""
    if not records:
        return np.empty((0, 1), dtype=np.intp), np.empty((0, 1)), 0
    classes, probs, rs, ks = zip(*records)
    if set(rs) != {rs[0]} or set(ks) != {k}:
        raise ContractError(f"records must share one r over {k} classes, got r {set(rs)} and k {set(ks)}")
    return (np.fromiter(chain.from_iterable(classes), np.intp).reshape(len(classes), -1),
            np.fromiter(chain.from_iterable(probs), np.float64).reshape(len(probs), -1), rs[0])


def checked_topks(classes, probs, r, k: int) -> list[TopK]:
    """TopK records built from untrusted values: the rows of a wire
    response or the lines of a cache file.

    `classes` and `probs` hold one row per record. r must be an integer in
    [0, k], and every row must hold max(r, 1) distinct integer classes in
    [0, k) and as many probabilities in [0, 1], most probable first.
    Anything else raises ContractError naming the first bad record.
    """
    if type(r) is not int or not 0 <= r <= k:
        raise ContractError(f"r must be an integer in [0, {k}], got {r!r}")
    n = max(r, 1)  # a hard label travels as one [class, 1.0] pair
    try:
        c, p = np.asarray(classes), np.asarray(probs)
    except ValueError:  # rows of unequal length
        c = p = np.empty(0)
    if c.ndim != 2 or c.shape != p.shape or c.shape[1] != n:
        raise ContractError(f"expected {n} classes and {n} probabilities per record at r={r}")
    if c.dtype.kind not in "iuf" or p.dtype.kind not in "iuf":
        raise ContractError("classes and probabilities must be numbers")

    def first_bad(ok: np.ndarray, what: str):
        if not ok.all():
            i = int(np.flatnonzero(~ok)[0])
            raise ContractError(f"record {i}: {what}, got classes {c[i].tolist()} and probabilities {p[i].tolist()}")

    # every comparison is written so that NaN fails it
    first_bad(((c >= 0) & (c < k) & (c == np.floor(c))).all(axis=1), f"classes must be integers in [0, {k})")
    c = c.astype(np.intp)
    first_bad((np.diff(np.sort(c, axis=1), axis=1) != 0).all(axis=1), "classes must be distinct")
    first_bad(((p >= 0.0) & (p <= 1.0)).all(axis=1), "probabilities must lie in [0, 1]")
    first_bad((p[:, 1:] <= p[:, :-1]).all(axis=1), "probabilities must be in descending order")
    return _records(c, p.astype(np.float64), r, k)


def teacher_rows(classes, probs, disclosed_r: int, r: int, k: int, hard_mode: str = "ls") -> np.ndarray:
    """Expand disclosed predictions into teacher probability rows, (n, k).

    `classes` and `probs` are as `disclose` returns them at `disclosed_r`.
    Hard labels become one-hot rows (`hard_mode` "onehot", smoothing 0) or
    0.1-smoothed ones ("ls"). Soft ones get adaptive label smoothing at r:
    the r most probable classes keep their probabilities, and every other
    class receives the uniform remainder (1 - kept mass)/(k - r). A
    disclosure truncated below k must carry that same r.
    """
    n = classes.shape[0]
    if disclosed_r == 0:
        top = classes[:, 0]
        if not ((top >= 0) & (top < k)).all():
            raise ContractError(f"class {top[(top < 0) | (top >= k)][0]} out of range for {k} classes")
        alpha = {"onehot": 0.0, "ls": 0.1}.get(hard_mode)
        if alpha is None:
            raise ContractError(f"unknown hard-label mode {hard_mode!r}, expected 'onehot' or 'ls'")
        out = np.full((n, k), alpha / k)
        out[np.arange(n), top] += 1.0 - alpha
        return out
    if not 1 <= r <= k:
        raise ContractError(f"r must lie in [1, {k}], got {r}")
    if disclosed_r < k and disclosed_r != r:
        raise ContractError(f"disclosure truncated at r={disclosed_r} cannot be smoothed with r={r}")
    kept = probs[:, :r]
    out = np.zeros((n, k))
    if r < k:
        # kept mass can exceed 1 by ~1e-9 after quantization; clamp the remainder at 0
        out += np.maximum(0.0, 1.0 - kept.sum(axis=1))[:, None] / (k - r)
    np.put_along_axis(out, classes[:, :r], kept, axis=1)
    return out


def ada_ls(p, r: int) -> SmoothedPrediction:
    """Adaptive label smoothing of one prediction (see `teacher_rows`).

    Accepts a full probability vector or a `TopK` disclosure; a truncated
    disclosure must carry the same r, and a hard disclosure carries no
    probabilities to smooth.
    """
    if isinstance(p, TopK):
        if p.r == 0:
            raise ContractError("hard disclosures carry no probabilities; use teacher_rows")
        classes, probs, k, disclosed_r = np.array([p.classes]), np.array([p.probs], dtype=np.float64), p.k, p.r
    else:
        probs_full = np.asarray(p, dtype=np.float64)
        check_probabilities(probs_full, "input", ndim=1)
        k = disclosed_r = probs_full.shape[0]
        classes = np.argsort(-probs_full, kind="stable")[None, :]
        probs = probs_full[classes]
    return SmoothedPrediction(teacher_rows(classes, probs, disclosed_r, r, k)[0], r)


def init_teacher(handles, features, r: int, hard_mode: str = "ls") -> MemoryBank:
    """Average the smoothed predictions of all handles into a memory bank.

    Every predictor contributes one smoothed row per sample; the bank row
    is their mean. Any predictor failure aborts the whole initialization,
    so a partial bank can never leak out.
    """
    if not handles:
        raise ContractError("at least one predictor handle is required")
    sizes = {h.num_classes for h in handles}
    if len(sizes) != 1:
        raise ContractError(f"handles disagree on the class count: {sorted(sizes)}")
    k = sizes.pop()
    x = np.asarray(features, dtype=np.float64)
    rows = np.zeros((x.shape[0], k))
    for handle in handles:
        records = handle.query(x)
        if len(records) != x.shape[0]:
            raise ContractError(f"predictor returned {len(records)} records for {x.shape[0]} samples")
        rows += teacher_rows(*_columns(records, k), r, k, hard_mode)
    rows /= len(handles)
    return MemoryBank(rows)


# handles ---------------------------------------------------------------


class PredictorHandle:
    """Base for all predictor backings.

    Subclasses set `r` and `num_classes` and implement `query`; `predict`
    is the single-sample view whose return shape depends on the
    disclosure mode.
    """

    r: int = 0
    num_classes: int = 0
    predictor_id: str = "source"

    @property
    def disclosure(self) -> str:
        if self.r == 0:
            return "hard"
        return "full-soft" if self.r == self.num_classes else "top-r"

    def query(self, features) -> list[TopK]:
        raise NotImplementedError

    def predict(self, x):
        """Disclosed output for one feature vector.

        full-soft returns the probability vector in class order, top-r a
        list of (class, probability) pairs, hard the class index alone.
        """
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 1:
            raise ContractError(f"predict takes one feature vector, got shape {x.shape}")
        rec = self.query(x[None, :])[0]
        if self.disclosure == "top-r":
            return list(zip(rec.classes, rec.probs))
        return rec.classes[0] if self.disclosure == "hard" else ada_ls(rec, rec.k).probs


class InProcessPredictor(PredictorHandle):
    """Handle over a private snapshot of a trained model.

    The snapshot is deep-copied at construction, so later training of the
    original model cannot leak through, and nothing of the model is
    reachable from the public surface.
    """

    def __init__(self, net, disclosure: str = "full-soft", r: int | None = None, predictor_id: str = "source"):
        self.r = resolve_r(disclosure, r, net.num_classes)
        self._net = clone_net(net)
        self.num_classes = net.num_classes
        self.predictor_id = predictor_id

    def query(self, features) -> list[TopK]:
        probs = self._net.predict_proba(np.asarray(features, dtype=np.float64))
        return _records(*disclose(probs, self.r), self.r, self.num_classes)


class CachedPredictor(PredictorHandle):
    """Handle backed by an on-disk prediction cache.

    The cache was written for one fixed sample set, in sample-id order, so
    queries are positional: the features themselves are ignored and only
    their count is checked. Single-sample `predict` is therefore not
    available on this backing.
    """

    def __init__(self, records: list[TopK], num_classes: int, predictor_id: str):
        if not records:
            raise ContractError("prediction cache is empty")
        self._records = records
        self.num_classes = num_classes
        self.r = _columns(records, num_classes)[2]
        self.predictor_id = predictor_id

    def __len__(self):
        return len(self._records)

    def query(self, features) -> list[TopK]:
        if features is not None:
            n = np.asarray(features).shape[0]
            if n != len(self._records):
                raise ContractError(f"cache holds {len(self._records)} samples, queried with {n}")
        return list(self._records)

    def lookup(self, sample_id: int) -> TopK:
        return self._records[sample_id]

    def predict(self, x):
        raise ContractError("cached predictions are positional; use lookup(sample_id)")


# cache file ------------------------------------------------------------


def write_cache(path: str, handle: PredictorHandle, features) -> int:
    """Query `handle` over the sample set and persist one record per line.

    Each line is `json.dumps(record, sort_keys=True)` of a record
    {sample_id, classes, probs, r, predictor_id}; the stored probabilities
    are already quantized, so a reload is bit-identical. The file appears
    complete or not at all. Returns the number of records written.
    """
    x = np.asarray(features, dtype=np.float64)
    classes, probs, r = _columns(handle.query(x), handle.num_classes)
    n, m = classes.shape
    # every line in one format operation: %d writes an int and %r a float as json.dumps does
    line = '{"classes": [%s], "predictor_id": %s, "probs": [%s], "r": %d, "sample_id": %%d}\n' % (
        ", ".join(["%d"] * m), json.dumps(handle.predictor_id).replace("%", "%%"), ", ".join(["%r"] * m), r)
    cells = np.empty((n, 2 * m + 1), dtype=object)  # Python ints and floats, one row per line
    cells[:, :m], cells[:, m:-1], cells[:, -1] = classes, probs, np.arange(n)
    text = (line * n) % tuple(cells.ravel().tolist())
    write_atomically(path, lambda fh: fh.write(text))
    return n


def _cache_line(path: str, i: int, line: bytes):
    try:
        return json.loads(line)
    except (ValueError, RecursionError) as exc:  # not UTF-8, not JSON, or nested too deep
        raise ContractError(f"cache {path} record {i} is not JSON: {exc}") from None


def read_cache(path: str, num_classes: int) -> CachedPredictor:
    """Load a prediction cache; sample ids must cover 0..n-1 exactly once,
    every line must carry the same r, and every record must pass
    `checked_topks`."""
    with open(path, "rb") as fh:
        lines = [line for line in map(bytes.strip, fh.read().split(b"\n")) if line]
    try:  # all lines in one parse; if that fails or miscounts, line by line to name the bad record
        objs = json.loads(b"[%s]" % b",".join(lines))
    except (ValueError, RecursionError):
        objs = None
    if objs is None or len(objs) != len(lines):
        objs = (_cache_line(path, i, line) for i, line in enumerate(lines))
    ids, classes, probs = [], [], []
    r = None
    predictor_id = "cache"
    for obj in objs:
        if not (isinstance(obj, dict) and type(obj.get("sample_id")) is int and "classes" in obj and "probs" in obj):
            raise ContractError(f"cache {path} record {len(ids)}: expected an integer sample_id, classes and probs")
        if ids and obj.get("r") != r:
            raise ContractError(f"cache {path} mixes truncation levels: {r!r} and {obj.get('r')!r}")
        r = obj.get("r")
        ids.append(obj["sample_id"])
        classes.append(obj["classes"])
        probs.append(obj["probs"])
        predictor_id = obj.get("predictor_id", predictor_id)
    n = len(ids)
    if not n:
        raise ContractError(f"cache {path} is empty")
    if sorted(ids) != list(range(n)):
        raise ContractError(f"cache {path} does not cover sample ids 0..{n - 1} exactly once")
    try:
        records = checked_topks(classes, probs, r, num_classes)
    except ContractError as exc:
        raise ContractError(f"cache {path}: {exc}") from None
    return CachedPredictor([rec for _, rec in sorted(zip(ids, records))], num_classes, predictor_id)
