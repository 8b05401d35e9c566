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
are interchangeable bit for bit. Adaptive label smoothing and the teacher
initialization live here because they consume disclosed predictions.
"""

from __future__ import annotations

import json
from typing import NamedTuple

import numpy as np

from .distill import MemoryBank
from .errors import ContractError
from .nets import clone_net, write_atomically
from .tensor import check_probabilities

DISCLOSURES = ("full-soft", "top-r", "hard")


def quantize_probs(row) -> np.ndarray:
    """Round each probability to 9 significant decimal digits."""
    flat = np.asarray(row, dtype=np.float64)
    return np.array([float("%.9g" % v) for v in flat.ravel()]).reshape(flat.shape)


class TopK(NamedTuple):
    """One disclosed prediction.

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


def _descending_order(row: np.ndarray) -> np.ndarray:
    # primary key: probability descending; secondary: class index ascending
    return np.lexsort((np.arange(row.shape[0]), -row))


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


def disclose_row(row, r: int) -> TopK:
    """Disclose one full probability row at truncation level r (see `resolve_r`)."""
    q = quantize_probs(row)
    k = q.shape[0]
    if not 0 <= r <= k:
        raise ContractError(f"r must lie in [0, {k}], got {r}")
    order = _descending_order(q)
    if r == 0:
        return TopK((int(order[0]),), (1.0,), 0, k)
    kept = order[:r]
    return TopK(tuple(int(c) for c in kept), tuple(float(q[c]) for c in kept), r, k)


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
    p = p.astype(np.float64)
    return [TopK(tuple(cs), tuple(ps), r, k) for cs, ps in zip(c.tolist(), p.tolist())]


def ada_ls(p, r: int) -> SmoothedPrediction:
    """Adaptive label smoothing: keep the top-r entries, spread the rest.

    The indices of the r largest entries keep their probabilities; every
    other class receives the uniform remainder (1 - kept mass)/(K - r).
    Accepts a full probability vector or a `TopK` disclosure; a truncated
    disclosure must carry the same r, and a hard disclosure carries no
    probabilities to smooth.
    """
    if isinstance(p, TopK):
        if p.r == 0:
            raise ContractError("hard disclosures carry no probabilities; use hard_to_prob")
        k = p.k
        if not 1 <= r <= k:
            raise ContractError(f"r must lie in [1, {k}], got {r}")
        if p.r < k and p.r != r:
            raise ContractError(f"disclosure truncated at r={p.r} cannot be smoothed with r={r}")
        classes = np.asarray(p.classes[:r], dtype=np.intp)
        probs = np.asarray(p.probs[:r], dtype=np.float64)
    else:
        probs_full = np.asarray(p, dtype=np.float64)
        check_probabilities(probs_full, "input", ndim=1)
        k = probs_full.shape[0]
        if not 1 <= r <= k:
            raise ContractError(f"r must lie in [1, {k}], got {r}")
        classes = _descending_order(probs_full)[:r]
        probs = probs_full[classes]
    if r == k:
        out = np.empty(k)
        out[classes] = probs
        return SmoothedPrediction(out, r)
    kept = probs.sum()
    # kept mass can exceed 1 by ~1e-9 after quantization; clamp the remainder at 0
    remainder = max(0.0, 1.0 - kept) / (k - r)
    out = np.full(k, remainder)
    out[classes] = probs
    return SmoothedPrediction(out, r)


def hard_to_prob(class_idx: int, k: int, mode: str = "ls") -> np.ndarray:
    """Expand a hard label into a probability row: exact one-hot or the
    0.1-smoothed variant."""
    if not 0 <= class_idx < k:
        raise ContractError(f"class {class_idx} out of range for {k} classes")
    if mode == "onehot":
        out = np.zeros(k)
        out[class_idx] = 1.0
        return out
    if mode == "ls":
        alpha = 0.1
        out = np.full(k, alpha / k)
        out[class_idx] += 1.0 - alpha
        return out
    raise ContractError(f"unknown hard-label mode {mode!r}, expected 'onehot' or 'ls'")


def teacher_row(rec: TopK, r: int, hard_mode: str = "ls") -> np.ndarray:
    """Expand one disclosed prediction into a teacher probability row."""
    if rec.r == 0:
        return hard_to_prob(rec.classes[0], rec.k, hard_mode)
    return ada_ls(rec, r).probs


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
        for i, rec in enumerate(records):
            rows[i] += teacher_row(rec, r, hard_mode)
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
        if self.disclosure == "hard":
            return rec.classes[0]
        if self.disclosure == "top-r":
            return list(zip(rec.classes, rec.probs))
        out = np.zeros(rec.k)
        out[list(rec.classes)] = rec.probs
        return out


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
        x = np.asarray(features, dtype=np.float64)
        probs = self._net.predict_proba(x)
        return [disclose_row(row, self.r) for row in probs]


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
        rs = {rec.r for rec in records}
        if len(rs) != 1:
            raise ContractError(f"cache mixes truncation levels: {sorted(rs)}")
        self._records = records
        self.num_classes = num_classes
        self.r = rs.pop()
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

    Records carry {sample_id, classes, probs, r, predictor_id}; the stored
    probabilities are already quantized, so a reload is bit-identical.
    The file appears complete or not at all. Returns the number of records
    written.
    """
    x = np.asarray(features, dtype=np.float64)
    records = handle.query(x)

    def write(fh):
        for i, rec in enumerate(records):
            obj = {
                "sample_id": i,
                "classes": list(rec.classes),
                "probs": list(rec.probs),
                "r": rec.r,
                "predictor_id": handle.predictor_id,
            }
            fh.write(json.dumps(obj, sort_keys=True))
            fh.write("\n")

    write_atomically(path, write)
    return len(records)


def read_cache(path: str, num_classes: int) -> CachedPredictor:
    """Load a prediction cache; sample ids must cover 0..n-1 exactly once,
    every line must carry the same r, and every record must pass
    `checked_topks`."""
    ids, classes, probs = [], [], []
    r = None
    predictor_id = "cache"
    with open(path, "rb") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except ValueError as exc:  # not UTF-8, or not JSON
                raise ContractError(f"cache {path} record {len(ids)} is not JSON: {exc}") from None
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
    by_id = dict(zip(ids, records))
    return CachedPredictor([by_id[i] for i in range(n)], num_classes, predictor_id)
