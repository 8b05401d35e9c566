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
are interchangeable bit for bit. A handle does one thing: `query` takes a
feature batch, which `checked_features` admits, and answers one `TopK`
record per row. Inside the package a disclosed batch is `classes` and
`probs` arrays at one r, and `_answer` is the one place a handle's answer
becomes them. A cached or remote handle hands over the arrays it holds or
parses (`_disclosed`), from which its `query` builds records. Stubs that
have only `query` (acceptance C02) and the in-process handle, whose `query`
the benchmark times, answer with records, which hold no reference cycles:
on the main thread the cyclic collector is paused while they live, and
while `read_cache` parses a `topk` list, so refcounting frees them first.

A disclosed batch has one JSON form, `topk`: a list of [class, prob] pairs
per row, in row order, written by `_topk_text` and read by `_topk_columns`.
A server's response carries it, and a prediction cache saves one answer.
`_topk_text` writes the text `json.dumps` gives. From _ARRAY_TEXT_SIZE
values on it fills one uint8 array of NUL-padded slots and broadcast
separators, then drops the NULs. A quantized probability in [1e-4, 1) is
written from its `_decimal_digits`, since `repr` writes no other decimal
for it; 1.0 and 0.0 have fixed texts, and other values go through `repr`.
Smaller batches, the wire's usual answers, keep one format string, which
costs less than the array path's fixed cost.
"""

from __future__ import annotations

import gc
import json
import threading
from itertools import chain, repeat
from typing import NamedTuple

import numpy as np

from .distill import MemoryBank
from .errors import ContractError
from .nets import _smoothed_labels, clone_net, read_json, write_atomically
from .tensor import check_probabilities

DISCLOSURES = ("full-soft", "top-r", "hard")
_POW10 = np.array([float(10**j) for j in range(23)])  # every power of ten a float64 holds exactly
_ARRAY_TEXT_SIZE = 192  # values from which `_topk_text` writes from arrays: the measured crossover
_TENTHS = np.array([0.001, 0.01, 0.1])  # a value in [1e-4, 1) below k of these has k leading zeros
# rows 0-999: a group's 3 digits; 1000-2000: no trailing zeros (1000, from digits = 1e9, is "1"); 2001-2004: 0-3 zeros
_DIGIT_GROUPS = np.array([*("%03d" % g for g in range(1000)), *(("%03d" % g).rstrip("0") for g in range(1001)),
                          *("0" * z for z in range(4))], dtype="S3").view(np.uint8).reshape(-1, 3)


def _decimal_digits(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """`digits`, `scale` = 10**j and `exact` of a flat float64 array: where `exact`
    holds, digits in [1e8, 1e9] are those "%.9g" writes, and digits / scale their value.

    For a guess j in [0, 22], 10**j is exact and y = a * 10**j is rounded
    once. Rounding is monotone and keeps every half-integer below 2**53, so
    if y lies in [1e8, 1e9] and is no half-integer, rint(y) holds the digits
    "%.9g" writes (at either end of the range, a guess of j off by one
    writes the same number) and rint(y) / 10**j, a quotient of exact floats,
    is the correctly rounded value `float` reads back. `exact` is false
    wherever that fails: 0, NaN, infinities, negatives, values below about
    1e-14 or above 1e9, and exact halves.
    """
    with np.errstate(all="ignore"):  # log10 and the cast meet 0, NaN and negatives
        # trunc(9 - log10 a) = 8 - floor(log10 a) for a in (0, 1e9) off a power of ten
        scale = _POW10.take((9.0 - np.log10(a)).astype(np.intp), mode="clip")
        y = a * scale
        digits = np.rint(y)
        return digits, scale, (np.abs(y - digits) < 0.5) & (y >= 1e8) & (y <= 1e9)


def quantize_probs(probs) -> np.ndarray:
    """Round each probability to 9 significant digits: bit for bit
    `float("%.9g" % p)`, from `_decimal_digits` wherever they are exact and
    through the text, in one formatting call, everywhere else."""
    a = np.asarray(probs, dtype=np.float64).reshape(-1)
    digits, scale, exact = _decimal_digits(a)
    q = digits / scale
    if not exact.all():
        rest = a[~exact]
        text = ("%.9g " * rest.size) % tuple(rest.tolist())
        q[~exact] = list(map(float, text.split()))
    return q.reshape(np.shape(probs))


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


def checked_features(features) -> np.ndarray:
    """A feature batch as a 2-D float64 array with at least one column and
    only finite values; ContractError for anything else, strings and
    booleans included, which numpy would read as numbers."""
    try:
        x = np.asarray(features, dtype=np.float64)
    except (TypeError, ValueError):  # rows of unequal length, or not numbers
        raise ContractError("features must be a batch of equal-length rows of numbers") from None
    if x.ndim != 2 or not x.shape[1]:
        raise ContractError(f"expected a 2-D feature batch with at least one column, got shape {x.shape}")
    if (features.dtype.kind in "bSU" if isinstance(features, np.ndarray) and features.dtype != object else
            any(issubclass(t, (str, bytes, bool, np.bool_)) for t in set(map(type, chain.from_iterable(features))))):
        raise ContractError("features must be numbers, not strings or booleans")
    if not np.isfinite(x).all():
        raise ContractError("features must be finite numbers")
    return x


def _records(classes: np.ndarray, probs: np.ndarray, r: int, k: int) -> list[TopK]:
    # tuple.__new__ builds each record without a per-row call of TopK.__new__, and zip each row's tuples from columns
    fields = zip(zip(*classes.T.tolist()), zip(*probs.T.tolist()), repeat(r), repeat(k))
    return list(map(tuple.__new__, repeat(TopK), fields))


def _columns(records, k: int, n: int) -> tuple[np.ndarray, np.ndarray, int]:
    """The `classes` and `probs` arrays of a handle's answer for n samples,
    and its one truncation level; ContractError unless it holds n records,
    all at one r over k classes."""
    if len(records) != n:
        raise ContractError(f"predictor returned {len(records)} records for {n} samples")
    if not records:
        return np.empty((0, 1), dtype=np.intp), np.empty((0, 1)), 0
    classes, probs, rs, ks = zip(*records)
    if set(rs) != {rs[0]} or set(ks) != {k}:
        raise ContractError(f"records must share one r over {k} classes, got r {set(rs)} and k {set(ks)}")
    return (np.fromiter(chain.from_iterable(classes), np.intp).reshape(len(classes), -1),
            np.fromiter(chain.from_iterable(probs), np.float64).reshape(len(probs), -1), rs[0])


class _GcPause:
    """Holds the cyclic collector off for a `with` block on the main thread,
    where no other pause races it; a collector the caller turned off stays
    off. A class and not a generator, since each query pays for it."""

    def __enter__(self):
        self._turned_off = threading.current_thread() is threading.main_thread() and gc.isenabled()
        if self._turned_off:
            gc.disable()

    def __exit__(self, *exc_info):
        if self._turned_off:
            gc.enable()


def _answer(handle, features) -> tuple[np.ndarray, np.ndarray, int]:
    """A handle's answer to `features` as `classes`, `probs` and r (see the module docstring)."""
    disclosed = getattr(handle, "_disclosed", None)
    if disclosed is not None:
        return disclosed(features)
    with _GcPause():
        return _columns(handle.query(features), handle.num_classes, len(features))


def checked_columns(classes, probs, r, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The `classes` (intp) and `probs` (float64) arrays of untrusted
    records: the `topk` rows of a wire response or a cache file.

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
    return c, p.astype(np.float64)


def _topk_text(classes: np.ndarray, probs: np.ndarray) -> str:
    """The `topk` text `json.dumps` gives for a disclosed batch (see the module docstring)."""
    n, m = classes.shape
    if classes.size < _ARRAY_TEXT_SIZE:  # %d writes an int and %r a float as json.dumps does
        pairs = np.empty((n, m, 2), dtype=object)  # Python ints and floats
        pairs[..., 0], pairs[..., 1] = classes, probs
        row = "[%s]" % ", ".join(["[%d, %r]"] * m)
        return "[%s]" % (", ".join([row] * n) % tuple(pairs.ravel().tolist()))
    p = probs.reshape(-1)
    digits, scale, exact = _decimal_digits(p)
    fast = exact & (p >= 1e-4) & (p < 1.0) & (digits / scale == p)
    zero = (p == 0.0) & ~np.signbit(p)
    rest = ~(fast | zero | (p == 1.0))
    texts = [repr(v).encode() for v in p[rest].tolist()]
    low, top = int(classes.min()), int(classes.max())  # a query-only handle's classes reach here unchecked
    wc, wp = max(len(str(low)), len(str(top))), max([14, *map(len, texts)])
    # a pair: ", " (", [" opening a row), "[", class, ", ", probability, "]" (and "]" closing a row)
    pair = np.zeros((m, wc + wp + 8), dtype=np.uint8)
    pair[:, :2], pair[:, 3], pair[:, 4 + wc:8 + wc], pair[:, 6 + wc + wp] = [*b", "], ord("["), [*b", 0."], ord("]")
    pair[0, 2], pair[-1, -1] = ord("["), ord("]")
    buf = np.empty((n, m, pair.shape[1]), dtype=np.uint8)
    buf[...] = pair
    buf[..., 4:4 + wc] = _byte_rows(list(map(str, range(low, top + 1))), wc).take(classes - low, axis=0)
    slot = buf.reshape(n * m, -1)[:, 6 + wc:6 + wc + wp]
    if fast.any():  # "0.", leading zeros, then three groups of three digits, dropping zeros after the last nonzero
        high = np.floor(digits / 1e6)  # floor of a correctly rounded quotient is exact below 2**53
        below = digits - high * 1e6
        mid = np.floor(below / 1e3)
        low = below - mid * 1e3
        zeros = 3 - np.searchsorted(_TENTHS, p, side="right")
        groups = np.stack([2001 + zeros, high + 1000 * (below == 0), mid + 1000 * (low == 0), low + 1000], axis=1)
        slot[:, 2:14] = _DIGIT_GROUPS.take(groups.astype(np.intp), axis=0).reshape(-1, 12)
    if not fast.all():  # rows 0 and 1 of `words` are "1.0" and "0.0", the others the texts of `rest`
        words = _byte_rows([b"1.0", b"0.0", *texts], wp)
        index = zero.astype(np.intp)
        index[rest] = np.arange(2, words.shape[0])
        np.copyto(slot, words.take(index, axis=0), where=~fast[:, None])
    return "[%s]" % buf.tobytes().translate(None, b"\0")[2:].decode("ascii")  # no NUL, nor the first ", "


def _byte_rows(texts: list, width: int) -> np.ndarray:
    """ASCII `texts` as the rows of a uint8 array, NUL-padded to `width` bytes."""
    return np.array(texts, dtype=f"S{width}").view(np.uint8).reshape(-1, width)


def _topk_columns(topk, r, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The `checked_columns` of a parsed, untrusted `topk` list, its shape
    checked on the flat pairs and values. One `np.array` of the values infers
    int or float as the nested list would; JSON `true`/`false` is no number."""
    pairs = list(chain.from_iterable(topk)) if type(topk) is list and set(map(type, topk)) == {list} else []
    values = list(chain.from_iterable(pairs)) if set(map(type, pairs)) == {list} else []
    types, m = set(map(type, values)), len(topk[0]) if values else 0
    if not values or set(map(len, topk)) != {m} or set(map(len, pairs)) != {2} or list in types:
        raise ContractError(f"expected a list of [class, probability] pairs per row, got {str(topk)[:80]}")
    if bool in types:
        i = next(j for j, v in enumerate(values) if type(v) is bool) // (2 * m)
        raise ContractError(f"record {i}: classes and probabilities must be numbers, not true or false, "
                            f"got {json.dumps(topk[i])}")
    array = np.array(values).reshape(len(topk), m, 2)
    return checked_columns(array[..., 0], array[..., 1], r, k)


def teacher_rows(classes, probs, disclosed_r: int, r: int, k: int, hard_mode: str = "ls") -> np.ndarray:
    """Expand disclosed predictions into teacher probability rows, (n, k).

    `classes` and `probs` are as `disclose` returns them at `disclosed_r`.
    Hard labels become one-hot rows (`hard_mode` "onehot", smoothing 0) or
    0.1-smoothed ones ("ls"). Soft ones get adaptive label smoothing at r:
    the r most probable classes keep their probabilities, and every other
    class receives the uniform remainder (1 - kept mass)/(k - r). A
    disclosure truncated below k must carry that same r.
    """
    if disclosed_r == 0:
        top = classes[:, 0]
        if not ((top >= 0) & (top < k)).all():
            raise ContractError(f"class {top[(top < 0) | (top >= k)][0]} out of range for {k} classes")
        alpha = {"onehot": 0.0, "ls": 0.1}.get(hard_mode)
        if alpha is None:
            raise ContractError(f"unknown hard-label mode {hard_mode!r}, expected 'onehot' or 'ls'")
        return _smoothed_labels(top, k, alpha)
    if not 1 <= r <= k:
        raise ContractError(f"r must lie in [1, {k}], got {r}")
    if disclosed_r < k and disclosed_r != r:
        raise ContractError(f"disclosure truncated at r={disclosed_r} cannot be smoothed with r={r}")
    kept = probs[:, :r]
    out = np.zeros((classes.shape[0], k))
    if r < k:
        # kept mass can exceed 1 by ~1e-9 after quantization; clamp the remainder at 0
        out += np.maximum(0.0, 1.0 - kept.sum(axis=1))[:, None] / (k - r)
    np.put_along_axis(out, classes[:, :r], kept, axis=1)
    return out


def ada_ls(p, r: int) -> SmoothedPrediction:
    """Adaptive label smoothing of one full probability vector (see
    `teacher_rows`)."""
    probs = np.asarray(p, dtype=np.float64)
    check_probabilities(probs, "input", ndim=1)
    k = probs.shape[0]
    classes = np.argsort(-probs, kind="stable")[None, :]
    return SmoothedPrediction(teacher_rows(classes, probs[classes], k, r, k)[0], r)


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
        rows += teacher_rows(*_answer(handle, x), r, k, hard_mode)
    rows /= len(handles)
    return MemoryBank(rows)


# handles ---------------------------------------------------------------


class PredictorHandle:
    """Base for all predictor backings.

    Subclasses set `r` and `num_classes` and implement `_disclosed`, from
    which `query` builds records, or `query` itself.
    """

    r: int = 0
    num_classes: int = 0
    predictor_id: str = "source"

    @property
    def disclosure(self) -> str:
        return "hard" if self.r == 0 else "full-soft" if self.r == self.num_classes else "top-r"

    def query(self, features) -> list[TopK]:
        return _records(*self._disclosed(features), self.num_classes)


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
        """The disclosed predictions of the snapshot; ContractError, naming
        the predictor, if its forward overflows to non-probabilities."""
        x = checked_features(features)
        with np.errstate(all="ignore"):
            probs = self._net.predict_proba(x)
        check_probabilities(probs, f"predictor '{self.predictor_id}' predictions", ndim=2)
        return _records(*disclose(probs, self.r), self.r, self.num_classes)


class CachedPredictor(PredictorHandle):
    """Handle over the disclosed `classes` and `probs` arrays of a
    prediction cache (see `read_cache`).

    The cache was written for one fixed sample set and holds its rows in
    sample order, so queries are positional: the features are checked,
    but only their count is used.
    """

    def __init__(self, classes: np.ndarray, probs: np.ndarray, r: int, num_classes: int, predictor_id: str):
        self._classes = classes
        self._probs = probs
        self.r = r
        self.num_classes = num_classes
        self.predictor_id = predictor_id

    def __len__(self):
        return self._classes.shape[0]

    def _disclosed(self, features) -> tuple[np.ndarray, np.ndarray, int]:
        n = checked_features(features).shape[0]
        if n != len(self):
            raise ContractError(f"cache holds {len(self)} samples, queried with {n}")
        return self._classes, self._probs, self.r


# cache file ------------------------------------------------------------


def write_cache(path: str, handle: PredictorHandle, features) -> int:
    """Query `handle` over the sample set and save its answer as the line
    `json.dumps({num_classes, predictor_id, r, topk}, sort_keys=True)`, one
    `topk` row per sample in sample order. The probabilities are already
    quantized, so a reload is bit-identical. The file appears complete or
    not at all. Returns the number of rows written; an answer without rows
    is a ContractError, and no file is written, since `read_cache` admits
    no empty cache."""
    classes, probs, r = _answer(handle, features)
    if not classes.shape[0]:
        raise ContractError(f"cache {path}: the query returned no rows, and a cache holds at least one")
    text = '{"num_classes": %d, "predictor_id": %s, "r": %d, "topk": %s}\n' % (
        handle.num_classes, json.dumps(handle.predictor_id), r, _topk_text(classes, probs))
    write_atomically(path, lambda fh: fh.write(text))
    return classes.shape[0]


def read_cache(path: str, num_classes: int) -> CachedPredictor:
    """Load a prediction cache (see `write_cache`) over `num_classes`
    classes; ContractError unless its rows pass `checked_columns`."""
    with _GcPause():
        obj = read_json(path, "cache")
        if not (isinstance(obj, dict) and obj.keys() == {"num_classes", "predictor_id", "r", "topk"}
                and isinstance(obj["predictor_id"], str) and obj["topk"]):
            raise ContractError(f"cache {path} is not one object of exactly num_classes, a string predictor_id, "
                                "r and a nonempty topk")
        if obj["num_classes"] != num_classes:
            raise ContractError(f"cache {path} holds predictions over {obj['num_classes']!r} classes, "
                                f"not {num_classes}")
        try:  # popped, so the parsed rows are freed before the collector is back
            classes, probs = _topk_columns(obj.pop("topk"), obj["r"], num_classes)
        except ContractError as exc:
            raise ContractError(f"cache {path}: {exc}") from None
    return CachedPredictor(classes, probs, obj["r"], num_classes, obj["predictor_id"])
