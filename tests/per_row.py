"""One-row reference implementations of disclosure and teacher smoothing.

`bbadapt.predictors` discloses, smooths and writes whole batches at once.
These are the per-row forms it replaced, kept as the oracle the batch code
must match bit for bit: each row is quantized element by element, ordered
with `lexsort` and smoothed on its own; a cache is serialized with one
`json.dumps` of the whole object, and a parsed `topk` list is read with
one `np.asarray` of its nested pairs.
"""

import json
from itertools import chain

import numpy as np

from bbadapt.errors import ContractError
from bbadapt.predictors import TopK, checked_columns


def quantize_row(row) -> np.ndarray:
    flat = np.asarray(row, dtype=np.float64)
    return np.array([float("%.9g" % v) for v in flat.ravel()]).reshape(flat.shape)


def descending_order(row: np.ndarray) -> np.ndarray:
    # primary key: probability descending; secondary: class index ascending
    return np.lexsort((np.arange(row.shape[0]), -row))


def disclose_row(row, r: int) -> TopK:
    q = quantize_row(row)
    k = q.shape[0]
    if not 0 <= r <= k:
        raise ContractError(f"r must lie in [0, {k}], got {r}")
    order = descending_order(q)
    if r == 0:
        return TopK((int(order[0]),), (1.0,), 0, k)
    kept = order[:r]
    return TopK(tuple(int(c) for c in kept), tuple(float(q[c]) for c in kept), r, k)


def ada_ls_row(rec: TopK, r: int) -> np.ndarray:
    k = rec.k
    if not 1 <= r <= k:
        raise ContractError(f"r must lie in [1, {k}], got {r}")
    if rec.r < k and rec.r != r:
        raise ContractError(f"disclosure truncated at r={rec.r} cannot be smoothed with r={r}")
    classes = np.asarray(rec.classes[:r], dtype=np.intp)
    probs = np.asarray(rec.probs[:r], dtype=np.float64)
    if r == k:
        out = np.empty(k)
        out[classes] = probs
        return out
    remainder = max(0.0, 1.0 - probs.sum()) / (k - r)
    out = np.full(k, remainder)
    out[classes] = probs
    return out


def hard_to_prob(class_idx: int, k: int, mode: str = "ls") -> np.ndarray:
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
    if rec.r == 0:
        return hard_to_prob(rec.classes[0], rec.k, hard_mode)
    return ada_ls_row(rec, r)


def cache_text(records: list, predictor_id: str) -> str:
    obj = {
        "num_classes": records[0].k,
        "predictor_id": predictor_id,
        "r": records[0].r,
        "topk": [[[c, p] for c, p in zip(rec.classes, rec.probs)] for rec in records],
    }
    return json.dumps(obj, sort_keys=True) + "\n"


def topk_columns(topk, r, k: int):
    """The `checked_columns` of a parsed `topk` list: one `np.asarray` of
    the nested pairs, then a scan for JSON `true` and `false`, which numpy
    would read as 1 and 0 beside numbers."""
    try:
        pairs = np.asarray(topk)
    except ValueError:  # rows of unequal length
        pairs = np.empty(0)
    if pairs.ndim != 3 or pairs.shape[2] != 2:
        raise ContractError(f"expected a list of [class, probability] pairs per row, got {str(topk)[:80]}")
    if bool in set(map(type, chain.from_iterable(chain.from_iterable(topk)))):
        i = next(i for i, row in enumerate(topk) if bool in {type(v) for pair in row for v in pair})
        raise ContractError(f"record {i}: classes and probabilities must be numbers, not true or false, "
                            f"got {json.dumps(topk[i])}")
    return checked_columns(pairs[..., 0], pairs[..., 1], r, k)
