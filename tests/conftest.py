import numpy as np
import pytest
from hypothesis import strategies as st

from bbadapt.predictors import TopK

# arbitrary JSON values and the numbers a record field might hold, for fuzzing parsers
JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=10,
)
NUMBER = st.integers(-1, 5) | st.floats(-0.5, 1.5) | st.sampled_from([float("nan"), float("inf"), True])


@pytest.fixture
def rng():
    return np.random.default_rng(0)


def make_blobs(n_per_class, centers, noise, rng):
    """Tiny labeled 2-D clusters for optimizer and pipeline tests."""
    points, labels = [], []
    for cls, center in enumerate(centers):
        points.append(np.asarray(center) + rng.normal(0.0, noise, (n_per_class, 2)))
        labels.append(np.full(n_per_class, cls, dtype=np.int64))
    return np.concatenate(points), np.concatenate(labels)


def random_simplex(k, rng, concentration=1.0):
    return rng.dirichlet(np.full(k, concentration))


def assert_valid_records(records, r, k):
    """Records as every backing must return them: TopK rows of max(r, 1)
    distinct classes in [0, k) and probabilities in [0, 1], descending."""
    assert type(r) is int and 0 <= r <= k
    for rec in records:
        assert type(rec) is TopK and rec.r == r and rec.k == k
        assert len(rec.classes) == len(rec.probs) == max(r, 1) == len(set(rec.classes))
        assert all(type(c) is int and 0 <= c < k for c in rec.classes)
        assert all(type(p) is float and 0.0 <= p <= 1.0 for p in rec.probs)
        assert list(rec.probs) == sorted(rec.probs, reverse=True)
