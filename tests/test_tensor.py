import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bbadapt import tensor
from bbadapt.errors import ContractError, DimensionError
from bbadapt.tensor import (
    LOG_EPS,
    GradTape,
    Tensor,
    as_tensor,
    check_probabilities,
    grad_check,
    softmax,
)

from per_op import (
    div,
    exp,
    log,
    log_clamped,
    matmul,
    pow_const,
    reduce_mean,
    reduce_sum,
    relu,
    reshape,
    sqrt,
    transpose,
)

# frozen reference values, computed independently
SOFTMAX_123 = (0.09003057317038046, 0.24472847105479764, 0.6652409557748218)


def test_tensor_basics():
    t = Tensor([[1.0, 2.0], [3.0, 4.0]], requires_grad=True)
    assert t.shape == (2, 2)
    assert t.size == 4
    assert t.ndim == 2
    assert t.data.dtype == np.float64
    assert Tensor(5.0).item() == 5.0


def test_public_names_are_pinned():
    # training needs only these; the per-op primitives live in tests/per_op.py
    imported = {"annotations", "threading", "np", "ContractError", "DimensionError"}
    public = {name for name in vars(tensor) if not name.startswith("_")} - imported
    assert public == {
        "LOG_EPS",
        "GradTape",
        "Tensor",
        "affine",
        "as_tensor",
        "check_probabilities",
        "grad_check",
        "record_op",
        "softmax",
    }


def test_item_requires_scalar():
    with pytest.raises(TypeError):
        Tensor([1.0, 2.0]).item()


def test_softmax_reference_row():
    out = softmax(Tensor([1.0, 2.0, 3.0])).data
    assert np.allclose(out, SOFTMAX_123, atol=1e-15)


@given(st.integers(2, 6), st.integers(0, 2**32 - 1))
@settings(max_examples=50, deadline=None)
def test_softmax_rows_are_distributions(k, seed):
    rows = np.random.default_rng(seed).normal(0.0, 10.0, (3, k))
    out = softmax(Tensor(rows)).data
    assert np.all(out > 0)
    assert np.allclose(out.sum(axis=-1), 1.0, atol=1e-12)


def test_probability_validation():
    with pytest.raises(ContractError):
        check_probabilities(np.array([0.5, 0.6]), "p", ndim=1)
    with pytest.raises(ContractError):
        check_probabilities(np.array([1.2, -0.2]), "p", ndim=1)
    with pytest.raises(ContractError):
        check_probabilities(np.array([[0.5, 0.5]]), "p", ndim=1)
    for p in ([np.nan, np.nan], [np.nan, 1.0], [0.5, np.nan]):
        with pytest.raises(ContractError):
            check_probabilities(np.array(p), "p", ndim=1)


def test_log_clamped_value_and_gradient():
    x = Tensor([1e-12, 0.5], requires_grad=True)
    with GradTape() as tape:
        y = log_clamped(x)
        out = reduce_sum(y)
    (g,) = tape.gradient(out, [x])
    assert y.data[0] == math.log(LOG_EPS)
    # clamped region: flat, so zero gradient
    assert g[0] == 0.0
    assert abs(g[1] - 2.0) < 1e-12


def test_gradient_of_a_vector_is_that_of_its_sum(rng):
    # the target is seeded with ones: its entries' gradients add up, bit for bit as an explicit taped sum
    x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    w = Tensor(rng.normal(size=(4, 5)), requires_grad=True)

    def rows(x, w):
        h = softmax(matmul(x, w))
        return reduce_sum(h * h, axis=1)

    with GradTape() as tape:
        y = rows(x, w)
    with GradTape() as summed_tape:
        total = reduce_sum(rows(x, w))
    assert y.shape == (3,)
    for g, g_sum in zip(tape.gradient(y, [x, w]), summed_tape.gradient(total, [x, w]), strict=True):
        assert g.tobytes() == g_sum.tobytes()


def test_gradient_unreached_source_is_zero():
    x = Tensor([1.0, 2.0], requires_grad=True)
    unused = Tensor([[3.0]], requires_grad=True)
    with GradTape() as tape:
        y = reduce_sum(x * x)
    gx, gu = tape.gradient(y, [x, unused])
    assert np.allclose(gx, [2.0, 4.0])
    assert gu.shape == (1, 1) and np.all(gu == 0.0)


def test_gradient_needs_one_array_per_distinct_source():
    x = Tensor([1.0, 2.0], requires_grad=True)
    with GradTape() as tape:
        y = reduce_sum(x * x)
    with pytest.raises(DimensionError, match=r"^expected one array per distinct source: 2 sources, 2 arrays$"):
        tape.gradient(y, [x, x])
    with pytest.raises(DimensionError, match=r"^expected one array per distinct source: 1 sources, 0 arrays$"):
        tape.gradient(y, [x], out=[])


def test_a_record_the_loss_does_not_reach_gives_no_gradient():
    # a stop-gradient view: the taped x * x is read through .data, so only the direct x reaches y
    x = Tensor([2.0], requires_grad=True)
    with GradTape() as tape:
        frozen = x * x
        y = reduce_sum(Tensor(frozen.data) + x)
    (g,) = tape.gradient(y, [x])
    assert len(tape) == 3 and np.allclose(g, [1.0])


def test_nested_tapes_are_independent():
    # recording goes to the innermost open tape only
    x = Tensor([3.0], requires_grad=True)
    with GradTape() as outer:
        y = x * x
        with GradTape() as inner:
            z_sum = reduce_sum(x * x * x)
        out = reduce_sum(y)
    (gz,) = inner.gradient(z_sum, [x])
    (gy,) = outer.gradient(out, [x])
    assert np.allclose(gz, [27.0])
    assert np.allclose(gy, [6.0])


def test_matmul_requires_2d():
    with pytest.raises(DimensionError):
        matmul(Tensor([1.0, 2.0]), Tensor([[1.0], [2.0]]))
    with pytest.raises(DimensionError):
        matmul(Tensor([[1.0, 2.0]]), Tensor([[1.0, 2.0]]))


def test_broadcast_add_gradient():
    a = Tensor(np.ones((3, 4)), requires_grad=True)
    b = Tensor(np.ones(4), requires_grad=True)
    with GradTape() as tape:
        y = reduce_sum(a + b)
    ga, gb = tape.gradient(y, [a, b])
    assert ga.shape == (3, 4) and np.all(ga == 1.0)
    assert gb.shape == (4,) and np.all(gb == 3.0)


def test_broadcast_mul_keepdims_gradient(rng):
    a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    b = Tensor(rng.normal(size=(3, 1)), requires_grad=True)
    with GradTape() as tape:
        y = reduce_sum(a * b)
    ga, gb = tape.gradient(y, [a, b])
    assert np.allclose(ga, np.broadcast_to(b.data, (3, 4)))
    assert np.allclose(gb, a.data.sum(axis=1, keepdims=True))


@pytest.mark.parametrize("seed", range(5))
def test_grad_check_elementwise_chain(seed):
    gen = np.random.default_rng(seed)
    theta = Tensor(gen.normal(0.0, 1.0, (4, 3)), requires_grad=True)

    def f(t):
        h = relu(t * 2.0 + 0.1)
        h = (h + 0.5) * (t - 0.3)
        return reduce_mean(div(h, Tensor(1.7)))

    assert grad_check(f, theta) < 1e-6


@pytest.mark.parametrize("seed", range(5))
def test_grad_check_matmul_softmax(seed):
    gen = np.random.default_rng(seed)
    x = gen.normal(size=(5, 3))
    theta = Tensor(gen.normal(size=(3, 4)), requires_grad=True)

    def f(t):
        probs = softmax(matmul(Tensor(x), t))
        return -reduce_mean(reduce_sum(probs * log_clamped(probs), axis=-1))

    assert grad_check(f, theta) < 1e-6


@pytest.mark.parametrize("seed", range(5))
def test_grad_check_exp_log_sqrt_pow(seed):
    gen = np.random.default_rng(seed)
    theta = Tensor(gen.uniform(0.5, 2.0, 6), requires_grad=True)

    def f(t):
        return reduce_sum(exp(t * 0.3) + sqrt(t) + pow_const(t, 2.0) + log(t))

    assert grad_check(f, theta) < 1e-6


def test_grad_check_reshape_transpose(rng):
    theta = Tensor(rng.normal(size=(2, 6)), requires_grad=True)

    def f(t):
        return reduce_sum(transpose(reshape(t, (3, 4))) * reshape(t, (4, 3)))

    assert grad_check(f, theta) < 1e-6


def test_softmax_gradient_rows_sum_to_zero(rng):
    # shift invariance means the jacobian annihilates constants
    theta = Tensor(rng.normal(size=(2, 5)), requires_grad=True)
    with GradTape() as tape:
        y = reduce_sum(softmax(theta) * Tensor(rng.normal(size=(2, 5))))
    (g,) = tape.gradient(y, [theta])
    assert np.allclose(g.sum(axis=-1), 0.0, atol=1e-12)


def test_as_tensor_passthrough():
    t = Tensor([1.0])
    assert as_tensor(t) is t
    assert isinstance(as_tensor([1.0, 2.0]), Tensor)


def test_no_tape_no_recording():
    # ops outside any tape leave nothing behind to backprop through
    x = Tensor([1.0], requires_grad=True)
    y = x * x
    with GradTape() as tape:
        z = reduce_sum(x + 0.0)
    (g,) = tape.gradient(z, [x])
    assert np.allclose(g, [1.0])
    assert y.data[0] == 1.0
