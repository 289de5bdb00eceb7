"""Property-based tests: autodiff forward results equal NumPy, and core
algebraic identities of the gradient hold on arbitrary inputs."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from repro.nn import Parameter, RaggedRows, Tensor, row_extents

finite = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False, width=64)
small_arrays = arrays(
    dtype=np.float64,
    shape=array_shapes(min_dims=1, max_dims=2, min_side=1, max_side=5),
    elements=finite,
)
positive_arrays = arrays(
    dtype=np.float64,
    shape=array_shapes(min_dims=1, max_dims=2, min_side=1, max_side=5),
    elements=st.floats(min_value=0.1, max_value=10.0, width=64),
)


@settings(max_examples=50, deadline=None)
@given(small_arrays)
def test_forward_matches_numpy_elementwise(x):
    t = Tensor(x)
    np.testing.assert_allclose((t * 2.0 + 1.0).numpy(), x * 2.0 + 1.0)
    np.testing.assert_allclose(t.tanh().numpy(), np.tanh(x))
    np.testing.assert_allclose(t.relu().numpy(), np.maximum(x, 0))
    np.testing.assert_allclose(t.exp().numpy(), np.exp(x))


@settings(max_examples=50, deadline=None)
@given(positive_arrays)
def test_log_exp_inverse(x):
    t = Tensor(x)
    np.testing.assert_allclose(t.log().exp().numpy(), x, rtol=1e-10)


@settings(max_examples=50, deadline=None)
@given(small_arrays)
def test_sum_grad_is_ones(x):
    t = Parameter(x)
    t.sum().backward()
    np.testing.assert_allclose(t.grad, np.ones_like(x))


@settings(max_examples=50, deadline=None)
@given(small_arrays, finite)
def test_linearity_of_gradient(x, scale):
    """d(c·sum(x))/dx == c everywhere."""
    t = Parameter(x)
    (t.sum() * scale).backward()
    np.testing.assert_allclose(t.grad, np.full_like(x, scale), atol=1e-12)


@settings(max_examples=50, deadline=None)
@given(small_arrays)
def test_grad_of_square_is_2x(x):
    t = Parameter(x)
    (t * t).sum().backward()
    np.testing.assert_allclose(t.grad, 2.0 * x, rtol=1e-10, atol=1e-12)


@settings(max_examples=30, deadline=None)
@given(
    arrays(np.float64, st.tuples(st.integers(1, 4), st.integers(1, 4)),
           elements=finite),
)
def test_transpose_involution(x):
    t = Tensor(x)
    np.testing.assert_allclose(t.T.T.numpy(), x)


@settings(max_examples=30, deadline=None)
@given(small_arrays)
def test_clip_bounds_respected(x):
    out = Tensor(x).clip(-1.0, 1.0).numpy()
    assert (out >= -1.0).all() and (out <= 1.0).all()


@settings(max_examples=30, deadline=None)
@given(small_arrays, small_arrays)
def test_minimum_commutes_on_values(a, b):
    if a.shape != b.shape:
        return
    m1 = Tensor(a).minimum(Tensor(b)).numpy()
    m2 = Tensor(b).minimum(Tensor(a)).numpy()
    np.testing.assert_allclose(m1, m2)
    np.testing.assert_allclose(m1, np.minimum(a, b))


@settings(max_examples=30, deadline=None)
@given(
    st.integers(1, 5), st.integers(1, 5), st.integers(1, 5),
    st.randoms(use_true_random=False),
)
def test_matmul_matches_numpy(n, k, m, rnd):
    rng = np.random.default_rng(rnd.randint(0, 2**31))
    a = rng.normal(size=(n, k))
    b = rng.normal(size=(k, m))
    np.testing.assert_allclose((Tensor(a) @ Tensor(b)).numpy(), a @ b, rtol=1e-12)


@settings(max_examples=30, deadline=None)
@given(small_arrays)
def test_gradient_accumulation_additive(x):
    """Backward through f+g gives grad(f) + grad(g)."""
    t1 = Parameter(x.copy())
    (t1.tanh().sum() + (t1 * 3.0).sum()).backward()

    t2 = Parameter(x.copy())
    t2.tanh().sum().backward()
    g_f = t2.grad.copy()
    t2.zero_grad()
    (t2 * 3.0).sum().backward()
    np.testing.assert_allclose(t1.grad, g_f + t2.grad, rtol=1e-10, atol=1e-12)


@st.composite
def ragged_problems(draw):
    """``(x, w, g)``: a matrix with arbitrary per-row non-zero extents
    (zero rows, full-width rows, zeros inside the prefix), a weight and an
    upstream gradient.  ``shape`` picks the row-width pattern."""
    n = draw(st.integers(1, 12))
    d = draw(st.integers(1, 24))
    h = draw(st.integers(1, 4))
    shape = draw(st.sampled_from(["mixed", "all-zero", "full", "same-width"]))
    if shape == "mixed":
        extents = draw(st.lists(st.integers(0, d), min_size=n, max_size=n))
    else:
        width = {"all-zero": 0, "full": d}.get(shape, draw(st.integers(0, d)))
        extents = [width] * n
    rng = np.random.default_rng(draw(st.integers(0, 2**31)))
    x = rng.normal(size=(n, d))
    x[rng.random((n, d)) < draw(st.sampled_from([0.0, 0.3, 0.9]))] = 0.0
    for i, e in enumerate(extents):
        x[i, e:] = 0.0
    if draw(st.booleans()):
        x = x.astype(np.float32)
    return x, rng.normal(size=(d, h)), rng.normal(size=(n, h))


@settings(max_examples=200, deadline=None)
@given(ragged_problems())
def test_ragged_matmul_equals_dense_forward_and_backward(problem):
    x, w, g = problem
    dense = x.astype(np.float64)
    ragged = RaggedRows.from_dense(x)
    weight = Parameter(w)
    out = ragged @ weight
    np.testing.assert_allclose(out.numpy(), dense @ w, rtol=0, atol=1e-12)
    out.backward(g)
    np.testing.assert_allclose(weight.grad, dense.T @ g, rtol=0, atol=1e-12)
    # what it stores: never more than the dense matrix, at most twice the
    # non-zero prefixes, and nothing for all-zero rows
    extents = row_extents(x)
    assert ragged.volume <= min(x.size, 2 * extents.sum())
    assert sum(len(rows) for rows, _ in ragged.buckets) == (extents > 0).sum()
