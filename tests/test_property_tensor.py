"""Property-based tests: autodiff forward results equal NumPy, and core
algebraic identities of the gradient hold on arbitrary inputs."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from repro.nn import (
    Dense,
    Parameter,
    RaggedRows,
    Tensor,
    gather_rows,
    log_prob_of,
    masked_log_softmax,
    row_extents,
    segment_log_softmax,
    segment_logsumexp,
    segment_rectangle,
    segment_sum,
    window_extents,
)

from .reference import pad_window
from .test_tensor import copy_always

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


@st.composite
def ragged_observations(draw):
    """Ragged observations ``(rows, counts, m)`` in the env's layouts: 7
    columns; 8, whose column 7 the encoder never writes; 9 with the
    memory columns, where demand and free-memory fraction may read
    exactly 0.  Column 6 is the validity flag of real rows; empty queues
    and, under ``wild``, all-zero rows go beyond what an env emits."""
    f = draw(st.sampled_from([7, 8, 9]))
    m = draw(st.integers(1, 9))
    n = draw(st.integers(1, 12))
    wild = draw(st.booleans())
    counts = np.array(
        draw(st.lists(st.integers(0 if wild else 1, m), min_size=n, max_size=n))
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**31)))
    rows = rng.random((counts.sum(), f)).astype(np.float32)
    rows[:, 6] = 1.0
    rows[:, 7:8] = 0.0 if f == 8 else rows[:, 7:8]
    if f == 9:
        # the free-memory fraction is one value per observation
        free = rng.choice([0.0, 0.0, 0.5, 1.0], size=n).astype(np.float32)
        rows[:, 8] = np.repeat(free, counts)
        rows[rng.random(len(rows)) < 0.4, 7] = 0.0
    if wild:
        rows[rng.random(len(rows)) < 0.3] = 0.0
    select = None
    if draw(st.booleans()):
        select = rng.integers(0, n, size=draw(st.integers(0, 2 * n)))
    return rows, counts, m, select


@settings(max_examples=300, deadline=None)
@given(ragged_observations())
def test_csr_buckets_equal_the_padded_windows_buckets(problem):
    """``RaggedRows.from_csr`` is ``from_dense`` of the padded windows —
    same members, same widths, same blocks in the rows' dtype — without the windows:
    its extents come from the rows' content, so a trailing zero column is
    outside a bucket exactly when the padded block says so."""
    rows, counts, m, select = problem
    f = rows.shape[1]
    windows = pad_window(rows, counts, m)[0].reshape(len(counts), m * f)
    np.testing.assert_array_equal(
        window_extents(rows, counts), row_extents(windows)
    )
    want = RaggedRows.from_dense(windows, rows=select)
    got = RaggedRows.from_csr(rows, counts, m, select=select)
    assert got.shape == want.shape
    assert len(got.buckets) == len(want.buckets)
    for (got_rows, got_block), (want_rows, want_block) in zip(
        got.buckets, want.buckets
    ):
        np.testing.assert_array_equal(got_rows, want_rows)
        assert got_block.dtype == want_block.dtype == rows.dtype
        assert got_block.shape == want_block.shape
        assert got_block.flags.c_contiguous
        assert got_block.tobytes() == want_block.tobytes()


# ---------------------------------------------------------------------------
# the hand-over contract: ``_accumulate`` keeps the array a VJP gives it
# ---------------------------------------------------------------------------
def _segments(draw, n_rows, allow_empty):
    """A CSR ``indptr`` over ``n_rows`` rows."""
    cuts = draw(st.lists(st.integers(0, n_rows), max_size=3))
    indptr = np.array([0, *sorted(cuts), n_rows])
    return indptr if allow_empty else np.unique(indptr)


def _broadcasts_into(small, shape):
    """``small`` is another shape that NumPy broadcasts up to ``shape``."""
    try:
        return small != shape and np.broadcast_shapes(small, shape) == shape
    except ValueError:
        return False


def _draw_op(draw, pool):
    """One more node over the shapes in ``pool``: ``(shape, build)`` where
    ``build`` maps the list of tensors built so far to the new tensor.
    Every choice is drawn here, so ``build`` replays identically on a
    second graph."""
    i = draw(st.integers(0, len(pool) - 1))
    shape = pool[i]
    same = [j for j, s in enumerate(pool) if s == shape]
    smaller = [j for j, s in enumerate(pool) if _broadcasts_into(s, shape)]
    kinds = ["unary", "self+self", "self*self", "same", "reshape", "transpose",
             "sum"]
    if smaller:
        kinds.append("broadcast")
    if shape:
        kinds += ["segment", "gather"]
    if len(shape) == 2:
        kinds.append("dense")
    kind = draw(st.sampled_from(kinds))
    if kind == "unary":
        name = draw(st.sampled_from(["tanh", "relu", "exp", "neg", "scale",
                                     "clip", "square"]))
        fn = {
            "tanh": lambda t: t.tanh(), "relu": lambda t: t.relu(),
            "exp": lambda t: t.clip(-3.0, 3.0).exp(), "neg": lambda t: -t,
            "scale": lambda t: t * 0.5, "clip": lambda t: t.clip(-0.5, 0.5),
            "square": lambda t: t ** 2.0,
        }[name]
        return shape, lambda ts: fn(ts[i])
    if kind == "self+self":
        return shape, lambda ts: ts[i] + ts[i]
    if kind == "self*self":
        return shape, lambda ts: ts[i] * ts[i]
    if kind == "same":
        j = draw(st.sampled_from(same))
        op = draw(st.sampled_from(["+", "*", "-", "min"]))
        fn = {"+": lambda a, b: a + b, "*": lambda a, b: a * b,
              "-": lambda a, b: a - b, "min": lambda a, b: a.minimum(b)}[op]
        return shape, lambda ts: fn(ts[i], ts[j])
    if kind == "broadcast":
        j = draw(st.sampled_from(smaller))
        if draw(st.booleans()):
            return shape, lambda ts: ts[i] + ts[j]
        return shape, lambda ts: ts[j] + ts[i]
    if kind == "reshape":
        size = int(np.prod(shape, dtype=int))
        new = draw(st.sampled_from([(size,), (size, 1), (1, size),
                                    tuple(reversed(shape))]))
        return new, lambda ts: ts[i].reshape(new)
    if kind == "transpose":
        return tuple(reversed(shape)), lambda ts: ts[i].T
    if kind == "sum":
        axis = draw(st.sampled_from([None, *range(len(shape))]))
        keepdims = draw(st.booleans())
        new = np.sum(np.zeros(shape), axis=axis, keepdims=keepdims).shape
        return new, lambda ts: ts[i].sum(axis=axis, keepdims=keepdims)
    if kind == "segment":
        name = draw(st.sampled_from(["sum", "logsumexp"]))
        indptr = _segments(draw, shape[0], allow_empty=name == "sum")
        fn = {"sum": segment_sum, "logsumexp": segment_logsumexp}[name]
        return (indptr.size - 1, *shape[1:]), lambda ts: fn(ts[i], indptr)
    if kind == "gather":
        index = np.array(draw(st.lists(st.integers(0, shape[0] - 1),
                                       min_size=1, max_size=6)))
        return (index.size, *shape[1:]), lambda ts: gather_rows(ts[i], index)
    # the fused layer scales the gradient it owns in place: an alias handed
    # to it by mistake would be corrupted for its other holder
    width = draw(st.integers(1, 4))
    layer = Dense(shape[1], width,
                  activation=draw(st.sampled_from(["relu", "tanh", "identity"])),
                  rng=np.random.default_rng(draw(st.integers(0, 2**31))))
    return (shape[0], width), lambda ts: layer(ts[i])


@st.composite
def expression_dags(draw):
    """``(leaves, build)``: leaf arrays and a function from fresh leaf
    tensors to the root of a random DAG over the closed op set — shared
    sub-expressions, ``x + x``, ``x * x``, same-shape and broadcast ``+``,
    ``reshape`` / ``transpose`` views, ``sum`` with and without
    ``keepdims``, the segment ops and the fused ``Dense`` node."""
    # sides past 8 reach NumPy's pairwise summation, where the order of a
    # reduction depends on the memory layout of what is reduced
    sides = st.sampled_from([1, 2, 3, 5, 9, 17])
    n, m = draw(sides), draw(sides)
    rng = np.random.default_rng(draw(st.integers(0, 2**31)))
    pool = [(n, m), (n, m), (m,), (n, 1)]
    leaves = [rng.uniform(-2.0, 2.0, size=s) for s in pool]
    builds = []
    for _ in range(draw(st.integers(1, 12))):
        shape, build = _draw_op(draw, pool)
        pool.append(shape)
        builds.append(build)
    # the root reads several nodes, so most of the DAG is live
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=1,
                          max_size=4, unique=True))
    weights = {k: rng.normal(size=pool[k]) for k in picks}
    root_layer = Dense(1, 1, activation="tanh", rng=rng)

    def build_root(tensors):
        tensors = list(tensors)
        for build in builds:
            tensors.append(build(tensors))
        terms = [(tensors[k] * Tensor(weights[k])).sum(keepdims=True)
                 .reshape(1) for k in picks]
        total = terms[0]
        for term in terms[1:]:
            total = total + term
        # a non-scalar root, so the caller supplies its gradient, and one
        # whose VJP works in place on what it is given
        return root_layer(total * Tensor(np.ones((2, 1))))

    return leaves, build_root


@settings(max_examples=300, deadline=None)
@given(expression_dags(), st.integers(0, 2**31))
def test_handed_over_gradients_equal_copied_ones_bitwise(dag, seed):
    leaves, build_root = dag
    root_grad = np.random.default_rng(seed).normal(size=(2, 1))

    def leaf_grads(accumulate):
        params = [Parameter(x.copy()) for x in leaves]
        supplied = root_grad.copy()
        original = Tensor._accumulate
        Tensor._accumulate = accumulate
        try:
            build_root(params).backward(supplied)
        finally:
            Tensor._accumulate = original
        # the caller's root gradient is copied, never kept or written
        assert supplied.tobytes() == root_grad.tobytes()
        return [p.grad for p in params]

    for got, want in zip(leaf_grads(Tensor._accumulate), leaf_grads(copy_always)):
        if want is None:
            assert got is None
        else:
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# dtype belongs to the data: float32 in, float32 out; float64 in, float64 out
# ---------------------------------------------------------------------------
#: NumPy 2 promotes a float32 array that meets one of these (a Python
#: float would not), which is how a float32 graph silently turns float64:
#: every op that takes a number gets this one
STRAY = np.float64(0.5)

#: every public op, as a function of two same-shaped ``(n, m)`` tensors
#: and a CSR split of their rows into non-empty segments
DTYPE_OPS = {
    "add": lambda a, b, ip: a + b,
    "add_number": lambda a, b, ip: a + STRAY,
    "radd_number": lambda a, b, ip: STRAY + a,
    "sub": lambda a, b, ip: a - b,
    "sub_number": lambda a, b, ip: a - STRAY,
    "rsub_number": lambda a, b, ip: STRAY - a,
    "mul": lambda a, b, ip: a * b,
    "mul_number": lambda a, b, ip: a * STRAY,
    "rmul_number": lambda a, b, ip: STRAY * a,
    "neg": lambda a, b, ip: -a,
    "div": lambda a, b, ip: a / (b * b + 1.0),
    "div_number": lambda a, b, ip: a / STRAY,
    "rdiv_number": lambda a, b, ip: STRAY / (a * a + 1.0),
    "pow": lambda a, b, ip: (a * a + 1.0) ** np.float64(1.5),
    "matmul": lambda a, b, ip: a @ b.T,
    "exp": lambda a, b, ip: a.exp(),
    "log": lambda a, b, ip: (a * a + 1.0).log(),
    "tanh": lambda a, b, ip: a.tanh(),
    "relu": lambda a, b, ip: a.relu(),
    "sum": lambda a, b, ip: a.sum(),
    "sum_axis": lambda a, b, ip: a.sum(axis=1, keepdims=True),
    "mean": lambda a, b, ip: a.mean(),
    "mean_axis": lambda a, b, ip: a.mean(axis=0),
    "reshape": lambda a, b, ip: a.reshape(-1),
    "transpose": lambda a, b, ip: a.T,
    "getitem": lambda a, b, ip: a[::2],
    "clip": lambda a, b, ip: a.clip(-STRAY, STRAY),
    "minimum": lambda a, b, ip: a.minimum(b),
    "minimum_number": lambda a, b, ip: a.minimum(STRAY),
    "maximum": lambda a, b, ip: a.maximum(b),
    "where": lambda a, b, ip: a.where(b.data > 0, b),
    "where_number": lambda a, b, ip: a.where(b.data > 0, STRAY),
    "gather_rows": lambda a, b, ip: gather_rows(a, ip[:-1]),
    "segment_sum": lambda a, b, ip: segment_sum(a, ip),
    "segment_logsumexp": lambda a, b, ip: segment_logsumexp(a, ip),
    "segment_log_softmax": lambda a, b, ip: segment_log_softmax(a[:, 0], ip),
    "masked_log_softmax": lambda a, b, ip: masked_log_softmax(
        a, (b.data > 0) | (np.arange(a.shape[1]) == 0)
    ),
    "log_prob_of": lambda a, b, ip: log_prob_of(a, np.zeros(len(a), int)),
    "ragged_matmul": lambda a, b, ip: RaggedRows.from_dense(b.data) @ a.T,
}


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([np.float32, np.float64]),
    st.integers(1, 6), st.integers(1, 6), st.integers(0, 2**31),
)
def test_every_op_keeps_the_dtype_it_is_given(dtype, n, m, seed):
    rng = np.random.default_rng(seed)
    indptr = np.unique([0, rng.integers(0, n + 1), n])
    for name, op in DTYPE_OPS.items():
        a = Parameter(rng.uniform(-2.0, 2.0, size=(n, m)).astype(dtype))
        b = Parameter(rng.uniform(-2.0, 2.0, size=(n, m)).astype(dtype))
        out = op(a, b, indptr)
        assert out.data.dtype == dtype, f"{name}: {dtype.__name__} in, {out.data.dtype} out"
        # the root gradient arrives float64 whatever the graph is
        out.backward(np.ones(out.shape))
        assert a.grad.dtype == dtype, f"{name}: {a.grad.dtype} gradient"
    # the two that are not Tensor ops: a bare array, and a fresh layer,
    # float32 as created, cast to what it is fed
    scores = rng.normal(size=n).astype(dtype)
    assert segment_rectangle(scores, np.ones(n, int), 8).dtype == dtype
    layer = Dense(m, 3, activation="tanh", rng=rng).astype(dtype)
    out = layer(Tensor(a.data))
    out.sum().backward()
    assert out.data.dtype == layer.weight.grad.dtype == layer.bias.grad.dtype == dtype


def test_a_tensor_keeps_floating_arrays_and_makes_the_rest_float64():
    for dtype in (np.float16, np.float32, np.float64):
        assert Tensor(np.ones(3, dtype=dtype)).data.dtype == dtype
    for data in (1, 2.5, [1, 2], [1.0, 2.0], np.arange(3), np.ones(2, bool)):
        assert Tensor(data).data.dtype == np.float64
    # an array keeps its dtype when it meets a tensor; NumPy promotes the pair
    f32 = Tensor(np.ones(3, dtype=np.float32))
    assert (f32 + np.ones(3)).data.dtype == np.float64
    assert (f32 + [1.0, 2.0, 3.0]).data.dtype == np.float32
