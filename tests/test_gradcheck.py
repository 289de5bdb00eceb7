"""Finite-difference validation of every hand-written VJP in the tensor
engine, including the segment-batched sparse ops and their functional
twins.  Shapes exercise broadcasting wherever the op supports it."""

import numpy as np
import pytest

from repro.nn import (
    RaggedRows,
    Tensor,
    csr_indptr,
    gather_rows,
    gradcheck,
    numerical_gradient,
    ragged_matmul,
    segment_log_softmax,
    segment_logsumexp,
    segment_sum,
)


def rand(*shape, seed=0, loc=0.0):
    return np.random.default_rng(seed).standard_normal(shape) + loc


def positive(*shape, seed=0):
    return np.abs(rand(*shape, seed=seed)) + 0.5


class TestArithmetic:
    def test_add(self):
        gradcheck(lambda a, b: a + b, rand(3, 4), rand(3, 4, seed=1))

    def test_add_broadcast(self):
        gradcheck(lambda a, b: a + b, rand(3, 1), rand(3, 4, seed=1))
        gradcheck(lambda a, b: a + b, rand(4), rand(2, 3, 4, seed=1))

    def test_radd_scalar(self):
        gradcheck(lambda a: 2.5 + a, rand(5))

    def test_mul(self):
        gradcheck(lambda a, b: a * b, rand(3, 4), rand(3, 4, seed=1))

    def test_mul_broadcast(self):
        gradcheck(lambda a, b: a * b, rand(2, 1, 4), rand(3, 1, seed=1))

    def test_neg_sub_rsub(self):
        gradcheck(lambda a: -a, rand(4))
        gradcheck(lambda a, b: a - b, rand(3, 2), rand(2, seed=1))
        gradcheck(lambda a: 1.0 - a, rand(4))

    def test_div(self):
        gradcheck(lambda a, b: a / b, rand(3, 4), positive(3, 4, seed=1))
        gradcheck(lambda a: 3.0 / a, positive(5))

    def test_pow(self):
        gradcheck(lambda a: a ** 3.0, rand(3, 4))
        gradcheck(lambda a: a ** 0.5, positive(3, 4))
        gradcheck(lambda a: a ** -2.0, positive(5))


class TestMatmulAndReductions:
    def test_matmul(self):
        gradcheck(lambda a, b: a @ b, rand(3, 4), rand(4, 2, seed=1))

    def test_sum_all(self):
        gradcheck(lambda a: a.sum(), rand(3, 4))

    def test_sum_axis(self):
        gradcheck(lambda a: a.sum(axis=1), rand(3, 4))
        gradcheck(lambda a: a.sum(axis=0, keepdims=True), rand(3, 4))
        gradcheck(lambda a: a.sum(axis=-1), rand(2, 3, 4))

    def test_mean(self):
        gradcheck(lambda a: a.mean(), rand(3, 4))
        gradcheck(lambda a: a.mean(axis=1), rand(3, 4))


class TestNonlinearities:
    def test_exp(self):
        gradcheck(lambda a: a.exp(), rand(3, 4))

    def test_log(self):
        gradcheck(lambda a: a.log(), positive(3, 4))

    def test_tanh(self):
        gradcheck(lambda a: a.tanh(), rand(3, 4))

    def test_relu(self):
        # Keep inputs away from the kink at 0 (FD is wrong within eps of it).
        x = rand(4, 5)
        x[np.abs(x) < 1e-3] = 0.5
        gradcheck(lambda a: a.relu(), x)

class TestShapeAndIndexing:
    def test_reshape(self):
        gradcheck(lambda a: a.reshape(6, 2), rand(3, 4))
        gradcheck(lambda a: a.reshape(-1), rand(3, 4))

    def test_transpose(self):
        gradcheck(lambda a: a.T, rand(3, 4))
        gradcheck(lambda a: a.transpose(2, 0, 1), rand(2, 3, 4))

    def test_getitem_slice(self):
        gradcheck(lambda a: a[1:3], rand(5, 4))

    def test_getitem_fancy_with_duplicates(self):
        idx = np.array([0, 2, 2, 1])
        gradcheck(lambda a: a[idx], rand(4, 3))


class TestSelection:
    def test_clip(self):
        # Inputs away from the clip boundaries (kinks).
        x = rand(4, 5) * 2.0
        x[np.abs(np.abs(x) - 0.7) < 1e-3] = 0.0
        gradcheck(lambda a: a.clip(-0.7, 0.7), x)

    def test_minimum_maximum(self):
        a, b = rand(3, 4), rand(3, 4, seed=1)
        gradcheck(lambda x, y: x.minimum(y), a, b)
        gradcheck(lambda x, y: x.maximum(y), a, b)

    def test_where(self):
        cond = np.random.default_rng(2).random((3, 4)) < 0.5
        gradcheck(lambda x, y: x.where(cond, y), rand(3, 4), rand(3, 4, seed=1))


IP = np.array([0, 2, 2, 5, 6])  # 4 segments, one empty, over 6 rows
IP_FULL = np.array([0, 2, 5, 6])  # 3 non-empty segments over 6 rows


class TestSegmentOps:
    def test_gather_rows(self):
        idx = np.array([0, 3, 3, 1, 2])
        gradcheck(lambda x: gather_rows(x, idx), rand(4, 3))
        gradcheck(lambda x: gather_rows(x, idx), rand(4))  # 1-D too

    def test_segment_sum(self):
        gradcheck(lambda x: segment_sum(x, IP), rand(6, 3))
        gradcheck(lambda x: segment_sum(x, IP), rand(6))

    def test_segment_sum_empty_segments_are_zero(self):
        out = segment_sum(Tensor(np.ones((6, 2))), IP)
        np.testing.assert_array_equal(out.numpy()[1], [0.0, 0.0])
        # Trailing empty segment must not corrupt the previous boundary.
        out = segment_sum(Tensor(np.arange(3.0)), np.array([0, 3, 3]))
        np.testing.assert_array_equal(out.numpy(), [3.0, 0.0])

    def test_segment_logsumexp(self):
        gradcheck(lambda x: segment_logsumexp(x, IP_FULL), rand(6))
        # Large magnitudes: the stability shift must not overflow.
        big = rand(6) * 200.0
        out = segment_logsumexp(Tensor(big), IP_FULL)
        assert np.isfinite(out.numpy()).all()

    def test_segment_logsumexp_rejects_empty(self):
        with pytest.raises(ValueError):
            segment_logsumexp(Tensor(np.ones(6)), IP)

    def test_bad_indptr_rejected(self):
        x = Tensor(np.ones(4))
        with pytest.raises(ValueError):
            segment_sum(x, np.array([1, 4]))  # must start at 0
        with pytest.raises(ValueError):
            segment_sum(x, np.array([0, 3]))  # must end at n
        with pytest.raises(ValueError):
            segment_sum(x, np.array([0, 3, 2, 4]))  # non-decreasing


class TestSparseFunctionalTwins:
    def _masked_problem(self, seed=0):
        rng = np.random.default_rng(seed)
        masks = rng.random((4, 6)) < 0.5
        masks[np.arange(4), rng.integers(0, 6, 4)] = True
        actions = np.array([rng.choice(np.flatnonzero(m)) for m in masks])
        indptr = csr_indptr(masks.sum(axis=1))
        k = int(indptr[-1])
        return masks, actions, indptr, rand(k, seed=seed + 1)

    def test_segment_log_softmax_grad(self):
        _, _, indptr, scores = self._masked_problem()
        gradcheck(lambda s: segment_log_softmax(s, indptr), scores)


def prefix_matrix(extents, n_cols, seed=0):
    """Random rows whose non-zero extent is ``extents[i]``; every third
    entry inside the prefix is zeroed, the last prefix column never."""
    x = rand(len(extents), n_cols, seed=seed)
    x[:, ::3] = 0.0
    for i, e in enumerate(extents):
        x[i, e:] = 0.0
        if e:
            x[i, e - 1] = 1.0 + i
    return x


class TestRaggedMatmul:
    EXTENTS = [0, 1, 12, 5, 3, 12, 0, 7, 2]  # zero, full-width, ties

    def test_gradient_wrt_weight(self):
        x = RaggedRows.from_dense(prefix_matrix(self.EXTENTS, 12))
        gradcheck(lambda w: ragged_matmul(x, w), rand(12, 4, seed=1))
        gradcheck(lambda w: x @ w, rand(12, 1, seed=2))

    def test_through_a_value_network_shaped_graph(self):
        x = RaggedRows.from_dense(prefix_matrix(self.EXTENTS, 12, seed=3))
        gradcheck(
            lambda w, b, v: (x @ w + b).tanh() @ v,
            rand(12, 4, seed=1), rand(4, seed=2), rand(4, 1, seed=3),
        )

    def test_minibatch_rows_and_float32_source(self):
        dense = prefix_matrix(self.EXTENTS, 12, seed=4).astype(np.float32)
        rows = np.array([7, 2, 2, 0, 8, 3])  # reordered, repeated, a zero row
        x = RaggedRows.from_dense(dense, rows=rows)
        w = rand(12, 3, seed=5)
        np.testing.assert_allclose(
            (x @ Tensor(w)).numpy(), dense[rows].astype(np.float64) @ w,
            rtol=0, atol=1e-12,
        )
        gradcheck(lambda w: x @ w, w)

    def test_weight_gradient_accumulates_across_uses(self):
        dense = prefix_matrix(self.EXTENTS, 12, seed=6)
        x = RaggedRows.from_dense(dense)
        gradcheck(lambda w: (x @ w) * (x @ w) + (x @ w), rand(12, 2, seed=7))

    def test_rejects_mismatched_weight_and_non_matrix(self):
        x = RaggedRows.from_dense(np.ones((2, 3)))
        with pytest.raises(ValueError, match=r"\(3, H\) weight"):
            x @ Tensor(np.ones((4, 2)))
        with pytest.raises(ValueError, match="2-D"):
            RaggedRows.from_dense(np.ones((2, 3, 4)))


class TestHarness:
    def test_numerical_gradient_quadratic(self):
        x = np.array([1.0, -2.0, 3.0])
        grad = numerical_gradient(lambda: float((x ** 2).sum()), x)
        np.testing.assert_allclose(grad, 2 * x, rtol=1e-6, atol=1e-6)
        np.testing.assert_array_equal(x, [1.0, -2.0, 3.0])  # probes restored

    def test_gradcheck_catches_wrong_vjp(self):
        def bad_square(x):
            out_data = x.data ** 2

            def backward(grad):
                x._accumulate(grad * 3.0 * x.data)  # should be 2x

            return Tensor._from_op(out_data, (x,), backward)

        with pytest.raises(AssertionError):
            gradcheck(bad_square, np.array([1.0, -2.0, 3.0]))

    def test_gradcheck_check_mask_skips_inputs(self):
        gradcheck(
            lambda a, b: a * b,
            rand(3),
            rand(3, seed=1),
            check=[True, False],
        )
