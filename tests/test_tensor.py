"""Unit tests for the autodiff engine, including numerical gradient checks."""

import tracemalloc

import numpy as np
import pytest

from repro.nn import (
    KernelPolicy,
    Parameter,
    Tensor,
    gather_rows,
    no_grad,
    segment_log_softmax,
    segment_sum,
)
from repro.nn.tensor import _unbroadcast


def numerical_grad(f, x: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of scalar-valued f at x."""
    grad = np.zeros_like(x, dtype=float)
    flat = x.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        hi = f(x)
        flat[i] = orig - eps
        lo = f(x)
        flat[i] = orig
        gflat[i] = (hi - lo) / (2 * eps)
    return grad


def copy_always(self, grad):
    """``Tensor._accumulate`` as it was before gradients were handed over:
    the oracle the hand-over tests (here and in ``test_property_tensor``)
    patch back in."""
    grad = _unbroadcast(np.asarray(grad, dtype=self.data.dtype), self.data.shape)
    if self.grad is None:
        self.grad = grad.copy()
    else:
        self.grad += grad


def check_grad(op, shape=(3, 4), seed=0, positive=False):
    """Compare autodiff gradient of sum(op(x)) with central differences."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=shape)
    if positive:
        x = np.abs(x) + 0.5
    t = Parameter(x.copy())
    out = op(t).sum()
    out.backward()

    def f(arr):
        return float(op(Tensor(arr)).sum().numpy())

    num = numerical_grad(f, x.copy())
    np.testing.assert_allclose(t.grad, num, rtol=1e-5, atol=1e-7)


class TestElementwiseGradients:
    def test_add(self):
        check_grad(lambda t: t + 3.0)

    def test_mul(self):
        check_grad(lambda t: t * t)

    def test_sub_neg(self):
        check_grad(lambda t: 5.0 - t)

    def test_div(self):
        check_grad(lambda t: 1.0 / t, positive=True)

    def test_pow(self):
        check_grad(lambda t: t**3.0)

    def test_exp(self):
        check_grad(lambda t: t.exp())

    def test_log(self):
        check_grad(lambda t: t.log(), positive=True)

    def test_tanh(self):
        check_grad(lambda t: t.tanh())

    def test_relu(self):
        check_grad(lambda t: t.relu())

    def test_chained(self):
        check_grad(lambda t: ((t * 2.0).tanh() + t.relu()).exp() * 0.1)


class TestBroadcasting:
    def test_broadcast_add_gradients(self):
        a = Parameter(np.ones((3, 4)))
        b = Parameter(np.ones((1, 4)))
        (a + b).sum().backward()
        assert a.grad.shape == (3, 4)
        assert b.grad.shape == (1, 4)
        np.testing.assert_allclose(b.grad, np.full((1, 4), 3.0))

    def test_scalar_broadcast(self):
        a = Parameter(np.ones((2, 3)))
        s = Parameter(np.array(2.0))
        (a * s).sum().backward()
        np.testing.assert_allclose(s.grad, 6.0)

    def test_row_times_matrix(self):
        rng = np.random.default_rng(1)
        m = rng.normal(size=(3, 4))
        r = Parameter(rng.normal(size=(4,)))
        out = (Tensor(m) * r).sum()
        out.backward()
        np.testing.assert_allclose(r.grad, m.sum(axis=0))


class TestMatmul:
    def test_forward(self):
        a = Tensor(np.eye(3))
        b = Tensor(np.arange(9.0).reshape(3, 3))
        np.testing.assert_allclose((a @ b).numpy(), b.numpy())

    def test_gradients(self):
        rng = np.random.default_rng(2)
        a = Parameter(rng.normal(size=(3, 4)))
        b = Parameter(rng.normal(size=(4, 2)))
        (a @ b).sum().backward()
        np.testing.assert_allclose(a.grad, np.ones((3, 2)) @ b.data.T)
        np.testing.assert_allclose(b.grad, a.data.T @ np.ones((3, 2)))

    def test_rejects_non_2d(self):
        with pytest.raises(ValueError):
            Tensor(np.ones(3)) @ Tensor(np.ones((3, 3)))


class TestReductionsShapes:
    def test_sum_axis_grad(self):
        check_grad(lambda t: t.sum(axis=1) * 2.0)

    def test_sum_keepdims_grad(self):
        check_grad(lambda t: t.sum(axis=0, keepdims=True).exp())

    def test_mean(self):
        t = Parameter(np.arange(6.0).reshape(2, 3))
        m = t.mean()
        assert m.item() == pytest.approx(2.5)
        m.backward()
        np.testing.assert_allclose(t.grad, np.full((2, 3), 1 / 6))

    def test_mean_axis(self):
        check_grad(lambda t: t.mean(axis=1))

    def test_reshape_grad(self):
        check_grad(lambda t: t.reshape(12).tanh(), shape=(3, 4))

    def test_transpose_grad(self):
        check_grad(lambda t: (t.T @ Tensor(np.ones((3, 2)))), shape=(3, 4))

    def test_getitem_grad(self):
        t = Parameter(np.arange(12.0).reshape(3, 4))
        t[1].sum().backward()
        expected = np.zeros((3, 4))
        expected[1] = 1.0
        np.testing.assert_allclose(t.grad, expected)

    def test_fancy_index_grad_accumulates(self):
        t = Parameter(np.arange(4.0))
        idx = np.array([0, 0, 2])
        t[idx].sum().backward()
        np.testing.assert_allclose(t.grad, [2.0, 0.0, 1.0, 0.0])


class TestClipMinimum:
    def test_clip_grad_masked(self):
        t = Parameter(np.array([-2.0, 0.5, 2.0]))
        t.clip(-1.0, 1.0).sum().backward()
        np.testing.assert_allclose(t.grad, [0.0, 1.0, 0.0])

    def test_minimum_grad_routing(self):
        a = Parameter(np.array([1.0, 5.0]))
        b = Parameter(np.array([3.0, 2.0]))
        a.minimum(b).sum().backward()
        np.testing.assert_allclose(a.grad, [1.0, 0.0])
        np.testing.assert_allclose(b.grad, [0.0, 1.0])

    def test_maximum_grad_routing(self):
        a = Parameter(np.array([1.0, 5.0]))
        b = Parameter(np.array([3.0, 2.0]))
        a.maximum(b).sum().backward()
        np.testing.assert_allclose(a.grad, [0.0, 1.0])

    def test_where(self):
        a = Parameter(np.array([1.0, 2.0]))
        b = Parameter(np.array([10.0, 20.0]))
        cond = np.array([True, False])
        out = a.where(cond, b)
        np.testing.assert_allclose(out.numpy(), [1.0, 20.0])
        out.sum().backward()
        np.testing.assert_allclose(a.grad, [1.0, 0.0])
        np.testing.assert_allclose(b.grad, [0.0, 1.0])


class TestGraphMechanics:
    def test_grad_accumulates_across_uses(self):
        t = Parameter(np.array([2.0]))
        (t * 3.0 + t * 4.0).backward()
        np.testing.assert_allclose(t.grad, [7.0])

    def test_backward_requires_scalar(self):
        t = Parameter(np.ones((2, 2)))
        with pytest.raises(RuntimeError, match="scalar"):
            (t * 2.0).backward()

    def test_backward_on_no_grad_tensor(self):
        t = Tensor(np.ones(3))
        with pytest.raises(RuntimeError):
            t.sum().backward()

    def test_no_grad_context(self):
        t = Parameter(np.ones(3))
        with no_grad():
            out = (t * 2.0).sum()
        assert not out.requires_grad

    def test_detach(self):
        t = Parameter(np.ones(3))
        d = t.detach()
        assert not d.requires_grad

    def test_zero_grad(self):
        t = Parameter(np.ones(3))
        t.sum().backward()
        t.zero_grad()
        assert t.grad is None

    def test_deep_chain_no_recursion_error(self):
        t = Parameter(np.array([0.01]))
        x = t
        for _ in range(3000):
            x = x * 1.0001
        x.sum().backward()  # iterative topo-sort must not overflow
        assert t.grad is not None

    def test_diamond_graph(self):
        t = Parameter(np.array([3.0]))
        a = t * 2.0
        b = t * 5.0
        (a * b).backward()  # d/dt (10 t^2) = 20 t = 60
        np.testing.assert_allclose(t.grad, [60.0])

    def test_second_backward_on_the_same_graph_raises(self):
        """Interior gradients used to outlive the pass and were propagated
        again on top of the fresh one: ``x.grad`` read ``[8, 8]`` after the
        second call (accumulation semantics would give ``[4, 4]``).  A
        consumed graph is released, and reaching it again says so."""
        x = Parameter(np.ones(2))
        z = (x * 2.0).sum()
        z.backward()
        np.testing.assert_array_equal(x.grad, [2.0, 2.0])
        with pytest.raises(RuntimeError, match="already consumed and released"):
            z.backward()
        np.testing.assert_array_equal(x.grad, [2.0, 2.0])  # nothing propagated

    def test_second_loss_through_a_shared_subexpression_raises(self):
        """Same bug, other shape: ``h`` kept the first loss's gradient, so
        the second loss pushed both down to ``x`` (``[2+5, 2+5]`` on top of
        the first ``[2, 2]``).  The leaf reached before the released node
        must be left alone too."""
        x, y = Parameter(np.ones(2)), Parameter(np.ones(2))
        h = x * 2.0
        h.sum().backward()
        second = (h * 1.5 + y).sum()
        with pytest.raises(RuntimeError, match="already consumed and released"):
            second.backward()
        np.testing.assert_array_equal(x.grad, [2.0, 2.0])
        assert y.grad is None
        # the supported spelling: one backward over the summed losses
        x.zero_grad()
        h = x * 2.0
        (h.sum() + (h * 1.5).sum()).backward()
        np.testing.assert_array_equal(x.grad, [5.0, 5.0])

    def test_backward_releases_interior_nodes_and_keeps_leaves(self):
        x = Parameter(np.arange(3.0))
        leaf = Tensor(np.ones(3), requires_grad=True)
        h = x * leaf
        out = h.sum()
        out.backward()
        for node in (h, out):
            assert node.grad is None and node._parents == ()
        np.testing.assert_array_equal(x.grad, np.ones(3))
        np.testing.assert_array_equal(leaf.grad, np.arange(3.0))
        np.testing.assert_array_equal(h.numpy(), np.arange(3.0))  # data stays
        # leaves accumulate across graphs, as before
        (x * leaf).sum().backward()
        np.testing.assert_array_equal(x.grad, 2 * np.ones(3))


class TestGradientHandOver:
    """``_accumulate`` keeps the array it is given; the call sites that
    pass an alias copy.  The Hypothesis property in
    ``test_property_tensor.py`` covers random DAGs; these are the cases it
    reaches too rarely to count on."""

    def test_sum_over_a_unit_axis_hands_over_a_writable_array(self):
        """``broadcast_to`` is read-only even when nothing is broadcast;
        kept as it is, the next arrival's ``+=`` would fail."""
        for flip in (False, True):
            x = Parameter(np.ones((1, 3)))
            h = x * 1.0
            terms = [h.sum(axis=0).sum(), (h * 2.0).sum()]
            (terms[flip] + terms[not flip]).backward()
            np.testing.assert_array_equal(x.grad, np.full((1, 3), 3.0))

    def test_strided_gradient_is_laid_out_before_it_is_kept(self, monkeypatch):
        """A ``transpose`` VJP hands over a strided view.  Reducing it as
        it is would sum in another order than reducing the contiguous copy
        the tape used to make, and differ in the last bit."""
        rng = np.random.default_rng(0)
        a, v, w = rng.normal(size=(17, 9)), rng.normal(size=9), rng.normal(size=(9, 17))

        def bias_grad():
            row = Parameter(v.copy())
            ((Parameter(a.copy()) + row).T * Tensor(w)).sum().backward()
            return row.grad

        got = bias_grad()
        monkeypatch.setattr(Tensor, "_accumulate", copy_always)
        assert got.tobytes() == bias_grad().tobytes()

    def test_add_gives_two_same_shaped_parents_an_array_each(self):
        """Both parents of ``a + y`` would keep the one incoming array; the
        next arrival at ``a`` then adds into ``y``'s gradient too."""
        w = np.array([1.0, 2.0, 3.0])
        for flip in (False, True):
            x, y = Parameter(np.arange(3.0)), Parameter(np.zeros(3))
            a = x * 1.0
            terms = [((a + y) * Tensor(w)).sum(), (a * 5.0).sum()]
            (terms[flip] + terms[not flip]).backward()
            np.testing.assert_array_equal(y.grad, w)
            np.testing.assert_array_equal(x.grad, w + 5.0)


class TestTapeMemory:
    def test_policy_shaped_step_peaks_near_its_activations(self):
        """Forward + ``backward()`` of a policy step holds the layer
        outputs and the gradients in flight — not a second copy of every
        interior gradient until the pass returns.  ``tracemalloc`` counts
        bytes, so the budget is the same on every host: 3x the layer
        outputs (the tape that copied and kept measured 6.2x, this one
        1.7x)."""
        rng = np.random.default_rng(0)
        lengths = rng.integers(1, 40, size=1000)
        indptr = np.concatenate(([0], np.cumsum(lengths)))
        k = int(indptr[-1])  # ~20k job rows in 1000 observations
        rows = rng.normal(size=(k, 7))
        action_pos = indptr[:-1] + rng.integers(0, lengths)
        policy = KernelPolicy(7, hidden=(32, 16, 8), seed=0)
        layer_outputs = k * (32 + 16 + 8 + 1) * 8

        tracemalloc.start()
        try:
            scores = policy.score_rows_grad(rows, lengths)
            log_probs = segment_log_softmax(scores, indptr)
            logp = gather_rows(log_probs, action_pos)
            ent_rows = -segment_sum(log_probs.exp() * log_probs, indptr)
            loss = -logp.mean() - 0.01 * ent_rows.mean()
            loss.backward()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 3 * layer_outputs, (peak, layer_outputs)
        for node in (scores, log_probs, logp, ent_rows, loss):
            assert node.grad is None and node._parents == ()
        assert all(p.grad is not None for p in policy.parameters())
