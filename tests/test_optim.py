"""Unit tests for optimizers and gradient clipping."""

import numpy as np
import pytest

from repro.nn import Adam, Dense, DenseStack, Parameter, Tensor, clip_grad_norm
from repro.nn.tensor import row_sum


def quadratic_loss(p: Parameter):
    """(p - 3)^2 summed — minimum at 3."""
    return ((p - 3.0) ** 2.0).sum()


class TestZeroGrad:
    def test_optimizer_zero_grad_keeps_the_gradient_arrays(self):
        """``opt.zero_grad()`` zeroes the arena in place (an update loop
        re-uses one array per parameter instead of freeing and
        re-allocating it every iteration); a parameter that never had a
        gradient holds a zero one, a gradient assigned from outside is
        pointed back at the arena, and the next backward accumulates to
        exactly the fresh values."""
        a, b = Parameter(np.arange(4.0)), Parameter(np.ones(2))
        opt = Adam([a, b], lr=0.1)
        first, zeros = a.grad, b.grad
        quadratic_loss(a).backward()
        assert a.grad is first
        expected = first.copy()
        b.grad = np.full(2, 7.0)
        opt.zero_grad()
        assert a.grad is first and not a.grad.any()
        assert b.grad is zeros and not b.grad.any()
        quadratic_loss(a).backward()
        assert a.grad is first
        np.testing.assert_array_equal(a.grad, expected)


class TestAdam:
    def test_descends(self):
        p = Parameter(np.zeros(4))
        opt = Adam([p], lr=0.1)
        for _ in range(300):
            opt.zero_grad()
            quadratic_loss(p).backward()
            opt.step()
        np.testing.assert_allclose(p.data, 3.0, atol=1e-2)

    def test_skips_params_without_grad(self):
        a, b = Parameter(np.zeros(1)), Parameter(np.ones(1))
        opt = Adam([a, b], lr=0.1)
        quadratic_loss(a).backward()
        opt.step()
        np.testing.assert_allclose(b.data, 1.0)  # untouched
        assert a.data[0] != 0.0

    def test_step_is_bit_identical_to_the_closed_form(self, dtype=np.float64):
        """The allocation-free step must keep the operation order of the
        textbook expression it replaced, bit for bit, over several steps
        (bias corrections change every step) and parameter shapes.

        The 2-D parameter's gradient is zero below a row that moves: the
        step follows the highest row that *ever* had a gradient, so the
        extent widens (step 3), and when it narrows again (steps 4-6) the
        rows once touched keep decaying through their ``m`` and ``v``.  It
        is the largest 2-D parameter, so it sits last in the arena and its
        high-water row ends the live prefix."""
        rng = np.random.default_rng(0)
        shapes = [(37, 5), (5,), (1,), ()]
        extents = [10, 10, 25, 4, 0, 4, 37, 12]
        lr, b1, b2, eps = 3e-4, 0.9, 0.999, 1e-8
        params = [Parameter(rng.standard_normal(s).astype(dtype)) for s in shapes]
        opt = Adam(params, lr=lr, betas=(b1, b2), eps=eps)
        want = [p.data.copy() for p in params]
        ms = [np.zeros(s, dtype=dtype) for s in shapes]
        vs = [np.zeros(s, dtype=dtype) for s in shapes]
        for t, extent in enumerate(extents, start=1):
            grads = [
                np.asarray(rng.standard_normal(s) * 10.0 ** rng.integers(-6, 3),
                           dtype=dtype)
                for s in shapes
            ]
            grads[0][extent:] = 0.0
            grads[0][-1, 0] = -0.0  # a signed zero is still no gradient
            for p, g in zip(params, grads):
                p.grad = g.copy()
            opt.step()
            bc1, bc2 = 1.0 - b1**t, 1.0 - b2**t
            for i, g in enumerate(grads):
                ms[i] = ms[i] * b1 + (1.0 - b1) * g
                vs[i] = vs[i] * b2 + (1.0 - b2) * g * g
                want[i] = want[i] - lr * (ms[i] / bc1) / (np.sqrt(vs[i] / bc2) + eps)
                assert want[i].dtype == params[i].data.dtype == dtype
                np.testing.assert_array_equal(params[i].data, want[i])
                np.testing.assert_array_equal(params[i].grad, g)  # untouched
            # stepped exactly down to the high-water row, never below it
            hi = max(extents[:t])
            assert opt._hi == hi
            assert opt._m[opt._m.size - (37 - hi) * 5 - 1] != 0.0
            assert not opt._m[opt._m.size - (37 - hi) * 5:].any()

    def test_float32_step_is_bit_identical_to_the_closed_form(self):
        """Moments, work arrays and the step itself stay float32 for
        float32 parameters: no Python scalar in the step widens them."""
        self.test_step_is_bit_identical_to_the_closed_form(np.float32)
        p = Parameter(np.ones((3, 2), dtype=np.float32))
        opt = Adam([p])
        arrays = [opt._data, opt._grad, opt._m, opt._v, opt._a, opt._b]
        assert {a.dtype for a in arrays} == {np.dtype(np.float32)}

    def test_rejects_empty_params(self):
        with pytest.raises(ValueError):
            Adam([], lr=0.1)

    def test_rejects_bad_lr(self):
        with pytest.raises(ValueError):
            Adam([Parameter(np.zeros(1))], lr=0.0)

    def test_rejects_bad_betas(self):
        with pytest.raises(ValueError):
            Adam([Parameter(np.zeros(1))], lr=0.1, betas=(1.0, 0.999))

    def test_rejects_mixed_dtypes(self):
        with pytest.raises(ValueError, match="dtype"):
            Adam([Parameter(np.zeros(1)), Parameter(np.zeros(1, dtype=np.float32))])


def small_net(seed=0):
    rng = np.random.default_rng(seed)
    return DenseStack(Dense(3, 4, "tanh", rng=rng), Dense(4, 1, rng=rng))


def net_loss(net, seed=1):
    x = np.random.default_rng(seed).standard_normal((6, 3))
    return (net(Tensor(x)) ** 2.0).sum()


class TestArena:
    def test_parameters_are_views_of_the_arena(self):
        """Weights keep their values and shapes; gradients start at zero;
        the largest 2-D parameter is packed last."""
        net = small_net()
        before = [p.data.copy() for p in net.parameters()]
        opt = Adam(net.parameters())
        for p, want in zip(net.parameters(), before):
            assert np.shares_memory(p.data, opt._data)
            assert np.shares_memory(p.grad, opt._grad)
            np.testing.assert_array_equal(p.data, want)
            assert not p.grad.any()
        assert opt.params == tuple(net.parameters())
        largest = net.modules[0].weight
        assert np.shares_memory(largest.data, opt._data[-largest.size:])

    def test_load_state_dict_after_a_step_keeps_the_views(self):
        net = small_net()
        opt = Adam(net.parameters(), lr=0.01)
        views = [p.data for p in net.parameters()]
        net_loss(net).backward()
        opt.step()
        loaded = small_net(seed=5).state_dict()
        net.load_state_dict(loaded)
        assert all(p.data is v for p, v in zip(net.parameters(), views))
        np.testing.assert_array_equal(opt._data, np.concatenate(
            [loaded["p1"], loaded["p2"].ravel(), loaded["p3"], loaded["p0"].ravel()]
        ))
        opt.zero_grad()
        net_loss(net).backward()
        opt.step()
        for i, p in enumerate(net.parameters()):
            assert not np.array_equal(p.data, loaded[f"p{i}"])

    def test_an_assigned_gradient_is_adopted(self):
        p = Parameter(np.zeros((2, 3)))
        opt = Adam([p], lr=0.1)
        view = p.grad
        p.grad = np.array([[1.0, -1.0, 0.0], [0.0, 0.0, 2.0]])
        opt.step()
        assert p.grad is view
        np.testing.assert_array_equal(view, [[1.0, -1.0, 0.0], [0.0, 0.0, 2.0]])
        # the first Adam step is lr * sign(g)
        np.testing.assert_allclose(p.data, [[-0.1, 0.1, 0.0], [0.0, 0.0, -0.1]])

    def test_astype_after_building_an_optimizer_raises(self):
        net = small_net()
        Adam(net.parameters())
        with pytest.raises(ValueError, match="before building"):
            net.astype(np.float64)
        assert net.dtype == np.float32

    def test_row_sum_and_arena_norm_match_the_reductions_in_float64(self):
        rng = np.random.default_rng(3)
        grad = rng.standard_normal((3666, 8))
        np.testing.assert_allclose(row_sum(grad), grad.sum(axis=0), rtol=1e-12)
        net = small_net().astype(np.float64)
        opt = Adam(net.parameters())
        for p in net.parameters():
            p.grad[...] = rng.standard_normal(p.shape)
        want = clip_grad_norm(list(opt.params), max_norm=1e9)
        got = clip_grad_norm(opt.params, max_norm=1e9)
        assert got == pytest.approx(want, rel=1e-12)
        clip_grad_norm(opt.params, max_norm=1.0)
        total = np.sqrt(sum((p.grad**2).sum() for p in net.parameters()))
        assert total == pytest.approx(1.0, rel=1e-12)


class TestClipGradNorm:
    def test_no_clip_below_threshold(self):
        p = Parameter(np.zeros(2))
        p.grad = np.array([0.3, 0.4])  # norm 0.5
        norm = clip_grad_norm([p], max_norm=1.0)
        assert norm == pytest.approx(0.5)
        np.testing.assert_allclose(p.grad, [0.3, 0.4])

    def test_clips_above_threshold(self):
        p = Parameter(np.zeros(2))
        p.grad = np.array([3.0, 4.0])  # norm 5
        clip_grad_norm([p], max_norm=1.0)
        assert np.linalg.norm(p.grad) == pytest.approx(1.0)

    def test_global_norm_across_params(self):
        a, b = Parameter(np.zeros(1)), Parameter(np.zeros(1))
        a.grad, b.grad = np.array([3.0]), np.array([4.0])
        clip_grad_norm([a, b], max_norm=1.0)
        total = np.sqrt(a.grad[0] ** 2 + b.grad[0] ** 2)
        assert total == pytest.approx(1.0)

    def test_rejects_bad_norm(self):
        with pytest.raises(ValueError):
            clip_grad_norm([], max_norm=0.0)
