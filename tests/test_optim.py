"""Unit tests for optimizers and gradient clipping."""

import numpy as np
import pytest

from repro.nn import Adam, Parameter, SGD, Tensor, clip_grad_norm


def quadratic_loss(p: Parameter):
    """(p - 3)^2 summed — minimum at 3."""
    return ((p - 3.0) ** 2.0).sum()


class TestSGD:
    def test_descends(self):
        p = Parameter(np.zeros(4))
        opt = SGD([p], lr=0.1)
        for _ in range(200):
            opt.zero_grad()
            quadratic_loss(p).backward()
            opt.step()
        np.testing.assert_allclose(p.data, 3.0, atol=1e-3)

    def test_momentum_accelerates(self):
        def run(momentum):
            p = Parameter(np.zeros(1))
            opt = SGD([p], lr=0.01, momentum=momentum)
            for _ in range(50):
                opt.zero_grad()
                quadratic_loss(p).backward()
                opt.step()
            return abs(p.data[0] - 3.0)

        assert run(0.9) < run(0.0)

    def test_rejects_bad_momentum(self):
        with pytest.raises(ValueError):
            SGD([Parameter(np.zeros(1))], lr=0.1, momentum=1.0)


class TestZeroGrad:
    def test_optimizer_zero_grad_keeps_the_gradient_arrays(self):
        """``opt.zero_grad()`` zeroes in place (an update loop re-uses one
        array per parameter instead of freeing and re-allocating it every
        iteration); a parameter that never had a gradient stays ``None``,
        and the next backward accumulates to exactly the fresh values."""
        a, b = Parameter(np.arange(4.0)), Parameter(np.ones(2))
        opt = SGD([a, b], lr=0.1)
        quadratic_loss(a).backward()
        first = a.grad
        expected = first.copy()
        opt.zero_grad()
        assert a.grad is first and not a.grad.any()
        assert b.grad is None
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
        rows once touched keep decaying through their ``m`` and ``v``."""
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
            assert opt._rows[0] == max(extents[:t])
            assert not opt._m[0][opt._rows[0]:].any()

    def test_float32_step_is_bit_identical_to_the_closed_form(self):
        """Moments, work arrays and the step itself stay float32 for
        float32 parameters: no Python scalar in the step widens them."""
        self.test_step_is_bit_identical_to_the_closed_form(np.float32)
        p = Parameter(np.ones((3, 2), dtype=np.float32))
        opt = Adam([p])
        arrays = [*opt._m, *opt._v, *opt._scratch[0]]
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
