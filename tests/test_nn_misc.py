"""Remaining NN-stack corners: tensor dunder behaviour, DenseStack, misc."""

import numpy as np
import pytest

from repro.nn import (
    Dense,
    DenseStack,
    KernelPolicy,
    Parameter,
    Tensor,
    ValueMLP,
    no_grad,
)


class TestTensorDunders:
    def test_len(self):
        assert len(Tensor(np.zeros((5, 2)))) == 5

    def test_repr_mentions_grad(self):
        assert "grad" in repr(Parameter(np.zeros(2)))
        assert "grad" not in repr(Tensor(np.zeros(2)))

    def test_item_requires_scalar(self):
        assert Tensor(np.array(3.5)).item() == 3.5

    def test_radd_rmul_with_arrays(self):
        t = Tensor(np.ones(3))
        out = np.array([1.0, 2.0, 3.0]) + t
        assert isinstance(out, Tensor)
        np.testing.assert_allclose(out.numpy(), [2.0, 3.0, 4.0])
        out2 = 2.0 * t
        np.testing.assert_allclose(out2.numpy(), [2.0, 2.0, 2.0])

    def test_rtruediv(self):
        t = Tensor(np.array([2.0, 4.0]))
        np.testing.assert_allclose((8.0 / t).numpy(), [4.0, 2.0])

    def test_rsub(self):
        t = Tensor(np.array([1.0]))
        np.testing.assert_allclose((10.0 - t).numpy(), [9.0])

    def test_pow_rejects_tensor_exponent(self):
        with pytest.raises(TypeError):
            Tensor(np.ones(2)) ** Tensor(np.ones(2))

    def test_size_ndim(self):
        t = Tensor(np.zeros((2, 3)))
        assert t.size == 6 and t.ndim == 2


class TestNoGradSemantics:
    def test_nested_restores(self):
        t = Parameter(np.ones(2))
        with no_grad():
            with no_grad():
                pass
            inner = (t * 2.0).sum()
            assert not inner.requires_grad
        outer = (t * 2.0).sum()
        assert outer.requires_grad

    def test_parameter_created_under_no_grad_still_trains(self):
        with no_grad():
            p = Parameter(np.ones(2))
        assert p.requires_grad


class TestSequential:
    """:class:`DenseStack` applies its layers in sequence."""

    def test_empty_sequential_is_identity(self):
        x = Tensor(np.ones(3))
        assert DenseStack()(x) is x

    def test_composition_order(self):
        rng = np.random.default_rng(0)
        a, b = Dense(2, 2, rng=rng), Dense(2, 2, rng=rng)
        x = Tensor(np.ones((1, 2)))
        np.testing.assert_allclose(
            DenseStack(a, b)(x).numpy(), b(a(x)).numpy()
        )


class TestNetworkDeterminism:
    def test_same_seed_same_weights(self):
        a = KernelPolicy(7, seed=5)
        b = KernelPolicy(7, seed=5)
        for pa, pb in zip(a.parameters(), b.parameters()):
            np.testing.assert_allclose(pa.data, pb.data)

    def test_different_seed_different_weights(self):
        a = KernelPolicy(7, seed=5)
        b = KernelPolicy(7, seed=6)
        assert any(
            not np.allclose(pa.data, pb.data)
            for pa, pb in zip(a.parameters(), b.parameters())
        )

    def test_value_mlp_batch_consistency(self):
        net = ValueMLP(8, 7, seed=0)
        obs = np.random.default_rng(1).random((4, 8, 7))
        batch = net(obs).numpy()
        singles = np.array([float(net(obs[i]).numpy()[0]) for i in range(4)])
        np.testing.assert_allclose(batch, singles, rtol=1e-12)
