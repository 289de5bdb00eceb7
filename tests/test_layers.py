"""Unit tests for NN layers: Dense, Conv2d, pooling, persistence."""

import numpy as np
import pytest

from repro.nn import (
    Conv2d,
    Dense,
    Flatten,
    Module,
    Parameter,
    RaggedRows,
    Sequential,
    Tensor,
    no_grad,
    ragged_matmul,
)
from repro.nn import KernelPolicy, MLPPolicy, gradcheck
from repro.nn import layers
from repro.nn.layers import _ACTIVATIONS, _TILE_BYTES, conv2d, dense_stack, max_pool2d

from .test_tensor import numerical_grad


class TestDense:
    def test_output_shape(self):
        layer = Dense(4, 8, rng=np.random.default_rng(0))
        out = layer(Tensor(np.ones((5, 4))))
        assert out.shape == (5, 8)

    def test_identity_activation_is_affine(self):
        layer = Dense(3, 2, rng=np.random.default_rng(0))
        x = np.ones((1, 3))
        expected = x @ layer.weight.data + layer.bias.data
        np.testing.assert_allclose(layer(Tensor(x)).numpy(), expected)

    def test_relu_activation_nonnegative(self):
        layer = Dense(6, 6, activation="relu", rng=np.random.default_rng(0))
        out = layer(Tensor(np.random.default_rng(1).normal(size=(10, 6))))
        assert (out.numpy() >= 0).all()

    def test_unknown_activation(self):
        with pytest.raises(ValueError, match="unknown activation"):
            Dense(3, 3, activation="swish")

    def test_rejects_bad_dims(self):
        with pytest.raises(ValueError):
            Dense(0, 3)

    def test_gradients_flow(self):
        layer = Dense(3, 2, activation="tanh", rng=np.random.default_rng(0))
        layer(Tensor(np.ones((4, 3)))).sum().backward()
        assert layer.weight.grad is not None
        assert layer.bias.grad is not None


class TestFusedDense:
    """``Dense`` records one tape node; the public ops it replaced —
    ``@`` / ``ragged_matmul``, broadcast ``+``, ``relu`` / ``tanh`` /
    ``sigmoid`` — are the oracle, bit for bit."""

    @staticmethod
    def problem(ragged):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(64, 12))
        if ragged:  # non-zero row prefixes of every width, some rows empty
            for i, extent in enumerate(rng.integers(0, 13, size=64)):
                x[i, extent:] = 0.0
        return x, rng.normal(size=(64, 7))

    @pytest.mark.parametrize("activation", sorted(_ACTIVATIONS))
    @pytest.mark.parametrize("kind", ["constant", "requires-grad", "ragged"])
    def test_equals_the_primitive_composition_bitwise(self, activation, kind):
        x, upstream = self.problem(kind == "ragged")
        layer = Dense(12, 7, activation=activation, rng=np.random.default_rng(1))
        layer.bias.data = np.random.default_rng(2).normal(size=7)
        w, b = Parameter(layer.weight.data.copy()), Parameter(layer.bias.data.copy())

        def source():
            if kind == "ragged":
                return RaggedRows.from_dense(x)
            return Tensor(x.copy(), requires_grad=kind == "requires-grad")

        fused_in, oracle_in = source(), source()
        fused = layer(fused_in)
        product = (ragged_matmul(oracle_in, w) if kind == "ragged"
                   else oracle_in @ w)
        oracle = _ACTIVATIONS[activation](product + b)
        assert fused.numpy().tobytes() == oracle.numpy().tobytes()

        fused.backward(upstream)
        oracle.backward(upstream)
        assert layer.weight.grad.tobytes() == w.grad.tobytes()
        assert layer.bias.grad.tobytes() == b.grad.tobytes()
        if kind == "requires-grad":
            assert fused_in.grad.tobytes() == oracle_in.grad.tobytes()
        elif kind == "constant":
            assert fused_in.grad is None

    @pytest.mark.parametrize("ragged", [False, True])
    def test_no_grad_forward_is_the_same_function_and_records_nothing(self, ragged):
        x, _ = self.problem(ragged)
        layer = Dense(12, 7, activation="tanh", rng=np.random.default_rng(1))
        source = RaggedRows.from_dense(x) if ragged else Tensor(x)
        recorded = layer(source)
        with no_grad():
            out = layer(source)
        assert out.numpy().tobytes() == recorded.numpy().tobytes()
        assert not out.requires_grad and out._parents == ()
        assert out._backward is None

    def test_rejects_non_matrix_input(self):
        with pytest.raises(ValueError, match="2-D"):
            Dense(3, 2)(Tensor(np.ones(3)))


def per_dense_oracle(dense_layers, x):
    """The stack as the public ops compose it, layer by layer: ``act(h @
    W + b)`` on copies of the weights.  Returns ``(out, params)``."""
    params = [(Parameter(d.weight.data.copy()), Parameter(d.bias.data.copy()))
              for d in dense_layers]
    h = x
    for layer, (w, b) in zip(dense_layers, params):
        h = _ACTIVATIONS[layer.activation](h @ w + b)
    return h, [p for pair in params for p in pair]


def stack_params(dense_layers):
    return [p for d in dense_layers for p in (d.weight, d.bias)]


class TestDenseStack:
    """A :class:`DenseStack` fed a plain tensor is one tape node that
    walks its rows in tiles.  Inside one tile it is the per-``Dense``
    composition bit for bit; across tiles, the same function to
    round-off; without a tape, no node at all."""

    @staticmethod
    def stack(name):
        """A preset's stack, its input width and its widest layer output."""
        if name == "kernel":
            return KernelPolicy(7, seed=3).kernel, 7, 32
        return MLPPolicy(16, 7, hidden=(128, 128, 128), seed=3).mlp, 16 * 7, 128

    @pytest.mark.parametrize("name", ["kernel", "mlp_v1"])
    def test_one_tile_is_the_per_dense_composition_bitwise(self, name):
        stack, d, widest = self.stack(name)
        rng = np.random.default_rng(0)
        n = _TILE_BYTES // (widest * 4)  # exactly one float32 tile
        x = rng.normal(size=(n, d)).astype(np.float32)
        fused_in = Tensor(x.copy(), requires_grad=True)
        oracle_in = Tensor(x.copy(), requires_grad=True)
        fused = stack(fused_in)
        oracle, params = per_dense_oracle(stack.modules, oracle_in)
        assert fused._parents[1:] == tuple(stack_params(stack.modules))
        assert fused.numpy().tobytes() == oracle.numpy().tobytes()

        upstream = rng.normal(size=fused.shape).astype(np.float32)
        fused.backward(upstream)
        oracle.backward(upstream)
        for got, want in zip(stack_params(stack.modules), params):
            assert got.grad.tobytes() == want.grad.tobytes()
        assert fused_in.grad.tobytes() == oracle_in.grad.tobytes()

    @pytest.mark.parametrize("extra", [-1, 0, 1, "2T+3"])
    def test_tiles_are_the_untiled_function(self, extra, monkeypatch):
        stack, d, widest = self.stack("kernel")
        tile = 16
        monkeypatch.setattr(layers, "_TILE_BYTES", tile * widest * 4)
        n = 2 * tile + 3 if extra == "2T+3" else tile + extra
        rng = np.random.default_rng(1)
        x = rng.normal(size=(n, d)).astype(np.float32)
        fused_in = Tensor(x.copy(), requires_grad=True)
        oracle_in = Tensor(x.copy(), requires_grad=True)
        fused = stack(fused_in)
        oracle, params = per_dense_oracle(stack.modules, oracle_in)
        np.testing.assert_allclose(fused.numpy(), oracle.numpy(),
                                   rtol=1e-5, atol=1e-6)

        upstream = rng.normal(size=fused.shape).astype(np.float32)
        fused.backward(upstream)
        oracle.backward(upstream)
        for got, want in zip(stack_params(stack.modules), params):
            assert got.grad.dtype == np.float32
            np.testing.assert_allclose(got.grad, want.grad, rtol=1e-5, atol=1e-5)
        np.testing.assert_allclose(fused_in.grad, oracle_in.grad,
                                   rtol=1e-5, atol=1e-6)

    def test_gradcheck_across_a_tile_boundary(self, monkeypatch):
        shapes = [(6, 5, "tanh"), (5, 3, "relu"), (3, 1, "sigmoid")]
        widest = 5
        # 4 float64 rows per tile (8 float32 rows for the float32 twin)
        monkeypatch.setattr(layers, "_TILE_BYTES", 4 * widest * 8)
        rng = np.random.default_rng(2)
        built = [Dense(i, o, activation=a, rng=rng) for i, o, a in shapes]

        def op(x, *params):
            for layer, w, b in zip(built, params[::2], params[1::2]):
                layer.weight, layer.bias = w, b
            return dense_stack(built, x)

        arrays = [rng.normal(size=(11, 6))]
        for layer in built:
            arrays += [layer.weight.data.astype(np.float64),
                       rng.normal(size=layer.bias.data.shape) * 0.1]
        gradcheck(op, *arrays)

    @pytest.mark.parametrize("name", ["kernel", "mlp_v1"])
    def test_no_grad_keeps_no_tape_node(self, name, monkeypatch):
        stack, d, widest = self.stack(name)
        monkeypatch.setattr(layers, "_TILE_BYTES", 8 * widest * 4)
        x = np.random.default_rng(3).normal(size=(21, d)).astype(np.float32)
        recorded = stack(Tensor(x))
        with no_grad():
            out = stack(Tensor(x))
        assert out.numpy().tobytes() == recorded.numpy().tobytes()
        assert not out.requires_grad and out._parents == ()
        assert out._backward is None


class TestModuleMechanics:
    def test_parameter_discovery(self):
        net = Sequential(Dense(3, 4), Dense(4, 2))
        assert len(net.parameters()) == 4  # 2 weights + 2 biases

    def test_num_parameters(self):
        net = Dense(3, 4)
        assert net.num_parameters() == 3 * 4 + 4

    def test_zero_grad(self):
        net = Dense(3, 2)
        net(Tensor(np.ones((1, 3)))).sum().backward()
        net.zero_grad()
        assert all(p.grad is None for p in net.parameters())

    def test_state_dict_round_trip(self):
        a = Dense(3, 2, rng=np.random.default_rng(0))
        b = Dense(3, 2, rng=np.random.default_rng(99))
        b.load_state_dict(a.state_dict())
        x = Tensor(np.ones((1, 3)))
        np.testing.assert_allclose(a(x).numpy(), b(x).numpy())

    def test_state_dict_shape_mismatch(self):
        a, b = Dense(3, 2), Dense(3, 5)
        with pytest.raises(ValueError):
            b.load_state_dict(a.state_dict())

    def test_networks_are_created_float32_from_the_same_draws(self):
        """A seed names the network it always did: the float64 draws,
        rounded once."""
        layer = Dense(5, 3, activation="relu", rng=np.random.default_rng(7))
        draws = np.random.default_rng(7).normal(0.0, np.sqrt(2.0 / 5), size=(5, 3))
        assert layer.dtype == layer.bias.data.dtype == np.float32
        np.testing.assert_array_equal(layer.weight.data, draws.astype(np.float32))

    def test_astype_casts_parameters_in_place(self):
        net = Sequential(Dense(3, 4, activation="tanh"), Dense(4, 2))
        net(Tensor(np.ones((1, 3)))).sum().backward()
        params = net.parameters()
        assert net.astype(np.float64) is net and net.dtype == np.float64
        assert net.parameters() == params  # the same Parameter objects
        assert all(p.data.dtype == np.float64 and p.grad is None for p in params)
        out = net(Tensor(np.ones((1, 3), dtype=np.float32)))
        assert out.data.dtype == np.float64

    def test_load_state_dict_casts_to_the_parameter_dtype(self):
        """What is loaded takes the dtype of the network it is loaded
        into, in both directions, and never aliases the source."""
        wide = Dense(3, 2, rng=np.random.default_rng(0)).astype(np.float64)
        wide.weight.data += 1e-12
        narrow = Dense(3, 2, rng=np.random.default_rng(1))
        narrow.load_state_dict(wide.state_dict())
        assert narrow.dtype == np.float32
        np.testing.assert_array_equal(
            narrow.weight.data, wide.weight.data.astype(np.float32)
        )
        state = narrow.state_dict()
        wide.load_state_dict(state)
        assert wide.dtype == np.float64
        assert not np.shares_memory(wide.weight.data, state["p0"])
        narrow.load_state_dict(state)
        assert not np.shares_memory(narrow.weight.data, state["p0"])

    def test_shared_parameter_counted_once(self):
        class Tied(Module):
            def __init__(self):
                self.p = Parameter(np.ones(3))
                self.alias = self.p

        assert len(Tied().parameters()) == 1


class TestConv2d:
    def test_forward_shape(self):
        x = Tensor(np.random.default_rng(0).normal(size=(2, 1, 8, 6)))
        layer = Conv2d(1, 3, kernel_size=3, pad=1, rng=np.random.default_rng(0))
        assert layer(x).shape == (2, 3, 8, 6)

    def test_forward_matches_manual(self):
        """3x3 conv with identity-ish kernel checked against direct compute."""
        rng = np.random.default_rng(0)
        x = rng.normal(size=(1, 1, 5, 5))
        w = Parameter(rng.normal(size=(1, 1, 3, 3)))
        b = Parameter(np.zeros(1))
        out = conv2d(Tensor(x), w, b, pad=0).numpy()
        # direct correlation
        expected = np.zeros((1, 1, 3, 3))
        for i in range(3):
            for j in range(3):
                expected[0, 0, i, j] = (x[0, 0, i : i + 3, j : j + 3] * w.data[0, 0]).sum()
        np.testing.assert_allclose(out, expected, rtol=1e-10)

    def test_gradients_numerical(self):
        rng = np.random.default_rng(3)
        x_val = rng.normal(size=(2, 2, 5, 4))
        w = Parameter(rng.normal(size=(3, 2, 3, 3)) * 0.1)
        b = Parameter(rng.normal(size=3) * 0.1)
        x = Parameter(x_val.copy())
        conv2d(x, w, b, pad=1).sum().backward()

        def f_w(arr):
            return float(conv2d(Tensor(x_val), Tensor(arr), Tensor(b.data), pad=1).sum().numpy())

        num_w = numerical_grad(f_w, w.data.copy())
        np.testing.assert_allclose(w.grad, num_w, rtol=1e-4, atol=1e-6)

        def f_x(arr):
            return float(conv2d(Tensor(arr), Tensor(w.data), Tensor(b.data), pad=1).sum().numpy())

        num_x = numerical_grad(f_x, x_val.copy())
        np.testing.assert_allclose(x.grad, num_x, rtol=1e-4, atol=1e-6)

    def test_incompatible_channels(self):
        x = Tensor(np.ones((1, 2, 4, 4)))
        w = Parameter(np.ones((1, 3, 3, 3)))
        with pytest.raises(ValueError):
            conv2d(x, w, Parameter(np.zeros(1)))


class TestMaxPool:
    def test_forward(self):
        x = Tensor(np.arange(16.0).reshape(1, 1, 4, 4))
        out = max_pool2d(x, 2)
        np.testing.assert_allclose(out.numpy()[0, 0], [[5, 7], [13, 15]])

    def test_backward_routes_to_winners(self):
        x = Parameter(np.arange(16.0).reshape(1, 1, 4, 4))
        max_pool2d(x, 2).sum().backward()
        expected = np.zeros((4, 4))
        for i, j in [(1, 1), (1, 3), (3, 1), (3, 3)]:
            expected[i, j] = 1.0
        np.testing.assert_allclose(x.grad[0, 0], expected)

    def test_trailing_rows_dropped(self):
        x = Tensor(np.ones((1, 1, 5, 5)))
        assert max_pool2d(x, 2).shape == (1, 1, 2, 2)

    def test_too_small_input(self):
        with pytest.raises(ValueError):
            max_pool2d(Tensor(np.ones((1, 1, 1, 4))), 2)


class TestFlatten:
    def test_shape(self):
        out = Flatten()(Tensor(np.ones((2, 3, 4))))
        assert out.shape == (2, 12)
