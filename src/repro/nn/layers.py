"""Neural-network building blocks over the autodiff tensor.

``Dense`` covers the kernel network, the MLP policies and the value
network, each a :class:`DenseStack` that runs as one tiled tape node;
``conv2d`` / ``max_pool2d`` exist for the LeNet baseline of the Fig. 8
network-architecture comparison (Table IV row 4).  Convolution is
implemented with im2col so the inner loop is a single matmul, per the
vectorise-first guide idiom; its backward scatters through the same window
geometry.
"""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np

from .ragged import RaggedRows
from .tensor import Parameter, Tensor, _GradMode, matmul, row_sum

__all__ = [
    "Module", "Dense", "DenseStack", "dense_stack",
    "conv2d", "max_pool2d", "Conv2d", "Flatten",
]

#: The dtype networks are created in.  Weights are drawn in float64 as
#: they always were and rounded, so a seed still names the same network;
#: float64 networks come from :meth:`Module.astype`, not from a setting.
_CREATE_DTYPE = np.float32


class Module:
    """Base class with recursive parameter discovery and (de)serialisation."""

    def parameters(self) -> list[Parameter]:
        params: list[Parameter] = []
        seen: set[int] = set()
        for value in self.__dict__.values():
            params.extend(_collect(value, seen))
        return params

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.zero_grad()

    def num_parameters(self) -> int:
        return sum(p.size for p in self.parameters())

    @property
    def dtype(self) -> np.dtype:
        """The parameters' dtype (they share one: created alike, cast
        together by :meth:`astype`)."""
        return self.parameters()[0].data.dtype

    def astype(self, dtype) -> "Module":
        """Cast every parameter and return ``self`` — the way to a float64
        network.  Gradients are dropped.  Cast before building an
        optimizer: once its arena holds the parameters (their ``data`` is
        a view), a cast would leave the optimizer stepping the old
        weights, so it raises instead."""
        params = self.parameters()
        if any(p.data.base is not None for p in params):
            raise ValueError(
                "cannot cast parameters an optimizer holds; cast before building it"
            )
        for p in params:
            p.data = p.data.astype(dtype)
            p.grad = None
        return self

    # --- persistence ----------------------------------------------------
    def state_dict(self) -> dict[str, np.ndarray]:
        return {f"p{i}": p.data.copy() for i, p in enumerate(self.parameters())}

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        params = self.parameters()
        if len(state) != len(params):
            raise ValueError(
                f"state has {len(state)} arrays but model has {len(params)} parameters"
            )
        for i, p in enumerate(params):
            arr = np.asarray(state[f"p{i}"])
            if arr.shape != p.data.shape:
                raise ValueError(
                    f"parameter {i}: shape {arr.shape} != expected {p.data.shape}"
                )
            # in place, in the parameter's dtype, not the file's: float64
            # checkpoints load into float32 networks, and a parameter an
            # optimizer holds stays a view of its arena
            p.data[...] = arr

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)

    def forward(self, *args, **kwargs):  # pragma: no cover - abstract
        raise NotImplementedError


def _collect(value, seen: set[int]) -> Iterator[Parameter]:
    if isinstance(value, Parameter):
        if id(value) not in seen:
            seen.add(id(value))
            yield value
    elif isinstance(value, Module):
        for p in value.parameters():
            if id(p) not in seen:
                seen.add(id(p))
                yield p
    elif isinstance(value, (list, tuple)):
        for item in value:
            yield from _collect(item, seen)


_ACTIVATIONS = {
    "relu": lambda t: t.relu(),
    "tanh": lambda t: t.tanh(),
    "identity": lambda t: t,
}


#: what the fused :class:`Dense` node runs, in the operation order of the
#: Tensor ops above (its test oracle): ``act(z)`` overwrites ``z`` with the
#: output, ``dact(g, out)`` scales a gradient in place by the derivative,
#: read off the output
_FUSED = {
    "relu": (lambda z: np.maximum(z, 0.0, out=z),
             lambda g, out: np.multiply(g, out > 0.0, out=g)),
    "tanh": (lambda z: np.tanh(z, out=z),
             lambda g, out: np.multiply(g, 1.0 - out**2, out=g)),
    "identity": (lambda z: z, lambda g, out: g),
}

#: a row tile of :func:`dense_stack` holds at most this many bytes of one
#: layer's output: small enough that a tile's activations and gradients
#: stay in L2 from one layer to the next (1 024-4 096 kernel rows measured
#: alike), large enough that every product stays a GEMM
_TILE_BYTES = 512 << 10


def dense_stack(layers: "Sequence[Dense]", x) -> Tensor:
    """``layers`` applied in order to the rows of ``x``, as one tape node.

    A tile is as many rows as fit ``_TILE_BYTES`` of the widest layer
    output.  The forward walks
    the rows tile by tile: each layer multiplies straight into its
    output's slice, then adds its bias and applies its activation there,
    in place.  The backward walks the same tiles in reverse and sums each
    ``dW`` / ``db`` over them.

    A batch of at most one tile (acting, serving, evaluation) runs the
    per-:class:`Dense` arithmetic bit for bit.  Past one tile every output
    row is still its own product; only the weight and bias gradients are
    summed in another order.  Every product goes through
    :func:`~repro.nn.tensor.matmul`, so an output row depends on its input
    row alone, never on the batch around it — a one-column head included.  Without a tape (:class:`no_grad`) the hidden
    activations live in one tile's worth of scratch.
    """
    x = x if isinstance(x, Tensor) else Tensor(x)
    if x.data.ndim != 2:
        raise ValueError(f"Dense takes a 2-D input, got {x.shape}")
    n = len(x.data)
    dtype = np.result_type(x.data, layers[0].weight.data)
    widest = max(layer.weight.data.shape[1] for layer in layers)
    tile = max(1, _TILE_BYTES // (widest * dtype.itemsize))
    tiles = [(r0, min(r0 + tile, n)) for r0 in range(0, n, tile)] or [(0, 0)]
    last = len(layers) - 1
    whole = _GradMode.enabled  # the backward reads every layer's output
    outs = [
        np.empty((n if whole or i == last else min(n, tile),
                  layer.weight.data.shape[1]), dtype)
        for i, layer in enumerate(layers)
    ]
    for r0, r1 in tiles:
        h = x.data[r0:r1]
        for i, layer in enumerate(layers):
            z = outs[i][r0:r1] if len(outs[i]) == n else outs[i][: r1 - r0]
            matmul(h, layer.weight.data, out=z)
            z += layer.bias.data
            h = _FUSED[layer.activation][0](z)

    def backward(grad: np.ndarray) -> None:
        dws, dbs = [None] * len(layers), [None] * len(layers)
        dx = np.empty_like(x.data) if x.requires_grad else None
        for r0, r1 in reversed(tiles):
            g = grad[r0:r1]
            for i in range(last, -1, -1):
                w = layers[i].weight.data
                _FUSED[layers[i].activation][1](g, outs[i][r0:r1])
                h = outs[i - 1][r0:r1] if i else x.data[r0:r1]
                db, dw = row_sum(g), h.T @ g
                if dws[i] is None:
                    dbs[i], dws[i] = db, dw
                else:
                    dbs[i] += db
                    dws[i] += dw
                if i or dx is not None:
                    # one output column: the product is a broadcast multiply
                    g = g * w.T if w.shape[1] == 1 else g @ w.T
            if dx is not None:
                dx[r0:r1] = g
        for layer, dw, db in zip(layers, dws, dbs):
            layer.bias._accumulate(db)
            layer.weight._accumulate(dw)
        if dx is not None:
            x._accumulate(dx)

    params = [p for layer in layers for p in (layer.weight, layer.bias)]
    return Tensor._from_op(outs[last], (x, *params), backward)


class Dense(Module):
    """Fully-connected layer, ``y = act(x @ W + b)``, as one tape node."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        activation: str = "identity",
        rng: np.random.Generator | None = None,
    ):
        if in_features <= 0 or out_features <= 0:
            raise ValueError("feature counts must be positive")
        if activation not in _ACTIVATIONS:
            raise ValueError(
                f"unknown activation {activation!r}; known: {sorted(_ACTIVATIONS)}"
            )
        rng = rng or np.random.default_rng()
        if activation == "relu":  # He init
            scale = np.sqrt(2.0 / in_features)
        else:  # Xavier/Glorot
            scale = np.sqrt(1.0 / in_features)
        self.weight = Parameter(
            rng.normal(0.0, scale, size=(in_features, out_features)).astype(_CREATE_DTYPE)
        )
        self.bias = Parameter(np.zeros(out_features, dtype=_CREATE_DTYPE))
        self.activation = activation

    def forward(self, x: "Tensor | RaggedRows") -> Tensor:
        """Product, bias and activation share one buffer; the one VJP scales
        the gradient it owns in place and hands out ``db``, ``dW``, ``dx``.
        A plain input is a one-layer :func:`dense_stack`."""
        if not isinstance(x, RaggedRows):
            return dense_stack((self,), x)
        w, b = self.weight, self.bias
        act, dact = _FUSED[self.activation]
        out = x.product(w.data)
        out += b.data
        out = act(out)

        def backward(grad: np.ndarray) -> None:
            dact(grad, out)
            b._accumulate(row_sum(grad))
            x.add_weight_grad(grad, w)

        return Tensor._from_op(out, (w, b), backward)


class DenseStack(Module):
    """:class:`Dense` layers applied in order.  Fed a plain tensor, the
    stack is one tiled tape node (:func:`dense_stack`); a
    :class:`RaggedRows` input passes the first layer's own node first."""

    def __init__(self, *modules: "Dense"):
        self.modules = list(modules)

    def forward(self, x: "Tensor | RaggedRows") -> Tensor:
        layers = self.modules
        if isinstance(x, RaggedRows):
            x, layers = layers[0](x), layers[1:]
        return dense_stack(layers, x) if layers else x


# ---------------------------------------------------------------------------
# convolution (for the LeNet comparison network)
# ---------------------------------------------------------------------------
def _im2col(x: np.ndarray, kh: int, kw: int, pad: int) -> tuple[np.ndarray, int, int]:
    """(N,C,H,W) -> (N, C*kh*kw, Ho*Wo) windows, stride 1."""
    if pad:
        x = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    n, c, h, w = x.shape
    ho, wo = h - kh + 1, w - kw + 1
    windows = np.lib.stride_tricks.sliding_window_view(x, (kh, kw), axis=(2, 3))
    # windows: (N, C, Ho, Wo, kh, kw) -> (N, C, kh, kw, Ho, Wo)
    cols = windows.transpose(0, 1, 4, 5, 2, 3).reshape(n, c * kh * kw, ho * wo)
    return np.ascontiguousarray(cols), ho, wo


def _col2im(
    dcols: np.ndarray,
    x_shape: tuple[int, int, int, int],
    kh: int,
    kw: int,
    pad: int,
    ho: int,
    wo: int,
) -> np.ndarray:
    """Scatter-add gradient of im2col back to the (padded) input."""
    n, c, h, w = x_shape
    dxp = np.zeros((n, c, h + 2 * pad, w + 2 * pad), dtype=dcols.dtype)
    d = dcols.reshape(n, c, kh, kw, ho, wo)
    for i in range(kh):
        for j in range(kw):
            dxp[:, :, i : i + ho, j : j + wo] += d[:, :, i, j]
    if pad:
        return dxp[:, :, pad:-pad, pad:-pad]
    return dxp


def conv2d(x: Tensor, weight: Tensor, bias: Tensor, pad: int = 0) -> Tensor:
    """2-D convolution, stride 1.  x: (N,C,H,W); weight: (F,C,kh,kw)."""
    f, c, kh, kw = weight.shape
    if x.ndim != 4 or x.shape[1] != c:
        raise ValueError(f"input {x.shape} incompatible with weight {weight.shape}")
    cols, ho, wo = _im2col(x.data, kh, kw, pad)  # (N, C*kh*kw, L)
    wmat = weight.data.reshape(f, -1)            # (F, C*kh*kw)
    out_data = np.einsum("fk,nkl->nfl", wmat, cols).reshape(-1, f, ho, wo)
    out_data += bias.data.reshape(1, f, 1, 1)

    def backward(grad: np.ndarray) -> None:
        g = grad.reshape(grad.shape[0], f, ho * wo)  # (N, F, L)
        if bias.requires_grad:
            bias._accumulate(g.sum(axis=(0, 2)))
        if weight.requires_grad:
            dw = np.einsum("nfl,nkl->fk", g, cols).reshape(weight.shape)
            weight._accumulate(dw)
        if x.requires_grad:
            dcols = np.einsum("fk,nfl->nkl", wmat, g)
            x._accumulate(_col2im(dcols, x.data.shape, kh, kw, pad, ho, wo))

    return Tensor._from_op(out_data, (x, weight, bias), backward)


def max_pool2d(x: Tensor, k: int = 2) -> Tensor:
    """Non-overlapping k×k max pooling (trailing rows/cols are dropped)."""
    n, c, h, w = x.shape
    ho, wo = h // k, w // k
    if ho == 0 or wo == 0:
        raise ValueError(f"input {x.shape} too small for {k}x{k} pooling")
    view = x.data[:, :, : ho * k, : wo * k].reshape(n, c, ho, k, wo, k)
    out_data = view.max(axis=(3, 5))
    # Record which element won each window for the backward scatter.
    flat = view.transpose(0, 1, 2, 4, 3, 5).reshape(n, c, ho, wo, k * k)
    winners = flat.argmax(axis=-1)

    def backward(grad: np.ndarray) -> None:
        if not x.requires_grad:
            return
        dflat = np.zeros_like(flat)
        np.put_along_axis(dflat, winners[..., None], grad[..., None], axis=-1)
        dx = np.zeros_like(x.data)
        dx[:, :, : ho * k, : wo * k] = (
            dflat.reshape(n, c, ho, wo, k, k).transpose(0, 1, 2, 4, 3, 5)
        ).reshape(n, c, ho * k, wo * k)
        x._accumulate(dx)

    return Tensor._from_op(out_data, (x,), backward)


class Conv2d(Module):
    """Convolution layer wrapper for :func:`conv2d`."""

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        pad: int = 0,
        activation: str = "relu",
        rng: np.random.Generator | None = None,
    ):
        rng = rng or np.random.default_rng()
        fan_in = in_channels * kernel_size * kernel_size
        scale = np.sqrt(2.0 / fan_in)
        self.weight = Parameter(
            rng.normal(
                0.0, scale, size=(out_channels, in_channels, kernel_size, kernel_size)
            ).astype(_CREATE_DTYPE)
        )
        self.bias = Parameter(np.zeros(out_channels, dtype=_CREATE_DTYPE))
        self.pad = pad
        self.activation = activation

    def forward(self, x: Tensor) -> Tensor:
        return _ACTIVATIONS[self.activation](conv2d(x, self.weight, self.bias, self.pad))


class Flatten(Module):
    """Collapse all but the batch dimension."""

    def forward(self, x: Tensor) -> Tensor:
        return x.reshape(x.shape[0], -1)
