"""Adam (both PPO networks, as in SpinningUp) and global-norm gradient
clipping, which keeps the rare huge-advantage updates of high-variance
traces (PIK-IPLEX) from destroying the policy.

An :class:`Adam` packs its parameters into one *arena* — flat weight,
gradient, ``m``, ``v`` and two work arrays — and each ``.data`` / ``.grad``
becomes a view into it, so zeroing, clipping and stepping are one pass
each.  The largest 2-D parameter is packed last: below the last row its
gradient ever reached ``m = v = g = 0`` and the update is exactly zero,
so only the arena's *live prefix*, ending at that high-water row, is
worked on (≈ 200 of the value net's 896 first-layer rows).
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .tensor import Parameter

__all__ = ["Adam", "clip_grad_norm"]


def clip_grad_norm(params: Sequence[Parameter], max_norm: float) -> float:
    """Scale gradients in place so their global L2 norm, accumulated in
    float64, is <= max_norm; an :class:`Adam`'s own ``params`` are read
    as one slice, its arena's live prefix.  Returns the pre-clip norm
    (useful for training diagnostics)."""
    if max_norm <= 0:
        raise ValueError("max_norm must be positive")
    optimizer = getattr(params, "optimizer", None)
    if optimizer is not None:
        grads = [optimizer._grad[: optimizer._live()]]
    else:
        grads = [p.grad for p in params if p.grad is not None]
    wide = [g.ravel().astype(np.float64, copy=False) for g in grads]
    norm = math.sqrt(sum(float(np.dot(w, w)) for w in wide))
    if norm > max_norm:
        for g in grads:
            g *= max_norm / (norm + 1e-12)
    return norm


class _ArenaParams(tuple):
    """An :class:`Adam`'s parameters, in the order it was given them;
    ``optimizer`` lets :func:`clip_grad_norm` reach the arena."""

    optimizer: "Adam"


class Adam:
    """Adam (Kingma & Ba) with bias correction, over one arena."""

    def __init__(
        self,
        params: Sequence[Parameter],
        lr: float = 1e-3,
        betas: tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-8,
    ):
        params = list(params)
        if not params:
            raise ValueError("optimizer got an empty parameter list")
        if len({id(p) for p in params}) != len(params):
            raise ValueError("optimizer got a parameter twice")
        if lr <= 0:
            raise ValueError("learning rate must be positive")
        b1, b2 = betas
        if not (0.0 <= b1 < 1.0 and 0.0 <= b2 < 1.0):
            raise ValueError("betas must be in [0, 1)")
        dtypes = {p.data.dtype for p in params}
        if len(dtypes) != 1:
            raise ValueError(f"parameters of one optimizer share a dtype, got {dtypes}")
        self.lr, self.b1, self.b2, self.eps = lr, b1, b2, eps
        self._t = 0

        wide = [p for p in params if p.data.ndim == 2]
        tail = max(wide, key=lambda p: p.data.size) if wide else None
        layout = [p for p in params if p is not tail] + ([tail] if wide else [])
        size = sum(p.data.size for p in params)
        dtype = dtypes.pop()
        self._data, self._a, self._b = (np.empty(size, dtype) for _ in range(3))
        self._grad, self._m, self._v = (np.zeros(size, dtype) for _ in range(3))
        start = 0
        for p in layout:
            end = start + p.data.size
            data = self._data[start:end].reshape(p.data.shape)
            grad = self._grad[start:end].reshape(p.data.shape)
            data[...] = p.data
            if p.grad is not None:
                grad[...] = p.grad
            p.data, p.grad = data, grad
            start = end
        self.params = _ArenaParams(params)
        self.params.optimizer = self
        self._grads = [p.grad for p in params]
        # the live prefix ends after the first ``_hi`` rows of the last
        # parameter's gradient; without a 2-D parameter it is everything
        self._tail = tail.grad if wide else None
        self._hi = 0

    def _live(self) -> int:
        """Adopt gradients assigned from outside the arena (``None`` is a
        zero gradient), move the high-water row, and return the length of
        the live prefix: past it every gradient, ``m`` and ``v`` is zero."""
        for p, grad in zip(self.params, self._grads):
            if p.grad is not grad:
                grad[...] = 0.0 if p.grad is None else p.grad
                p.grad = grad
        tail, hi = self._tail, self._hi
        if tail is None:
            return self._grad.size
        if hi < len(tail) and tail[hi:].any():
            self._hi = hi + int(np.flatnonzero(tail[hi:].any(axis=1))[-1]) + 1
        return self._grad.size - (len(tail) - self._hi) * tail.shape[1]

    def zero_grad(self) -> None:
        """Zero every gradient in place, pointing each ``.grad`` assigned
        from outside back at its arena view."""
        for p, grad in zip(self.params, self._grads):
            p.grad = grad
        self._grad.fill(0.0)

    def step(self) -> None:
        """``p -= lr * (m / bc1) / (sqrt(v / bc2) + eps)``, evaluated in
        that operation order (bit-identical to the closed form) with every
        intermediate written into the work arrays, once over the live
        prefix."""
        live = self._live()
        self._t += 1
        bc1 = 1.0 - self.b1**self._t
        bc2 = 1.0 - self.b2**self._t
        g, w, m, v, a, b = (
            x[:live] for x in (self._grad, self._data, self._m, self._v, self._a, self._b)
        )
        m *= self.b1
        np.multiply(g, 1.0 - self.b1, out=a)
        m += a
        v *= self.b2
        np.multiply(g, 1.0 - self.b2, out=a)
        a *= g
        v += a
        np.divide(m, bc1, out=a)
        a *= self.lr
        np.divide(v, bc2, out=b)
        np.sqrt(b, out=b)
        b += self.eps
        a /= b
        w -= a
