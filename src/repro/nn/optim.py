"""Optimizers: Adam (used for both PPO networks, as in SpinningUp) and SGD.

Includes global-norm gradient clipping, which keeps the rare huge-advantage
updates of high-variance traces (PIK-IPLEX) from destroying the policy.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .tensor import Parameter

__all__ = ["Adam", "SGD", "clip_grad_norm"]


def clip_grad_norm(params: Sequence[Parameter], max_norm: float) -> float:
    """Scale gradients in place so their global L2 norm is <= max_norm.

    Returns the pre-clip norm (useful for training diagnostics).
    """
    if max_norm <= 0:
        raise ValueError("max_norm must be positive")
    total = 0.0
    for p in params:
        if p.grad is not None:
            total += float((p.grad * p.grad).sum())
    norm = math.sqrt(total)
    if norm > max_norm:
        scale = max_norm / (norm + 1e-12)
        for p in params:
            if p.grad is not None:
                p.grad *= scale
    return norm


class _Optimizer:
    def __init__(self, params: Sequence[Parameter], lr: float):
        params = list(params)
        if not params:
            raise ValueError("optimizer got an empty parameter list")
        if lr <= 0:
            raise ValueError("learning rate must be positive")
        self.params = params
        self.lr = lr

    def zero_grad(self) -> None:
        """Zero the gradients in place, keeping their arrays: dropping
        them made every update iteration free and re-allocate each
        weight-sized gradient, which glibc could turn into a trim +
        re-fault of megabytes per iteration (ROADMAP "Spend the budget").
        ``0 + g`` accumulates to the same values as a fresh copy of ``g``.
        """
        for p in self.params:
            if p.grad is not None:
                p.grad.fill(0.0)

    def step(self) -> None:  # pragma: no cover - abstract
        raise NotImplementedError


class SGD(_Optimizer):
    """Plain stochastic gradient descent with optional momentum."""

    def __init__(self, params: Sequence[Parameter], lr: float, momentum: float = 0.0):
        super().__init__(params, lr)
        if not 0.0 <= momentum < 1.0:
            raise ValueError("momentum must be in [0, 1)")
        self.momentum = momentum
        self._velocity = [np.zeros_like(p.data) for p in self.params]

    def step(self) -> None:
        for p, v in zip(self.params, self._velocity):
            if p.grad is None:
                continue
            v *= self.momentum
            v -= self.lr * p.grad
            p.data += v


class Adam(_Optimizer):
    """Adam (Kingma & Ba) with bias correction."""

    def __init__(
        self,
        params: Sequence[Parameter],
        lr: float = 1e-3,
        betas: tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-8,
    ):
        super().__init__(params, lr)
        b1, b2 = betas
        if not (0.0 <= b1 < 1.0 and 0.0 <= b2 < 1.0):
            raise ValueError("betas must be in [0, 1)")
        self.b1, self.b2, self.eps = b1, b2, eps
        self._m = [np.zeros_like(p.data) for p in self.params]
        self._v = [np.zeros_like(p.data) for p in self.params]
        # two work arrays per parameter: a step allocates nothing
        self._scratch = [
            (np.empty_like(p.data), np.empty_like(p.data)) for p in self.params
        ]
        # leading rows of a 2-D parameter that ever had a gradient (monotone)
        self._rows = [0 if p.data.ndim == 2 else None for p in self.params]
        self._t = 0

    def step(self) -> None:
        """``p -= lr * (m / bc1) / (sqrt(v / bc2) + eps)``, evaluated in
        that operation order (bit-identical to the closed form) with every
        intermediate written into the parameter's work arrays.  A 2-D
        parameter is stepped down to the last row whose gradient was ever
        non-zero — below it ``m = v = g = 0`` and the update is exactly
        zero (most of the value net's ragged first layer); a dense
        gradient covers every row at once and is never scanned again."""
        self._t += 1
        bc1 = 1.0 - self.b1**self._t
        bc2 = 1.0 - self.b2**self._t
        for i, (p, m, v, (a, b)) in enumerate(
            zip(self.params, self._m, self._v, self._scratch)
        ):
            g, w = p.grad, p.data
            if g is None:
                continue
            hi = self._rows[i]
            if hi is not None and hi < len(g):
                if g[hi:].any():
                    hi += int(np.flatnonzero(g[hi:].any(axis=1))[-1]) + 1
                    self._rows[i] = hi
                g, w, m, v, a, b = (x[:hi] for x in (g, w, m, v, a, b))
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
