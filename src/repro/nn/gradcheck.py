"""Finite-difference gradient checking for the autodiff engine.

Every hand-written VJP in :mod:`repro.nn.tensor` is validated against
central differences by ``tests/test_gradcheck.py`` through this utility.
It lives in the package (not the test tree) so new ops can be checked
interactively and other suites can reuse it.

The check projects the (possibly non-scalar) op output onto a fixed
random vector before differentiating — a plain ``sum()`` reduction can
miss sign errors that cancel across output elements, a weighted
projection cannot.

Finite differences need float64 (an ``eps`` of 1e-6 is below float32
resolution), so the check differentiates float64 inputs whatever the
caller hands it.  The float32 the networks run in is covered by a twin:
the same op on float32 copies of the inputs must give float32 gradients
that agree with the float64 autodiff ones to float32 round-off.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .tensor import Parameter, Tensor

__all__ = ["numerical_gradient", "gradcheck"]

#: the float32 twin's tolerance: float32 resolves 6e-8; the checked ops
#: chain a handful of O(1) operations and sum a few dozen terms
FLOAT32_RTOL, FLOAT32_ATOL = 1e-4, 1e-5


def numerical_gradient(
    f: Callable[[], float], x: np.ndarray, eps: float = 1e-6
) -> np.ndarray:
    """Central-difference gradient of ``f()`` w.r.t. ``x`` (in-place probes).

    ``f`` is a thunk re-evaluating the function from ``x``'s *current*
    contents; each element of ``x`` is displaced by ``±eps`` in turn.
    """
    grad = np.zeros_like(x, dtype=np.float64)
    flat = x.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        hi = f()
        flat[i] = orig - eps
        lo = f()
        flat[i] = orig
        gflat[i] = (hi - lo) / (2.0 * eps)
    return grad


def gradcheck(
    op: Callable[..., Tensor],
    *inputs: np.ndarray,
    eps: float = 1e-6,
    rtol: float = 1e-5,
    atol: float = 1e-7,
    seed: int = 0,
    check: "Sequence[bool] | None" = None,
) -> None:
    """Assert that ``op``'s autodiff gradients match central differences.

    ``op`` maps Tensor arguments to one Tensor; ``inputs`` are the float
    arrays to differentiate at.  ``check`` optionally marks which inputs
    to differentiate (default: all of them).  Raises ``AssertionError``
    with the offending input's index on mismatch — from the float64
    finite-difference check or from the float32 twin (module docstring).
    """
    inputs = tuple(np.asarray(x, dtype=np.float64) for x in inputs)
    if check is None:
        check = [True] * len(inputs)
    params = [
        Parameter(x.copy()) if c else Tensor(x.copy())
        for x, c in zip(inputs, check)
    ]
    out = op(*params)
    rng = np.random.default_rng(seed)
    weights = rng.normal(size=out.shape)
    (out * Tensor(weights)).sum().backward()

    params32 = [type(p)(p.data.astype(np.float32)) for p in params]
    out32 = op(*params32)
    (out32 * Tensor(weights.astype(out32.data.dtype))).sum().backward()
    for i, (p, p32) in enumerate(zip(params, params32)):
        if not check[i]:
            continue
        assert p32.grad is not None and p32.grad.dtype == np.float32, (
            f"input {i}: float32 input got a {getattr(p32.grad, 'dtype', None)} gradient"
        )
        np.testing.assert_allclose(
            p32.grad, p.grad, rtol=FLOAT32_RTOL, atol=FLOAT32_ATOL,
            err_msg=f"float32 gradient differs from float64 on input {i}",
        )

    for i, (x, c) in enumerate(zip(inputs, check)):
        if not c:
            continue
        probe = x.copy()
        others = [
            Tensor(p if j != i else probe)
            for j, p in enumerate(inputs)
        ]

        def f() -> float:
            return float((op(*others).numpy() * weights).sum())

        numeric = numerical_gradient(f, probe, eps=eps)
        analytic = params[i].grad
        assert analytic is not None, f"input {i}: no gradient accumulated"
        np.testing.assert_allclose(
            analytic, numeric, rtol=rtol, atol=atol,
            err_msg=f"gradient mismatch on input {i}",
        )
