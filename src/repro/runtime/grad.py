"""Data-parallel gradient reduction over the execution backend.

The actor runtime moves *rollouts* into workers; this module shards
*gradient computation*.  A :class:`GradientReducer`
holds module replicas on every worker (installed once via ``broadcast``),
and per minibatch:

1. the parent splits the batch rows into one contiguous shard per worker;
2. each worker loads the current weights into its replica, evaluates a
   caller-supplied **sum-reduced** loss on its shard, backpropagates, and
   returns the parameter gradients plus summed diagnostics;
3. the parent adds the shard gradients in worker order and divides by the
   total row count — exactly the gradient of the mean loss, computed
   data-parallel.

Loss functions must be picklable (top-level functions, optionally wrapped
in :func:`functools.partial` for hyper-parameters) with signature
``fn(module, shard_dict) -> (loss_sum_tensor, aux_sums_dict)`` where every
value in ``aux_sums`` is a per-shard *sum* so the parent can reduce it the
same way.

Determinism: the shard partition is a pure function of (batch size,
worker count), and reduction order is worker order — so for a fixed
worker count the serial and process backends produce bit-identical
gradients (pinned by the runtime tests).  Different worker counts change
the floating-point summation tree and agree only to round-off, like any
data-parallel reduction.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .backend import make_backend

__all__ = ["GradientReducer", "shard_bounds"]

#: loss-program signature: (module, shard) -> (loss_sum Tensor, aux sums)
LossFn = Callable[..., tuple]


def shard_bounds(n_rows: int, n_shards: int) -> list[tuple[int, int]]:
    """Contiguous, near-even row ranges; at most ``n_rows`` shards.

    The first ``n_rows % n_shards`` shards get one extra row, so the
    partition depends only on the two integers — the property that makes
    a fixed worker count reproducible across backends.
    """
    if n_rows <= 0:
        raise ValueError(f"n_rows must be positive, got {n_rows}")
    n_shards = min(n_shards, n_rows)
    base, extra = divmod(n_rows, n_shards)
    bounds, start = [], 0
    for s in range(n_shards):
        stop = start + base + (1 if s < extra else 0)
        bounds.append((start, stop))
        start = stop
    return bounds


def _install_replicas(state: dict, modules: dict) -> list[str]:
    """Worker task: keep the pickled module replicas in worker state."""
    state["grad_modules"] = modules
    return sorted(modules)


def _shard_grads(
    state: dict,
    name: str,
    loss_fn: LossFn,
    weights: list[np.ndarray],
    shard: dict,
) -> tuple[list[np.ndarray], dict, int]:
    """Worker task: one shard's gradient of the sum-reduced loss."""
    module = state["grad_modules"][name]
    params = module.parameters()
    for p, w in zip(params, weights):
        p.data = w
    module.zero_grad()
    loss_sum, aux = loss_fn(module, shard)
    loss_sum.backward()
    grads = [
        p.grad if p.grad is not None else np.zeros_like(p.data) for p in params
    ]
    n_rows = len(next(iter(shard.values())))
    return grads, aux, n_rows


class GradientReducer:
    """Shards minibatch gradients across backend workers, reduces in-parent.

    ``install`` ships the module replicas once; ``grad_sums`` runs one
    sharded backward pass and returns raw sums, leaving the divide, the
    clip and the optimizer step to the caller (they stay in the parent —
    workers never update weights).
    """

    def __init__(self, runtime=None):
        self._backend = make_backend(runtime)
        self._installed = False

    @property
    def n_workers(self) -> int:
        return self._backend.n_workers

    def install(self, modules: dict) -> None:
        """Broadcast replicas of the named modules to every worker."""
        self._backend.broadcast(_install_replicas, modules)
        self._installed = True

    def grad_sums(
        self,
        name: str,
        module,
        loss_fn: LossFn,
        batch: dict[str, np.ndarray],
    ) -> tuple[list[np.ndarray], dict, int]:
        """One data-parallel backward pass over ``batch``.

        Returns ``(grad_sums, aux_sums, n_rows)``: per-parameter gradient
        sums of the sum-reduced loss (divide by ``n_rows`` for the mean
        loss's gradient), the loss function's reduced diagnostics, and
        the batch size.  Every array in ``batch`` is split along axis 0.
        """
        if not self._installed:
            raise RuntimeError("call install() before grad_sums()")
        sizes = {k: len(v) for k, v in batch.items()}
        n_rows = next(iter(sizes.values()))
        if len(set(sizes.values())) != 1:
            raise ValueError(f"batch arrays disagree on length: {sizes}")
        bounds = shard_bounds(n_rows, self.n_workers)
        weights = [p.data for p in module.parameters()]
        shards = [
            {k: v[lo:hi] for k, v in batch.items()} for lo, hi in bounds
        ]
        # (name, loss_fn, weights) are identical per worker: the shared
        # channel serializes the weight ship once per step, not per shard
        results = self._backend.scatter(
            _shard_grads,
            [(shard,) for shard in shards],
            workers=range(len(shards)),
            shared=(name, loss_fn, weights),
        )
        grads, aux, total = None, None, 0
        for shard_grads, shard_aux, shard_n in results:
            total += shard_n
            if grads is None:
                grads = [np.array(g, dtype=np.float64) for g in shard_grads]
                aux = dict(shard_aux)
            else:
                for g, sg in zip(grads, shard_grads):
                    g += sg
                for k, v in shard_aux.items():
                    aux[k] += v
        return grads, aux, total

    def close(self) -> None:
        self._backend.close()

    def __enter__(self) -> "GradientReducer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
