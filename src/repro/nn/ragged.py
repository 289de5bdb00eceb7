"""Ragged-prefix matmul: ``x @ W`` at the cost of each row's non-zero prefix.

The value network reads the flattened observation window — ``M`` job
slots of ``F`` features, of which :func:`~repro.sim.env.build_observation`
fills the first ``k`` (the waiting jobs) and leaves the rest exactly zero.
A zero column contributes exactly 0 to ``x @ W`` and exactly 0 to
``x.T @ g``, so both products only need each row up to its last non-zero
column.  :class:`RaggedRows` stores a matrix that way — rows sorted by
that extent and cut into a handful of buckets, each a small dense block —
and :func:`ragged_matmul` multiplies bucket by bucket.  It is the same
function of ``(x, W)`` as the dense product for every finite input (a
full-width row simply lands in a full-width bucket); only the BLAS
summation order, and so the last ulp, can differ.
"""

from __future__ import annotations

import numpy as np

from .tensor import Tensor

__all__ = ["RaggedRows", "ragged_matmul", "row_extents"]

#: a bucket spans extents up to this multiple of its narrowest row, which
#: bounds the stored volume by GROWTH x the non-zero prefix volume and the
#: bucket count by log_GROWTH(n_cols) + 1
_GROWTH = 2


def row_extents(x: np.ndarray) -> np.ndarray:
    """Per row of a 2-D array: index of the last non-zero column + 1."""
    nonzero = x != 0
    last = x.shape[1] - np.argmax(nonzero[:, ::-1], axis=1)
    return np.where(nonzero.any(axis=1), last, 0)


class RaggedRows:
    """A constant ``(B, D)`` matrix held as non-zero row prefixes.

    ``buckets`` is a list of ``(rows, block)``: ``block`` is the float64
    copy of ``x[rows, :width]`` and every column of those rows at or past
    ``width`` is zero.  All-zero rows are in no bucket.
    """

    __slots__ = ("shape", "buckets")

    def __init__(
        self,
        shape: tuple[int, int],
        buckets: list[tuple[np.ndarray, np.ndarray]],
    ):
        self.shape = shape
        self.buckets = buckets

    @classmethod
    def from_dense(
        cls,
        x: np.ndarray,
        rows: np.ndarray | None = None,
        extents: np.ndarray | None = None,
    ) -> "RaggedRows":
        """Bucket ``x[rows]`` (every row when ``rows`` is None).

        ``extents`` is ``row_extents(x)`` when the caller already has it
        (one pass over a batch serves every minibatch drawn from it).
        The dense float64 ``x[rows]`` is never built: each bucket gathers
        its own prefix straight from ``x``, whatever its dtype.
        """
        x = np.asarray(x)
        if x.ndim != 2:
            raise ValueError(f"expected a 2-D matrix, got shape {x.shape}")
        if extents is None:
            extents = row_extents(x)
        if rows is not None:
            extents = extents[rows]
        order = np.argsort(extents, kind="stable")
        widths = extents[order]
        buckets = []
        lo = int(np.searchsorted(widths, 0, side="right"))
        while lo < order.size:
            hi = int(np.searchsorted(widths, _GROWTH * widths[lo], side="right"))
            members = order[lo:hi]
            source = members if rows is None else rows[members]
            block = x[source, : widths[hi - 1]].astype(np.float64)
            buckets.append((members, block))
            lo = hi
        return cls((order.size, x.shape[1]), buckets)

    @property
    def volume(self) -> int:
        """Stored entries, Σ rows_b · width_b: the multiply–accumulates one
        product spends per output column (the dense product spends B · D)."""
        return sum(block.size for _, block in self.buckets)

    def product(self, w: np.ndarray) -> np.ndarray:
        """``x @ w``: each block times the matching leading rows of ``w``."""
        if w.ndim != 2 or w.shape[0] != self.shape[1]:
            raise ValueError(
                f"ragged matmul needs a ({self.shape[1]}, H) weight, got {w.shape}"
            )
        out = np.zeros((self.shape[0], w.shape[1]))
        for rows, block in self.buckets:
            out[rows] = block @ w[: block.shape[1]]
        return out

    def add_weight_grad(self, grad: np.ndarray, w: Tensor) -> None:
        """``w.grad += x.T @ grad``, bucket by bucket into the leading rows
        of ``w.grad``; the rest of it stays exactly zero."""
        if not w.requires_grad:
            return
        if w.grad is None:
            w.grad = np.zeros_like(w.data)
        for rows, block in self.buckets:
            w.grad[: block.shape[1]] += block.T @ grad[rows]

    def __matmul__(self, w) -> Tensor:
        return ragged_matmul(self, w)


def ragged_matmul(x: RaggedRows, w) -> Tensor:
    """``x @ w`` for ``w`` of shape ``(D, H)``; gradients flow to ``w``.
    :class:`~repro.nn.layers.Dense` fuses it with bias and activation."""
    w = Tensor._lift(w)
    return Tensor._from_op(
        x.product(w.data), (w,), lambda grad: x.add_weight_grad(grad, w)
    )
