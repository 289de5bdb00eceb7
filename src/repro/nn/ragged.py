"""Ragged-prefix matmul: ``x @ W`` at the cost of each row's non-zero prefix.

The value network reads the flattened observation window — ``M`` job
slots of ``F`` features, of which the first ``k`` (the waiting jobs) are
filled and the rest are exactly zero.
A zero column contributes exactly 0 to ``x @ W`` and exactly 0 to
``x.T @ g``, so both products only need each row up to its last non-zero
column.  :class:`RaggedRows` stores a matrix that way — rows sorted by
that extent and cut into a handful of buckets, each a small dense block —
and :func:`ragged_matmul` multiplies bucket by bucket.  It is the same
function of ``(x, W)`` as the dense product for every finite input (a
full-width row simply lands in a full-width bucket); only the BLAS
summation order, and so the last ulp, can differ.

Training never builds the window: observations arrive ragged, as
``(rows, counts)`` — the job rows of a batch of observations one after
the other and how many each owns — and :meth:`RaggedRows.from_csr`
buckets them directly, into the same members, widths and blocks
:meth:`RaggedRows.from_dense` derives from the padded block, and
:meth:`RaggedRows.take` selects rows of a bucketed matrix without
bucketing them again.  :func:`pad_observations` is the one place the
zero-padded ``(n, M, F)`` window itself is built, for the networks that
read it whole and for the single-environment gym protocol.
"""

from __future__ import annotations

import numpy as np

from .tensor import Tensor, as_floating

__all__ = [
    "RaggedRows",
    "ragged_matmul",
    "row_extents",
    "window_extents",
    "csr_indptr",
    "csr_gather",
    "pad_observations",
]

#: a bucket spans extents up to this multiple of its narrowest row, which
#: bounds the stored volume by GROWTH x the non-zero prefix volume and the
#: bucket count by log_GROWTH(n_cols) + 1
_GROWTH = 2


def row_extents(x: np.ndarray) -> np.ndarray:
    """Per row of a 2-D array: index of the last non-zero column + 1."""
    nonzero = x != 0
    last = x.shape[1] - np.argmax(nonzero[:, ::-1], axis=1)
    return np.where(nonzero.any(axis=1), last, 0)


def csr_indptr(counts: np.ndarray) -> np.ndarray:
    """Segment pointers of per-segment ``counts``: segment ``s`` spans
    ``indptr[s]:indptr[s + 1]`` of the flat row array."""
    return np.concatenate(([0], np.cumsum(counts)))


def csr_gather(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The indices ``starts[s], ..., starts[s] + counts[s] - 1``, segment
    after segment: where a selection of segments lives in a flat array."""
    ends = np.cumsum(counts)
    total = int(ends[-1]) if len(ends) else 0
    return np.repeat(starts - (ends - counts), counts) + np.arange(total)


def pad_observations(
    rows: np.ndarray, counts: np.ndarray, max_obsv_size: int
) -> tuple[np.ndarray, np.ndarray]:
    """Ragged observations as the fixed window: ``(n, M, F)``, ``(n, M)``.

    Observation ``i`` owns the next ``counts[i]`` of ``rows``; they fill
    its leading slots, the rest are zero rows, and the boolean action
    mask marks the real ones.  The only place the padded window exists.
    """
    masks = np.arange(max_obsv_size) < np.asarray(counts)[:, None]
    obs = np.zeros((*masks.shape, rows.shape[1]), dtype=rows.dtype)
    obs[masks] = rows
    return obs, masks


def window_extents(rows: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """:func:`row_extents` of the flattened, zero-padded windows of ragged
    observations, read off the rows themselves: observation ``b`` owns the
    next ``counts[b]`` of ``rows``, and its extent ends inside its last
    row with a non-zero entry (a trailing zero column stays outside)."""
    counts = np.asarray(counts)
    starts = np.cumsum(counts) - counts
    slot = np.arange(len(rows)) - np.repeat(starts, counts)
    within = row_extents(rows)
    ends = np.where(within > 0, slot * rows.shape[1] + within, 0)
    extents = np.zeros(len(counts), dtype=np.int64)
    filled = counts > 0
    extents[filled] = np.maximum.reduceat(ends, starts[filled])
    return extents


def _buckets(extents: np.ndarray):
    """Cut rows of the given extents into ``(members, width)`` buckets:
    sorted by extent, each spanning at most a factor ``_GROWTH``; rows of
    extent 0 are in none."""
    order = np.argsort(extents, kind="stable")
    widths = extents[order]
    lo = int(np.searchsorted(widths, 0, side="right"))
    while lo < order.size:
        hi = int(np.searchsorted(widths, _GROWTH * widths[lo], side="right"))
        yield order[lo:hi], int(widths[hi - 1])
        lo = hi


class RaggedRows:
    """A constant ``(B, D)`` matrix held as non-zero row prefixes.

    ``buckets`` is a list of ``(rows, block)``: ``block`` is a copy of
    ``x[rows, :width]`` in the floating ``dtype`` of ``x`` and every
    column of those rows at or past ``width`` is zero.  All-zero rows are
    in no bucket.

    A training epoch buckets its observation windows once
    (:meth:`from_csr` over the whole batch): they feed the epoch's one
    value forward and are the full-batch value plan, and a minibatch plan
    is :meth:`take` of its steps.
    """

    __slots__ = ("shape", "dtype", "buckets")

    def __init__(
        self,
        shape: tuple[int, int],
        dtype: np.dtype,
        buckets: list[tuple[np.ndarray, np.ndarray]],
    ):
        self.shape = shape
        self.dtype = dtype
        self.buckets = buckets

    @classmethod
    def from_dense(cls, x: np.ndarray, rows: np.ndarray | None = None) -> "RaggedRows":
        """Bucket ``x[rows]`` (every row when ``rows`` is None).

        The dense ``x[rows]`` is never built: each bucket gathers its own
        prefix straight from ``x``.
        """
        x = as_floating(x)
        if x.ndim != 2:
            raise ValueError(f"expected a 2-D matrix, got shape {x.shape}")
        extents = row_extents(x)
        if rows is not None:
            extents = extents[rows]
        buckets = [
            (members, x[members if rows is None else rows[members], :width])
            for members, width in _buckets(extents)
        ]
        return cls((len(extents), x.shape[1]), x.dtype, buckets)

    @classmethod
    def from_csr(
        cls,
        rows: np.ndarray,
        counts: np.ndarray,
        n_slots: int,
        select: np.ndarray | None = None,
    ) -> "RaggedRows":
        """Bucket the flattened ``n_slots``-job windows of ragged
        observations — of the observations ``select`` (every one when
        ``None``) — without padding them out.

        Each bucket gathers the job rows that reach into its width
        straight from ``rows``, in their dtype.
        """
        rows, counts = as_floating(rows), np.asarray(counts)
        f = rows.shape[1]
        extents = window_extents(rows, counts)
        starts = np.cumsum(counts) - counts
        if select is not None:
            extents, starts, counts = extents[select], starts[select], counts[select]
        buckets = []
        for members, width in _buckets(extents):
            slots = -(-width // f)  # job rows a window of this width holds
            k = np.minimum(counts[members], slots)
            block = np.zeros((len(members) * slots, f), dtype=rows.dtype)
            block[csr_gather(np.arange(len(members)) * slots, k)] = rows[
                csr_gather(starts[members], k)
            ]
            block = block.reshape(len(members), slots * f)
            if width < slots * f:
                block = np.ascontiguousarray(block[:, :width])
            buckets.append((members, block))
        return cls((len(extents), n_slots * f), rows.dtype, buckets)

    def take(self, idx: np.ndarray) -> "RaggedRows":
        """Rows ``idx`` (distinct) of this matrix, in that order.

        Each bucket keeps its width and gathers the members it holds of
        ``idx``: no extents pass, no re-bucketing.  The stored volume stays
        within ``_GROWTH`` x the prefix volume, because each member's
        extent still spans at least ``1 / _GROWTH`` of its bucket's width.
        """
        at = np.full(self.shape[0], -1, dtype=np.int64)
        at[idx] = np.arange(len(idx))
        buckets = []
        for rows, block in self.buckets:
            where = at[rows]
            keep = np.flatnonzero(where >= 0)
            if len(keep):
                buckets.append((where[keep], block[keep]))
        return RaggedRows((len(idx), self.shape[1]), self.dtype, buckets)

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
        out = np.zeros(
            (self.shape[0], w.shape[1]), dtype=np.result_type(self.dtype, w.dtype)
        )
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
    w = w if isinstance(w, Tensor) else Tensor(w)
    return Tensor._from_op(
        x.product(w.data), (w,), lambda grad: x.add_weight_grad(grad, w)
    )
