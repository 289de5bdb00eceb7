"""Probability utilities for the categorical policy head.

The policy networks emit one score per visible job slot; these helpers turn
scores into a masked categorical distribution (padded slots get probability
zero), sample actions during training, and compute the log-probs PPO
needs.
"""

from __future__ import annotations

import numpy as np

from .tensor import Tensor, as_floating, gather_rows, segment_logsumexp

__all__ = [
    "masked_log_softmax",
    "log_prob_of",
    "segment_log_softmax",
    "segment_rectangle",
    "sample_action_batch",
]

_MASK_FILL = -1e9


def masked_log_softmax(logits: Tensor, mask: np.ndarray) -> Tensor:
    """Log-softmax over the last axis with invalid slots masked out.

    ``mask`` is a boolean array broadcastable to ``logits.shape``; False
    entries receive log-probability ~ -1e9 (probability 0 after exp).
    """
    mask = np.asarray(mask, dtype=bool)
    if not mask.any(axis=-1).all():
        raise ValueError("every row must have at least one valid action")
    masked = logits.where(mask, _MASK_FILL)
    # Stability shift by a detached per-row max (constant w.r.t. gradients).
    shift = Tensor(masked.data.max(axis=-1, keepdims=True))
    shifted = masked - shift
    log_norm = shifted.exp().sum(axis=-1, keepdims=True).log()
    return shifted - log_norm


def log_prob_of(log_probs: Tensor, actions: np.ndarray) -> Tensor:
    """Gather per-row log-probabilities of chosen actions.

    ``log_probs``: (B, A) tensor; ``actions``: (B,) int array → (B,) tensor.
    """
    actions = np.asarray(actions, dtype=np.int64)
    batch = np.arange(log_probs.shape[0])
    return log_probs[batch, actions]


# ---------------------------------------------------------------------------
# segment-batched (sparse) twins
# ---------------------------------------------------------------------------
# The dense helpers above operate on a padded ``(B, M)`` logits block where
# masked slots carry ~-1e9.  The sparse twins operate on a *flat* vector of
# only the valid slots, segmented per observation by a CSR ``indptr`` — the
# update-path counterpart of the deploy-side ``score_rows`` fast path.
# Forward values agree with the dense helpers to round-off (the
# masked slots contribute exactly zero probability in both).


def segment_log_softmax(scores: Tensor, indptr: np.ndarray) -> Tensor:
    """Log-softmax within each segment of a flat score vector.

    The sparse twin of :func:`masked_log_softmax`: ``scores`` holds only
    the valid slots (``(K,)``), segments are observations.  Every segment
    must be non-empty — the same "at least one valid action" contract the
    dense path enforces via its mask check.
    """
    lengths = np.diff(np.asarray(indptr, dtype=np.int64))
    if (lengths <= 0).any():
        raise ValueError("every row must have at least one valid action")
    log_norm = segment_logsumexp(scores, indptr)           # (B,)
    seg_ids = np.repeat(np.arange(lengths.size), lengths)  # (K,)
    return scores - gather_rows(log_norm, seg_ids)


#: NumPy sums a contiguous run of up to this many elements as one block of
#: eight interleaved partial sums (``pairwise_sum``'s leaf); a longer run
#: is split in two first, and where it splits depends on its length
_PAIRWISE_LEAF = 128


def segment_rectangle(
    scores: np.ndarray, counts: np.ndarray, full_width: int
) -> np.ndarray:
    """Flat per-segment scores as a masked ``(n, W)`` block of logits.

    Segment ``i`` fills the leading ``counts[i]`` slots of row ``i``; the
    rest hold the mask fill (probability exactly 0 after the softmax
    shift); the block has the dtype of ``scores``.  ``W`` is the longest segment rounded up to a multiple of 8,
    never past ``full_width``: trailing zeros then meet the same eight
    partial sums in the same order as in the ``full_width``-wide row, so
    a softmax, its cumulative sums and an argmax over the block equal the
    full-width ones bit for bit at a fraction of the width.  A row too
    long to be one summation leaf keeps its full width.
    """
    scores, counts = as_floating(scores), np.asarray(counts)
    width = full_width
    if full_width <= _PAIRWISE_LEAF:
        width = min(-(-int(counts.max()) // 8) * 8, full_width)
    logits = np.full((len(counts), width), _MASK_FILL, dtype=scores.dtype)
    logits[np.arange(width) < counts[:, None]] = scores
    return logits


def sample_action_batch(
    log_probs: np.ndarray, uniforms: np.ndarray
) -> np.ndarray:
    """Inverse-CDF sampling for a batch of categorical rows.

    ``log_probs`` is ``(N, A)``; ``uniforms`` supplies one U[0,1) draw per
    row (callers own the generators, e.g. one per trajectory).  Every row
    is processed independently with per-row cumulative sums, so the action
    drawn for a row depends only on that row and its own uniform — batch
    composition cannot change anyone's sample, the property the
    vectorised-rollout equivalence tests rely on.  Masked slots carry
    probability ~0 and are never selected.
    """
    p = np.exp(log_probs - log_probs.max(axis=-1, keepdims=True))
    cdf = np.cumsum(p, axis=-1)
    thresholds = uniforms * cdf[:, -1]
    actions = (cdf < thresholds[:, None]).sum(axis=-1)
    return np.minimum(actions, log_probs.shape[-1] - 1).astype(np.int64)
