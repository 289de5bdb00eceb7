"""Probability utilities for the categorical policy head.

The policy networks emit one score per visible job slot; these helpers turn
scores into a masked categorical distribution (padded slots get probability
zero), sample actions during training, and compute the log-probs and
entropy PPO needs.
"""

from __future__ import annotations

import numpy as np

from .tensor import Tensor, as_floating, gather_rows, segment_logsumexp, segment_sum

__all__ = [
    "masked_log_softmax",
    "log_prob_of",
    "entropy",
    "segment_log_softmax",
    "segment_log_prob_of",
    "segment_entropy",
    "flat_action_index",
    "segment_rectangle",
    "sample_action_batch",
    "greedy_action",
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


def entropy(log_probs: Tensor) -> Tensor:
    """Mean categorical entropy, -Σ p·log p, ignoring masked slots.

    Masked slots have log p ≈ -1e9 and p ≈ 0; their p·log p contribution
    underflows to exactly 0 (in float32 as in float64: ``exp`` of the
    shifted fill is 0), so no re-masking is needed.
    """
    p = log_probs.exp()
    per_row = -(p * log_probs).sum(axis=-1)
    return per_row.mean()


# ---------------------------------------------------------------------------
# segment-batched (sparse) twins
# ---------------------------------------------------------------------------
# The dense helpers above operate on a padded ``(B, M)`` logits block where
# masked slots carry ~-1e9.  The sparse twins operate on a *flat* vector of
# only the valid slots, segmented per observation by a CSR ``indptr`` — the
# update-path counterpart of the deploy-side ``score_rows`` fast path.
# Forward values agree with the dense helpers to round-off (the
# masked slots contribute exactly zero probability in both).


def flat_action_index(
    masks: np.ndarray, actions: np.ndarray, indptr: np.ndarray
) -> np.ndarray:
    """Position of each chosen action inside the flat valid-slot vector.

    ``actions[b]`` must be a valid slot of row ``b``; the flat position is
    ``indptr[b]`` plus the number of valid slots before it in that row.
    """
    masks = np.asarray(masks, dtype=bool)
    actions = np.asarray(actions, dtype=np.int64)
    batch = np.arange(masks.shape[0])
    if not masks[batch, actions].all():
        bad = batch[~masks[batch, actions]]
        raise ValueError(f"actions at rows {bad.tolist()} are masked out")
    offsets = np.cumsum(masks, axis=-1)[batch, actions] - 1
    return indptr[:-1] + offsets


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


def segment_log_prob_of(
    log_probs: Tensor, masks: np.ndarray, actions: np.ndarray, indptr: np.ndarray
) -> Tensor:
    """Per-observation log-probability of the chosen actions.

    Sparse twin of :func:`log_prob_of`: ``log_probs`` is the flat ``(K,)``
    output of :func:`segment_log_softmax`; ``actions`` index the original
    (padded) slot axis and are translated to flat positions.
    """
    return gather_rows(log_probs, flat_action_index(masks, actions, indptr))


def segment_entropy(log_probs: Tensor, indptr: np.ndarray) -> Tensor:
    """Mean categorical entropy over segments (sparse twin of :func:`entropy`).

    Masked slots are simply absent here; in the dense path their
    ``p·log p`` contribution underflows to exactly 0, so both paths
    compute the same per-row entropies.
    """
    per_row = -segment_sum(log_probs.exp() * log_probs, indptr)
    return per_row.mean()


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


def greedy_action(log_probs_row: np.ndarray) -> int:
    """Deterministic argmax action (test-time behaviour, paper §IV-B1)."""
    return int(np.argmax(log_probs_row))
