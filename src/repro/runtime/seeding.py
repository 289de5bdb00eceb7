"""Per-task RNG stream derivation — the repo-wide seeding convention.

Reproducibility across processes hinges on one rule: **a task's randomness
depends only on its key path, never on which worker runs it or in what
order**.  Streams are derived by seeding :func:`numpy.random.default_rng`
with the full integer key path ``[root, stream_tag, *indices]`` (NumPy
hashes the sequence through SeedSequence, so sibling streams are
decorrelated).  The trainer keys trajectories as
``(seed, ACT_STREAM, epoch, trajectory)``; evaluation keys probes as
``(seed, tag, sequence)``; any new fan-out should follow suit.
"""

from __future__ import annotations

import numpy as np

__all__ = ["stream_rng"]


def stream_rng(*keys: int) -> np.random.Generator:
    """The dedicated generator for one task's key path."""
    if not keys:
        raise ValueError("need at least one key")
    return np.random.default_rng(list(keys))
