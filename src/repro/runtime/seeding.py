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

__all__ = ["stream_rng", "derive_streams", "task_seed"]


def stream_rng(*keys: int) -> np.random.Generator:
    """The dedicated generator for one task's key path."""
    if not keys:
        raise ValueError("need at least one key")
    return np.random.default_rng(list(keys))


def derive_streams(n: int, *prefix: int) -> list[np.random.Generator]:
    """``n`` sibling generators keyed ``(*prefix, 0..n-1)`` — one per task."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return [stream_rng(*prefix, i) for i in range(n)]


def task_seed(*keys: int) -> int:
    """A single derived integer seed (for APIs that take a seed, not a
    generator), stable across processes and platforms."""
    if not keys:
        raise ValueError("need at least one key")
    return int(np.random.SeedSequence(list(keys)).generate_state(1)[0])
