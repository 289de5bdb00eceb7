"""Job-sequence sampling, matching the paper's evaluation protocol.

Training uses random *contiguous* windows of 256 jobs from a trace; testing
uses longer windows of 1024 jobs ("we selected much longer job sequences
(1024) for testing than the job sequences (256) used for training").  Across
schedulers the *same* random sequences are reused for fair comparison, which
:class:`SequenceSampler` guarantees via seeding.

Sampled windows are re-based so the first job submits at t=0 — the
simulator always starts from an idle cluster, per the paper's SchedGym.

Seeding follows the repo-wide convention of
:func:`repro.runtime.seeding.stream_rng`: the sampler's stream is derived
from an integer *key path*, so callers may pass either a bare seed
(``SequenceSampler(trace, 256, seed=42)`` — bit-identical to the historic
``default_rng(42)`` stream) or a composed path
(``seed=(scenario_seed, worker, shard)``) that can never collide with
sibling streams.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .job import Job
from .swf import SWFTrace

__all__ = [
    "SequenceSampler", "WindowError", "check_window", "sample_sequence",
    "rebase_jobs",
]


class WindowError(ValueError):
    """A sampling window longer than the trace it is sampled from."""


def check_window(trace: SWFTrace, length: int, kind: str,
                 name: str | None = None) -> None:
    """Raise :class:`WindowError` unless a ``length``-job ``kind``
    (``"training"``, ``"evaluation"``) window fits in ``trace``; the
    message names ``name``, or else the trace."""
    if length > len(trace):
        raise WindowError(
            f"{name or f'trace {trace.name!r}'}: a {length}-job {kind} "
            f"window does not fit in a {len(trace)}-job trace"
        )


def rebase_jobs(jobs: list[Job]) -> list[Job]:
    """Copy jobs with submit times shifted so the earliest is 0."""
    if not jobs:
        return []
    t0 = min(j.submit_time for j in jobs)
    rebased = []
    for j in jobs:
        # Job.copy() skips __init__; re-validating a job that already
        # passed it is all that dataclasses.replace would add, and a shift
        # by the minimum keeps submit_time non-negative
        c = j.copy()
        c.submit_time = j.submit_time - t0
        rebased.append(c)
    return rebased


def sample_sequence(
    trace: SWFTrace,
    length: int,
    rng: np.random.Generator,
    start: int | None = None,
) -> list[Job]:
    """One contiguous window of ``length`` jobs, re-based to t=0.

    ``start`` pins the window (used by trajectory-filtering probes and the
    Fig. 3 timeline); otherwise the start index is drawn uniformly.
    """
    if length <= 0:
        raise ValueError("length must be positive")
    if length > len(trace):
        raise ValueError(
            f"requested window of {length} jobs from trace of {len(trace)}"
        )
    if start is None:
        start = int(rng.integers(0, len(trace) - length + 1))
    elif not 0 <= start <= len(trace) - length:
        raise ValueError(f"start {start} out of range for window {length}")
    return rebase_jobs(trace.jobs[start : start + length])


class SequenceSampler:
    """Seeded sampler producing reproducible job windows from a trace.

    ``seed`` is an integer or a key path (sequence of integers) in the
    :func:`repro.runtime.seeding.stream_rng` convention; a bare integer
    seed yields the same stream as the historical ``default_rng(seed)``.
    """

    def __init__(self, trace: SWFTrace, length: int, seed: "int | Sequence[int]" = 0):
        self.trace = trace
        self.length = length
        self.seed = seed
        self._rng = self._make_rng()

    def _make_rng(self) -> np.random.Generator:
        # Imported lazily: the workloads package is a dependency of the
        # simulation substrate the runtime package builds on, so a
        # module-level import would be circular.
        from repro.runtime.seeding import stream_rng

        keys = self.seed if isinstance(self.seed, (tuple, list)) else (self.seed,)
        return stream_rng(*keys)

    def sample(self, start: int | None = None) -> list[Job]:
        return sample_sequence(self.trace, self.length, self._rng, start=start)

    def sample_many(self, n: int) -> list[list[Job]]:
        """``n`` independent windows; reseeding gives identical batches."""
        return [self.sample() for _ in range(n)]

    def reset(self) -> None:
        """Rewind the RNG so the exact same windows are produced again."""
        self._rng = self._make_rng()
