"""Shared fixtures: small traces and job sequences used across test modules."""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn import Module
from repro.rl import Trainer
from repro.runtime import stream_rng
from repro.workloads import Job, SWFHeader, SWFTrace, load_trace


@pytest.fixture(scope="session")
def lublin_trace() -> SWFTrace:
    """A 2000-job Lublin-1 trace (session-scoped: generation is not free)."""
    return load_trace("Lublin-1", n_jobs=2000, seed=7)


@pytest.fixture(scope="session")
def sdsc_trace() -> SWFTrace:
    return load_trace("SDSC-SP2", n_jobs=2000, seed=7)


@pytest.fixture()
def tiny_jobs() -> list[Job]:
    """Four hand-built jobs on a 4-proc cluster exercising queueing."""
    return [
        Job(job_id=1, submit_time=0.0, run_time=100.0, requested_procs=2,
            requested_time=120.0, user_id=1),
        Job(job_id=2, submit_time=0.0, run_time=50.0, requested_procs=2,
            requested_time=60.0, user_id=2),
        Job(job_id=3, submit_time=10.0, run_time=10.0, requested_procs=4,
            requested_time=20.0, user_id=1),
        Job(job_id=4, submit_time=20.0, run_time=10.0, requested_procs=1,
            requested_time=15.0, user_id=2),
    ]


@pytest.fixture()
def rng() -> np.random.Generator:
    return np.random.default_rng(0)


def make_trace(jobs: list[Job], n_procs: int, name: str = "test") -> SWFTrace:
    """Helper to wrap hand-built jobs into a trace."""
    return SWFTrace(jobs=jobs, header=SWFHeader(max_procs=n_procs), name=name)


class DenseOnly(Module):
    """A policy with its per-row scorers hidden.

    ``PPOAgent`` picks the sparse update when the policy exposes
    ``score_rows_grad``; wrapping a kernel policy in this forces the dense
    update on the same weights — the oracle the sparse path is checked
    (and its speedup measured) against.
    """

    def __init__(self, policy: Module):
        self.policy = policy

    def forward(self, obs, masks):
        return self.policy(obs, masks)


class SequentialTrainer(Trainer):
    """The sequential reference the rollout goldens compare against: one
    episode at a time through ``Trainer._rollout``, in trajectory order,
    in place of the lock-step rollout.  ``n_sequential`` counts the
    episodes rolled that way, so a golden can assert its reference side
    really took this path (if the hook below is ever renamed away, the
    comparison would otherwise silently become lock-step against
    lock-step).
    """

    n_sequential = 0

    def _collect(self, epoch, buffer):
        sequences, n_rejected = self._sample_epoch_sequences(epoch)
        seed = self.train_config.seed
        rewards = [
            self._rollout(
                jobs, buffer, stream_rng(seed, self._ACT_STREAM, epoch, t), slot=t
            )
            for t, jobs in enumerate(sequences)
        ]
        self.n_sequential += len(rewards)
        return rewards, n_rejected
