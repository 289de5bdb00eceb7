"""Shared fixtures: small traces and job sequences used across test modules."""

from __future__ import annotations

from functools import cached_property

import numpy as np
import pytest

from repro.nn import Module, WindowPolicy, csr_indptr
from repro.rl import Trainer, TrajectoryBuffer
from repro.runtime import stream_rng
from repro.sim import SchedGym
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


class DenseOnly(WindowPolicy):
    """A kernel policy read through its padded window.

    Behind the same ``(rows, counts)`` contract, this scores the wave
    the way the MLP / LeNet baselines do: padded to the
    ``max_obsv_size`` window at the input, the kernel's :meth:`forward`
    over every slot, the valid slots read back.  On the same weights it
    is the oracle the kernel's row scorers are checked (and their
    speedup measured) against.
    """

    def __init__(self, policy: Module, max_obsv_size: int):
        self.policy = policy
        self.max_obsv_size = max_obsv_size

    def forward(self, obs, masks):
        return self.policy(obs, masks)


class SequentialTrainer(Trainer):
    """The sequential reference the rollout goldens compare against: each
    episode stepped alone through the public :class:`SchedGym` protocol
    (padded observation and action mask, one environment, one decision at
    a time), in trajectory order, in place of the lock-step rollout.  It
    hands the same batched agent entry points the masked rows with batch
    width 1, one uniform drawn per step, and builds the epoch's
    :class:`TrajectoryBuffer` from its episodes' own columns, so it checks
    the lock-step rollout's batch and its per-episode slicing both.  Its
    behaviour log-probs are each episode's, scored again on the batch of
    its own T observations after the episode ends, so the goldens (the
    kernel policy, by its rows and through its padded window) also check
    that the log-probs the rollout stores as it acts do not depend on the
    wave they were scored in.  ``n_sequential`` counts the episodes
    rolled that way, so a golden can assert its reference side really
    took this path (if the hook below is ever renamed away, the
    comparison would otherwise silently become lock-step against
    lock-step).
    """

    n_sequential = 0

    @cached_property
    def gym(self) -> SchedGym:
        return SchedGym(self.cluster_spec, self.reward_fn, config=self.env_config)

    def episode(self, jobs, rng):
        """One trajectory through :attr:`gym`: its ``(rows, counts,
        actions)`` and raw terminal reward."""
        steps, actions = [], []
        obs, mask = self.gym.reset(jobs)
        while True:
            steps.append(obs[mask])
            action, _ = self.agent.act_batch(
                steps[-1], [len(steps[-1])], rng.random(1)
            )
            actions.append(action[0])
            result = self.gym.step(int(action[0]))
            if result.done:
                break
            obs, mask = result.observation, result.action_mask
        counts = np.array([len(step) for step in steps])
        return (np.concatenate(steps), counts, np.array(actions)), result.reward

    def _collect(self, epoch):
        sequences, n_rejected = self._sample_epoch_sequences(epoch)
        seed = self.train_config.seed
        episodes, rewards = zip(*(
            self.episode(jobs, stream_rng(seed, self._ACT_STREAM, epoch, t))
            for t, jobs in enumerate(sequences)
        ))
        self.n_sequential += len(episodes)
        rows, counts, actions = (np.concatenate(c) for c in zip(*episodes))
        buffer = TrajectoryBuffer(
            rows, counts, actions,
            csr_indptr([len(episode[2]) for episode in episodes]),
            np.concatenate([
                self.agent.log_probs_batch(rows, counts)[
                    np.arange(len(actions)), actions
                ]
                for rows, counts, actions in episodes
            ]),
            np.asarray(rewards) / (self._reward_scale or 1.0),
            gamma=self.ppo_config.gamma, lam=self.ppo_config.lam,
        )
        return buffer, list(rewards), n_rejected
