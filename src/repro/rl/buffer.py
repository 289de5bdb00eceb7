"""Trajectory storage with GAE-λ advantage estimation.

PPO consumes flat arrays of (observation, action, log-prob, return,
advantage).  Episodes here are whole job sequences whose reward arrives
only at the terminal step (paper §IV-A), so with γ=1 the return-to-go of
every step equals the terminal reward; GAE still shapes per-step
advantages through the value-network baseline ("we can use (r - expr) to
train the policy").

A buffer holds one epoch, handed over whole as the CSR batch
:func:`~repro.rl.trainer.lockstep_rollout` builds: the ragged
observations ``(rows, counts)`` — the float32 feature rows of the waiting
jobs of every step, one step after the other, and how many rows each step
owns — the actions, the per-trajectory step boundaries ``step_ptr``, the
behaviour log-probs (the ones each action was sampled with, logged by
the rollout as it acted) and, beside them, one terminal reward per
episode.
Episodes are in trajectory order, so the PPO batch does not depend on
which episode finished first (e.g. ragged lengths under backfilling);
nothing here is padded to the observation window.

Value estimates are an epoch's, not an episode's: :meth:`get` buckets the
whole batch's observation windows once (:meth:`RaggedRows.from_csr`),
values them with one call of the agent's critic, computes each
episode's returns and advantages from its slice of those values, and
hands the windows on in the batch, where the PPO value step plans from
them.

The discounted recurrences are evaluated by :func:`discount_cumsum`: one
reversed loop over the episode's steps, a multiply and an add each.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.nn import RaggedRows

if TYPE_CHECKING:
    from repro.rl.ppo import PPOAgent

__all__ = ["TrajectoryBuffer", "discount_cumsum"]


def discount_cumsum(x: np.ndarray, discount: float) -> np.ndarray:
    """Reverse discounted cumulative sum: ``y[t] = x[t] + discount·y[t+1]``.

    A plain loop over Python floats: one multiply-then-add per element,
    which is also what the single-pole IIR filter this recurrence is
    usually handed to computes — same bits, a comparable cost at episode
    length, and no signal-processing library in every process.
    """
    out = np.asarray(x, dtype=np.float64).tolist()
    acc = 0.0
    for t in range(len(out) - 1, -1, -1):
        out[t] = acc = out[t] + discount * acc
    return np.array(out, dtype=np.float64)


class TrajectoryBuffer:
    """One epoch of whole episodes, in trajectory order::

        buf = TrajectoryBuffer(rows, counts, actions, step_ptr,
                               log_probs, rewards)   # once per epoch
        data = buf.get(agent)                        # PPO's batch

    ``rows`` / ``counts`` are the ragged observations of every step
    (``counts`` has one entry per step and sums to ``len(rows)``);
    ``actions`` and ``log_probs`` have one entry per step.  Episode ``e``
    is steps ``step_ptr[e]:step_ptr[e + 1]`` and ends with the terminal
    reward ``rewards[e]``.
    """

    def __init__(
        self,
        rows: np.ndarray,
        counts: np.ndarray,
        actions: np.ndarray,
        step_ptr: np.ndarray,
        log_probs: np.ndarray,
        rewards: np.ndarray,
        gamma: float = 1.0,
        lam: float = 0.97,
    ):
        self.actions = np.asarray(actions, dtype=np.int64)
        self.counts = np.asarray(counts)
        self.log_probs = np.asarray(log_probs, dtype=np.float64)
        n = len(self.actions)
        for name, column in (("counts", self.counts), ("log_probs", self.log_probs)):
            if column.shape != (n,):
                raise ValueError(
                    f"expected {n} {name} (one per step), got {column.shape}"
                )
        if self.counts.sum() != len(rows):
            raise ValueError(
                f"counts cover {self.counts.sum()} job rows, got {len(rows)}"
            )
        self.step_ptr = np.asarray(step_ptr)
        if n == 0:
            raise ValueError("buffer is empty")
        if (self.step_ptr[0] != 0 or self.step_ptr[-1] != n
                or (np.diff(self.step_ptr) <= 0).any()):
            raise ValueError("an episode needs at least one step")
        self.rewards = np.asarray(rewards, dtype=np.float64)
        if self.rewards.shape != (len(self.step_ptr) - 1,):
            raise ValueError(
                f"expected {len(self.step_ptr) - 1} rewards (one per "
                f"episode), got {self.rewards.shape}"
            )
        self.rows = rows
        self.gamma = gamma
        self.lam = lam

    def get(self, agent: "PPOAgent") -> dict:
        """The batch as flat columns, advantage-normalised for PPO: the
        ragged observations ``rows`` / ``counts`` and their ``windows``
        beside one entry per step of ``actions``, ``log_probs``,
        ``advantages`` and ``returns``.

        ``agent`` owns the critic: the batch's observations are bucketed
        once, in batch order, into windows of its value network's
        ``max_obsv_size`` jobs, valued by one ``agent.value_batch(windows)``
        call, and handed on as ``windows``.
        """
        n = len(self.actions)
        windows = RaggedRows.from_csr(
            self.rows, self.counts, agent.value.max_obsv_size
        )
        values = np.asarray(agent.value_batch(windows), dtype=np.float64)
        if values.shape != (n,):
            raise ValueError(
                f"expected {n} values (one per step), got {values.shape}"
            )
        returns, adv = np.empty(n), np.empty(n)
        for s0, s1, reward in zip(
            self.step_ptr[:-1], self.step_ptr[1:], self.rewards
        ):
            rewards = np.zeros(s1 - s0)
            rewards[-1] = reward
            returns[s0:s1] = discount_cumsum(rewards, self.gamma)
            v = values[s0:s1]
            next_v = np.append(v[1:], 0.0)  # terminal value is 0
            deltas = rewards + self.gamma * next_v - v
            adv[s0:s1] = discount_cumsum(deltas, self.gamma * self.lam)
        return {
            "rows": self.rows,
            "counts": self.counts,
            "actions": self.actions,
            "log_probs": self.log_probs,
            "returns": returns,
            "windows": windows,
            "advantages": (adv - adv.mean()) / (adv.std() + 1e-8),
        }
