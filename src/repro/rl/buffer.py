"""Trajectory storage with GAE-λ advantage estimation.

PPO consumes flat arrays of (observation, action, log-prob, return,
advantage).  Episodes here are whole job sequences whose reward arrives
only at the terminal step (paper §IV-A), so with γ=1 the return-to-go of
every step equals the terminal reward; GAE still shapes per-step
advantages through the value-network baseline ("we can use (r - expr) to
train the policy").

Observations are stored the way the environments emit them — ragged, as
``(rows, counts)``: the float32 feature rows of the waiting jobs of every
step, one step after the other, and how many rows each step owns.  A
finished episode is ingested by one :meth:`TrajectoryBuffer.add_episode`
call carrying its columns whole (an episode of
:func:`~repro.rl.trainer.lockstep_rollout` plus its behaviour log-probs),
and :meth:`TrajectoryBuffer.get` concatenates the episodes; nothing here
is padded to the observation window.

Value estimates are an epoch's, not an episode's: :meth:`get` buckets the
whole batch's observation windows once (:meth:`RaggedRows.from_csr`),
values them with one call of the agent's critic, computes each
episode's advantages from its slice of those values, and hands the
windows on in the batch, where the PPO value step plans from them.

Episodes are ordered deterministically in the PPO batch: by the
``order`` key they were added under (the trainer passes the trajectory
index), completion order otherwise — so ``get()`` arrays do not depend on
which episode finished first (e.g. ragged lengths under backfilling).

The discounted recurrences are evaluated by :func:`discount_cumsum`: one
reversed loop over the episode's steps, a multiply and an add each.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.nn import RaggedRows, csr_indptr

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
    """Append-only store for one epoch of interactions::

        buf.add_episode(rows, counts, actions, log_probs, reward)  # per episode
        data = buf.get(agent)                                   # once per epoch
    """

    def __init__(self, gamma: float = 1.0, lam: float = 0.97):
        if not (0.0 <= gamma <= 1.0 and 0.0 <= lam <= 1.0):
            raise ValueError("gamma and lam must be in [0, 1]")
        self.gamma = gamma
        self.lam = lam
        self.clear()

    def clear(self) -> None:
        """Drop all stored episodes (gamma/lam kept)."""
        self._order: list[int] = []            # sort key per episode
        self._episodes: list[tuple] = []       # get()'s columns, per episode
        self._episode_rewards: list[float] = []

    def add_episode(
        self,
        rows: np.ndarray,
        counts: np.ndarray,
        actions: np.ndarray,
        log_probs: np.ndarray,
        reward: "float | np.ndarray",
        order: int | None = None,
    ) -> None:
        """Store one finished episode of T steps and compute its returns.

        ``rows`` / ``counts`` are its ragged observations (``counts`` has
        one entry per step and sums to ``len(rows)``); ``actions`` and
        ``log_probs`` have length T.  ``reward`` is the terminal reward of
        the sequence, or one reward per step.  ``order`` places the
        episode in :meth:`get` (default: after those already stored).
        """
        actions = np.asarray(actions, dtype=np.int64)
        n = len(actions)
        if n == 0:
            raise RuntimeError("an episode needs at least one step")
        counts = np.asarray(counts)
        log_probs = np.asarray(log_probs, dtype=np.float64)
        for name, column in (("counts", counts), ("log_probs", log_probs)):
            if column.shape != (n,):
                raise ValueError(
                    f"expected {n} {name} (one per step), got {column.shape}"
                )
        if counts.sum() != len(rows):
            raise ValueError(
                f"counts cover {counts.sum()} job rows, got {len(rows)}"
            )
        rewards = np.asarray(reward, dtype=np.float64)
        if rewards.ndim == 0:
            rewards = np.zeros(n)
            rewards[-1] = reward
        rets = discount_cumsum(rewards, self.gamma)

        self._order.append(len(self._order) if order is None else int(order))
        self._episodes.append((rows, counts, actions, log_probs, rewards, rets))
        self._episode_rewards.append(float(rewards.sum()))

    # ------------------------------------------------------------------
    @property
    def n_steps(self) -> int:
        return sum(len(episode[2]) for episode in self._episodes)

    @property
    def n_episodes(self) -> int:
        return len(self._episodes)

    @property
    def episode_rewards(self) -> list[float]:
        return list(self._episode_rewards)

    def get(self, agent: "PPOAgent", normalize_advantages: bool = True) -> dict:
        """All stored episodes as flat columns, advantage-normalised for
        PPO: the ragged observations ``rows`` / ``counts`` and their
        ``windows`` beside one entry per step of ``actions``,
        ``log_probs``, ``advantages`` and ``returns``.

        ``agent`` owns the critic: the batch's observations are bucketed
        once, in batch order, into windows of its value network's
        ``max_obsv_size`` jobs, valued by one ``agent.value_batch(windows)``
        call, and handed on as ``windows``.
        """
        if not self._episodes:
            raise RuntimeError("buffer is empty")
        rank = sorted(range(len(self._order)), key=self._order.__getitem__)
        data = {
            key: np.concatenate([self._episodes[i][k] for i in rank])
            for k, key in enumerate(
                ("rows", "counts", "actions", "log_probs", "rewards", "returns")
            )
        }
        rewards = data.pop("rewards")
        data["windows"] = RaggedRows.from_csr(
            data["rows"], data["counts"], agent.value.max_obsv_size
        )
        values = np.asarray(agent.value_batch(data["windows"]), dtype=np.float64)
        if values.shape != rewards.shape:
            raise ValueError(
                f"expected {len(rewards)} values (one per step), "
                f"got {values.shape}"
            )
        adv = np.empty(len(rewards))
        step_ptr = csr_indptr([len(self._episodes[i][2]) for i in rank])
        for s0, s1 in zip(step_ptr[:-1], step_ptr[1:]):
            v = values[s0:s1]
            next_v = np.append(v[1:], 0.0)  # terminal value is 0
            deltas = rewards[s0:s1] + self.gamma * next_v - v
            adv[s0:s1] = discount_cumsum(deltas, self.gamma * self.lam)
        if normalize_advantages:
            adv = (adv - adv.mean()) / (adv.std() + 1e-8)
        data["advantages"] = adv
        return data
