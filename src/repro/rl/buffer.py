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
:func:`~repro.rl.trainer.lockstep_rollout` plus its per-episode targets), and
:meth:`TrajectoryBuffer.get` concatenates the episodes; nothing here is
padded to the observation window.

Episodes are ordered deterministically in the PPO batch: by the
``order`` key they were added under (the trainer passes the trajectory
index), completion order otherwise — so ``get()`` arrays do not depend on
which episode finished first (e.g. ragged lengths under backfilling).

The discounted recurrences are evaluated by :func:`discount_cumsum`: one
reversed loop over the episode's steps, a multiply and an add each.
"""

from __future__ import annotations

import numpy as np

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

        buf.add_episode(rows, counts, actions, log_probs, values, reward)
        data = buf.get()                                 # once per epoch
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
        values: np.ndarray,
        reward: "float | np.ndarray",
        order: int | None = None,
    ) -> None:
        """Store one finished episode of T steps and compute its
        advantages and returns.

        ``rows`` / ``counts`` are its ragged observations (``counts`` has
        one entry per step and sums to ``len(rows)``); ``actions``,
        ``log_probs`` and ``values`` have length T.  ``reward`` is the
        terminal reward of the sequence, or one reward per step.
        ``order`` places the episode in :meth:`get` (default: after those
        already stored).
        """
        actions = np.asarray(actions, dtype=np.int64)
        n = len(actions)
        if n == 0:
            raise RuntimeError("an episode needs at least one step")
        counts = np.asarray(counts)
        log_probs = np.asarray(log_probs, dtype=np.float64)
        values = np.asarray(values, dtype=np.float64)
        for name, column in (("counts", counts), ("log_probs", log_probs),
                             ("values", values)):
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
        next_values = np.append(values[1:], 0.0)  # terminal value is 0

        deltas = rewards + self.gamma * next_values - values
        adv = discount_cumsum(deltas, self.gamma * self.lam)
        rets = discount_cumsum(rewards, self.gamma)

        self._order.append(len(self._order) if order is None else int(order))
        self._episodes.append((rows, counts, actions, log_probs, adv, rets))
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

    def get(self, normalize_advantages: bool = True) -> dict[str, np.ndarray]:
        """All stored episodes as flat columns, advantage-normalised for
        PPO: the ragged observations ``rows`` / ``counts`` beside one
        entry per step of ``actions``, ``log_probs``, ``advantages`` and
        ``returns``."""
        if not self._episodes:
            raise RuntimeError("buffer is empty")
        rank = sorted(range(len(self._order)), key=self._order.__getitem__)
        data = {
            key: np.concatenate([self._episodes[i][k] for i in rank])
            for k, key in enumerate(
                ("rows", "counts", "actions", "log_probs", "advantages", "returns")
            )
        }
        if normalize_advantages:
            adv = data["advantages"]
            data["advantages"] = (adv - adv.mean()) / (adv.std() + 1e-8)
        return data
