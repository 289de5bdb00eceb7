"""VecSchedGym: N SchedGym environments stepped in lock-step.

The RL training loop is dominated by per-step overhead: a policy forward
and an observation build per environment step.  Stepping N environments
together amortises both — one network call and one observation build
serve a whole *wave* of N decisions, and the Python-side event simulation
is the only per-environment cost left.

Observation type
----------------
A wave is ragged, ``(rows, counts)``: the float32 feature rows of every
active environment's visible jobs, one environment after the other in
index order, and the number of rows each of them owns.  It is built by
one gather from a static table this class keeps for all its environments
(each episode start writes that episode's
:class:`~repro.sim.env.FeatureCache` columns into its environment's slab)
and one :func:`~repro.sim.env.fill_dynamic_features` pass over all rows —
nothing here pads; a network that wants the fixed window pads at its own
input (:func:`~repro.sim.env.pad_observations`).

Protocol
--------
::

    vec = VecSchedGym(n_envs, n_procs, reward_fn, config)
    rows, counts = vec.reset(sequences[:n_envs])
    vec.queue_sequences(sequences[n_envs:])      # auto-reset backlog
    while len(counts):
        episodes = vec.episodes        # whose decisions this wave holds
        actions = <one per active env, in wave order>
        result = vec.step(actions)
        # result.dones[k] marks that episodes[k] just ended and
        # result.rewards[k] carries its sequence reward.  If the backlog
        # is non-empty the env starts the next queued sequence and stays
        # in the wave; otherwise it deactivates and leaves it.
        rows, counts = result.rows, result.counts

Episodes are numbered in the order their sequences were handed over
(``reset`` first, then the backlog), whichever environment runs them.
Each environment is a plain :class:`~repro.sim.env.SchedGym`, so a
vectorised rollout is step-for-step identical to running the episodes one
after another — the property the golden equivalence tests pin down.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Callable, Sequence

import numpy as np

from repro.config import EnvConfig
from repro.workloads.job import Job

from .cluster import ClusterSpec
from .env import SchedGym, observation_rows

__all__ = ["VecSchedGym", "VecStepResult"]


@dataclass(frozen=True)
class VecStepResult:
    """Outcome of one lock-step: the next wave, and what the stepped
    environments (the previous wave's, in its order) earned."""

    rows: np.ndarray       # (K, F) float32: the next wave's job rows
    counts: np.ndarray     # rows per still-active environment
    rewards: np.ndarray    # float64, non-zero only on done steps
    dones: np.ndarray      # bool, True where an episode just ended


class VecSchedGym:
    """N :class:`SchedGym` environments advanced in lock-step.

    Parameters mirror :class:`SchedGym`; ``n_envs`` adds the batch width.
    Sequences beyond the first ``n_envs`` can be queued for automatic
    per-env resets, so an arbitrary number of trajectories streams through
    a fixed set of environments.
    """

    def __init__(
        self,
        n_envs: int,
        n_procs: int | ClusterSpec,
        reward_fn: Callable[[Sequence[Job], int], float],
        config: EnvConfig | None = None,
    ):
        if n_envs <= 0:
            raise ValueError("n_envs must be positive")
        self.config = config or EnvConfig()
        self.envs = [SchedGym(n_procs, reward_fn, self.config) for _ in range(n_envs)]
        self._active = np.zeros(n_envs, dtype=bool)
        self._episode = np.zeros(n_envs, dtype=np.int64)
        self._n_started = 0
        self._queue: deque[Sequence[Job]] = deque()
        # Static feature columns of every running episode: environment i
        # owns rows [i * slab, (i + 1) * slab), indexed within the slab
        # like its engine's ``pending_rows``.
        self._slab = 0
        self._table = SimpleNamespace(
            static=np.zeros((0, self.config.job_features)),
            submit=np.zeros(0),
            procs=np.zeros(0),
        )

    # ------------------------------------------------------------------
    @property
    def n_envs(self) -> int:
        return len(self.envs)

    @property
    def active(self) -> np.ndarray:
        """Boolean mask of environments with an episode in progress."""
        return self._active.copy()

    @property
    def episodes(self) -> np.ndarray:
        """Episode number of each active environment, in wave order."""
        return self._episode[self._active]

    @property
    def all_done(self) -> bool:
        return not self._active.any()

    @property
    def n_queued(self) -> int:
        return len(self._queue)

    # ------------------------------------------------------------------
    def reset(
        self, sequences: Sequence[Sequence[Job]]
    ) -> tuple[np.ndarray, np.ndarray]:
        """Start one episode per sequence; returns the first wave.

        At most ``n_envs`` sequences may be passed; queue the rest with
        :meth:`queue_sequences`.  Environments beyond ``len(sequences)``
        stay inactive and own no part of the wave.
        """
        if not sequences:
            raise ValueError("reset() needs at least one job sequence")
        if len(sequences) > self.n_envs:
            raise ValueError(
                f"{len(sequences)} sequences for {self.n_envs} envs; queue the "
                "surplus with queue_sequences()"
            )
        self._queue.clear()
        self._active[:] = False
        self._n_started = 0
        for i, seq in enumerate(sequences):
            self._start(i, seq)
        return self._wave()

    def queue_sequences(self, sequences: Sequence[Sequence[Job]]) -> None:
        """Add sequences to the auto-reset backlog (FIFO)."""
        self._queue.extend(sequences)

    def step(self, actions: np.ndarray) -> VecStepResult:
        """Advance every active environment by one action.

        ``actions`` has one entry per active environment, in wave order.
        Environments are processed in index order, so queued sequences
        are assigned to the lowest-index finishing env first — the
        deterministic bookkeeping the equivalence tests rely on.
        """
        active = np.flatnonzero(self._active)
        if not len(active):
            raise RuntimeError("all environments are done; call reset()")
        actions = np.asarray(actions)
        if actions.shape != (len(active),):
            raise ValueError(
                f"expected {len(active)} actions (one per active environment), "
                f"got shape {actions.shape}"
            )
        rewards = np.zeros(len(active), dtype=np.float64)
        dones = np.zeros(len(active), dtype=bool)
        for k, (i, action) in enumerate(zip(active.tolist(), actions.tolist())):
            reward = self.envs[i].schedule(action)
            if reward is None:
                continue
            rewards[k] = reward
            dones[k] = True
            if self._queue:
                self._start(i, self._queue.popleft())
            else:
                self._active[i] = False
        return VecStepResult(*self._wave(), rewards, dones)

    # ------------------------------------------------------------------
    def _start(self, i: int, jobs: Sequence[Job]) -> None:
        """Begin the next episode on environment ``i`` and load its
        static columns into the environment's slab."""
        cache = self.envs[i].begin(jobs)
        n = cache.size
        if n > self._slab:
            self._grow(n)
        lo = i * self._slab
        table = self._table
        table.static[lo : lo + n] = cache.static[:n]
        table.submit[lo : lo + n] = cache.submit[:n]
        table.procs[lo : lo + n] = cache.procs[:n]
        self._active[i] = True
        self._episode[i] = self._n_started
        self._n_started += 1

    def _grow(self, n: int) -> None:
        """Widen every slab to the next power of two >= ``n`` rows."""
        old, new = self._slab, 1 << (n - 1).bit_length()
        table = self._table
        for name in ("static", "submit", "procs"):
            column = getattr(table, name)
            wide = np.zeros((self.n_envs, new, *column.shape[1:]))
            wide[:, :old] = column.reshape(self.n_envs, old, *column.shape[1:])
            setattr(table, name, wide.reshape(-1, *column.shape[1:]))
        self._slab = new

    def _wave(self) -> tuple[np.ndarray, np.ndarray]:
        """The observation of every active environment, as one
        ``(rows, counts)`` pair (empty once all are done)."""
        m = self.config.max_obsv_size
        idx: list[int] = []
        counts, offsets, now, free_procs, free_mem = [], [], [], [], []
        for i in np.flatnonzero(self._active).tolist():
            engine = self.envs[i].engine
            visible = engine.pending_rows[:m]
            idx += visible
            counts.append(len(visible))
            offsets.append(i * self._slab)
            now.append(engine.now)
            free_procs.append(engine.cluster.free_procs)
            free_mem.append(engine.cluster.free_mem)
        counts = np.array(counts, dtype=np.int64)
        offsets = np.array(offsets, dtype=np.intp)
        spec = self.envs[0].cluster_spec
        rows = observation_rows(
            self._table,
            np.array(idx, dtype=np.intp) + np.repeat(offsets, counts),
            np.repeat(now, counts),
            np.repeat(free_procs, counts),
            spec.n_procs,
            self.config,
            free_mem=np.repeat(free_mem, counts),
            total_mem=spec.total_mem,
        )
        return rows, counts
