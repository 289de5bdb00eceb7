"""SchedGym: the gym-style RL environment (paper §IV-D).

Implements the OpenAI-Gym ``reset()/step()`` protocol without the gym
dependency.  Each step presents up to ``MAX_OBSV_SIZE`` waiting jobs as a
fixed-size observation matrix; the action is the index of the job to
schedule next.

Observation (one row per visible job, ``JOB_FEATURES = 7`` columns):

====  =======================================================
col   feature (all in [0, 1])
====  =======================================================
0     waiting time so far, saturating ``w / (w + wait_scale)``
1     requested runtime, ``log(r) / log(runtime_scale)``
2     requested processors, ``n / cluster_size``
3     free processors fraction (system state, same each row)
4     can-run-now flag (request fits free processors)
5     user id, stable-hashed to [0, 1) (fairness signal)
6     validity flag: 1 = real job, 0 = zero-padded slot
====  =======================================================

With ``EnvConfig.memory_features`` on (and ``job_features >= 9``) two
per-resource columns are appended for memory-constrained scenarios:

====  =======================================================
col   feature (all in [0, 1])
====  =======================================================
7     job memory demand / cluster memory capacity (static)
8     free memory fraction (system state, same each row)
====  =======================================================

The default 7-column layout is byte-identical with the flag off.

Pending jobs are ordered FCFS and cut off at ``MAX_OBSV_SIZE`` (paper:
"we simply leverage FCFS ... and select the top MAX_OBSV_SIZE jobs").

Rewards are 0 on every step except the last, where the negative (for
minimise-goals) or positive (utilization) sequence metric is returned —
"we just return rewards 0 to each action and calculate the accurate reward
for the entire sequence at the last action".

Observation type
----------------
The observation of the training path is ragged: ``(rows, counts)`` — the
float32 feature rows of the visible jobs of a batch of queues, one after
the other, and how many belong to each queue.  The kernel network scores
each job from its own row (§IV-B1), so nothing between the engine and the
PPO update needs the zero-padded window.  :func:`observation_rows` is the
one producer, in training and in deployment alike: static columns
(normalised runtime, processor fraction, user hash) are gathered by row
from a :class:`FeatureCache` — the one job-feature table, one row per
job, computed once — and :func:`fill_dynamic_features` overwrites the
time- and state-dependent ones; :class:`~repro.sim.vec_env.VecSchedGym`
builds the wave of many queues this way, one queue per unfinished run.
A queue that no engine keeps in order is observed by
:func:`observe_queue`: FCFS sort, cut to the window, a fresh table of
those jobs.
:func:`~repro.nn.ragged.pad_observations` is the one place the
``(n, M, F)`` window and its ``(n, M)`` action mask are materialised; its
callers are the networks that read the whole window (the MLP / LeNet
baselines of §V-B, :class:`~repro.nn.networks.WindowPolicy`) and the
gym-protocol surface of this module — :class:`SchedGym`, the
paper's single-environment API, and :func:`build_observation`.  The
per-job loop the encoding was first written as lives on in
``tests/reference.py`` as its executable specification.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.config import EnvConfig
from repro.nn.ragged import pad_observations
from repro.workloads.job import Job

from .cluster import ClusterSpec, mem_demand
from .simulator import SchedulingEngine

__all__ = [
    "SchedGym",
    "StepResult",
    "FeatureCache",
    "build_observation",
    "fill_dynamic_features",
    "observation_rows",
    "observe_queue",
    "stable_user_hash",
]


def fill_dynamic_features(
    feats: np.ndarray,
    submit: np.ndarray,
    procs: np.ndarray,
    now: "float | np.ndarray",
    free_procs: "int | np.ndarray",
    n_procs: int,
    config: EnvConfig,
    free_mem: "float | np.ndarray" = math.inf,
    total_mem: float = math.inf,
) -> np.ndarray:
    """Overwrite the time/state-dependent columns (0, 3, 4) of ``feats``.

    The single definition of the dynamic half of the observation
    encoding; :func:`observation_rows` is its one caller.  Mutates and
    returns ``feats``.

    ``now``, ``free_procs`` and ``free_mem`` are scalars when every row
    belongs to one queue, or one value per row when the rows of several
    queues are filled in a single call; the arithmetic per row is the
    same either way.

    With ``config.memory_features`` on, the free-memory fraction column
    (8) is also dynamic; an unconstrained cluster reports 1.0 (all memory
    free).
    """
    wait = now - submit
    feats[:, 0] = wait / (wait + config.wait_scale)
    feats[:, 3] = free_procs / n_procs
    feats[:, 4] = procs <= free_procs
    if config.memory_features:
        feats[:, config.MEM_FREE_COL] = (
            1.0 if math.isinf(total_mem) else free_mem / total_mem
        )
    return feats


def stable_user_hash(user_id: int | str) -> float:
    """Deterministic user-id feature in [0, 1).

    Python's built-in ``hash`` of strings is salted per process
    (PYTHONHASHSEED), so features built from it differ between runs and
    between the workers of a vectorised rollout.  CRC-32 of the decimal
    representation is stable across processes, platforms and Python
    versions, which keeps trained models and recorded trajectories
    reproducible.
    """
    return (zlib.crc32(str(user_id).encode("utf-8")) % 1024) / 1024.0


def _capacity(n: int) -> int:
    """Rows allocated to hold ``n`` jobs: doubling, from a 64-row floor."""
    return max(64, 1 << (n - 1).bit_length())


class FeatureCache:
    """The job-feature table: one row of static observation columns per job.

    The columns that depend on neither simulation time nor cluster state
    (``log``-normalised requested runtime, processor fraction, user hash,
    memory-demand fraction) are computed once per job, here and nowhere
    else — with :func:`math.log`, exactly as the loop of
    ``tests/reference.py`` does, so table rows and loop rows are
    bit-identical.  :func:`observation_rows` gathers them by row;
    ``submit`` and ``procs`` are the float64 columns the dynamic features
    are computed from.

    The table is keyed by row and knows nothing of job ids.  :meth:`rows`
    is its one writer: it appends one row per job (capacity doubles from
    a 64-row floor) and returns their row numbers.  :meth:`compact` is
    its one shrink.  An episode knows its jobs up front:
    :meth:`SchedGym.reset` and :class:`~repro.sim.vec_env.VecSchedGym`
    (one table for all its runs, each run's rows after the previous
    run's) hand them to the constructor and read rows by the engine's
    ``pending_rows``.  A picker bound to an engine
    (:class:`~repro.schedulers.rl_scheduler.EnginePicker`) starts from
    ``()``, adds a job's row as it enters the window and compacts once
    started jobs' rows pile up.  Any other queue is observed through a
    fresh table of its window (:func:`observe_queue`).

    Only the first ``size`` rows of ``static``, ``submit`` and ``procs``
    are filled; the rest is spare capacity (zeros).
    """

    def __init__(
        self, jobs: Sequence[Job], n_procs: int, config: EnvConfig,
        total_mem: float = math.inf,
    ):
        self.n_procs = n_procs
        self.config = config
        self.total_mem = total_mem
        self.size = 0
        self.static = np.zeros((0, config.job_features))
        self.submit, self.procs = np.zeros(0), np.zeros(0)
        self.rows(jobs)

    def _resize(self, keep: "slice | np.ndarray", capacity: int) -> None:
        """Re-house rows ``keep`` at the front of ``capacity``-row columns:
        the one reallocation behind growth (``keep`` is the filled
        prefix) and compaction (``keep`` is the surviving rows)."""
        for name in ("static", "submit", "procs"):
            kept = getattr(self, name)[keep]
            column = np.zeros((capacity, *kept.shape[1:]))
            column[: len(kept)] = kept
            setattr(self, name, column)

    def rows(self, jobs: Sequence[Job]) -> np.ndarray:
        """Append one row per job, from row ``size`` on, and return their
        row numbers."""
        lo, hi = self.size, self.size + len(jobs)
        if hi > len(self.submit):
            self._resize(slice(lo), _capacity(hi))
        config = self.config
        self.submit[lo:hi] = [j.submit_time for j in jobs]
        procs = self.procs[lo:hi]
        procs[:] = [j.requested_procs for j in jobs]
        # rows past ``size`` are zeros, so the dynamic columns (0, 3, 4,
        # 8) need no write here; observation_rows overwrites them anyway
        static = self.static[lo:hi]
        log_cap = math.log(config.runtime_scale)
        static[:, 1] = [
            min(math.log(max(j.requested_time, 1.0)) / log_cap, 1.0)
            for j in jobs
        ]
        static[:, 2] = procs / self.n_procs
        static[:, 5] = [stable_user_hash(j.user_id) for j in jobs]
        static[:, 6] = 1.0
        if config.memory_features:
            # demand / capacity, saturating at 1; x/inf == 0 covers the
            # unconstrained-cluster case with no branch
            demand = np.array([mem_demand(j) for j in jobs], dtype=np.float64)
            static[:, config.MEM_DEMAND_COL] = np.minimum(
                demand / self.total_mem, 1.0
            )
        self.size = hi
        return np.arange(lo, hi, dtype=np.intp)

    def compact(self, keep: np.ndarray) -> None:
        """Keep only rows ``keep``, renumbered ``0, 1, ...`` in that order
        (the caller renumbers its keys); capacity shrinks back to the
        doubling schedule."""
        self.size = len(keep)
        self._resize(keep, _capacity(self.size))


def observation_rows(
    table: FeatureCache,
    idx: np.ndarray,
    now: "float | np.ndarray",
    free_procs: "int | np.ndarray",
    n_procs: int,
    config: EnvConfig,
    free_mem: "float | np.ndarray" = math.inf,
    total_mem: float = math.inf,
) -> np.ndarray:
    """Feature rows of the jobs at ``idx`` of ``table``: ``(K, F)`` float32.

    The state arguments are those of :func:`fill_dynamic_features`.  The
    rows are assembled in float64 and cast once, the bits every consumer
    of the encoding has always seen.
    """
    feats = table.static[idx]  # fancy-index: fresh (K, F) rows
    fill_dynamic_features(
        feats, table.submit[idx], table.procs[idx],
        now, free_procs, n_procs, config,
        free_mem=free_mem, total_mem=total_mem,
    )
    return feats.astype(np.float32)


def check_actions(actions: np.ndarray, counts, max_obsv_size: int) -> None:
    """Reject a wave's actions unless each picks one of its queue's
    ``counts[k]`` visible slots: the one action check of
    :class:`SchedGym` and :class:`~repro.sim.vec_env.VecSchedGym`."""
    outside = (actions < 0) | (actions >= max_obsv_size)
    if outside.any():
        raise ValueError(f"action {actions[outside][0]} out of range "
                         f"[0, {max_obsv_size})")
    padded = actions >= np.asarray(counts)
    if padded.any():
        k = int(np.argmax(padded))
        raise ValueError(
            f"action {actions[k]} points at a padded slot "
            f"({counts[k]} jobs visible); respect the action mask"
        )


def observe_queue(
    pending: Sequence[Job],
    now: float,
    free_procs: int,
    n_procs: int,
    config: EnvConfig,
    free_mem: float = math.inf,
    total_mem: float = math.inf,
) -> tuple[np.ndarray, list[Job]]:
    """Feature rows of any waiting queue's window: ``(feats, visible)``,
    where row ``i`` of ``feats`` describes ``visible[i]``.

    The window is the queue in FCFS ``(submit_time, job_id)`` order, cut
    to ``max_obsv_size``; its rows come from a fresh table of those jobs
    alone, so the result depends on nothing but the arguments.
    """
    visible = sorted(pending, key=lambda j: (j.submit_time, j.job_id))
    visible = visible[: config.max_obsv_size]
    table = FeatureCache((), n_procs, config, total_mem=total_mem)
    feats = observation_rows(
        table, table.rows(visible), now, free_procs, n_procs, config,
        free_mem=free_mem, total_mem=total_mem,
    )
    return feats, visible


def build_observation(
    pending: Sequence[Job],
    now: float,
    free_procs: int,
    n_procs: int,
    config: EnvConfig,
    free_mem: float = math.inf,
    total_mem: float = math.inf,
) -> tuple[np.ndarray, np.ndarray, list[Job]]:
    """Fixed-size observation of a waiting queue, any queue: the padded
    window of :func:`observe_queue`'s rows.  Returns ``(observation,
    action_mask, visible_jobs)`` where ``visible_jobs[i]`` is the job row
    ``i`` describes."""
    feats, visible = observe_queue(
        pending, now, free_procs, n_procs, config,
        free_mem=free_mem, total_mem=total_mem,
    )
    obs, mask = pad_observations(feats, [len(visible)], config.max_obsv_size)
    return obs[0], mask[0], visible


@dataclass(frozen=True)
class StepResult:
    """What ``step`` returns: observation, reward, done flag, action mask."""

    observation: np.ndarray
    reward: float
    done: bool
    action_mask: np.ndarray
    info: dict


class SchedGym:
    """Gym-style environment over :class:`SchedulingEngine`.

    Parameters
    ----------
    n_procs:
        cluster size — a bare processor count, or a
        :class:`~repro.sim.cluster.ClusterSpec` for multi-resource
        (memory-constrained) clusters.
    reward_fn:
        ``f(completed_jobs, n_procs) -> float`` evaluated once at episode
        end; should already carry the sign convention (higher = better).
        See :mod:`repro.rl.reward` for builders.
    config:
        observation-space and backfill settings.
    """

    def __init__(
        self,
        n_procs: int | ClusterSpec,
        reward_fn: Callable[[Sequence[Job], int], float],
        config: EnvConfig | None = None,
    ):
        self.cluster_spec = ClusterSpec.coerce(n_procs)
        self.n_procs = self.cluster_spec.n_procs
        self.reward_fn = reward_fn
        self.config = config or EnvConfig()
        self._engine: SchedulingEngine | None = None
        self._cache: FeatureCache | None = None

    # ------------------------------------------------------------------
    @property
    def observation_shape(self) -> tuple[int, int]:
        return self.config.observation_shape

    @property
    def engine(self) -> SchedulingEngine:
        if self._engine is None:
            raise RuntimeError("call reset() before stepping the environment")
        return self._engine

    @property
    def visible(self) -> list[Job]:
        """The jobs an action may pick, in slot order: the FCFS head of
        the (sorted) pending queue."""
        return self.engine.pending[: self.config.max_obsv_size]

    # ------------------------------------------------------------------
    def reset(self, jobs: Sequence[Job]) -> tuple[np.ndarray, np.ndarray]:
        """Start an episode over ``jobs``; returns (observation, action_mask)."""
        self._engine = SchedulingEngine(
            jobs, self.cluster_spec, backfill=self.config.backfill
        )
        self._cache = FeatureCache(
            self._engine.jobs, self.n_procs, self.config,
            total_mem=self.cluster_spec.total_mem,
        )
        has_decision = self._engine.advance_until_decision()
        assert has_decision, "a non-empty job sequence must yield a decision"
        return self._observe()

    def step(self, action: int) -> StepResult:
        """Schedule the job in visible slot ``action``."""
        engine = self.engine
        if engine.done:
            raise RuntimeError("episode is over; call reset()")
        m = self.config.max_obsv_size
        check_actions(np.array([action]), [min(len(engine.pending), m)], m)
        engine.commit(engine.pending[action])
        done = not engine.advance_until_decision()
        # a finished episode has an empty queue: zero rows, all-False mask
        obs, mask = self._observe()
        if not done:
            return StepResult(obs, 0.0, False, mask, {"now": engine.now})
        reward = float(self.reward_fn(engine.completed, self.n_procs))
        return StepResult(
            obs, reward, True, mask, {"now": engine.now, "completed": engine.completed}
        )

    def _observe(self) -> tuple[np.ndarray, np.ndarray]:
        """The padded window over the visible jobs, and its action mask."""
        engine = self.engine
        m = self.config.max_obsv_size
        rows = np.asarray(engine.pending_rows[:m], dtype=np.intp)
        feats = observation_rows(
            self._cache, rows, engine.now, engine.cluster.free_procs,
            self.n_procs, self.config,
            free_mem=engine.cluster.free_mem,
            total_mem=engine.cluster.total_mem,
        )
        obs, mask = pad_observations(feats, [len(rows)], m)
        return obs[0], mask[0]
