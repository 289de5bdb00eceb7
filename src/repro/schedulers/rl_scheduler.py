"""Deploying a trained policy network as a drop-in Scheduler.

At test time the paper's agent "is directly used to select job with the
highest probability to ensure the best decision. There is no exploration
anymore" — so :class:`RLSchedulerPolicy` runs the policy network greedily
over the same observation the training environment produced and returns
the argmax job.

Hot path
--------
A decision is made once per scheduled job, potentially millions of times
over an evaluation campaign.  Three things keep it cheap while staying
argmax-equivalent to the reference dense forward (pinned by golden
tests):

* the observation comes from the same row-keyed table through the same
  function as in training — a :class:`~repro.sim.env.FeatureCache` read
  by :func:`~repro.sim.env.observation_rows`.  Bound to an engine
  (:meth:`RLSchedulerPolicy.bind`, the serving daemon's and
  :func:`~repro.sim.run_scheduler`'s path) a pick reads the engine's
  FCFS-sorted rows as they stand from a table keyed by engine row
  (:class:`EnginePicker`): no sort.  ``select`` takes any queue and
  observes its window afresh (:func:`~repro.sim.env.observe_queue`), so
  it holds no state between calls;
* every decision, one queue or a wave of them, is made by
  :meth:`RLSchedulerPolicy._best_rows`: one ``score_rows(rows, counts)``
  call scores the ``k`` visible rows of each queue (the kernel policy
  reads them as they are, the window baselines pad at their own input),
  and the argmax is taken over raw scores (log-softmax is monotone);
* batch runs step through a :class:`~repro.sim.vec_env.VecSchedGym`
  (:meth:`RLSchedulerPolicy.run_lockstep`), a ``row_local`` policy many
  sequences per forward.  The trainer's validation is this call, so the
  checkpoint is chosen on the decisions deployment makes.

Models persist in the one checkpoint layout (:mod:`repro.checkpoint`),
and pickling ships the same :class:`~repro.checkpoint.Checkpoint`, so
policies reach evaluation pool workers cleanly.
"""

from __future__ import annotations

import math
import time
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro import checkpoint
from repro.config import EnvConfig, FeatureLayoutError
from repro.nn import Module, make_policy
from repro.sim.cluster import Cluster, ClusterSpec
from repro.sim.env import FeatureCache, observation_rows, observe_queue
from repro.sim.vec_env import VecSchedGym
from repro.telemetry import core as _telemetry
from repro.workloads.job import Job

from .base import Scheduler

if TYPE_CHECKING:
    from repro.sim.core import EngineCore

__all__ = ["RLSchedulerPolicy", "FeatureLayoutError"]


#: the name ``benchmarks/e2e``'s frozen tracer wraps ``.rows`` under; drop
#: it when the benchmark refresh retargets the tracer (see ROADMAP)
DeployFeatureCache = FeatureCache


class RLSchedulerPolicy(Scheduler):
    """A trained policy network acting as a scheduler."""

    name = "RL"

    #: how this policy's feature layout relates to the setting it was last
    #: :meth:`retarget`ed at — "native" until a retarget says otherwise
    #: (see :meth:`repro.config.EnvConfig.feature_compat`)
    compat = "native"

    def __init__(
        self,
        policy: Module,
        n_procs: int,
        env_config: EnvConfig | None = None,
        preset: str = "kernel",
        name: str | None = None,
    ):
        self.policy = policy
        self.env_config = env_config or EnvConfig()
        self.preset = preset
        # A policy network whose input width disagrees with the feature
        # layout it is asked to observe through would only fail at the
        # first forward, deep inside a simulation (possibly in a runtime
        # worker) — check here instead.
        policy_features = getattr(policy, "job_features", None)
        if (policy_features is not None
                and policy_features != self.env_config.job_features):
            raise FeatureLayoutError(
                f"policy network expects {policy_features} features per job "
                f"but env_config.job_features is "
                f"{self.env_config.job_features} (memory_features="
                f"{self.env_config.memory_features}); rebuild the network "
                "for this layout or pass the EnvConfig it was trained with"
            )
        policy_slots = getattr(policy, "max_obsv_size", None)
        if (policy_slots is not None
                and policy_slots != self.env_config.max_obsv_size):
            raise FeatureLayoutError(
                f"policy network expects {policy_slots} observable job "
                f"slots but env_config.max_obsv_size is "
                f"{self.env_config.max_obsv_size}"
            )
        self.n_procs = n_procs  # checked property
        if name is not None:
            self.name = name

    # ------------------------------------------------------------------
    def retarget(self, target, name: str | None = None) -> "RLSchedulerPolicy":
        """A copy of this policy aimed at another scenario or cluster.

        ``target`` is a registered scenario name, a
        :class:`repro.scenarios.Scenario`, a
        :class:`~repro.sim.cluster.ClusterSpec`, or a bare processor
        count.  The copy's ``n_procs`` is set through the checked setter
        (a bogus cluster size fails here, not mid-run) and its ``compat``
        attribute records how this policy's feature layout relates to the
        target's native one (``"native"`` / ``"memory-blind"`` /
        ``"memory-neutral"`` — see
        :meth:`repro.config.EnvConfig.feature_compat`).  The policy keeps
        observing through its *own* trained layout either way, so every
        combination deploys.

        ``self`` is never mutated — the zoo copy a study holds stays
        aimed at its training cluster.
        """
        from repro.scenarios import Scenario, get_scenario  # local: no cycle

        if isinstance(target, (str, Scenario)):
            scenario = get_scenario(target)
            cluster = scenario.cluster
            target_env = scenario.env_config()
        else:
            cluster = ClusterSpec.coerce(target)
            target_env = EnvConfig(memory_features=cluster.memory is not None)
        compat = self.env_config.feature_compat(target_env)
        clone = self.from_checkpoint(self.to_checkpoint())
        clone.n_procs = cluster.n_procs  # checked setter
        clone.compat = compat
        if name is not None:
            clone.name = name
        return clone

    # ------------------------------------------------------------------
    @property
    def n_procs(self) -> int:
        """Target cluster size (processor fractions are relative to it);
        assignment validates."""
        return self._n_procs

    @n_procs.setter
    def n_procs(self, value) -> None:
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise TypeError(
                f"n_procs must be an integer cluster size, got {value!r}"
            )
        if value <= 0:
            raise ValueError(f"n_procs must be positive, got {value}")
        self._n_procs = int(value)

    # ------------------------------------------------------------------
    def forget_jobs(self, job_ids) -> int:
        """A no-op returning 0: :meth:`select` keeps no job between
        calls, so there is nothing to forget.  Kept only because
        ``benchmarks/e2e``'s tracer wraps it by name (ROADMAP item 8(c)).
        """
        return 0

    # ------------------------------------------------------------------
    def score(self, job: Job, now: float, cluster: Cluster) -> float:
        raise RuntimeError(
            "RL policies score the whole queue jointly; use select()"
        )

    def select(self, pending: Sequence[Job], now: float, cluster: Cluster) -> Job:
        if not pending:
            raise ValueError("cannot select from an empty queue")
        feats, visible = observe_queue(
            pending, now, cluster.free_procs, self.n_procs, self.env_config,
            free_mem=getattr(cluster, "free_mem", math.inf),
            total_mem=getattr(cluster, "total_mem", math.inf),
        )
        return visible[int(self._best_rows(feats, [len(visible)])[0])]

    def bind(self, engine: "EngineCore") -> "EnginePicker":
        """``pick()`` for ``engine``, batch or online: the job
        :meth:`select` would choose from its queue, read from the
        engine's own rows (see :class:`EnginePicker`)."""
        return EnginePicker(self, engine)

    def _best_rows(self, feats: np.ndarray, counts) -> np.ndarray:
        """Per queue of a wave, the position in its rows of the job the
        policy picks.

        Queue ``i`` owns the next ``counts[i]`` of the feature rows
        ``feats`` (its visible jobs, FCFS); the policy scores them all in
        one ``score_rows`` call.  Log-softmax is monotone, so a queue's
        first maximum score is its pick.  Ties break on the first index.
        """
        scores = self.policy.score_rows(feats, counts)
        if len(counts) == 1:  # select: no segments to reduce
            return np.argmax(scores, keepdims=True)
        # first maximum per segment: positions of the maxima, else a
        # sentinel past every segment, reduced by the minimum
        starts = np.cumsum(counts) - counts
        top = np.repeat(np.maximum.reduceat(scores, starts), counts)
        pos = np.arange(len(scores)) - np.repeat(starts, counts)
        return np.minimum.reduceat(np.where(scores == top, pos, len(scores)),
                                   starts)

    def run_lockstep(self, runs) -> list[list[Job]]:
        """Each run's completed jobs, for ``runs`` of ``(jobs, cluster,
        backfill)``: what :func:`~repro.sim.run_scheduler` returns for
        each, decision for decision, with the same telemetry totals.

        Runs step through a :class:`~repro.sim.vec_env.VecSchedGym`
        observing against this policy's ``n_procs``; each wave is one
        :meth:`_best_rows` call, then each run commits to its pick.  A
        ``row_local`` policy (a job's score is its own row's) shares its
        waves between runs, grouped by cluster total memory (the
        free-memory feature's scale).  Any other policy's scores depend
        on its batch, so it gets one run per reset.
        """
        reg = _telemetry.current()
        t0 = time.perf_counter()
        if self.policy.row_local:
            by_memory: dict[float, list[int]] = {}
            for i, (_, cluster, _) in enumerate(runs):
                total_mem = ClusterSpec.coerce(cluster).total_mem
                by_memory.setdefault(total_mem, []).append(i)
            groups = by_memory.values()
        else:
            groups = [[i] for i in range(len(runs))]
        vec = VecSchedGym(self.n_procs, self.env_config)
        engines = [None] * len(runs)
        for group in groups:
            rows, counts = vec.reset([runs[i] for i in group])
            while len(counts):
                rows, counts, _ = vec.step(self._best_rows(rows, counts))
            for i, engine in zip(group, vec.engines):
                engines[i] = engine
        if reg.enabled:
            reg.add_span_time("engine.episode", time.perf_counter() - t0,
                              count=len(engines))
            reg.counter("engine.events").add(sum(e.n_events for e in engines))
            reg.counter("engine.decisions").add(sum(e.n_jobs for e in engines))
        return [engine.completed for engine in engines]

    # -- persistence: the one checkpoint layout (repro.checkpoint) -------
    def to_checkpoint(self) -> checkpoint.Checkpoint:
        return checkpoint.Checkpoint(self.preset, self.n_procs,
                                     self.env_config,
                                     self.policy.state_dict(), self.name)

    @classmethod
    def from_checkpoint(cls, ckpt: checkpoint.Checkpoint):
        env = ckpt.env_config
        policy = make_policy(ckpt.preset, env.max_obsv_size, env.job_features)
        policy.load_state_dict(ckpt.weights)
        return cls(policy, ckpt.n_procs, env, ckpt.preset, ckpt.name)

    def save(self, path: str | Path) -> None:
        checkpoint.write(path, self.to_checkpoint())

    @classmethod
    def load(cls, path: str | Path) -> "RLSchedulerPolicy":
        """Deploy any checkpoint: a saved policy, ``repro train -o``'s
        output or a study-zoo file (its best-epoch weights)."""
        return checkpoint.read(path, cls.from_checkpoint)

    # -- pickling: ship the checkpoint, rebuild the network --------------
    __getstate__ = to_checkpoint

    def __setstate__(self, state: checkpoint.Checkpoint) -> None:
        self.__dict__.update(self.from_checkpoint(state).__dict__)


class EnginePicker:
    """:meth:`RLSchedulerPolicy.select` bound to one engine's queue.

    The engine keeps ``pending`` FCFS-sorted with ``pending_rows``
    parallel to it and gives each admitted job a row of its own, so the
    window is ``pending_rows[:M]`` as it stands and a row names one job
    while it waits: nothing is sorted.  :attr:`table` holds
    the static features of each row seen in the window (:attr:`slot`:
    engine row -> table row), added as it enters; once it would pass
    :attr:`bound` rows it is compacted to the window at hand.  Binding
    fixes the policy's ``n_procs``.
    """

    #: :attr:`bound`, in windows of ``M`` rows
    COMPACT_AT = 4

    def __init__(self, policy: RLSchedulerPolicy, engine: "EngineCore"):
        self.policy = policy
        self.engine = engine
        self.n_procs = policy.n_procs
        self.m = policy.env_config.max_obsv_size
        self.bound = self.COMPACT_AT * self.m
        self.table = FeatureCache((), self.n_procs, policy.env_config,
                                  total_mem=engine.cluster.total_mem)
        self.slot: dict[int, int] = {}  # engine row -> table row

    def __call__(self) -> Job:
        engine = self.engine
        rows = engine.pending_rows[: self.m]
        get = self.slot.get
        idx = [get(row, -1) for row in rows]
        if -1 in idx:
            idx = self._admit(rows, idx)
        cluster = engine.cluster
        policy = self.policy
        feats = observation_rows(
            self.table, np.array(idx, dtype=np.intp), engine.now,
            cluster.free_procs, self.n_procs, policy.env_config,
            free_mem=cluster.free_mem, total_mem=cluster.total_mem,
        )
        return engine.pending[int(policy._best_rows(feats, [len(idx)])[0])]

    def _admit(self, rows: list[int], idx: list[int]) -> list[int]:
        """Add the window's unseen rows (``idx`` -1), compacting the table
        to the window first if they would take it past :attr:`bound`;
        returns the window's table rows."""
        table = self.table
        new = [i for i, at in enumerate(idx) if at < 0]
        if table.size + len(new) > self.bound:
            seen = [i for i, at in enumerate(idx) if at >= 0]
            table.compact(np.array([idx[i] for i in seen], dtype=np.intp))
            self.slot = {rows[i]: k for k, i in enumerate(seen)}
        slot = self.slot
        pending = self.engine.pending
        for i, k in zip(new, table.rows([pending[i] for i in new]).tolist()):
            slot[rows[i]] = k
        return [slot[row] for row in rows]
