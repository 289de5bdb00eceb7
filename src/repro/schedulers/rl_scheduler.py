"""Deploying a trained policy network as a drop-in Scheduler.

At test time the paper's agent "is directly used to select job with the
highest probability to ensure the best decision. There is no exploration
anymore" — so :class:`RLSchedulerPolicy` runs the policy network greedily
over the same observation the training environment produced and returns
the argmax job.

Hot path
--------
A decision is made once per scheduled job, potentially millions of times
over an evaluation campaign.  Two things keep it cheap while staying
argmax-equivalent to the reference dense forward (pinned by golden
tests):

* the observation comes from the same table through the same function as
  in training — a :class:`~repro.sim.env.FeatureCache` read by
  :func:`~repro.sim.env.observation_rows`.  ``bind`` fills the table once
  with the episode's jobs; ``select`` keeps one that grows as jobs
  arrive, validates every lookup (and rebuilds itself when a trace reuses
  job ids) and is pruned by ``forget_jobs`` — correctness never depends
  on its freshness;
* policies that score jobs independently (``score_rows``, e.g. the
  kernel policy) skip the padded ``(1, M, F)`` batch entirely: only the
  ``k`` visible rows go through the network, and the argmax is taken over
  raw scores (log-softmax is monotone, so the winner is identical).

Models persist in the one checkpoint layout (:mod:`repro.checkpoint`),
and pickling ships the same :class:`~repro.checkpoint.Checkpoint` (cache
dropped), so policies broadcast cleanly to :mod:`repro.runtime` workers.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import Sequence

import numpy as np

from repro import checkpoint
from repro.config import EnvConfig, FeatureLayoutError
from repro.nn import Module, make_policy, masked_log_softmax, no_grad
from repro.sim.cluster import Cluster, ClusterSpec
from repro.sim.env import FeatureCache, observation_rows, pad_observations
from repro.workloads.job import Job

from .base import Scheduler

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
                f"{self.env_config.job_features}; rebuild the network for "
                "this layout or pass the EnvConfig it was trained with"
            )
        policy_slots = getattr(policy, "max_obsv_size", None)
        if (policy_slots is not None
                and policy_slots != self.env_config.max_obsv_size):
            raise FeatureLayoutError(
                f"policy network expects {policy_slots} observable job "
                f"slots but env_config.max_obsv_size is "
                f"{self.env_config.max_obsv_size}"
            )
        self._cache: FeatureCache | None = None
        self.n_procs = n_procs  # checked property; also resets the cache
        if name is not None:
            self.name = name

    # ------------------------------------------------------------------
    def retarget(
        self,
        target,
        on_mismatch: str = "adapt",
        name: str | None = None,
    ) -> "RLSchedulerPolicy":
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
        observing through its *own* trained layout either way; with
        ``on_mismatch="fail"`` a non-native combination raises
        :class:`~repro.config.FeatureLayoutError` instead of adapting.

        ``self`` is never mutated — the zoo copy a study holds stays
        aimed at its training cluster.
        """
        if on_mismatch not in ("adapt", "fail"):
            raise ValueError(
                f"on_mismatch must be 'adapt' or 'fail', got {on_mismatch!r}"
            )
        from repro.scenarios import Scenario, get_scenario  # local: no cycle

        target_label = None
        if isinstance(target, (str, Scenario)):
            scenario = get_scenario(target)
            cluster = scenario.cluster
            target_env = scenario.env_config()
            target_label = f"scenario {scenario.name!r}"
        else:
            cluster = ClusterSpec.coerce(target)
            memory = cluster.memory is not None
            target_env = EnvConfig(
                job_features=max(self.env_config.job_features, 9) if memory
                else self.env_config.job_features,
                memory_features=memory,
            )
            target_label = f"cluster {cluster.n_procs}p"
        compat = self.env_config.feature_compat(target_env)
        if compat != "native" and on_mismatch == "fail":
            raise FeatureLayoutError(
                f"{self.name} was trained "
                f"{'without' if compat == 'memory-blind' else 'with'} memory "
                f"features but {target_label} is "
                f"{'memory-constrained' if compat == 'memory-blind' else 'unconstrained'} "
                f"({compat}); pass on_mismatch='adapt' to deploy anyway"
            )
        clone = self.from_checkpoint(self.to_checkpoint())
        clone.n_procs = cluster.n_procs  # checked setter, rebinds the cache
        clone.compat = compat
        if name is not None:
            clone.name = name
        return clone

    # ------------------------------------------------------------------
    @property
    def n_procs(self) -> int:
        """Target cluster size; assignment validates and rebinds the
        feature cache (processor fractions depend on it)."""
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
        self._cache = None

    # ------------------------------------------------------------------
    def forget_jobs(self, job_ids) -> int:
        """Evict departed jobs from ``select``'s job-feature table.

        Serving daemons call this as jobs complete so the table stays
        bounded by the live queue; returns how many rows were dropped.
        """
        return 0 if self._cache is None else self._cache.evict(job_ids)

    # ------------------------------------------------------------------
    def score(self, job: Job, now: float, cluster: Cluster) -> float:
        raise RuntimeError(
            "RL policies score the whole queue jointly; use select()"
        )

    def select(self, pending: Sequence[Job], now: float, cluster: Cluster) -> Job:
        if not pending:
            raise ValueError("cannot select from an empty queue")
        visible = sorted(pending, key=lambda j: (j.submit_time, j.job_id))
        visible = visible[: self.env_config.max_obsv_size]
        total_mem = getattr(cluster, "total_mem", math.inf)
        if self._cache is None or self._cache.total_mem != total_mem:
            # total_mem comparison: inf != inf is False, so unconstrained
            # clusters never trigger a rebuild; a retarget to a different
            # memory capacity rescales the static demand column.
            self._cache = FeatureCache(
                (), self.n_procs, self.env_config, total_mem=total_mem
            )
        rows = self._cache.rows(visible)
        return visible[self._best_row(self._cache, rows, now, cluster)]

    def _best_row(
        self, cache: FeatureCache, rows: np.ndarray, now: float, cluster
    ) -> int:
        """Position in ``rows`` (rows of ``cache``: the visible jobs, FCFS)
        of the job the policy picks.

        A policy that scores jobs independently (``score_rows``) sees only
        those ``k`` rows; log-softmax is monotone, so the argmax of the
        raw scores is the argmax of the dense forward over the padded
        window, which every other policy takes (ties break on the first
        index either way).
        """
        feats = observation_rows(
            cache, rows, now, cluster.free_procs, self.n_procs,
            self.env_config,
            free_mem=getattr(cluster, "free_mem", math.inf),
            total_mem=getattr(cluster, "total_mem", math.inf),
        )
        score_rows = getattr(self.policy, "score_rows", None)
        with no_grad():
            if score_rows is not None:
                return int(np.argmax(score_rows(feats)))
            obs, mask = pad_observations(
                feats, [len(rows)], self.env_config.max_obsv_size
            )
            logits = self.policy(obs, mask)
            return int(np.argmax(masked_log_softmax(logits, mask).numpy()[0]))

    def bind(self, engine):
        """Bound to a batch engine, observe exactly as :class:`SchedGym`
        does: one :class:`FeatureCache` filled with the episode's jobs,
        read by the engine's own ``pending_rows`` — no per-decision job-id
        lookups and none of :meth:`FeatureCache.rows`' validation, which
        guards against a population that cannot change here."""
        if engine.jobs is None:
            return super().bind(engine)
        cache = FeatureCache(
            engine.jobs, self.n_procs, self.env_config,
            total_mem=engine.cluster.total_mem,
        )
        m = self.env_config.max_obsv_size

        def pick() -> Job:
            rows = np.asarray(engine.pending_rows[:m], dtype=np.intp)
            return engine.pending[
                self._best_row(cache, rows, engine.now, engine.cluster)
            ]

        return pick

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
