"""The RLScheduler training loop (paper §V-A).

Per epoch: sample ``trajectories_per_epoch`` job sequences of
``trajectory_length`` continuous jobs from the trace, roll each through
SchedGym with the current (stochastic) policy, then run the PPO update.
With trajectory filtering enabled, the first ``filter_phase1_fraction`` of
epochs trains only on sequences whose SJF-probe metric falls inside the
fitted range (two-step schedule of §IV-C); the remaining epochs see
everything.

The per-epoch mean metric values form the training curves of
Figs. 8-13.

How an epoch executes
---------------------
Nothing is configured; each choice follows from what the code observes.

*Rollout.*  In this process, on the trainer's own networks: one
:func:`lockstep_rollout` steps whole episodes through the trainer's
:class:`VecSchedGym` (``min(n_envs, trajectories_per_epoch)``
environments, one batched policy forward per step).  An epoch is
synchronous, as on-policy PPO is: the rollout runs on the weights the
previous update left, then the update runs.

The lock-step rollout and a loop of one-episode :meth:`Trainer._rollout`
calls, the tests' sequential reference, give **bit-identical**
trajectories, advantages and update statistics for the same seed, at any
lock-step width (the golden tests), because each trajectory samples
actions from its own ``(seed, epoch, trajectory)`` RNG stream, sequences
are sampled (and filter-checked) and enter the :class:`TrajectoryBuffer`
in trajectory order, and value estimates and behaviour log-probs are
computed once per finished episode on the batch of its own T
observations.

*Observations.*  Ragged all the way: environments emit ``(rows, counts)``
waves, the rollout scores and regroups them as they are, the buffer
concatenates them and the update plans from them.  Only a network that
reads the whole window (the MLP / LeNet baselines) sees it padded, at its
own input.

*Update.*  :class:`PPOAgent` takes the sparse policy step when the policy
exposes ``score_rows_grad`` (the kernel preset), the dense one otherwise.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import logging
import time
import zipfile
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.config import EnvConfig, PPOConfig, TrainConfig
from repro.telemetry import core as _telemetry
from repro.telemetry.sink import TelemetrySink, render_summary
from repro.nn import Module, ValueMLP, make_policy
from repro.nn.ragged import csr_gather, csr_indptr
from repro.runtime.seeding import stream_rng
from repro.schedulers.rl_scheduler import RLSchedulerPolicy
from repro.sim.cluster import ClusterSpec
from repro.sim.env import SchedGym
from repro.sim.metrics import metric_by_name
from repro.sim.vec_env import VecSchedGym
from repro.workloads.sampler import SequenceSampler
from repro.workloads.swf import SWFTrace

from .buffer import TrajectoryBuffer
from .filtering import TrajectoryFilter
from .ppo import PPOAgent, UpdateStats
from .reward import make_reward

__all__ = [
    "EpochRecord", "TrainingResult", "Trainer", "lockstep_rollout", "train",
]

logger = logging.getLogger("repro.rl.trainer")


@dataclass(frozen=True)
class EpochRecord:
    """One point of a training curve."""

    epoch: int
    mean_metric: float          # raw metric (e.g. average bounded slowdown)
    mean_reward: float          # signed reward the agent maximises
    stats: UpdateStats
    n_rejected: int             # sequences rejected by the trajectory filter
    wall_time: float            # seconds spent in this epoch
    filtered_phase: bool
    val_reward: float = float("nan")  # greedy-policy reward on held-out seqs
    #: telemetry runs only: per-phase wall seconds for this epoch
    #: (``rollout`` / ``update`` / ``validate``), read
    #: from the epoch spans; ``None`` when telemetry is disabled.  Old
    #: records without the field load with the default (the ``kl_last``
    #: compat pattern).
    phase_times: dict | None = None

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    #: keys of retired fields that checkpoints written before their
    #: removal still carry; loading ignores them
    _RETIRED = frozenset({"n_stale_dropped", "n_stale_reweighted"})

    @classmethod
    def from_dict(cls, data: dict) -> "EpochRecord":
        data = {k: v for k, v in data.items() if k not in cls._RETIRED}
        data["stats"] = UpdateStats(**data["stats"])
        return cls(**data)


@dataclass
class TrainingResult:
    """Everything a training run produced."""

    trace_name: str
    metric: str
    policy_preset: str
    curve: list[EpochRecord] = field(default_factory=list)
    policy: Module | None = None
    value: Module | None = None
    n_procs: int = 0
    env_config: EnvConfig | None = None
    best_policy_state: dict | None = None  # snapshot of the best epoch
    best_epoch: int = -1
    #: free-form training provenance (seed, epoch budget, ...) carried
    #: through save/load — callers that checkpoint results (the study
    #: zoo) record how a checkpoint was produced so a restore can detect
    #: config drift instead of silently reporting the current run's
    #: settings as the checkpoint's
    train_meta: dict | None = None

    def metric_curve(self) -> np.ndarray:
        """Per-epoch mean metric values (the Fig. 10-13 y-axis)."""
        return np.array([r.mean_metric for r in self.curve])

    def reward_curve(self) -> np.ndarray:
        """Per-epoch mean rewards (the Fig. 8 y-axis, −bsld)."""
        return np.array([r.mean_reward for r in self.curve])

    def as_scheduler(
        self, name: str | None = None, use_best: bool = True
    ) -> RLSchedulerPolicy:
        """Wrap the trained policy for greedy deployment (Table V-XI).

        ``use_best`` restores the snapshot from the best training epoch
        (by held-out greedy validation reward); per-epoch stochasticity
        means the *final* epoch is not necessarily the strongest policy.
        The snapshot is loaded into a fresh copy of the policy module —
        ``self.policy`` keeps the final-epoch weights, so resumed
        training and a later ``as_scheduler(use_best=False)`` are
        unaffected.
        """
        if self.policy is None:
            raise RuntimeError("training has not run yet")
        policy = self.policy
        if use_best and self.best_policy_state is not None:
            policy = copy.deepcopy(self.policy)
            policy.load_state_dict(self.best_policy_state)
        return RLSchedulerPolicy(
            policy,
            n_procs=self.n_procs,
            env_config=self.env_config,
            preset=self.policy_preset,
            name=name or f"RL-{self.trace_name}",
        )

    # -- checkpointing ---------------------------------------------------
    def save(self, path: str | Path) -> None:
        """Persist the complete result as one ``.npz`` checkpoint.

        Stores the final policy weights, the best-epoch snapshot, the
        value-network weights, and a JSON metadata blob holding the
        training curve and provenance (trace name, metric, preset,
        cluster size, the full :class:`EnvConfig`).  :meth:`load`
        round-trips everything, so a restored checkpoint deploys and
        reports identically to the in-memory result — the resume
        contract of the generalization study's policy zoo.

        Requires a preset-buildable policy (``policy_preset`` must name a
        registered preset so :meth:`load` can rebuild the network).
        """
        if self.policy is None:
            raise RuntimeError("training has not run yet")
        state: dict[str, np.ndarray] = {
            f"policy/{k}": v for k, v in self.policy.state_dict().items()
        }
        if self.best_policy_state is not None:
            state.update(
                (f"best/{k}", np.asarray(v))
                for k, v in self.best_policy_state.items()
            )
        if self.value is not None:
            state.update(
                (f"value/{k}", v) for k, v in self.value.state_dict().items()
            )
        meta = {
            "trace_name": self.trace_name,
            "metric": self.metric,
            "policy_preset": self.policy_preset,
            "n_procs": self.n_procs,
            "best_epoch": self.best_epoch,
            "env_config": (
                None if self.env_config is None
                else dataclasses.asdict(self.env_config)
            ),
            "train_meta": self.train_meta,
            "curve": [r.to_dict() for r in self.curve],
        }
        state["__meta__"] = np.frombuffer(
            json.dumps(meta).encode(), dtype=np.uint8
        )
        # Write-then-rename so an interrupted save never leaves a
        # truncated .npz behind — a half-written checkpoint would satisfy
        # the zoo's exists() resume check and crash the restore.
        path = Path(path)
        tmp = path.with_name(path.name + ".tmp.npz")
        np.savez(tmp, **state)
        tmp.replace(path)

    #: metadata fields :meth:`load` cannot do without
    _META_FIELDS = ("trace_name", "metric", "policy_preset", "n_procs",
                    "best_epoch", "env_config", "curve")

    @classmethod
    def load(cls, path: str | Path) -> "TrainingResult":
        """Rebuild a :meth:`save`d result (weights, curve, provenance).

        A file that is not such a checkpoint — truncated, another
        program's ``.npz``, metadata missing a field — raises
        ``ValueError`` naming the path and what is missing.
        """
        # The file is opened here, not by np.load, which leaks its own
        # handle when the archive fails to open.
        try:
            with open(path, "rb") as fh, np.load(fh) as data:
                arrays = {key: data[key] for key in data.files}
        except (zipfile.BadZipFile, EOFError) as exc:
            raise ValueError(
                f"{path}: not a readable .npz checkpoint ({exc})"
            ) from exc
        if "__meta__" not in arrays:
            raise ValueError(
                f"{path}: not a training checkpoint (no field '__meta__')"
            )
        meta = json.loads(bytes(arrays.pop("__meta__")).decode())
        missing = [k for k in cls._META_FIELDS if k not in meta]
        if missing:
            raise ValueError(
                f"{path}: checkpoint metadata lacks field(s) {', '.join(missing)}"
            )
        groups: dict[str, dict[str, np.ndarray]] = {
            "policy": {}, "best": {}, "value": {}
        }
        for key, array in arrays.items():
            group, _, name = key.partition("/")
            if group not in groups:
                raise ValueError(f"{path}: unexpected checkpoint field {key!r}")
            groups[group][name] = array
        env_config = (
            EnvConfig() if meta["env_config"] is None
            else EnvConfig(**meta["env_config"])
        )
        m, f = env_config.max_obsv_size, env_config.job_features
        policy = make_policy(meta["policy_preset"], m, f)
        policy.load_state_dict(groups["policy"])
        value = None
        if groups["value"]:
            value = ValueMLP(m, f)
            value.load_state_dict(groups["value"])
        return cls(
            trace_name=meta["trace_name"],
            metric=meta["metric"],
            policy_preset=meta["policy_preset"],
            curve=[EpochRecord.from_dict(r) for r in meta["curve"]],
            policy=policy,
            value=value,
            n_procs=meta["n_procs"],
            env_config=env_config,
            best_policy_state=groups["best"] or None,
            best_epoch=meta["best_epoch"],
            train_meta=meta.get("train_meta"),
        )


def lockstep_rollout(vec, agent, sequences, rngs) -> tuple[list, list[float]]:
    """The one rollout loop: whole episodes, lock-stepped through ``vec``.

    Trajectory ``t`` is ``sequences[t]`` and samples its actions from
    ``rngs[t]``; trajectories enter the envs in index order.  Returns
    ``(episodes, rewards)`` by trajectory: the ``(rows, counts, actions)``
    of every decision the episode made — its ragged observations and the
    ``(T,)`` int64 actions — and its raw terminal reward.

    Waves are logged as they come and regrouped by trajectory once, at
    the end: a stable sort of the logged decisions by trajectory keeps
    each episode's steps in time order, and one gather moves the job rows.

    Phase timing (``rollout.policy_forward`` / ``env_step`` / ``buffer``)
    is accumulated locally and flushed to the registry once per call: the
    per-step cost is one boolean test with telemetry off, two clock reads
    per phase with it on.  The perf bench reads the same span names.
    """
    rewards = [0.0] * len(sequences)
    n = min(vec.n_envs, len(sequences))
    rows, counts = vec.reset(sequences[:n])
    vec.queue_sequences(sequences[n:])
    log_rows, log_counts, log_trajs, log_actions = [], [], [], []
    reg = _telemetry.current()
    timed = reg.enabled
    perf = time.perf_counter
    t_policy = t_env = t_buffer = 0.0
    n_waves = 0
    while len(counts):
        trajs = vec.episodes
        if timed:
            t0 = perf()
        actions, _ = agent.act_batch(
            rows, counts, [rngs[t] for t in trajs.tolist()]
        )
        if timed:
            t1 = perf()
            t_policy += t1 - t0
        log_rows.append(rows)
        log_counts.append(counts)
        log_trajs.append(trajs)
        log_actions.append(actions)
        if timed:
            t0 = perf()
            t_buffer += t0 - t1
        result = vec.step(actions)
        if timed:
            t1 = perf()
            t_env += t1 - t0
            n_waves += 1
        for k in np.flatnonzero(result.dones).tolist():
            rewards[trajs[k]] = float(result.rewards[k])
        rows, counts = result.rows, result.counts
        if timed:
            t_buffer += perf() - t1
    if timed:
        t0 = perf()
    trajs = np.concatenate(log_trajs)
    counts = np.concatenate(log_counts)
    order = np.argsort(trajs, kind="stable")
    starts = np.cumsum(counts) - counts
    counts = counts[order]
    rows = np.concatenate(log_rows)[csr_gather(starts[order], counts)]
    actions = np.concatenate(log_actions)[order]
    step_ptr = csr_indptr(np.bincount(trajs, minlength=len(sequences)))
    row_ptr = csr_indptr(counts)[step_ptr]
    episodes = [
        (rows[r0:r1], counts[s0:s1], actions[s0:s1])
        for s0, s1, r0, r1 in zip(
            step_ptr[:-1], step_ptr[1:], row_ptr[:-1], row_ptr[1:]
        )
    ]
    if timed and n_waves:
        reg.add_span_time("rollout.policy_forward", t_policy, n_waves)
        reg.add_span_time("rollout.env_step", t_env, n_waves)
        reg.add_span_time("rollout.buffer", t_buffer + perf() - t0, n_waves)
        reg.counter("rollout.env_steps").add(len(trajs))
    return episodes, rewards


class Trainer:
    """Drives PPO training of a scheduling policy on one trace."""

    #: give up resampling a filtered sequence after this many rejections
    MAX_FILTER_TRIES = 64

    #: RNG-stream tags: each trajectory samples actions from
    #: default_rng([seed, tag, ...]) so the lock-step rollout and the
    #: sequential reference draw identical action sequences regardless of
    #: interleaving.
    _ACT_STREAM = 7919
    _PROBE_STREAM = 104_729

    def __init__(
        self,
        trace: SWFTrace | None = None,
        metric: str = "bsld",
        policy_preset: str = "kernel",
        env_config: EnvConfig | None = None,
        ppo_config: PPOConfig | None = None,
        train_config: TrainConfig | None = None,
        policy: Module | None = None,
        cluster: ClusterSpec | None = None,
    ):
        self.train_config = train_config or TrainConfig()
        if self.train_config.scenario is not None:
            # Scenario training: the scenario supplies whatever the caller
            # did not pass explicitly — trace, cluster, and (for
            # memory-constrained clusters) the per-resource feature config.
            from repro.scenarios import get_scenario, resolve_scenario_config

            if trace is None:
                scenario, trace = resolve_scenario_config(
                    self.train_config.scenario
                )
            else:
                scenario = get_scenario(self.train_config.scenario.name)
            cluster = cluster or scenario.cluster
            env_config = scenario.env_config(env_config)
        if trace is None:
            raise ValueError(
                "Trainer needs a trace (or a TrainConfig with a scenario)"
            )
        self.trace = trace
        self.metric = metric
        self.policy_preset = policy_preset
        self.env_config = env_config or EnvConfig()
        self.ppo_config = ppo_config or PPOConfig()
        self.cluster_spec = cluster or ClusterSpec(trace.max_procs)

        _, self._higher_is_better = metric_by_name(metric)
        self.env = SchedGym(
            self.cluster_spec, make_reward(metric), config=self.env_config
        )
        cfg = self.train_config
        self.vec = VecSchedGym(
            min(cfg.n_envs, cfg.trajectories_per_epoch),
            self.cluster_spec,
            make_reward(metric),
            config=self.env_config,
        )
        m, f = self.env_config.max_obsv_size, self.env_config.job_features
        seed = self.train_config.seed
        self.policy = policy or make_policy(policy_preset, m, f, seed=seed)
        self.value = ValueMLP(m, f, seed=seed + 1)
        self.agent = PPOAgent(
            self.policy,
            self.value,
            self.ppo_config,
            seed=seed,
        )
        self.sampler = SequenceSampler(
            trace, self.train_config.trajectory_length, seed=seed
        )

        # Terminal rewards span orders of magnitude across metrics (bsld in
        # the hundreds, util in [0,1]).  The value network regresses raw
        # returns, so rescale rewards to unit-ish magnitude using the first
        # epoch's spread; a constant rescale leaves the (normalised)
        # advantages — hence the policy updates — unchanged, but keeps the
        # value regression well-conditioned.
        self._reward_scale: float | None = None

        # Held-out validation sequences for checkpoint selection: the
        # deployed policy acts *greedily*, so the best checkpoint must be
        # chosen by greedy performance, not by the stochastic rollout
        # reward (they can diverge substantially early in training).
        val_sampler = SequenceSampler(
            trace, self.train_config.trajectory_length, seed=seed + 4
        )
        self._val_sequences = val_sampler.sample_many(3)
        self._val_env = VecSchedGym(
            len(self._val_sequences),
            self.cluster_spec,
            make_reward(metric),
            config=self.env_config,
        )

        # Telemetry ownership: a TrainConfig that asks for telemetry
        # activates the process-wide registry unless an enclosing run
        # (study, bench session) already owns one — in that case this
        # trainer just records into it.
        tcfg = self.train_config.telemetry
        self._owns_telemetry = False
        self._tel_prev: _telemetry.Telemetry | None = None
        self._sink: TelemetrySink | None = None
        if tcfg is not None and tcfg.enabled:
            if not _telemetry.enabled():
                self._tel_prev = _telemetry.set_active(
                    _telemetry.Telemetry(enabled=True)
                )
                self._owns_telemetry = True
            if tcfg.path:
                self._sink = TelemetrySink(
                    tcfg.path,
                    meta={
                        "command": "train",
                        "trace": trace.name,
                        "metric": metric,
                        "epochs": self.train_config.epochs,
                    },
                )

        self.filter: TrajectoryFilter | None = None
        if self.train_config.use_trajectory_filter:
            self.filter = TrajectoryFilter(
                metric=metric, backfill=self.env_config.backfill
            )
            self.filter.fit(
                trace,
                n_samples=self.train_config.filter_probe_samples,
                sequence_length=self.train_config.trajectory_length,
                seed=seed + 3,
                cluster=self.cluster_spec,
            )

    # ------------------------------------------------------------------
    def _sample_sequence(self, filtered: bool) -> tuple[list, int]:
        """A training sequence, honouring the filter in phase 1."""
        rejected = 0
        while True:
            jobs = self.sampler.sample()
            if not filtered or self.filter is None:
                return jobs, rejected
            if self.filter.accepts(jobs, self.cluster_spec):
                return jobs, rejected
            rejected += 1
            if rejected >= self.MAX_FILTER_TRIES:
                # Pathological trace/filter combination: train on the last
                # sample rather than spinning forever.
                return jobs, rejected

    def _rollout(
        self,
        jobs,
        buffer: TrajectoryBuffer,
        rng: np.random.Generator,
        slot: int = 0,
    ) -> float:
        """One trajectory through SchedGym; returns the raw terminal reward.

        The reward-scale probe, and the tests' sequential reference: it
        steps the gym protocol (padded observation and action mask, one
        environment, one decision at a time), hands the masked rows to
        the same batched agent entry points as :func:`lockstep_rollout`
        (with batch width 1) and computes the same per-episode targets, so
        a loop of ``_rollout`` calls fills the buffer exactly like
        :meth:`_collect` does.
        """
        steps, actions = [], []
        obs, mask = self.env.reset(jobs)
        while True:
            steps.append(obs[mask])
            action, _ = self.agent.act_batch(steps[-1], [len(steps[-1])], [rng])
            actions.append(action[0])
            result = self.env.step(int(action[0]))
            if result.done:
                break
            obs, mask = result.observation, result.action_mask
        rows = np.concatenate(steps)
        counts = np.array([len(step) for step in steps])
        # Both targets run on one batch of the finished episode's own T
        # observations, so the numbers do not depend on who ran the
        # episode or how wide its lock-step waves were (BLAS results
        # depend on batch shape; per-episode batches make it canonical).
        buffer.add_episode(
            rows, counts, actions,
            self.agent.episode_log_probs(rows, counts, actions),
            self.agent.value_batch(rows, counts),
            result.reward / (self._reward_scale or 1.0),
            order=slot,
        )
        return result.reward

    # -- lock-step collection -------------------------------------------
    def _epoch_filtered(self, epoch: int) -> bool:
        """Whether the trajectory filter applies to this epoch (phase 1)."""
        cfg = self.train_config
        phase1_epochs = int(round(cfg.epochs * cfg.filter_phase1_fraction))
        return self.filter is not None and epoch < phase1_epochs

    def _sample_epoch_sequences(self, epoch: int) -> tuple[list, int]:
        """One epoch's training sequences and how many the filter rejected."""
        filtered = self._epoch_filtered(epoch)
        sequences, total_rejected = [], 0
        for _ in range(self.train_config.trajectories_per_epoch):
            jobs, rejected = self._sample_sequence(filtered)
            total_rejected += rejected
            sequences.append(jobs)
        return sequences, total_rejected

    def _collect(
        self, epoch: int, buffer: TrajectoryBuffer
    ) -> tuple[list[float], int]:
        """Roll one epoch's episodes through :attr:`vec` into ``buffer``,
        in trajectory order.  Returns ``(rewards, n_rejected)``."""
        sequences, total_rejected = self._sample_epoch_sequences(epoch)
        seed = self.train_config.seed
        rngs = [
            stream_rng(seed, self._ACT_STREAM, epoch, traj)
            for traj in range(len(sequences))
        ]
        episodes, rewards = lockstep_rollout(self.vec, self.agent, sequences, rngs)
        scale = self._reward_scale or 1.0
        for traj, ((rows, counts, actions), reward) in enumerate(
            zip(episodes, rewards)
        ):
            buffer.add_episode(
                rows, counts, actions,
                self.agent.episode_log_probs(rows, counts, actions),
                self.agent.value_batch(rows, counts),
                reward / scale, order=traj,
            )
        return rewards, total_rejected

    def run_epoch(self, epoch: int) -> EpochRecord:
        cfg = self.train_config
        filtered = self._epoch_filtered(epoch)
        reg = _telemetry.current()

        start = time.perf_counter()
        buffer = TrajectoryBuffer(
            gamma=self.ppo_config.gamma, lam=self.ppo_config.lam
        )
        with reg.span("epoch.rollout") as sp_rollout:
            if self._reward_scale is None:
                # Calibrate the reward scale with one throwaway rollout so
                # the very first update already sees well-conditioned value
                # targets.
                probe_jobs, _ = self._sample_sequence(filtered)
                probe_rng = stream_rng(cfg.seed, self._PROBE_STREAM, epoch)
                probe_reward = self._rollout(
                    probe_jobs, TrajectoryBuffer(), probe_rng
                )
                self._reward_scale = max(abs(probe_reward), 1e-6)

            rewards, total_rejected = self._collect(epoch, buffer)

        with reg.span("epoch.update") as sp_update:
            stats = self.agent.update(buffer.get())
        mean_reward = float(np.mean(rewards))
        sign = 1.0 if self._higher_is_better else -1.0
        with reg.span("epoch.validate") as sp_validate:
            val_reward = self._validate()
        phase_times = None
        if reg.enabled:
            phase_times = {
                "rollout": sp_rollout.elapsed,
                "update": sp_update.elapsed,
                "validate": sp_validate.elapsed,
            }
        return EpochRecord(
            epoch=epoch,
            mean_metric=sign * mean_reward,
            mean_reward=mean_reward,
            stats=stats,
            n_rejected=total_rejected,
            wall_time=time.perf_counter() - start,
            filtered_phase=filtered,
            val_reward=val_reward,
            phase_times=phase_times,
        )

    def _validate(self) -> float:
        """Greedy-policy reward over the held-out validation sequences.

        Runs all validation sequences through a small vec env so each
        policy forward serves every sequence at once.
        """
        vec = self._val_env
        rows, counts = vec.reset(
            [[j.copy() for j in jobs] for jobs in self._val_sequences]
        )
        rewards = np.zeros(vec.n_envs)
        while len(counts):
            episodes = vec.episodes
            result = vec.step(self.agent.act_greedy_batch(rows, counts))
            rewards[episodes[result.dones]] = result.rewards[result.dones]
            rows, counts = result.rows, result.counts
        return float(np.mean(rewards))

    def close(self) -> None:
        """Close the telemetry sink and restore the registry this trainer
        replaced (no-op when it owns neither)."""
        if self._sink is not None:
            self._sink.close()
            self._sink = None
        if self._owns_telemetry:
            _telemetry.set_active(self._tel_prev)
            self._owns_telemetry = False

    def __enter__(self) -> "Trainer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def train(self, progress: bool = False) -> TrainingResult:
        result = TrainingResult(
            trace_name=self.trace.name,
            metric=self.metric,
            policy_preset=self.policy_preset,
            policy=self.policy,
            value=self.value,
            n_procs=self.cluster_spec.n_procs,
            env_config=self.env_config,
        )
        best_reward = -np.inf
        for epoch in range(self.train_config.epochs):
            record = self.run_epoch(epoch)
            result.curve.append(record)
            if record.val_reward > best_reward:
                best_reward = record.val_reward
                result.best_policy_state = self.policy.state_dict()
                result.best_epoch = epoch
            if progress:
                print(
                    f"epoch {epoch:3d}  metric={record.mean_metric:10.2f}  "
                    f"kl={record.stats.kl:.4f}  "
                    f"pi_iters={record.stats.pi_iters_run}  "
                    f"{record.wall_time:5.1f}s"
                    + ("  [filtered]" if record.filtered_phase else "")
                )
            if record.phase_times is not None:
                pt = record.phase_times
                logger.info(
                    "epoch %3d  rollout %.2fs  update %.2fs  validate %.2fs  "
                    "kl %.4f",
                    epoch, pt["rollout"], pt["update"], pt["validate"],
                    record.stats.kl,
                )
            if self._sink is not None:
                self._sink.write_event(
                    "epoch",
                    epoch=epoch,
                    mean_metric=record.mean_metric,
                    mean_reward=record.mean_reward,
                    val_reward=record.val_reward,
                    kl=record.stats.kl,
                    wall_time=record.wall_time,
                    phases=record.phase_times,
                )
        tcfg = self.train_config.telemetry
        if tcfg is not None and tcfg.enabled:
            snap = _telemetry.current().snapshot()
            if self._sink is not None:
                self._sink.write_snapshot(snap)
            if tcfg.summary and not snap.empty:
                logger.info(render_summary(snap))
        return result


def train(
    trace: SWFTrace,
    metric: str = "bsld",
    policy_preset: str = "kernel",
    **kwargs,
) -> TrainingResult:
    """One-call training entry point (see :class:`Trainer` for knobs)."""
    with Trainer(trace, metric=metric, policy_preset=policy_preset, **kwargs) as t:
        return t.train()
