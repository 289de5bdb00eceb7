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
in trajectory order, behaviour log-probs are computed once per finished
episode on the batch of its own T observations, and value estimates once
per epoch, by one forward over the windows of the whole batch in
trajectory order (:meth:`Trainer._epoch_batch`), which the update then
plans its value steps from.

*Observations.*  Ragged all the way: environments emit ``(rows, counts)``
waves, the rollout scores and regroups them as they are, the buffer
concatenates them and the update plans from them.  Only a network that
reads the whole window (the MLP / LeNet baselines) sees it padded, at its
own input.

*Update.*  :class:`PPOAgent` takes the sparse policy step when the policy
exposes ``score_rows_grad`` (the kernel preset), the dense one otherwise.
"""

from __future__ import annotations

import logging
import time
from contextlib import ExitStack

import numpy as np

from repro.config import EnvConfig, PPOConfig, TrainConfig
from repro.telemetry import core as _telemetry
from repro.telemetry.sink import TelemetrySink, telemetry_run
from repro.nn import Module, ValueMLP, make_policy
from repro.nn.ragged import csr_gather, csr_indptr
from repro.runtime.seeding import stream_rng
from repro.sim.cluster import ClusterSpec
from repro.sim.env import SchedGym
from repro.sim.metrics import metric_by_name
from repro.sim.vec_env import VecSchedGym
from repro.workloads.sampler import SequenceSampler
from repro.workloads.swf import SWFTrace

from .buffer import TrajectoryBuffer
from .filtering import TrajectoryFilter
from .ppo import PPOAgent
from .result import EpochRecord, TrainingResult
from .reward import make_reward

__all__ = ["Trainer", "lockstep_rollout", "train"]

logger = logging.getLogger("repro.rl.trainer")


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
    per phase with it on.
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

        # A TrainConfig that asks for telemetry owns the run's registry and
        # sink unless an enclosing run (a study, a session) already owns
        # one; then this trainer records into it.  close() unwinds it.
        self._exit = ExitStack()
        self._sink: TelemetrySink | None = self._exit.enter_context(
            telemetry_run(
                self.train_config.telemetry,
                meta={
                    "command": "train",
                    "trace": trace.name,
                    "metric": metric,
                    "epochs": self.train_config.epochs,
                },
            )
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
        # The log-probs run on one batch of the finished episode's own T
        # observations, so they do not depend on who ran the episode or
        # how wide its lock-step waves were (BLAS results depend on batch
        # shape; per-episode batches make it canonical); the values come
        # from the epoch's one pass (:meth:`_epoch_batch`).
        buffer.add_episode(
            rows, counts, actions,
            self.agent.episode_log_probs(rows, counts, actions),
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
                reward / scale, order=traj,
            )
        return rewards, total_rejected

    def _epoch_batch(self, buffer: TrajectoryBuffer) -> dict:
        """The update's batch: ``buffer``'s episodes in trajectory order,
        valued by one :meth:`PPOAgent.value_batch` forward over the
        epoch's observation windows, which the batch carries on to the
        update.  Whichever loop filled ``buffer`` (:meth:`_collect` or a
        loop of :meth:`_rollout`), this is the one value pass; it is timed
        as the ``rollout.targets`` span."""
        reg = _telemetry.current()
        if not reg.enabled:
            return buffer.get(self.agent)
        t0 = time.perf_counter()
        data = buffer.get(self.agent)
        reg.add_span_time("rollout.targets", time.perf_counter() - t0)
        return data

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
            data = self._epoch_batch(buffer)

        with reg.span("epoch.update") as sp_update:
            stats = self.agent.update(data)
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
        # the engines copy the jobs they run (SchedulingEngine.__init__)
        rows, counts = vec.reset(self._val_sequences)
        rewards = np.zeros(vec.n_envs)
        while len(counts):
            episodes = vec.episodes
            result = vec.step(self.agent.act_greedy_batch(rows, counts))
            rewards[episodes[result.dones]] = result.rewards[result.dones]
            rows, counts = result.rows, result.counts
        return float(np.mean(rewards))

    def close(self) -> None:
        """End the telemetry run this trainer owns: write the final
        snapshot, close the sink, restore the registry it replaced."""
        self._sink = None
        self._exit.close()

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
