"""The RLScheduler training loop (paper §V-A).

Per epoch: sample ``trajectories_per_epoch`` job sequences of
``trajectory_length`` continuous jobs from the trace, roll them through
the simulator with the current (stochastic) policy, then run the PPO update.
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
:func:`lockstep_rollout` steps all of the epoch's episodes at once
through the trainer's :class:`VecSchedGym`, one batched policy forward
per wave, and hands back the epoch as one CSR batch in trajectory order,
the log-prob each action was sampled with beside it.
:meth:`Trainer._collect` builds the epoch's :class:`TrajectoryBuffer`
from that batch as it is: the behaviour log-probs are the act-time ones,
as in SpinningUp's PPO, and nothing scores an episode a second time.
The epoch-0 reward-scale probe is one more :func:`lockstep_rollout`, of
one run.  Validation deploys the live policy: the mean reward of
:meth:`RLSchedulerPolicy.run_lockstep
<repro.schedulers.RLSchedulerPolicy.run_lockstep>` over the held-out
sequences, the greedy decisions a deployed checkpoint makes.
An epoch is synchronous, as on-policy PPO is: the rollout runs on the
weights the previous update left, then the update runs.

For the kernel preset, the lock-step rollout and the tests' sequential
reference — each episode stepped alone through
:class:`~repro.sim.env.SchedGym`, its log-probs scored again per episode
— give **bit-identical** trajectories, advantages and update statistics
for the same seed, however the sequences are grouped into waves (the
golden tests), because each trajectory draws its action uniforms from
its own ``(seed, epoch, trajectory)`` RNG stream, sequences are sampled
(and filter-checked) and batched in trajectory order, the kernel scores
every job alone (so a log-prob does not depend on the wave it was
scored in), and value estimates are made once per epoch, by one forward
over the windows of the whole batch in trajectory order
(:meth:`Trainer._epoch_batch`), which the update then plans its value
steps from.  The MLP and LeNet presets read the whole window through
BLAS products whose last bits depend on the batch, so for them a stored
log-prob can differ in its last float32 bits from the episode re-scored
alone, and depends on which trajectories shared its wave.

*Observations.*  Ragged all the way: environments emit ``(rows, counts)``
waves, the rollout scores and regroups them as they are into the epoch's
batch, the buffer windows it for the critic and the update plans from
it.  Only a network that reads the whole window (the MLP / LeNet
baselines) sees it padded, at its own input.

*Update.*  :class:`PPOAgent` takes one policy step for every preset:
``score_rows_grad(rows, counts)`` scores the minibatch's job rows and
segment ops softmax them per observation.
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
from repro.schedulers.rl_scheduler import RLSchedulerPolicy
from repro.sim.cluster import ClusterSpec
from repro.sim.metrics import metric_by_name
from repro.sim.vec_env import VecSchedGym
from repro.workloads.sampler import SequenceSampler, check_window
from repro.workloads.swf import SWFTrace

from .buffer import TrajectoryBuffer
from .filtering import TrajectoryFilter
from .ppo import PPOAgent
from .result import EpochRecord, TrainingResult
from .reward import make_reward

__all__ = ["Trainer", "lockstep_rollout", "train"]

logger = logging.getLogger("repro.rl.trainer")


def lockstep_rollout(vec, agent, runs, rngs, reward_fn) -> tuple[tuple, list[float]]:
    """The one rollout loop: whole episodes, lock-stepped through ``vec``.

    Trajectory ``t`` is ``runs[t]``, a ``(jobs, cluster, backfill)`` run,
    and samples its actions from ``rngs[t]``; every trajectory is in each
    wave until it ends.  Returns ``(batch, rewards)``.  ``batch`` is every
    decision of the call as one CSR batch in trajectory order,
    ``(rows, counts, actions, step_ptr, log_probs)``: the ragged
    observations, the int64 actions, trajectory ``t``'s steps
    ``step_ptr[t]:step_ptr[t + 1]``, and the log-prob each action had
    when it was sampled.  ``rewards`` holds each trajectory's raw terminal
    reward, ``reward_fn(completed jobs, cluster size)``.  Once the rewards
    are read ``vec`` drops its engines, so a trainer between epochs holds
    no episode's job copies.

    A run makes at most one decision per job, so trajectory ``t`` draws
    its uniforms once, ``len(jobs)`` of them, before the first wave; a
    per-trajectory cursor hands each wave its next ones.  A vector draw
    gives the same bits as that many single draws, so the actions do not
    depend on how the draws are grouped.  Waves are logged as they come and
    regrouped by trajectory once, at the end: a stable sort of the logged
    decisions by trajectory keeps each episode's steps in time order, and
    one gather moves the job rows.

    Phase timing (``rollout.policy_forward`` / ``env_step`` / ``buffer``)
    is accumulated locally and flushed to the registry once per call: the
    per-step cost is one boolean test with telemetry off, two clock reads
    per phase with it on.
    """
    rows, counts = vec.reset(runs)
    n_jobs = [len(jobs) for jobs, _, _ in runs]
    uniforms = np.concatenate([rng.random(n) for rng, n in zip(rngs, n_jobs)])
    cursor = csr_indptr(n_jobs)[:-1]  # trajectory t's next uniform
    log_rows, log_counts, log_trajs, log_actions, log_lp = [], [], [], [], []
    reg = _telemetry.current()
    timed = reg.enabled
    perf = time.perf_counter
    t_policy = t_env = t_buffer = 0.0
    n_waves = 0
    while len(counts):
        trajs = vec.runs
        if timed:
            t0 = perf()
        actions, log_probs = agent.act_batch(
            rows, counts, uniforms[cursor[trajs]]
        )
        if timed:
            t1 = perf()
            t_policy += t1 - t0
        cursor[trajs] += 1
        log_rows.append(rows)
        log_counts.append(counts)
        log_trajs.append(trajs)
        log_actions.append(actions)
        log_lp.append(log_probs)
        if timed:
            t0 = perf()
            t_buffer += t0 - t1
        rows, counts, _ = vec.step(actions)
        if timed:
            t_env += perf() - t0
            n_waves += 1
    if timed:
        t0 = perf()
    rewards = [float(reward_fn(engine.completed, engine.cluster.n_procs))
               for engine in vec.engines]
    vec.engines = []
    trajs = np.concatenate(log_trajs)
    counts = np.concatenate(log_counts)
    order = np.argsort(trajs, kind="stable")
    starts = np.cumsum(counts) - counts
    counts = counts[order]
    rows = np.concatenate(log_rows)[csr_gather(starts[order], counts)]
    actions = np.concatenate(log_actions)[order]
    log_probs = np.concatenate(log_lp)[order]
    step_ptr = csr_indptr(np.bincount(trajs, minlength=len(runs)))
    if timed and n_waves:
        reg.add_span_time("rollout.policy_forward", t_policy, n_waves)
        reg.add_span_time("rollout.env_step", t_env, n_waves)
        reg.add_span_time("rollout.buffer", t_buffer + perf() - t0, n_waves)
        reg.counter("rollout.env_steps").add(len(trajs))
    return (rows, counts, actions, step_ptr, log_probs), rewards


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
            from repro.scenarios import resolve_scenario_config

            scenario, trace = resolve_scenario_config(
                self.train_config.scenario, trace
            )
            cluster = cluster or scenario.cluster
            env_config = scenario.env_config(env_config)
        if trace is None:
            raise ValueError(
                "Trainer needs a trace (or a TrainConfig with a scenario)"
            )
        # before anything is built: the rollout and validation samplers
        # draw windows of this length
        check_window(
            trace, self.train_config.trajectory_length, "training",
            None if self.train_config.scenario is None
            else f"scenario {scenario.name}",
        )
        self.trace = trace
        self.metric = metric
        self.policy_preset = policy_preset
        self.env_config = env_config or EnvConfig()
        self.ppo_config = ppo_config or PPOConfig()
        self.cluster_spec = cluster or ClusterSpec(trace.max_procs)

        _, self._higher_is_better = metric_by_name(metric)
        self.reward_fn = make_reward(metric)
        # the rollout: every trajectory of an epoch at once
        self.vec = VecSchedGym(self.cluster_spec.n_procs, self.env_config)
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
        # validation's greedy decider: the live policy, as deployed
        self.deployed = RLSchedulerPolicy(
            self.policy, self.cluster_spec.n_procs, self.env_config,
            policy_preset,
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

    def _runs(self, sequences) -> list[tuple]:
        """``sequences`` as :class:`VecSchedGym` runs on the training
        cluster."""
        return [(jobs, self.cluster_spec, self.env_config.backfill)
                for jobs in sequences]

    def _collect(self, epoch: int) -> tuple[TrajectoryBuffer, list[float], int]:
        """Roll one epoch's episodes through :attr:`vec`.  Returns
        ``(buffer, rewards, n_rejected)``: the epoch's
        :class:`TrajectoryBuffer`, the raw terminal rewards by trajectory
        and how many sampled sequences the filter rejected."""
        sequences, total_rejected = self._sample_epoch_sequences(epoch)
        seed = self.train_config.seed
        rngs = [
            stream_rng(seed, self._ACT_STREAM, epoch, traj)
            for traj in range(len(sequences))
        ]
        batch, rewards = lockstep_rollout(
            self.vec, self.agent, self._runs(sequences), rngs, self.reward_fn
        )
        buffer = TrajectoryBuffer(
            *batch, np.asarray(rewards) / (self._reward_scale or 1.0),
            gamma=self.ppo_config.gamma, lam=self.ppo_config.lam,
        )
        return buffer, rewards, total_rejected

    def _epoch_batch(self, buffer: TrajectoryBuffer) -> dict:
        """The update's batch: ``buffer``'s episodes in trajectory order,
        valued by one :meth:`PPOAgent.value_batch` forward over the
        epoch's observation windows, which the batch carries on to the
        update.  This is the epoch's one value pass; it is timed as the
        ``rollout.targets`` span."""
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
        with reg.span("epoch.rollout") as sp_rollout:
            if self._reward_scale is None:
                # Calibrate the reward scale with one throwaway rollout so
                # the very first update already sees well-conditioned value
                # targets.
                probe_jobs, _ = self._sample_sequence(filtered)
                probe_rng = stream_rng(cfg.seed, self._PROBE_STREAM, epoch)
                _, (probe_reward,) = lockstep_rollout(
                    self.vec, self.agent, self._runs([probe_jobs]),
                    [probe_rng], self.reward_fn,
                )
                self._reward_scale = max(abs(probe_reward), 1e-6)

            buffer, rewards, total_rejected = self._collect(epoch)
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
        """Greedy-policy reward over the held-out validation sequences:
        the policy deployed (:attr:`deployed`), so the best checkpoint is
        chosen on the decisions deployment makes."""
        n_procs = self.cluster_spec.n_procs
        completed = self.deployed.run_lockstep(self._runs(self._val_sequences))
        return float(np.mean([self.reward_fn(done, n_procs) for done in completed]))

    def close(self) -> None:
        """End the telemetry run this trainer owns: write the final
        snapshot, close the sink, restore the registry it replaced."""
        self._sink = None
        self._exit.close()

    def __enter__(self) -> "Trainer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def train(self) -> TrainingResult:
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
