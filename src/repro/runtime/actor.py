"""Episode-granular actor runtime: in-worker rollouts, trajectory streaming.

Stepping environments that live in worker processes from a policy in
the parent costs two pipe transfers per env *step* (actions out,
observations back), so IPC dominates.  This module moves the whole
rollout into the worker: each actor holds its own local vec of
:class:`~repro.sim.env.SchedGym` environments **and a replica of the
policy/value networks**, lock-steps its assigned episodes locally (env
stepping, observation building, *batched* action sampling, per-episode
value/log-prob targets), and ships finished :class:`EpisodeSlice` objects
back — IPC drops from two transfers per env-step to one per worker per
epoch, and the parent's policy forward leaves the critical path
entirely.

Observations stay ragged from the environments to the learner: a
lock-step wave is ``(rows, counts)`` (the visible job rows of every
active environment, and how many each owns), :func:`lockstep_rollout`
regroups the waves by episode without padding them, and an
:class:`EpisodeSlice` carries an episode's ``(rows, counts)`` as they
are — the wire format is the storage format, and nothing between the
engine and the PPO update builds the ``(M, F)`` window.

An epoch is synchronous, as on-policy PPO wants it: weights go out with
the backend's ``broadcast``, one epoch's episodes with its ``map`` (one
chunk per worker), and both return only when every worker has answered,
so every episode of a :meth:`ActorRuntime.rollout` runs on the weights
last pushed.  Each episode still carries that weight ``version``, for the
learner to check.

Determinism contract (pinned by the collector golden tests): an
episode's content depends only on ``(seed, act_stream, epoch, traj)`` and
the weights it ran against.  Actors reuse the trainer's rollout
invariants — per-trajectory RNG streams, episodes entering in trajectory
order within a chunk, and one canonical per-episode batch (the episode's
own T observations) for value estimates and behaviour log-probs — so an
actor's episode is bit-identical to one ``Trainer._rollout`` steps by
itself, on whichever backend the actor lives and however its local envs
interleave.
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.config import EnvConfig, RuntimeConfig
from repro.nn.ragged import csr_gather, csr_indptr
from repro.telemetry import core as _telemetry

from .backend import make_backend
from .seeding import stream_rng

__all__ = ["ActorRuntime", "EpisodeSlice", "lockstep_rollout"]


@dataclass
class EpisodeSlice:
    """One finished episode: the columns
    :meth:`~repro.rl.buffer.TrajectoryBuffer.add_episode` takes, which is
    also how it crosses a process boundary.

    ``rows`` / ``counts`` are the ragged observations of its T decisions
    (``counts[t]`` visible job rows at step ``t``, ``sum(counts)`` rows in
    all).  ``log_probs`` are the *canonical* per-episode behaviour
    log-probs (:meth:`PPOAgent.episode_log_probs`) and ``values`` the
    deferred per-episode value estimates — exactly what
    ``Trainer._rollout`` computes for an episode it steps itself.
    ``reward`` is the raw terminal reward; the learner applies its own
    reward scale.  ``version`` is the weight version the episode ran on.
    """

    epoch: int
    traj: int
    version: int
    rows: np.ndarray        # (sum(counts), F) float32
    counts: np.ndarray      # (T,)      int64
    actions: np.ndarray     # (T,)      int64
    log_probs: np.ndarray   # (T,)      float64
    values: np.ndarray      # (T,)      float64
    reward: float
    steps: int


# ----------------------------------------------------------------------
# worker-side task functions (top-level: picklable by reference)
# ----------------------------------------------------------------------
def _actor_init(state, cluster, reward_spec, config, n_envs, policy, value,
                seed, act_stream, version):
    # Imports stay local: repro.rl/.sim import repro.runtime, so importing
    # them at module scope would cycle through the package __init__.
    from repro.rl.ppo import PPOAgent
    from repro.rl.reward import make_reward
    from repro.sim.vec_env import VecSchedGym

    # A metric *name* is always picklable; workers build the reward here.
    reward = reward_spec if callable(reward_spec) else make_reward(reward_spec)
    state["vec"] = VecSchedGym(n_envs, cluster, reward, config=config)
    state["agent"] = PPOAgent(policy, value)
    state["seed"] = seed
    state["act_stream"] = act_stream
    state["version"] = version


def _actor_load_weights(state, version, snapshot):
    state["agent"].load_weights(snapshot)
    state["version"] = version


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
    perf = _time.perf_counter
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


def _actor_episodes(state, task):
    """Run a chunk of complete episodes through the local vec env.

    ``task`` is ``(epoch, [(traj, jobs), ...])``; the chunk goes through
    :func:`lockstep_rollout` on ``state["vec"]`` — each trajectory samples
    from its own ``(seed, act_stream, epoch, traj)`` stream and finishes
    with one canonical per-episode target batch — so episode content does
    not depend on local env count or interleaving.  Returns one
    :class:`EpisodeSlice` per assignment, in trajectory order.
    """
    epoch, assignments = task
    agent, vec = state["agent"], state["vec"]
    trajs = [traj for traj, _ in assignments]
    with _telemetry.current().span("rollout.decode_jobs"):
        sequences = [
            _decode_jobs(jobs) if isinstance(jobs, np.ndarray) else jobs
            for _, jobs in assignments
        ]
    rngs = [
        stream_rng(state["seed"], state["act_stream"], epoch, traj)
        for traj in trajs
    ]
    episodes, rewards = lockstep_rollout(vec, agent, sequences, rngs)
    return [
        EpisodeSlice(
            epoch=epoch,
            traj=traj,
            version=state["version"],
            rows=rows,
            counts=counts,
            actions=actions,
            log_probs=agent.episode_log_probs(rows, counts, actions),
            values=agent.value_batch(rows, counts),
            reward=reward,
            steps=len(actions),
        )
        for traj, (rows, counts, actions), reward in zip(trajs, episodes, rewards)
    ]


#: SWF fields shipped per job, in wire-column order (start_time is reset
#: on decode — submitted sequences are unscheduled by contract).
_JOB_WIRE_FIELDS = (
    "job_id", "submit_time", "run_time", "requested_procs",
    "requested_time", "requested_mem", "user_id", "group_id",
    "executable_id", "queue_id", "partition_id", "status", "wait_time",
    "used_procs", "used_avg_cpu", "used_mem", "preceding_job_id",
    "think_time",
)


def _encode_jobs(jobs) -> np.ndarray:
    """Columnar wire format for a job sequence: one ``(n, 18)`` float64
    array instead of ``n`` pickled :class:`Job` objects.  Every SWF field
    is integral or already float64, so the round trip through
    :func:`_decode_jobs` is exact; it is also ~2x cheaper than object
    pickling on both ends, which matters because sequences are shipped
    every epoch."""
    return np.array(
        [
            (j.job_id, j.submit_time, j.run_time, j.requested_procs,
             j.requested_time, j.requested_mem, j.user_id, j.group_id,
             j.executable_id, j.queue_id, j.partition_id, j.status,
             j.wait_time, j.used_procs, j.used_avg_cpu, j.used_mem,
             j.preceding_job_id, j.think_time)
            for j in jobs
        ],
        dtype=np.float64,
    )


def _decode_jobs(arr: np.ndarray) -> list:
    """Inverse of :func:`_encode_jobs`.

    Rebuilds via ``object.__new__`` + direct slot assignment:
    ``__post_init__`` validation already ran when the trace was loaded
    (including the ``requested_time`` fallback, so the stored value is
    final), and re-running it per job per epoch is measurable overhead.
    """
    from repro.workloads.job import Job

    jobs = []
    for (job_id, submit_time, run_time, requested_procs, requested_time,
         requested_mem, user_id, group_id, executable_id, queue_id,
         partition_id, status, wait_time, used_procs, used_avg_cpu,
         used_mem, preceding_job_id, think_time) in arr.tolist():
        j = object.__new__(Job)
        j.job_id = int(job_id)
        j.submit_time = submit_time
        j.run_time = run_time
        j.requested_procs = int(requested_procs)
        j.requested_time = requested_time
        j.requested_mem = requested_mem
        j.user_id = int(user_id)
        j.group_id = int(group_id)
        j.executable_id = int(executable_id)
        j.queue_id = int(queue_id)
        j.partition_id = int(partition_id)
        j.status = int(status)
        j.wait_time = wait_time
        j.used_procs = int(used_procs)
        j.used_avg_cpu = used_avg_cpu
        j.used_mem = used_mem
        j.preceding_job_id = int(preceding_job_id)
        j.think_time = think_time
        j.start_time = -1.0
        jobs.append(j)
    return jobs


# ----------------------------------------------------------------------
class ActorRuntime:
    """A pool of episode-granular actors on the backend's two primitives.

    Lifecycle: :meth:`install` replicates the envs + networks into every
    worker, :meth:`rollout` runs one epoch's episodes (one chunk per
    worker) and returns them, :meth:`push_weights` sends a new snapshot to
    every actor.  Each call returns when every worker has answered.

    ``n_envs`` is the *per-worker* lock-step width: each actor batches
    policy forwards across up to that many of its local episodes.
    """

    def __init__(
        self,
        cluster,
        reward,
        config: EnvConfig | None = None,
        runtime: RuntimeConfig | None = None,
        n_envs: int = 8,
        seed: int = 0,
        act_stream: int = 7919,
    ):
        if n_envs < 1:
            raise ValueError(f"n_envs must be >= 1, got {n_envs}")
        self.config = config or EnvConfig()
        self.backend = make_backend(runtime or RuntimeConfig())
        self.backend.start()
        self._cluster = cluster
        self._reward = reward
        self._n_envs = int(n_envs)
        self._seed = int(seed)
        self._act_stream = int(act_stream)
        self._version = -1
        self._installed = False

    # -- lifecycle ------------------------------------------------------
    @property
    def n_workers(self) -> int:
        return self.backend.n_workers

    def install(self, policy, value, version: int = 0) -> None:
        """Replicate envs + networks into every worker (once per run)."""
        if self._installed:
            raise RuntimeError("actors already installed")
        self.backend.broadcast(
            _actor_init,
            self._cluster,
            self._reward,
            self.config,
            self._n_envs,
            policy,
            value,
            self._seed,
            self._act_stream,
            int(version),
        )
        self._version = int(version)
        self._installed = True

    def close(self) -> None:
        """Release the backend."""
        self.backend.close()

    def __enter__(self) -> "ActorRuntime":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- one epoch ------------------------------------------------------
    def push_weights(self, version: int, snapshot: dict) -> None:
        """Load a weight snapshot into every actor (encoded once)."""
        self._require_installed()
        version = int(version)
        if version < self._version:
            raise ValueError(
                f"weight version must not decrease: {version} < {self._version}"
            )
        self.backend.broadcast(_actor_load_weights, version, snapshot)
        self._version = version

    def rollout(
        self, epoch: int, assignments: Sequence[tuple[int, Sequence]]
    ) -> list[EpisodeSlice]:
        """Run episodes ``[(traj, jobs), ...]``; returns them by trajectory.

        Episodes fan round-robin by trajectory index (``traj %
        n_workers``), one chunk per worker.  On process backends job
        sequences travel in the columnar :func:`_encode_jobs` wire format
        (exact round trip, ~2x cheaper than object pickling).
        """
        self._require_installed()
        wire = self.backend.crosses_process_boundary
        chunks: dict[int, list] = {}
        with _telemetry.current().span("runtime.ipc.encode_jobs"):
            for traj, jobs in assignments:
                chunks.setdefault(int(traj) % self.n_workers, []).append(
                    (int(traj), _encode_jobs(jobs) if wire else jobs)
                )
        results = self.backend.map(
            _actor_episodes,
            [(int(epoch), chunks[w]) for w in sorted(chunks)],
            chunksize=1,
        )
        return sorted(
            (episode for chunk in results for episode in chunk),
            key=lambda episode: episode.traj,
        )

    def _require_installed(self) -> None:
        if not self._installed:
            raise RuntimeError("call install(policy, value) first")
