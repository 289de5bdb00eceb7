#!/usr/bin/env python
"""Fast training: nothing to switch on.

How an epoch executes follows from what the code can observe:

* collector — whole episodes run on actors that hold env + policy
  replicas and step ``n_envs`` environments in lock-step (one batched
  policy forward serves all of an actor's).  On the serial runtime the
  actors live in this process; ``RuntimeConfig(backend="process")`` puts
  them on worker processes.  Same trajectories either way;
* update — the kernel policy exposes a per-row scorer, so the agent takes
  the sparse PPO update (cost follows the valid job rows, not the padded
  ``MAX_OBSV_SIZE`` slots);
* transport — the actors' arrays travel through shared memory.

This script runs one identical epoch on serial actors and on two actor
processes, checks the two reproduce each other exactly, and reads from
the telemetry trace which update ran and how many bytes went out of band.

Related: ``benchmarks/perf/run_perf.py`` measures the rollout/engine/PPO
hot paths in isolation and records them in ``BENCH_perf.json``.

Run:  PYTHONPATH=src python examples/fast_training.py
"""

import time

import repro
from repro.rl import Trainer
from repro.telemetry import core as telemetry

trace = repro.load_trace("Lublin-1", n_jobs=3000, seed=0)
print(f"Loaded {trace.name}: {len(trace)} jobs on {trace.max_procs} processors")


def one_epoch(workers):
    """(record, seconds, telemetry snapshot) of one epoch on ``workers``."""
    with telemetry.session() as reg:
        trainer = Trainer(
            trace,
            metric="bsld",
            policy_preset="kernel",
            env_config=repro.EnvConfig(max_obsv_size=128),
            ppo_config=repro.PPOConfig(
                train_pi_iters=3, train_v_iters=3, minibatch_size=512,
            ),
            train_config=repro.TrainConfig(
                epochs=1,
                trajectories_per_epoch=48,
                trajectory_length=64,
                seed=0,
                n_envs=32,
                runtime=repro.RuntimeConfig.from_workers(workers),
            ),
        )
        with trainer:
            start = time.perf_counter()
            record = trainer.run_epoch(0)
            elapsed = time.perf_counter() - start
        return record, elapsed, reg.snapshot().aggregated()


# ---------------------------------------------------------------------------
# 1. One epoch with the actors in this process: no worker, no shared memory.
# ---------------------------------------------------------------------------
record, seconds, snap = one_epoch(workers=1)
print(f"\nserial epoch:    {seconds:5.1f}s  "
      f"mean bsld {record.mean_metric:.2f}  kl {record.stats.kl:.5f}")
print("  policy iterations ran as:",
      sorted(name for name in snap.spans if "update.policy_iter" in name))

# ---------------------------------------------------------------------------
# 2. The same epoch with the episodes on two actor processes.
# ---------------------------------------------------------------------------
actor_record, actor_seconds, actor_snap = one_epoch(workers=2)
print(f"2-actor epoch:   {actor_seconds:5.1f}s  "
      f"mean bsld {actor_record.mean_metric:.2f}  "
      f"kl {actor_record.stats.kl:.5f}")
print(f"  {actor_snap.counters['runtime.ipc.bytes_shm']:,} bytes through "
      f"shared memory, {actor_snap.counters['runtime.ipc.bytes_inline']:,} "
      "on the pipes")

# ---------------------------------------------------------------------------
# 3. Same seed => exactly the same training step, to the last bit.
# ---------------------------------------------------------------------------
assert actor_record.mean_reward == record.mean_reward
assert actor_record.stats.kl == record.stats.kl
print("\nthe 2-process epoch reproduced the serial epoch exactly "
      "(same rewards, same update statistics).")
