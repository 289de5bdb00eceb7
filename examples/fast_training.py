#!/usr/bin/env python
"""Fast training: nothing to switch on.

How an epoch executes follows from what the code can observe:

* rollout — whole episodes run in the trainer's own process, ``n_envs``
  environments in lock-step (one batched policy forward serves all of
  them); the width is a pure throughput knob, the trajectories are the
  same at any width;
* update — the kernel policy exposes a per-row scorer, so the agent takes
  the sparse PPO update (cost follows the valid job rows, not the padded
  ``MAX_OBSV_SIZE`` slots).

This script runs one identical epoch at two lock-step widths, checks the
two reproduce each other exactly, and reads from the telemetry trace
which update ran and where the epoch's time went.

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


def one_epoch(n_envs):
    """(record, seconds, telemetry snapshot) of one epoch at ``n_envs``."""
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
                n_envs=n_envs,
            ),
        )
        with trainer:
            start = time.perf_counter()
            record = trainer.run_epoch(0)
            elapsed = time.perf_counter() - start
        return record, elapsed, reg.snapshot().aggregated()


# ---------------------------------------------------------------------------
# 1. One epoch, 32 environments in lock-step.
# ---------------------------------------------------------------------------
record, seconds, snap = one_epoch(n_envs=32)
print(f"\n32-wide epoch:  {seconds:5.1f}s  "
      f"mean bsld {record.mean_metric:.2f}  kl {record.stats.kl:.5f}")
print("  policy iterations ran as:",
      sorted(name for name in snap.spans if "update.policy_iter" in name))
print("  phases:", ", ".join(f"{k} {v:.2f}s"
                             for k, v in record.phase_times.items()))

# ---------------------------------------------------------------------------
# 2. The same epoch, 4 environments in lock-step.
# ---------------------------------------------------------------------------
narrow_record, narrow_seconds, _ = one_epoch(n_envs=4)
print(f"4-wide epoch:   {narrow_seconds:5.1f}s  "
      f"mean bsld {narrow_record.mean_metric:.2f}  "
      f"kl {narrow_record.stats.kl:.5f}")

# ---------------------------------------------------------------------------
# 3. Same seed => exactly the same training step, to the last bit.
# ---------------------------------------------------------------------------
assert narrow_record.mean_reward == record.mean_reward
assert narrow_record.stats.kl == record.stats.kl
print("\nthe 4-wide epoch reproduced the 32-wide epoch exactly "
      "(same rewards, same update statistics).")
