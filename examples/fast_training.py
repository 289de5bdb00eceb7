#!/usr/bin/env python
"""Fast training: nothing to switch on.

How an epoch executes follows from what the code can observe:

* rollout — whole episodes run in the trainer's own process, all of the
  epoch's sequences in one lock-step (one batched policy forward serves
  every unfinished episode of a wave); a trajectory is the same bits
  whichever episodes step beside it;
* update — every preset scores the minibatch's job rows through the same
  ``score_rows_grad(rows, counts)`` call; the kernel policy reads them as
  they are, so its cost follows the valid job rows, not the padded
  ``MAX_OBSV_SIZE`` slots.

This script runs one epoch and reads from the telemetry trace how many
policy iterations ran and where the epoch's time went.

Related: ``benchmarks/e2e`` measures training epochs end to end
(``train-rollout-bound``, ``train-update-bound``).

Run:  PYTHONPATH=src python examples/fast_training.py
"""

import time

import repro
from repro.rl import Trainer
from repro.telemetry import core as telemetry

trace = repro.load_trace("Lublin-1", n_jobs=3000, seed=0)
print(f"Loaded {trace.name}: {len(trace)} jobs on {trace.max_procs} processors")

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
        ),
    )
    with trainer:
        start = time.perf_counter()
        record = trainer.run_epoch(0)
        seconds = time.perf_counter() - start
    snap = reg.snapshot()

print(f"\n48 trajectories in lock-step:  {seconds:5.1f}s  "
      f"mean bsld {record.mean_metric:.2f}  kl {record.stats.kl:.5f}")
print("  policy iterations:",
      sum(span["count"] for name, span in snap.spans.items()
          if name.endswith("update.policy_iter")))
print("  phases:", ", ".join(f"{k} {v:.2f}s"
                             for k, v in record.phase_times.items()))
