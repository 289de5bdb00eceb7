"""Seeding rules for independent simulations.

Every random stream in the repo is ``default_rng([key path])``
(:func:`stream_rng`).  Evaluation fans its independent simulations over a
standard-library process pool in :func:`repro.api._run_cells`; training
rolls out in the trainer's own process
(:func:`repro.rl.trainer.lockstep_rollout`).
"""

from .seeding import stream_rng

__all__ = ["stream_rng"]
