"""Seeding rules for independent simulations.

Every random stream in the repo is ``default_rng([key path])``
(:func:`stream_rng`); :func:`derive_streams` and :func:`task_seed` derive
per-task streams and seeds from the same convention.  Evaluation fans its
independent simulations over a standard-library process pool in
:func:`repro.api._run_cells`; training rolls out in the trainer's own
process (:func:`repro.rl.trainer.lockstep_rollout`).
"""

from .seeding import derive_streams, stream_rng, task_seed

__all__ = [
    "stream_rng",
    "derive_streams",
    "task_seed",
]
