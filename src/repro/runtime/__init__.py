"""Where independent simulations run: a process pool and the seeding rules.

The paper's 10-sequence evaluation protocol, the scenario matrix and the
generalization study's cells are independent simulations.
:func:`repro.api._run_cells` runs them in a loop in the calling process
(one worker) or fans them over a :class:`ProcessPoolBackend` (more than
one): persistent ``multiprocessing`` workers with chunked dispatch and
one-shot state broadcast (schedulers, policy weights, pre-sampled
sequences).  Both paths run the same task functions against a per-worker
*state* dict in the same global task order, so scores are bit-identical
for any worker count.  Training rolls out in the trainer's own process
(:func:`repro.rl.trainer.lockstep_rollout`) and uses only the seeding
helpers here.
"""

from .process_pool import ProcessPoolBackend, WorkerError
from .seeding import derive_streams, stream_rng, task_seed

__all__ = [
    "ProcessPoolBackend",
    "WorkerError",
    "stream_rng",
    "derive_streams",
    "task_seed",
]
