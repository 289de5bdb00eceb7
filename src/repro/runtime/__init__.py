"""Unified execution runtime: where independent simulations run.

Every layer of the reproduction that fans out independent simulations —
the paper's 10-sequence evaluation protocol, the scenario matrix and the
generalization study's cells, perf benchmarks — dispatches through one
:class:`ExecutionBackend`:

* :class:`SerialBackend` runs everything in-process (the default, and the
  reference semantics);
* :class:`ProcessPoolBackend` runs the same task functions on persistent
  ``multiprocessing`` workers with chunked dispatch and one-shot state
  broadcast (schedulers, policy weights, pre-sampled sequences).

Both backends execute tasks against per-worker *state* dicts that persist
across calls, so a one-shot install (``api.evaluate``'s schedulers and
sequences) and the fan-out that reads it share one dispatch layer.
Backends are interchangeable by contract: the same tasks in the same
order produce the same ordered results, which is what keeps process-pool
evaluation bit-identical to serial.  Training rolls out in the trainer's
own process (:func:`repro.rl.trainer.lockstep_rollout`) and uses only the
seeding helpers here.
"""

from .backend import ExecutionBackend, WorkerError, make_backend
from .process_pool import ProcessPoolBackend
from .seeding import derive_streams, stream_rng, task_seed
from .serial import SerialBackend

__all__ = [
    "ExecutionBackend",
    "WorkerError",
    "make_backend",
    "SerialBackend",
    "ProcessPoolBackend",
    "stream_rng",
    "derive_streams",
    "task_seed",
]
