"""Unified execution runtime: where independent simulations run.

Every layer of the reproduction that fans out independent simulations —
epoch rollout collection, the paper's 10-sequence evaluation protocol,
trajectory-filter probes, perf benchmarks — dispatches through one
:class:`ExecutionBackend`:

* :class:`SerialBackend` runs everything in-process (the default, and the
  reference semantics);
* :class:`ProcessPoolBackend` runs the same task functions on persistent
  ``multiprocessing`` workers with chunked dispatch and one-shot state
  broadcast (policy weights, schedulers, actor replicas).

Both backends execute tasks against per-worker *state* dicts that persist
across calls, so stateful subsystems (the env + policy replicas of
:class:`ActorRuntime`) and stateless fan-out (``api.evaluate``) share
one dispatch layer.  Backends are interchangeable by contract: the same
tasks in the same order produce the same ordered results, which is what
keeps process-pool rollouts bit-identical to serial ones.
"""

from .actor import ActorRuntime, EpisodeSlice, lockstep_rollout
from .backend import ExecutionBackend, WorkerError, make_backend
from .process_pool import ProcessPoolBackend
from .seeding import derive_streams, stream_rng, task_seed
from .serial import SerialBackend
from .shm import ArrayCodec, SharedArrayPool

__all__ = [
    "ExecutionBackend",
    "WorkerError",
    "make_backend",
    "SerialBackend",
    "ProcessPoolBackend",
    "SharedArrayPool",
    "ArrayCodec",
    "ActorRuntime",
    "EpisodeSlice",
    "lockstep_rollout",
    "stream_rng",
    "derive_streams",
    "task_seed",
]
