"""The execution-backend contract shared by serial and process-pool runs.

A backend owns ``n_workers`` logical workers.  Each worker has a private
``state`` dict that persists across calls; every task is a plain top-level
function ``fn(state, *args)`` executed against one worker's state.  Two
synchronous dispatch primitives cover every fan-out pattern in the repo:

``broadcast(fn, *args)``
    run ``fn`` once on *every* worker with the same arguments (install
    schedulers and the sequences they score), results by worker id;
    process backends encode the arguments once for all workers;
``map(fn, tasks, chunksize=...)``
    run ``fn(state, task)`` over an arbitrary task list, load-balanced in
    chunks across workers, results returned **in task order** (evaluate a
    scheduler over the paper's test sequences).  The first round hands
    chunk ``i`` to worker ``i``, so ``n_workers`` chunks of size one
    address every worker once.

Both return only when every dispatched call has answered, so a worker
never holds more than one message at a time.

Determinism contract: for the same task list, ``map``/``broadcast``
return the same ordered results on every backend and any worker count.
Dispatch order may differ; observable results may not.  All the runtime
golden tests pin exactly this.
"""

from __future__ import annotations

import abc
from typing import Any, Callable, Sequence

__all__ = ["ExecutionBackend", "WorkerError", "make_backend"]

#: worker-task signature: fn(state, *args) -> result
TaskFn = Callable[..., Any]


class WorkerError(RuntimeError):
    """A task raised inside a worker; carries the worker id and cause."""

    def __init__(self, worker_id: int, cause: BaseException):
        super().__init__(f"task failed on worker {worker_id}: {cause!r}")
        self.worker_id = worker_id
        self.cause = cause


class ExecutionBackend(abc.ABC):
    """Lifecycle + dispatch over a fixed set of stateful workers."""

    def __init__(self, n_workers: int = 1):
        if n_workers < 1:
            raise ValueError(f"n_workers must be >= 1, got {n_workers}")
        self._n_workers = int(n_workers)
        self._started = False
        self._closed = False

    # -- lifecycle ------------------------------------------------------
    @property
    def n_workers(self) -> int:
        return self._n_workers

    @property
    def started(self) -> bool:
        return self._started and not self._closed

    def start(self) -> "ExecutionBackend":
        """Bring the workers up (idempotent); returns self for chaining."""
        if self._closed:
            raise RuntimeError("backend has been closed; create a new one")
        if not self._started:
            self._start_impl()
            self._started = True
        return self

    def close(self) -> None:
        """Tear the workers down (idempotent)."""
        if self._started and not self._closed:
            self._close_impl()
        self._closed = True

    def __enter__(self) -> "ExecutionBackend":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self):  # best-effort cleanup; close() explicitly in code
        try:
            self.close()
        except Exception:
            pass

    # -- dispatch -------------------------------------------------------
    def broadcast(self, fn: TaskFn, *args) -> list:
        """Run ``fn(state, *args)`` on every worker; results by worker id.

        Process backends serialize the arguments once per call, not once
        per worker.
        """
        self.start()
        return self._broadcast_impl(fn, args)

    def map(
        self,
        fn: TaskFn,
        tasks: Sequence,
        chunksize: int | None = None,
    ) -> list:
        """Run ``fn(state, task)`` for every task; results in task order.

        Tasks are dispatched in chunks of ``chunksize`` (default: enough
        chunks for ~4 rounds of load balancing per worker) so per-dispatch
        overhead amortises over many small tasks while stragglers still
        rebalance.
        """
        tasks = list(tasks)
        if not tasks:
            return []
        if chunksize is None:
            chunksize = max(1, -(-len(tasks) // (self.n_workers * 4)))
        if chunksize < 1:
            raise ValueError(f"chunksize must be >= 1, got {chunksize}")
        self.start()
        return self._map_impl(fn, tasks, chunksize)

    # -- backend hooks --------------------------------------------------
    @abc.abstractmethod
    def _start_impl(self) -> None: ...

    @abc.abstractmethod
    def _close_impl(self) -> None: ...

    @abc.abstractmethod
    def _broadcast_impl(self, fn: TaskFn, args: tuple) -> list: ...

    @abc.abstractmethod
    def _map_impl(self, fn: TaskFn, tasks: list, chunksize: int) -> list: ...


def make_backend(config=None, workers: int | None = None) -> ExecutionBackend:
    """Build a backend from a :class:`repro.config.RuntimeConfig`.

    ``workers`` overrides the configured count (the CLI ``--workers``
    flag).  ``backend="serial"`` — or one worker on the ``"process"``
    backend resolving to a single shard — still honours the configured
    choice: a 1-worker process pool is a real child process, which the
    equivalence tests use to pin serialisation behaviour.
    """
    from repro.config import RuntimeConfig

    from .process_pool import ProcessPoolBackend
    from .serial import SerialBackend

    config = config or RuntimeConfig()
    n = config.workers if workers is None else workers
    if n < 1:
        raise ValueError(f"workers must be >= 1, got {n}")
    if config.backend == "serial":
        return SerialBackend(n)
    return ProcessPoolBackend(n)
