"""The execution-backend contract shared by serial and process-pool runs.

A backend owns ``n_workers`` logical workers.  Each worker has a private
``state`` dict that persists across calls; every task is a plain top-level
function ``fn(state, *args)`` executed against one worker's state.  Four
dispatch primitives cover every fan-out pattern in the repo.  Two are
synchronous:

``broadcast(fn, *args)``
    run ``fn`` once on *every* worker with the same arguments (install
    schedulers, build actor replicas), results by worker id;
``map(fn, tasks, chunksize=...)``
    run ``fn(state, task)`` over an arbitrary task list, load-balanced in
    chunks across workers, results returned **in task order** (evaluate a
    scheduler over the paper's test sequences).

Two are *asynchronous* — the episode-granular actor runtime
(:mod:`repro.runtime.actor`) is built on them, and they are how one
worker is addressed:

``post(worker, fn, *args)`` / ``post_all(fn, *args)``
    queue ``fn(state, *args)`` on one worker (on every worker, encoded
    once) and return immediately;
``next_result()``
    block until *some* posted task finishes and return
    ``(worker_id, result)``.

Posted tasks execute in per-worker FIFO order (the staleness mechanism:
a weight push posted before an episode is guaranteed to apply first), but
``next_result`` returns completions in whatever order they arrive across
workers.  ``post``/``next_result`` must be fully drained before the
synchronous primitives run again — ``broadcast``/``map`` refuse while
results are pending so the two dispatch styles can never interleave on
one pipe.

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

    #: True when tasks/results cross a process boundary (are pickled);
    #: callers may use wire-compact encodings only when this is set.
    crosses_process_boundary = False

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

        Process backends serialize the arguments (and spill them to
        shared memory) once per call, not once per worker.
        """
        self.start()
        self._require_drained("broadcast")
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
        self._require_drained("map")
        return self._map_impl(fn, tasks, chunksize)

    # -- asynchronous dispatch ------------------------------------------
    def post(self, worker: int, fn: TaskFn, *args) -> None:
        """Queue ``fn(state, *args)`` on one worker without waiting.

        Per-worker execution order is the post order (FIFO); collect
        completions — in cross-worker arrival order — with
        :meth:`next_result`.
        """
        if not 0 <= worker < self.n_workers:
            raise ValueError(
                f"worker id {worker} out of range [0, {self.n_workers})"
            )
        self.start()
        self._post_impl(worker, fn, args)

    def post_all(self, fn: TaskFn, *args) -> None:
        """Post ``fn(state, *args)`` on *every* worker without waiting.

        Semantically ``post(w, fn, *args)`` for each worker in id order
        (same FIFO guarantees, one result per worker via
        :meth:`next_result`), but process backends encode the message
        **once** and write the same bytes to every pipe — the weight
        re-broadcast after a PPO update ships one snapshot, not
        ``n_workers`` pickled copies.
        """
        self.start()
        self._post_all_impl(fn, args)

    def next_result(self) -> tuple[int, Any]:
        """Block for the next completed posted task: ``(worker, result)``.

        Raises :class:`WorkerError` if that task failed (the failed task
        still counts as drained).  Raises ``RuntimeError`` when nothing is
        pending — a blocking wait could never return.
        """
        if self.n_pending == 0:
            raise RuntimeError("next_result() with no posted tasks pending")
        return self._next_result_impl()

    @property
    def n_pending(self) -> int:
        """Posted tasks whose results have not been collected yet."""
        if not self.started:
            return 0
        return self._n_pending_impl()

    def _require_drained(self, what: str) -> None:
        if self.n_pending:
            raise RuntimeError(
                f"cannot {what} while {self.n_pending} posted task(s) are "
                "pending; drain them with next_result() first"
            )

    # -- backend hooks --------------------------------------------------
    @abc.abstractmethod
    def _start_impl(self) -> None: ...

    @abc.abstractmethod
    def _close_impl(self) -> None: ...

    @abc.abstractmethod
    def _broadcast_impl(self, fn: TaskFn, args: tuple) -> list: ...

    @abc.abstractmethod
    def _map_impl(self, fn: TaskFn, tasks: list, chunksize: int) -> list: ...

    # Async-dispatch hooks have defaults so minimal backends (tests,
    # third-party) that only implement the synchronous contract keep
    # working until they opt in.
    def _post_impl(self, worker: int, fn: TaskFn, args: tuple) -> None:
        raise NotImplementedError(
            f"{type(self).__name__} does not implement post()"
        )

    def _post_all_impl(self, fn: TaskFn, args: tuple) -> None:
        for worker in range(self.n_workers):
            self._post_impl(worker, fn, args)

    def _next_result_impl(self) -> tuple[int, Any]:
        raise NotImplementedError(
            f"{type(self).__name__} does not implement next_result()"
        )

    def _n_pending_impl(self) -> int:
        return 0


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
