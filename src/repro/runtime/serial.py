"""In-process reference backend: the semantics every other backend matches."""

from __future__ import annotations

from .backend import ExecutionBackend, TaskFn, WorkerError

__all__ = ["SerialBackend"]


class SerialBackend(ExecutionBackend):
    """Runs every task in the calling process, one worker-state per slot.

    ``n_workers`` only partitions state (e.g. env shards); execution is
    strictly sequential in dispatch order, which *is* the determinism
    contract the process pool reproduces.
    """

    def __init__(self, n_workers: int = 1):
        super().__init__(n_workers)
        self._states: list[dict] = []

    def _start_impl(self) -> None:
        self._states = [{} for _ in range(self.n_workers)]

    def _close_impl(self) -> None:
        self._states = []

    def _run(self, worker_id: int, fn: TaskFn, args: tuple):
        try:
            return fn(self._states[worker_id], *args)
        except WorkerError:
            raise
        except Exception as exc:
            raise WorkerError(worker_id, exc) from exc

    def _broadcast_impl(self, fn: TaskFn, args: tuple) -> list:
        return [self._run(w, fn, args) for w in range(self.n_workers)]

    def _map_impl(self, fn: TaskFn, tasks: list, chunksize: int) -> list:
        # Chunking is a no-op serially, but walking chunk-by-chunk keeps the
        # executed (worker, task) pairing identical in spirit to the pool.
        results = []
        for start in range(0, len(tasks), chunksize):
            worker = (start // chunksize) % self.n_workers
            for task in tasks[start : start + chunksize]:
                results.append(self._run(worker, fn, (task,)))
        return results
