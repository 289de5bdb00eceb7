"""Process pool: persistent multiprocessing workers over pipes.

Workers are long-lived ``multiprocessing.Process`` children, one duplex
pipe each.  Each worker runs a command loop against its private ``state``
dict that persists across calls; every task is a plain top-level function
``fn(state, *args)``.  Two synchronous dispatch primitives cover every
fan-out in the repo:

``broadcast(fn, *args)``
    run ``fn`` once on *every* worker with the same arguments (install
    schedulers and the sequences they score), results by worker id; the
    arguments are pickled once for all workers;
``map(fn, tasks, chunksize=...)``
    run ``fn(state, task)`` over a task list, load-balanced in chunks
    across workers, results returned **in task order**.  The first round
    hands chunk ``i`` to worker ``i``, so ``n_workers`` chunks of size
    one address every worker once.

So expensive setup (schedulers, policy weights, pre-sampled sequences)
is paid once per run via ``broadcast`` and every subsequent dispatch
ships only the small per-call payload (a few task indices in, one score
out).  For the same task list, ``map`` / ``broadcast`` return the same
ordered results for any worker count, which is what keeps pooled
evaluation bit-identical to the in-process loop of
:func:`repro.api._run_cells`.

``map`` is chunked and load-balanced: chunks are handed to whichever
worker returns first (:func:`multiprocessing.connection.wait`), and the
chunk index travels with the result so the caller always sees results in
task order — worker count and scheduling jitter are unobservable.

Every reply comes back on the pipe its request went out on, and nothing
else carries results.  Both primitives are synchronous, so the parent
writes to a worker only when that worker owes it no reply: a worker is
either reading its one message or running it, never writing, while the
parent writes.  A worker blocked writing a large reply waits for a parent
that is at most finishing writes to *other*, reading workers before it
collects replies — no wait cycle, so two blocked ``send`` calls cannot
wedge each other.  A worker that dies mid-task closes its pipe, and the
parent's read of that pipe raises ``EOFError``, which is how a death
surfaces; nothing polls for liveness.

Every message, either direction, is one :func:`pickle.dumps` moved with
``send_bytes`` / ``recv_bytes``; a ``broadcast`` pickles its payload once
and writes the same bytes to every pipe.  Task functions and their
arguments must be picklable; define worker functions at module top level.
Exceptions raised in a worker come back pickled and re-raise in the
parent as :class:`WorkerError`.

Telemetry piggybacks on this protocol: when the parent's telemetry is
enabled at spawn time, every worker activates its own registry and every
reply carries the worker's snapshot *delta* as a third
element.  The parent absorbs deltas under worker-labelled metric names
as replies arrive, so per-worker telemetry (pipe queue wait, task and
encode time, plus whatever the task functions record) aggregates without
any extra round trips.  Both sides count the bytes they write
(``runtime.ipc.bytes_inline``) and time their encodes
(``runtime.ipc.encode``); workers record how long they waited for each
message (``runtime.ipc.queue_wait_sec``).  When telemetry is disabled the
extra element is ``None`` and the worker loop does no timing at all.
"""

from __future__ import annotations

import multiprocessing as mp
import pickle
import time
from multiprocessing.connection import Connection, wait
from typing import Any, Callable, Sequence

from repro.telemetry import core as _telemetry

__all__ = ["ProcessPoolBackend", "WorkerError"]

#: worker-task signature: fn(state, *args) -> result
TaskFn = Callable[..., Any]

#: wire sentinel: decoded message is None -> worker exits its loop
_SHUTDOWN = None


class WorkerError(RuntimeError):
    """A task raised inside a worker; carries the worker id and cause."""

    def __init__(self, worker_id: int, cause: BaseException):
        super().__init__(f"task failed on worker {worker_id}: {cause!r}")
        self.worker_id = worker_id
        self.cause = cause


def _dumps(obj) -> bytes:
    return pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)


def _worker_main(conn: Connection, telemetry_enabled: bool = False) -> None:
    """Command loop: ``(fn, args)`` in, ``("ok", result, tel) | ("err",
    exc, tel)`` out on the same pipe.  ``tel`` is the worker's telemetry
    snapshot delta (or ``None`` when disabled/empty).
    """
    state: dict = {}
    reg = None
    if telemetry_enabled:
        reg = _telemetry.Telemetry(enabled=True)
        _telemetry.set_active(reg)
    perf = time.perf_counter

    def encode(payload) -> bytes:
        """Encode a reply; an unencodable *result* fails the task in
        place, so the pipe still carries exactly one reply."""
        try:
            if reg is not None:
                t0 = perf()
                wire = _dumps(payload)
                # encode time/bytes for *this* reply ride the next one
                reg.add_span_time("runtime.ipc.encode", perf() - t0)
                reg.counter("runtime.ipc.bytes_inline").add(len(wire))
                return wire
            return _dumps(payload)
        except Exception as exc:
            return _dumps(("err", RuntimeError(f"unencodable result: {exc}"), None))

    while True:
        try:
            if reg is not None:
                t0 = perf()
                msg = pickle.loads(conn.recv_bytes())
                reg.histogram("runtime.ipc.queue_wait_sec").record(perf() - t0)
            else:
                msg = pickle.loads(conn.recv_bytes())
        except (EOFError, KeyboardInterrupt):
            break
        if msg is _SHUTDOWN:
            break
        fn, args = msg
        try:
            if reg is not None:
                t0 = perf()
                result = fn(state, *args)
                reg.add_span_time("runtime.worker.task", perf() - t0)
            else:
                result = fn(state, *args)
            reply = ("ok", result)
        except KeyboardInterrupt:
            break
        except BaseException as exc:  # ship the failure, keep the loop alive
            try:
                pickle.dumps(exc)
                reply = ("err", exc)
            except Exception:  # unpicklable exception: a plain stand-in
                reply = ("err", RuntimeError(f"{type(exc).__name__}: {exc}"))
        tel = None
        if reg is not None and reg.has_data():
            tel = reg.drain()
        conn.send_bytes(encode(reply + (tel,)))


def _map_chunk(state: dict, fn: TaskFn, tasks: list) -> list:
    """Run one chunk of map tasks against this worker's state."""
    return [fn(state, task) for task in tasks]


class ProcessPoolBackend:
    """``n_workers`` persistent ``multiprocessing`` workers, each with a
    private state dict; use as a context manager (or ``start`` /
    ``close``)."""

    #: seconds to wait for a worker to exit cleanly before terminating it
    JOIN_TIMEOUT = 5.0

    def __init__(self, n_workers: int = 1):
        if n_workers < 1:
            raise ValueError(f"n_workers must be >= 1, got {n_workers}")
        self.n_workers = int(n_workers)
        self._procs: list[mp.Process] = []
        self._conns: list[Connection] = []
        self._closed = False

    # -- lifecycle ------------------------------------------------------
    def start(self) -> "ProcessPoolBackend":
        """Spawn the workers (idempotent); returns self for chaining."""
        if self._closed:
            raise RuntimeError("pool has been closed; create a new one")
        if self._procs:
            return self
        ctx = mp.get_context()
        # Workers inherit the parent's telemetry enablement at spawn time;
        # enabling telemetry after the pool starts leaves workers dark.
        telemetry_enabled = _telemetry.enabled()
        for _ in range(self.n_workers):
            parent_conn, child_conn = ctx.Pipe(duplex=True)
            proc = ctx.Process(
                target=_worker_main,
                args=(child_conn, telemetry_enabled),
                daemon=True,
            )
            proc.start()
            child_conn.close()
            self._procs.append(proc)
            self._conns.append(parent_conn)
        return self

    def close(self) -> None:
        """Shut the workers down (idempotent and final)."""
        self._closed = True
        for conn in self._conns:
            try:
                conn.send_bytes(_dumps(_SHUTDOWN))
            except (BrokenPipeError, OSError):
                pass
        for proc in self._procs:
            proc.join(timeout=self.JOIN_TIMEOUT)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=self.JOIN_TIMEOUT)
        for conn in self._conns:
            conn.close()
        self._procs, self._conns = [], []

    def __enter__(self) -> "ProcessPoolBackend":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.close()

    # -- wire helpers ---------------------------------------------------
    def _encode(self, msg) -> bytes:
        """Pickle one parent-side message, timing it when telemetry is
        on.  Raises before anything is written if ``msg`` is unpicklable."""
        reg = _telemetry.current()
        if not reg.enabled:
            return _dumps(msg)
        t0 = time.perf_counter()
        wire = _dumps(msg)
        reg.add_span_time("runtime.ipc.encode", time.perf_counter() - t0)
        return wire

    def _send_wire(self, worker: int, wire: bytes) -> None:
        reg = _telemetry.current()
        if reg.enabled:
            reg.counter("runtime.ipc.bytes_inline").add(len(wire))
        self._conns[worker].send_bytes(wire)

    def _send_all(self, fn: TaskFn, args: tuple) -> tuple[int, Exception | None]:
        """One encode, ``n_workers`` writes of the same bytes: a payload
        common to every worker (schedulers, policy weights, sequences) is
        serialized once.  Returns how many workers (ids ``0 .. sent - 1``)
        got the message and, if not all did, the exception that stopped
        at worker ``sent``.  An encoding failure reaches no worker."""
        try:
            wire = self._encode((fn, tuple(args)))
        except Exception as exc:
            return 0, exc
        sent = 0
        try:
            for worker in range(self.n_workers):
                self._send_wire(worker, wire)
                sent += 1
        except Exception as exc:
            return sent, exc
        return sent, None

    # -- dispatch -------------------------------------------------------
    def _recv(self, worker_id: int):
        conn = self._conns[worker_id]
        try:
            status, payload, tel = pickle.loads(conn.recv_bytes())
        except EOFError:
            raise WorkerError(
                worker_id, RuntimeError("worker died mid-task (pipe closed)")
            ) from None
        if tel is not None:
            _telemetry.current().absorb(tel, worker=worker_id)
        if status == "err":
            raise WorkerError(worker_id, payload) from payload
        return payload

    def broadcast(self, fn: TaskFn, *args) -> list:
        """Run ``fn(state, *args)`` on every worker; results by worker id.

        The arguments are pickled once per call, not once per worker.
        """
        self.start()
        # Phase 1: write to every pipe so workers run concurrently;
        # phase 2: collect in worker order.  Every *delivered* call is
        # drained even on failure, so the pipes stay in sync and the
        # pool remains usable after a task error (a dead worker still
        # surfaces as WorkerError).
        sent, send_exc = self._send_all(fn, args)
        results, first_err = [], None
        for w in range(sent):
            try:
                results.append(self._recv(w))
            except WorkerError as err:
                first_err = first_err or err
        if send_exc is not None:
            raise WorkerError(sent, send_exc) from send_exc
        if first_err is not None:
            raise first_err
        return results

    def map(
        self, fn: TaskFn, tasks: Sequence, chunksize: int | None = None
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
        chunks = [
            (start, tasks[start : start + chunksize])
            for start in range(0, len(tasks), chunksize)
        ]
        results: list = [None] * len(tasks)
        pending = iter(chunks)
        inflight: dict[Connection, tuple[int, int]] = {}  # conn -> (worker, start)

        first_err = None

        def feed(worker_id: int) -> bool:
            nonlocal first_err
            if first_err is not None:
                return False
            entry = next(pending, None)
            if entry is None:
                return False
            start, chunk = entry
            try:
                self._send_wire(worker_id, self._encode((_map_chunk, (fn, chunk))))
            except Exception as exc:
                # Includes encoding failures: the message is pickled
                # before writing, so the worker saw nothing — record the
                # error and let the in-flight chunks drain normally.
                first_err = WorkerError(worker_id, exc)
                return False
            inflight[self._conns[worker_id]] = (worker_id, start)
            return True

        for w in range(self.n_workers):
            if not feed(w):
                break
        while inflight:
            for conn in wait(list(inflight)):
                worker_id, start = inflight.pop(conn)
                try:
                    chunk_result = self._recv(worker_id)
                except WorkerError as err:
                    first_err = first_err or err
                    continue  # stop feeding, drain the rest
                results[start : start + len(chunk_result)] = chunk_result
                if first_err is None:
                    feed(worker_id)
        if first_err is not None:
            raise first_err
        return results
