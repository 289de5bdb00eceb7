"""Process-pool backend: persistent multiprocessing workers over pipes.

Workers are long-lived ``multiprocessing.Process`` children, one duplex
pipe each.  Each worker runs a command loop against its private ``state``
dict, so expensive setup (env shards, schedulers, policy weights) is paid
once per run via ``broadcast`` and every subsequent dispatch ships only
the small per-call payload (actions in, observations out).

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

Every message, either direction, is encoded by an
:class:`repro.runtime.shm.ArrayCodec` and moved with ``send_bytes``/
``recv_bytes``.  Large ndarray payloads spill out-of-band into a
:class:`~repro.runtime.shm.SharedArrayPool` shared with the workers, so
the pipes carry only small skeletons and span descriptors; a small
payload or an exhausted pool falls back losslessly to carrying the
bytes inline, and a host that cannot create the pool at all (no
``/dev/shm``, size limit) runs every message inline after one warning.
Results are bit-identical either way.  The parent owns the pool: it is
created at start, destroyed at close, and leases owned by a worker that
died mid-task are reclaimed when the death is detected.

Task functions and their arguments must be picklable; define worker
functions at module top level.  Exceptions raised in a worker come back
pickled and re-raise in the parent as :class:`WorkerError`.

Telemetry piggybacks on this protocol: when the parent's telemetry is
enabled at spawn time, every worker activates its own registry and every
reply carries the worker's snapshot *delta* as a third
element.  The parent absorbs deltas under worker-labelled metric names
as replies arrive, so per-worker telemetry (IPC queue wait, task and
encode time, plus whatever the task functions record) aggregates without
any extra round trips.  Both sides count the bytes they actually write
(``runtime.ipc.bytes_inline``) and time their encodes
(``runtime.ipc.encode``); the codec adds ``runtime.ipc.bytes_shm`` and
the pool-occupancy gauge.  When telemetry is disabled the extra element
is ``None`` and the worker loop does no timing at all.
"""

from __future__ import annotations

import logging
import multiprocessing as mp
import pickle
import time
from multiprocessing.connection import Connection, wait

from repro.telemetry import core as _telemetry

from .backend import ExecutionBackend, TaskFn, WorkerError
from .shm import ArrayCodec, SharedArrayPool

__all__ = ["ProcessPoolBackend"]

logger = logging.getLogger("repro.runtime.process_pool")

#: wire sentinel: decoded message is None -> worker exits its loop
_SHUTDOWN = None


def _worker_main(
    conn: Connection,
    telemetry_enabled: bool = False,
    pool: SharedArrayPool | None = None,
) -> None:
    """Command loop: ``(fn, args)`` in, ``("ok", result, tel) | ("err",
    exc, tel)`` out on the same pipe.  ``tel`` is the worker's telemetry
    snapshot delta (or ``None`` when disabled/empty).
    """
    codec = ArrayCodec(pool)
    state: dict = {}
    if pool is not None:
        # tasks (and crash-reclaim tests) may lease spans themselves
        state["_shm_pool"] = pool
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
                wire, _lease = codec.dumps(payload)
                # encode time/bytes for *this* reply ride the next one
                reg.add_span_time("runtime.ipc.encode", perf() - t0)
                reg.counter("runtime.ipc.bytes_inline").add(len(wire))
            else:
                wire, _lease = codec.dumps(payload)
            return wire
        except Exception as exc:
            err = RuntimeError(f"unencodable result: {exc}")
            wire, _lease = codec.dumps(("err", err, None))
            return wire

    while True:
        try:
            if reg is not None:
                t0 = perf()
                msg = codec.loads(conn.recv_bytes())
                reg.histogram("runtime.ipc.queue_wait_sec").record(perf() - t0)
            else:
                msg = codec.loads(conn.recv_bytes())
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
    if pool is not None:
        pool.close()


def _map_chunk(state: dict, fn: TaskFn, tasks: list) -> list:
    """Run one chunk of map tasks against this worker's state."""
    return [fn(state, task) for task in tasks]


class ProcessPoolBackend(ExecutionBackend):
    """Persistent ``multiprocessing`` workers behind the backend contract."""

    crosses_process_boundary = True

    #: seconds to wait for a worker to exit cleanly before terminating it
    JOIN_TIMEOUT = 5.0

    def __init__(self, n_workers: int = 1):
        super().__init__(n_workers)
        self._procs: list[mp.Process] = []
        self._conns: list[Connection] = []
        self._pool: SharedArrayPool | None = None
        self._codec = ArrayCodec(None)

    # -- lifecycle ------------------------------------------------------
    def _start_impl(self) -> None:
        ctx = mp.get_context()
        try:
            self._pool = SharedArrayPool()
        except OSError as exc:  # no /dev/shm, size limit: inline messages
            logger.warning(
                "shared-memory pool unavailable (%s); worker messages "
                "travel inline", exc,
            )
        self._codec = ArrayCodec(self._pool)
        # Workers inherit the parent's telemetry enablement at spawn time;
        # enabling telemetry after the pool starts leaves workers dark.
        telemetry_enabled = _telemetry.enabled()
        for _ in range(self.n_workers):
            parent_conn, child_conn = ctx.Pipe(duplex=True)
            proc = ctx.Process(
                target=_worker_main,
                args=(child_conn, telemetry_enabled, self._pool),
                daemon=True,
            )
            proc.start()
            child_conn.close()
            self._procs.append(proc)
            self._conns.append(parent_conn)

    def _close_impl(self) -> None:
        for conn in self._conns:
            try:
                conn.send_bytes(self._codec.dumps(_SHUTDOWN)[0])
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
        if self._pool is not None:
            self._pool.destroy()
            self._pool = None
        self._codec = ArrayCodec(None)

    # -- wire helpers ---------------------------------------------------
    def _encode(self, msg, receivers: int = 1):
        """Codec-encode one parent-side message, timing it when telemetry
        is on.  Returns ``(wire, lease)``."""
        reg = _telemetry.current()
        if not reg.enabled:
            return self._codec.dumps(msg, receivers)
        t0 = time.perf_counter()
        wire, lease = self._codec.dumps(msg, receivers)
        reg.add_span_time("runtime.ipc.encode", time.perf_counter() - t0)
        return wire, lease

    def _send_wire(self, worker: int, wire: bytes) -> None:
        reg = _telemetry.current()
        if reg.enabled:
            reg.counter("runtime.ipc.bytes_inline").add(len(wire))
        self._conns[worker].send_bytes(wire)

    def _send_msg(self, worker: int, fn: TaskFn, args: tuple) -> None:
        """Encode + write one message.  Encoding failures raise before
        anything is written (the worker saw nothing); a write failure
        refunds the message's own pool lease — the worker will never
        decode it."""
        wire, lease = self._encode((fn, tuple(args)))
        try:
            self._send_wire(worker, wire)
        except BaseException:
            self._codec.discard(lease)
            raise

    def _send_all(self, fn: TaskFn, args: tuple) -> tuple[int, Exception | None]:
        """One encode, ``n_workers`` writes of the same bytes: a payload
        common to every worker (a weight snapshot, the actor replicas) is
        serialized — and pool-spilled — once.  Returns how many workers
        (ids ``0 .. sent - 1``) got the message and, if not all did, the
        exception that stopped at worker ``sent``.  An encoding failure
        reaches no worker (``dumps()`` runs before anything is written);
        a write failure refunds the leases of the copies that were never
        delivered (each delivered copy is consumed by its worker's
        decode)."""
        try:
            wire, lease = self._encode((fn, tuple(args)), receivers=self.n_workers)
        except Exception as exc:
            return 0, exc
        sent = 0
        try:
            for worker in range(self.n_workers):
                self._send_wire(worker, wire)
                sent += 1
        except Exception as exc:
            self._codec.discard(lease, self.n_workers - sent)
            return sent, exc
        return sent, None

    # -- dispatch -------------------------------------------------------
    @staticmethod
    def _absorb_telemetry(worker_id: int, tel) -> None:
        if tel is not None:
            _telemetry.current().absorb(tel, worker=worker_id)

    def _reclaim_worker(self, worker_id: int) -> None:
        """Free pool spans leased by a worker that died mid-task."""
        if self._pool is not None:
            proc = self._procs[worker_id]
            if proc.pid is not None:
                self._pool.release_owner(proc.pid)

    def _recv(self, worker_id: int):
        conn = self._conns[worker_id]
        try:
            status, payload, tel = self._codec.loads(conn.recv_bytes())
        except EOFError:
            self._reclaim_worker(worker_id)
            raise WorkerError(
                worker_id, RuntimeError("worker died mid-task (pipe closed)")
            ) from None
        self._absorb_telemetry(worker_id, tel)
        if status == "err":
            raise WorkerError(worker_id, payload) from payload
        return payload

    def _broadcast_impl(self, fn: TaskFn, args: tuple) -> list:
        # Phase 1: write to every pipe so workers run concurrently;
        # phase 2: collect in worker order.  Every *delivered* call is
        # drained even on failure, so the pipes stay in sync and the
        # backend remains usable after a task error (a dead worker still
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

    def _map_impl(self, fn: TaskFn, tasks: list, chunksize: int) -> list:
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
                self._send_msg(worker_id, _map_chunk, (fn, chunk))
            except Exception as exc:
                # Includes encoding failures: dumps() runs before
                # writing, so the worker saw nothing — record the error
                # and let the in-flight chunks drain normally.
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
