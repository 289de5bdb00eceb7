"""Zero-copy shared-memory array plane for the process runtime.

Two pieces:

:class:`SharedArrayPool`
    A ring of fixed-size slots carved out of one
    ``multiprocessing.shared_memory`` data segment, with a second control
    segment holding per-slot refcounts, span lengths, and owner pids.  A
    message's out-of-band buffers are coalesced into one *span* of
    consecutive slots; the span is leased with a refcount (one per
    receiver) and freed when the last receiver decodes it.  Owner pids
    make leases reclaimable when a worker dies mid-lease
    (:meth:`release_owner`), and the creating process registers an
    ``atexit`` hook so segments are unlinked even on abnormal exit.

:class:`ArrayCodec`
    The wire codec every :class:`~repro.runtime.ProcessPoolBackend`
    message goes through.  Without a pool (the host could not create
    one) it is plain pickle.  With a pool it pickles with protocol 5 and
    a ``buffer_callback`` that spills large ndarray buffers
    out-of-band: pipes then carry only the small pickle skeleton
    plus one ``(slot, nbytes, sizes)`` descriptor.  Payloads that are
    small, non-contiguous, or face an exhausted pool fall back
    *losslessly* to carrying the buffers in-band — same bytes, same
    decoded values — so the pool can never deadlock or change results.

Decoded buffers are **copied** out of the span into fresh ``bytearray``s
(NumPy reconstructs arrays as writable views over them) and the lease is
released immediately — array lifetimes never pin pool slots.

Telemetry: the codec counts ``runtime.ipc.bytes_shm`` and sets the
``runtime.ipc.pool_occupancy`` gauge at spill time; the backend counts
``runtime.ipc.bytes_inline`` (actual bytes written to a pipe or queue)
at send time, so ``bytes_inline`` with the pool over ``bytes_inline``
with the pool withheld is the hardware-independent reduction ratio
``run_perf.py`` records.
"""

from __future__ import annotations

import atexit
import os
import pickle
import secrets
from multiprocessing import get_context, shared_memory

import numpy as np

from repro.telemetry import core as _telemetry

__all__ = ["SharedArrayPool", "ArrayCodec"]

# control-table rows (int64 each, one column per slot)
_REF = 0  # 0 = free, >0 = lease refcount at span start, -1 = continuation
_SPAN = 1  # span length in slots, recorded at the span start
_OWNER = 2  # pid that allocated the span (crash reclaim)


def _attach(name: str) -> shared_memory.SharedMemory:
    """Attach to an existing segment without adopting ownership.

    CPython's resource tracker registers segments on *attach* too
    (gh-82300), which would unlink the pool when the first worker exits;
    unregister defensively so only the creating process cleans up.
    """
    seg = shared_memory.SharedMemory(name=name)
    try:  # pragma: no cover - tracker layout differs across versions
        from multiprocessing import resource_tracker

        resource_tracker.unregister(seg._name, "shared_memory")
    except Exception:
        pass
    return seg


class SharedArrayPool:
    """Refcounted slot-span allocator over shared-memory segments."""

    N_SLOTS = 512
    SLOT_BYTES = 16 * 1024  # 512 x 16KiB = 8MiB data plane

    def __init__(self, n_slots: int = N_SLOTS, slot_bytes: int = SLOT_BYTES):
        if n_slots < 1:
            raise ValueError(f"n_slots must be >= 1, got {n_slots}")
        if slot_bytes < 1:
            raise ValueError(f"slot_bytes must be >= 1, got {slot_bytes}")
        self.n_slots = int(n_slots)
        self.slot_bytes = int(slot_bytes)
        tag = secrets.token_hex(4)
        self._ctl = shared_memory.SharedMemory(
            create=True, size=3 * 8 * self.n_slots, name=f"repro-ctl-{tag}"
        )
        try:
            self._data = shared_memory.SharedMemory(
                create=True, size=self.n_slots * self.slot_bytes,
                name=f"repro-dat-{tag}",
            )
        except OSError:  # half-built pool: leave no control segment behind
            self._ctl.close()
            self._ctl.unlink()
            raise
        self._lock = get_context().Lock()
        self._owner = True
        self._closed = False
        self._n_puts = 0  # local diagnostic: spans allocated by this process
        self._table = np.ndarray((3, self.n_slots), dtype=np.int64, buffer=self._ctl.buf)
        self._table[:] = 0
        atexit.register(self._atexit_cleanup)

    # -- pickling (spawn-context Process args) --------------------------
    def __getstate__(self):
        return {
            "n_slots": self.n_slots,
            "slot_bytes": self.slot_bytes,
            "ctl": self._ctl.name,
            "data": self._data.name,
            "lock": self._lock,
        }

    def __setstate__(self, state):
        self.n_slots = state["n_slots"]
        self.slot_bytes = state["slot_bytes"]
        self._ctl = _attach(state["ctl"])
        self._data = _attach(state["data"])
        self._lock = state["lock"]
        self._owner = False
        self._closed = False
        self._n_puts = 0
        self._table = np.ndarray((3, self.n_slots), dtype=np.int64, buffer=self._ctl.buf)

    # -- allocation -----------------------------------------------------
    def _find_run(self, refs: np.ndarray, n: int) -> int | None:
        free = refs == 0
        if n == 1:
            idx = np.flatnonzero(free)
            return int(idx[0]) if idx.size else None
        cs = np.cumsum(free)
        window = cs[n - 1 :] - np.concatenate(([0], cs[:-n]))
        idx = np.flatnonzero(window == n)
        return int(idx[0]) if idx.size else None

    def put(self, buffers, refcount: int = 1) -> int | None:
        """Copy ``buffers`` into one consecutive span; lease it ``refcount``
        times.  Returns the start slot, or ``None`` when no span fits
        (the caller falls back to in-band transport)."""
        if refcount < 1:
            raise ValueError(f"refcount must be >= 1, got {refcount}")
        views = [memoryview(b).cast("B") for b in buffers]
        total = sum(v.nbytes for v in views)
        n = max(1, -(-total // self.slot_bytes))
        if n > self.n_slots:
            return None
        refs = self._table[_REF]
        with self._lock:
            start = self._find_run(refs, n)
            if start is None:
                return None
            refs[start] = refcount
            if n > 1:
                refs[start + 1 : start + n] = -1
            self._table[_SPAN][start] = n
            self._table[_OWNER][start] = os.getpid()
        data = memoryview(self._data.buf)
        off = start * self.slot_bytes
        for v in views:
            data[off : off + v.nbytes] = v
            off += v.nbytes
        data.release()
        self._n_puts += 1
        return start

    def read(self, start: int, nbytes: int) -> memoryview:
        """A view over a leased span's bytes; ``.release()`` it promptly
        (held views block :meth:`close`)."""
        off = start * self.slot_bytes
        return memoryview(self._data.buf)[off : off + nbytes]

    def release(self, start: int, count: int = 1) -> None:
        """Drop ``count`` leases on the span at ``start``; frees it when
        the refcount reaches zero.  Releasing a free slot is a no-op (a
        drained-then-reclaimed race must not raise)."""
        with self._lock:
            refs = self._table[_REF]
            if refs[start] <= 0:
                return
            refs[start] = max(0, int(refs[start]) - count)
            if refs[start] == 0:
                self._free_span_locked(start)

    def _free_span_locked(self, start: int) -> None:
        n = int(self._table[_SPAN][start])
        self._table[_REF][start : start + max(n, 1)] = 0
        self._table[_SPAN][start] = 0
        self._table[_OWNER][start] = 0

    def release_owner(self, pid: int) -> int:
        """Free every span allocated by ``pid`` regardless of refcount —
        crash reclaim when a worker dies mid-lease.  Returns the number
        of spans freed."""
        freed = 0
        with self._lock:
            for start in np.flatnonzero(self._table[_OWNER] == pid):
                if self._table[_REF][start] > 0:
                    self._free_span_locked(int(start))
                    freed += 1
        return freed

    # -- introspection --------------------------------------------------
    @property
    def occupancy(self) -> float:
        """Fraction of slots currently leased (continuations included)."""
        return float(np.count_nonzero(self._table[_REF] != 0)) / self.n_slots

    @property
    def n_leases(self) -> int:
        return int(np.count_nonzero(self._table[_REF] > 0))

    # -- teardown -------------------------------------------------------
    def close(self) -> None:
        """Unmap this process's view of the segments (workers at exit)."""
        if self._closed:
            return
        self._closed = True
        self._table = None
        for seg in (self._ctl, self._data):
            try:
                seg.close()
            except BufferError:  # a read() view is still alive somewhere
                pass

    def destroy(self) -> None:
        """Owner teardown: unlink the segments and drop the atexit hook."""
        if self._owner:
            atexit.unregister(self._atexit_cleanup)
            for seg in (self._ctl, self._data):
                try:
                    seg.unlink()
                except FileNotFoundError:
                    pass
        self.close()

    def _atexit_cleanup(self) -> None:
        # mp children exit via os._exit and never run this; only the
        # creating process unlinks, so abnormal parent exits (uncaught
        # exceptions, sys.exit) still remove the segments from /dev/shm.
        self.destroy()


# wire kinds: 1 leading byte
_PLAIN = b"P"  # plain pickle, no out-of-band buffers
_INBAND = b"B"  # protocol-5 skeleton + buffers appended to the wire
_POOLED = b"S"  # protocol-5 skeleton + one pool-span descriptor


class ArrayCodec:
    """Message (de)serializer; ``pool=None`` is the plain-pickle inline path."""

    #: per-buffer minimum for out-of-band treatment; tiny arrays pickle
    #: in-band where the skeleton bytes dominate anyway
    MIN_BUFFER_BYTES = 1024
    #: per-message minimum before a pool span is worth a slot lease
    MIN_POOL_BYTES = 4096

    def __init__(
        self,
        pool: SharedArrayPool | None = None,
        min_buffer_bytes: int | None = None,
        min_pool_bytes: int | None = None,
    ):
        self.pool = pool
        self.min_buffer_bytes = (
            self.MIN_BUFFER_BYTES if min_buffer_bytes is None else min_buffer_bytes
        )
        self.min_pool_bytes = (
            self.MIN_POOL_BYTES if min_pool_bytes is None else min_pool_bytes
        )

    def dumps(self, obj, receivers: int = 1) -> tuple[bytes, tuple[int, int] | None]:
        """Encode ``obj`` for ``receivers`` decoders.

        Returns ``(wire, lease)`` where ``lease`` is ``(start_slot,
        refcount)`` when a pool span was taken (each successful
        :meth:`loads` consumes one refcount) and ``None`` otherwise.  If
        the wire is never delivered to some receivers, refund their
        refcounts with :meth:`discard` — the span would otherwise stay
        leased until the pool is destroyed.
        """
        if self.pool is None:
            return _PLAIN + pickle.dumps(obj, protocol=5), None
        bufs: list[memoryview] = []
        min_bytes = self.min_buffer_bytes

        def spill(pb: pickle.PickleBuffer):
            try:
                raw = pb.raw()
            except Exception:  # non-contiguous: keep in-band
                return True
            if raw.nbytes < min_bytes:
                return True
            bufs.append(raw)
            return False

        blob = pickle.dumps(obj, protocol=5, buffer_callback=spill)
        if not bufs:
            return _PLAIN + blob, None
        sizes = [b.nbytes for b in bufs]
        total = sum(sizes)
        start = None
        if total >= self.min_pool_bytes:
            start = self.pool.put(bufs, refcount=receivers)
        if start is None:  # small payload or pool exhausted: in-band
            header = pickle.dumps(sizes, protocol=5)
            wire = b"".join(
                [_INBAND, len(header).to_bytes(4, "little"), header, blob, *bufs]
            )
            return wire, None
        reg = _telemetry.current()
        if reg.enabled:
            reg.counter("runtime.ipc.bytes_shm").add(total)
            reg.gauge("runtime.ipc.pool_occupancy").set(self.pool.occupancy)
        header = pickle.dumps((start, total, sizes), protocol=5)
        wire = b"".join([_POOLED, len(header).to_bytes(4, "little"), header, blob])
        return wire, (start, receivers)

    def loads(self, wire):
        """Decode one wire message, consuming its pool lease (if any)."""
        mv = memoryview(wire)
        kind = mv[:1].tobytes()
        if kind == _PLAIN:
            return pickle.loads(mv[1:])
        hlen = int.from_bytes(mv[1:5], "little")
        header = pickle.loads(mv[5 : 5 + hlen])
        blob_start = 5 + hlen
        if kind == _INBAND:
            sizes = header
            total = sum(sizes)
            buffers = []
            off = len(mv) - total
            blob = mv[blob_start:off]
            for size in sizes:
                buffers.append(bytearray(mv[off : off + size]))
                off += size
            return pickle.loads(blob, buffers=buffers)
        if kind != _POOLED:
            raise ValueError(f"unknown wire kind {kind!r}")
        if self.pool is None:
            raise RuntimeError("pooled wire message but no pool attached")
        start, total, sizes = header
        view = self.pool.read(start, total)
        try:
            buffers = []
            off = 0
            for size in sizes:
                buffers.append(bytearray(view[off : off + size]))
                off += size
        finally:
            view.release()
        self.pool.release(start)
        return pickle.loads(mv[blob_start:], buffers=buffers)

    def discard(self, lease: tuple[int, int] | None, count: int | None = None) -> None:
        """Refund leases for receivers that will never decode the wire."""
        if lease is None or self.pool is None:
            return
        start, refcount = lease
        self.pool.release(start, refcount if count is None else count)
