"""Unit tests for the execution runtime (backends, seeding, lifecycle).

The backend contract — ordered results, persistent per-worker state,
error propagation, idempotent lifecycle — is exercised identically on
:class:`SerialBackend` and :class:`ProcessPoolBackend`; the golden
cross-backend guarantees live in ``test_runtime_equivalence.py``.
``TestWorkerFailures`` pins what a dead or failing process worker does:
a typed :class:`WorkerError` naming it, pipes left in sync, no live child.
"""

import multiprocessing
import os
import signal
from pathlib import Path

import numpy as np
import pytest

from repro import api
from repro.config import EvalConfig, RuntimeConfig
from repro.runtime import (
    ProcessPoolBackend,
    SerialBackend,
    WorkerError,
    derive_streams,
    make_backend,
    stream_rng,
    task_seed,
)
from repro.schedulers import FCFS, SJF
from repro.workloads import load_trace

BACKENDS = [SerialBackend, ProcessPoolBackend]


# ----------------------------------------------------------------------
# worker task functions (top-level so the process backend can pickle them)
# ----------------------------------------------------------------------
def square(state, x):
    return x * x


def remember(state, value):
    state["value"] = value


def recall(state):
    return state.get("value")


def count_calls(state, _task):
    state["calls"] = state.get("calls", 0) + 1
    return state["calls"]


def get_calls(state):
    return state.get("calls", 0)


def explode(state, x):
    if x == 3:
        raise ValueError("boom on 3")
    return x


def explode_on_remembered(state):
    return explode(state, state["value"])


def unpicklable_result(state, _task):
    return lambda: None


@pytest.fixture(params=BACKENDS, ids=lambda c: c.__name__)
def backend(request):
    with request.param(3) as b:
        yield b


class TestDispatch:
    def test_map_returns_results_in_task_order(self, backend):
        tasks = list(range(23))
        assert backend.map(square, tasks, chunksize=2) == [x * x for x in tasks]

    def test_map_default_chunking_and_empty(self, backend):
        assert backend.map(square, []) == []
        assert backend.map(square, [5]) == [25]
        assert backend.map(square, list(range(100))) == [x * x for x in range(100)]

    def test_broadcast_reaches_every_worker(self, backend):
        backend.broadcast(remember, 42)
        assert backend.broadcast(recall) == [42] * 3

    def test_first_map_round_gives_worker_i_chunk_i(self, backend):
        """``n_workers`` chunks of size one reach every worker once (the
        worker-failure tests below aim at a worker through this)."""
        backend.map(remember, [10, 20, 30], chunksize=1)
        assert backend.broadcast(recall) == [10, 20, 30]

    def test_state_persists_across_map_calls(self, backend):
        # The same workers serve both calls, so counters keep counting:
        # however the 12 tasks were distributed, the per-worker counters
        # must add up to exactly 12 afterwards.
        backend.map(count_calls, range(6), chunksize=1)
        second = backend.map(count_calls, range(6), chunksize=1)
        assert max(second) >= 2  # at least one worker saw both calls
        assert sum(backend.broadcast(get_calls)) == 12

    def test_task_error_raises_worker_error(self, backend):
        with pytest.raises(WorkerError, match="boom"):
            backend.map(explode, [1, 2, 3, 4], chunksize=1)
        # the backend stays usable after a failed task
        assert backend.map(square, [2, 3]) == [4, 9]

    def test_broadcast_error_keeps_pipes_in_sync(self, backend):
        # One worker of three fails the same call: the other replies are
        # still drained, so the next dispatch reads its own answers.
        backend.map(remember, [1, 3, 5], chunksize=1)
        with pytest.raises(WorkerError, match="boom") as err:
            backend.broadcast(explode_on_remembered)
        assert err.value.worker_id == 1
        assert backend.broadcast(square, 7) == [49, 49, 49]
        assert backend.broadcast(recall) == [1, 3, 5]

    def test_unpicklable_payload_keeps_pipes_in_sync(self):
        # A pickling failure on either side must leave every pipe holding
        # exactly the replies its dispatch expects: otherwise the next
        # dispatch reads a stale reply (silent corruption instead of an
        # error).  Process backend only — the serial backend never
        # pickles.  Messages are pickled before anything is written.
        with ProcessPoolBackend(2) as b:
            with pytest.raises(WorkerError):
                b.broadcast(square, lambda: None)
            assert b.broadcast(square, 5) == [25, 25]
            # a worker's unencodable result comes back as its error
            with pytest.raises(WorkerError, match="unencodable"):
                b.map(unpicklable_result, [0, 1], chunksize=1)
            assert b.broadcast(square, 6) == [36, 36]
            with pytest.raises(WorkerError):
                b.map(square, [1, lambda: None, 3], chunksize=1)
            assert b.map(square, [2, 3]) == [4, 9]


class TestLifecycle:
    @pytest.mark.parametrize("cls", BACKENDS, ids=lambda c: c.__name__)
    def test_close_is_idempotent_and_final(self, cls):
        b = cls(2)
        b.start()
        b.close()
        b.close()
        with pytest.raises(RuntimeError):
            b.start()

    @pytest.mark.parametrize("cls", BACKENDS, ids=lambda c: c.__name__)
    def test_rejects_zero_workers(self, cls):
        with pytest.raises(ValueError):
            cls(0)

    def test_process_workers_shut_down(self):
        b = ProcessPoolBackend(2)
        b.start()
        procs = list(b._procs)
        assert all(p.is_alive() for p in procs)
        b.close()
        assert not any(p.is_alive() for p in procs)


class TestMakeBackend:
    def test_serial_by_default(self):
        b = make_backend()
        assert isinstance(b, SerialBackend) and b.n_workers == 1
        b.close()

    def test_process_config(self):
        b = make_backend(RuntimeConfig(backend="process", workers=2))
        assert isinstance(b, ProcessPoolBackend) and b.n_workers == 2
        b.close()

    def test_workers_override(self):
        b = make_backend(RuntimeConfig(backend="serial", workers=4), workers=2)
        assert b.n_workers == 2
        b.close()
        with pytest.raises(ValueError):
            make_backend(workers=0)

    def test_transport_threads_through(self):
        """There is one transport and nothing left to thread: a process
        backend pickles over its pipes, creates no shared-memory segment,
        and neither the config nor the backend takes a transport or a
        chunk size."""
        shm = Path("/dev/shm")
        before = set(shm.iterdir()) if shm.is_dir() else set()
        with make_backend(RuntimeConfig(backend="process", workers=2)) as b:
            assert isinstance(b, ProcessPoolBackend)
            assert b.map(square, range(8)) == [x * x for x in range(8)]
            if shm.is_dir():
                assert set(shm.iterdir()) == before
        for kwargs in ({"transport": "shm"}, {"chunksize": 4}):
            with pytest.raises(TypeError):
                RuntimeConfig(backend="process", **kwargs)
        with pytest.raises(TypeError):
            ProcessPoolBackend(2, transport="shm")
        with pytest.raises(TypeError):
            RuntimeConfig.from_workers(2, chunksize=4)


# ----------------------------------------------------------------------
# worker failures (process backend only: the serial one has no process)
# ----------------------------------------------------------------------
def die(state, code):
    """Exit the worker abruptly when ``code`` is non-zero."""
    if code:
        os._exit(code)


def make_array(state, n):
    return np.arange(n, dtype=np.float64)


def echo_sum(state, arr):
    return float(np.asarray(arr).sum())


#: the task ``(cell, scheduler, sequence)`` that the first map round of a
#: two-worker ``compare`` hands to worker 1 (chunks of one task)
_DOOMED = (0, 0, 1)
_matrix_task = api._matrix_task


def _matrix_task_or_die(state, task):
    if tuple(task) == _DOOMED:
        os.kill(os.getpid(), signal.SIGKILL)
    return _matrix_task(state, task)


class TestWorkerFailures:
    def test_crash_under_map_is_a_worker_error(self):
        with ProcessPoolBackend(2) as b:
            with pytest.raises(WorkerError, match="died") as err:
                b.map(die, [17, 0], chunksize=1)
            assert err.value.worker_id == 0
            assert not b._procs[0].is_alive()

    def test_crash_under_broadcast_is_a_worker_error(self):
        with ProcessPoolBackend(2) as b:
            with pytest.raises(WorkerError, match="died") as err:
                b.broadcast(die, 17)
            assert err.value.worker_id == 0  # the first in worker order

    def test_broadcast_past_a_dead_worker_drains(self):
        with ProcessPoolBackend(2) as b:
            with pytest.raises(WorkerError, match="died"):
                b.map(die, [0, 17], chunksize=1)
            w = np.arange(10_000, dtype=np.float64)
            with pytest.raises(WorkerError) as err:
                b.broadcast(echo_sum, w)
            assert err.value.worker_id == 1
            # worker 0's reply was drained: its pipe is in sync
            assert b.map(echo_sum, [w], chunksize=1) == [float(w.sum())]

    def test_broadcast_encodes_once(self, monkeypatch):
        with ProcessPoolBackend(3) as b:
            calls = []
            real_encode = b._encode

            def counting_encode(msg):
                calls.append(msg)
                return real_encode(msg)

            monkeypatch.setattr(b, "_encode", counting_encode)
            out = b.broadcast(make_array, 5)
            assert len(out) == 3 and len(calls) == 1
            for got in out:
                np.testing.assert_array_equal(got, np.arange(5.0))

    def test_unpicklable_result_is_a_worker_error(self):
        with ProcessPoolBackend(2) as b:
            with pytest.raises(WorkerError, match="unencodable") as err:
                b.map(unpicklable_result, [0, 1], chunksize=1)
            assert err.value.worker_id in (0, 1)
            # the failed reply was the pipe's only one: the pool still works
            assert b.map(square, [2, 3], chunksize=1) == [4, 9]

    def test_sigkill_mid_evaluation_is_a_worker_error(self, monkeypatch):
        """A worker killed mid-``map`` of an evaluation fan-out surfaces as
        a ``WorkerError`` naming it, and the pool leaves no live child."""
        trace = load_trace("Lublin-1", n_jobs=400, seed=3)
        config = EvalConfig(n_sequences=4, sequence_length=24,
                            runtime=RuntimeConfig(backend="process", workers=2))
        assert multiprocessing.active_children() == []
        monkeypatch.setattr(api, "_matrix_task", _matrix_task_or_die)
        with pytest.raises(WorkerError, match="worker 1") as err:
            api.compare([FCFS(), SJF()], trace, config=config)
        assert err.value.worker_id == 1
        for proc in multiprocessing.active_children():
            proc.join(timeout=10)
        assert multiprocessing.active_children() == []


class TestSeeding:
    def test_stream_rng_is_key_deterministic(self):
        a = stream_rng(0, 7919, 3, 1).random(4)
        b = stream_rng(0, 7919, 3, 1).random(4)
        np.testing.assert_array_equal(a, b)
        c = stream_rng(0, 7919, 3, 2).random(4)
        assert not np.array_equal(a, c)

    def test_stream_rng_matches_trainer_convention(self):
        """Pin: stream_rng(*keys) is default_rng([*keys]) — the stream the
        trainer used before the runtime refactor, so saved training runs
        replay identically."""
        np.testing.assert_array_equal(
            stream_rng(0, 7919, 2, 5).random(8),
            np.random.default_rng([0, 7919, 2, 5]).random(8),
        )

    def test_derive_streams(self):
        streams = derive_streams(4, 123, 9)
        assert len(streams) == 4
        draws = [s.random() for s in streams]
        assert len(set(draws)) == 4
        np.testing.assert_array_equal(
            derive_streams(4, 123, 9)[2].random(3), stream_rng(123, 9, 2).random(3)
        )
        assert derive_streams(0, 1) == []

    def test_task_seed_stable(self):
        assert task_seed(1, 2, 3) == task_seed(1, 2, 3)
        assert task_seed(1, 2, 3) != task_seed(1, 2, 4)
        with pytest.raises(ValueError):
            task_seed()
        with pytest.raises(ValueError):
            stream_rng()
