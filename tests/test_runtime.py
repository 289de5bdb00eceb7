"""Unit tests for the execution runtime: evaluation workers and seeding.

One worker runs evaluation tasks in a loop in this process; more run
them on a standard-library ``ProcessPoolExecutor`` (the golden
in-process ≡ pool guarantees live in ``test_runtime_equivalence.py``).
``TestWorkerFailures`` pins what a dead worker does: ``BrokenProcessPool``
and no live child.  ``TestInProcess`` pins that a failing task raises
its own exception on any worker count.
"""

import multiprocessing
import os
import signal
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest

from repro import api
from repro.config import EvalConfig
from repro.runtime import stream_rng
from repro.schedulers import FCFS, SJF
from repro.workloads import load_trace


@pytest.fixture(scope="module")
def trace():
    return load_trace("Lublin-1", n_jobs=400, seed=3)


class TestLifecycle:
    def test_process_workers_shut_down(self, trace):
        config = EvalConfig(n_sequences=4, sequence_length=24, workers=2)
        assert multiprocessing.active_children() == []
        api.compare([FCFS(), SJF()], trace, config=config)
        assert multiprocessing.active_children() == []


# ----------------------------------------------------------------------
# worker failures
# ----------------------------------------------------------------------
#: the task ``(scheduler, ((cell, sequence),))`` whose worker is killed
_DOOMED = (0, ((0, 1),))
_matrix_task = api._matrix_task


def _matrix_task_or_die(state, task):
    if tuple(task) == _DOOMED:
        os.kill(os.getpid(), signal.SIGKILL)
    return _matrix_task(state, task)


class TestWorkerFailures:
    def test_sigkill_mid_evaluation_breaks_the_pool(self, trace, monkeypatch):
        """A worker killed mid-evaluation surfaces as ``BrokenProcessPool``,
        and the pool leaves no live child."""
        config = EvalConfig(n_sequences=4, sequence_length=24, workers=2)
        assert multiprocessing.active_children() == []
        monkeypatch.setattr(api, "_matrix_task", _matrix_task_or_die)
        with pytest.raises(BrokenProcessPool):
            api.compare([FCFS(), SJF()], trace, config=config)
        assert multiprocessing.active_children() == []


class _TaskFailure(Exception):
    pass


def _matrix_task_raises(state, task):
    raise _TaskFailure(f"task {task}")


class TestInProcess:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_task_error_keeps_its_type(self, trace, monkeypatch, workers):
        """A failing task's own exception reaches the caller, unwrapped,
        whether it ran in this process or in a pool worker (whose
        traceback rides along as ``__cause__``), and no child process
        outlives the call."""
        config = EvalConfig(n_sequences=2, sequence_length=24, workers=workers)
        monkeypatch.setattr(api, "_matrix_task", _matrix_task_raises)
        with pytest.raises(_TaskFailure, match=r"task \(0, \(\(0, 0\),\)\)") as err:
            api.compare([FCFS(), SJF()], trace, config=config)
        if workers > 1:
            assert "_matrix_task_raises" in str(err.value.__cause__)
        assert multiprocessing.active_children() == []


class TestSeeding:
    def test_stream_rng_is_key_deterministic(self):
        a = stream_rng(0, 7919, 3, 1).random(4)
        b = stream_rng(0, 7919, 3, 1).random(4)
        np.testing.assert_array_equal(a, b)
        c = stream_rng(0, 7919, 3, 2).random(4)
        assert not np.array_equal(a, c)
        with pytest.raises(ValueError):
            stream_rng()

    def test_stream_rng_matches_trainer_convention(self):
        """Pin: stream_rng(*keys) is default_rng([*keys]) — the stream the
        trainer used before the runtime refactor, so saved training runs
        replay identically."""
        np.testing.assert_array_equal(
            stream_rng(0, 7919, 2, 5).random(8),
            np.random.default_rng([0, 7919, 2, 5]).random(8),
        )

