"""Unit tests for VecSchedGym: lock-step semantics and ragged waves."""

import numpy as np
import pytest

from repro.config import EnvConfig
from repro.sim import ClusterSpec, VecSchedGym
from repro.workloads import Job

from .test_property_sim import assert_waves_equal_padded_oracle


CFG = EnvConfig(max_obsv_size=4)


def job(jid, submit, run, procs, user=0):
    return Job(job_id=jid, submit_time=submit, run_time=run,
               requested_procs=procs, requested_time=run, user_id=user)


def sequence(seed, n=5):
    rng = np.random.default_rng(seed)
    return [
        job(i + 1, submit=float(i), run=float(rng.integers(5, 50)),
            procs=int(rng.integers(1, 4)))
        for i in range(n)
    ]


def make_vec():
    return VecSchedGym(8, config=CFG)


def runs(sequences, cluster=8):
    return [(jobs, cluster, False) for jobs in sequences]


class TestReset:
    def test_shapes(self):
        vec = make_vec()
        rows, counts = vec.reset(runs([sequence(0), sequence(1), sequence(2)]))
        assert rows.dtype == np.float32
        assert rows.shape == (counts.sum(), CFG.job_features)
        assert counts.shape == (3,) and (counts >= 1).all()
        assert vec.runs.tolist() == [0, 1, 2]
        assert len(vec.engines) == 3

    def test_empty_reset_rejected(self):
        with pytest.raises(ValueError):
            make_vec().reset([])

    def test_runs_of_different_total_memory_rejected(self):
        """The free-memory feature is scaled by one total memory per
        wave; a run on another cluster capacity needs its own reset."""
        mixed = [(sequence(0), ClusterSpec(8), False),
                 (sequence(1), ClusterSpec(8, memory=64.0), False)]
        with pytest.raises(ValueError, match="different total memory"):
            make_vec().reset(mixed)


class TestStep:
    def test_matches_single_env_in_lockstep(self):
        """Each run of a vec evolves exactly like a lone SchedGym."""
        assert_waves_equal_padded_oracle(
            [sequence(10), sequence(11)], ClusterSpec(8), False,
            lambda n_visible: 0,
        )

    def test_wrong_action_shape(self):
        vec = make_vec()
        vec.reset(runs([sequence(0), sequence(1)]))
        with pytest.raises(ValueError, match="expected 2 actions"):
            vec.step(np.zeros(3, dtype=int))

    def test_step_when_all_done(self):
        vec = make_vec()
        vec.reset(runs([[job(1, 0, 10, 2)]]))
        result = vec.step(np.array([0]))
        assert result.finished.tolist() == [0]
        with pytest.raises(RuntimeError, match="every run is done"):
            vec.step(np.array([], dtype=int))

    def test_bad_actions_rejected_like_the_single_env(self):
        vec = make_vec()
        vec.reset(runs([[job(1, 0, 10, 2)]]))
        with pytest.raises(ValueError, match="out of range"):
            vec.step(np.array([7]))
        with pytest.raises(ValueError, match="padded slot"):
            vec.step(np.array([2]))

        # a bad action anywhere in the vector moves no run at all
        vec = make_vec()
        wave = vec.reset(runs([sequence(0), sequence(1), sequence(2)]))
        before = [(engine.now, len(engine.pending), len(engine.completed))
                  for engine in vec.engines]
        for bad in ([0, 0, 99], [0, 0, -1], [0, 0, 3]):
            with pytest.raises(ValueError):
                vec.step(np.array(bad))
            assert [(engine.now, len(engine.pending), len(engine.completed))
                    for engine in vec.engines] == before
            assert vec.runs.tolist() == [0, 1, 2]
        # the wave after the rejected steps is the one they were aimed at
        rows, counts, _ = vec.step(np.zeros(3, dtype=int))
        ref = make_vec()
        np.testing.assert_array_equal(
            ref.reset(runs([sequence(0), sequence(1), sequence(2)]))[0], wave[0]
        )
        want_rows, want_counts, _ = ref.step(np.zeros(3, dtype=int))
        np.testing.assert_array_equal(rows, want_rows)
        np.testing.assert_array_equal(counts, want_counts)


class TestAutoReset:
    """Runs are never reset mid-wave: a finished run just leaves it."""

    def test_deactivates_without_backlog(self):
        """Once every run has finished, the wave is empty."""
        vec = make_vec()
        vec.reset(runs([[job(1, 0, 10, 2)], [job(2, 0, 10, 2)]]))
        result = vec.step(np.zeros(2, dtype=int))
        assert result.finished.tolist() == [0, 1]
        assert all(engine.done for engine in vec.engines)
        assert result.rows.shape == (0, CFG.job_features)
        assert result.counts.shape == (0,)

    def test_longer_sequence_widens_the_static_table(self):
        """Runs of very different lengths share one feature table; the
        short ones finishing early disturbs no row of the long ones."""
        assert_waves_equal_padded_oracle(
            [sequence(0, n=12), sequence(1, n=1), sequence(2, n=40)],
            ClusterSpec(8), False, lambda n_visible: 0,
        )
