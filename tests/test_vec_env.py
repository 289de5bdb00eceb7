"""Unit tests for VecSchedGym: lock-step semantics, auto-reset, ragged waves."""

import numpy as np
import pytest

from repro.config import EnvConfig
from repro.rl import make_reward
from repro.sim import ClusterSpec, SchedGym, VecSchedGym
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


def make_vec(n_envs=3):
    return VecSchedGym(n_envs, 8, make_reward("bsld"), config=CFG)


def unpad(obs, mask):
    """A gym-protocol observation as the rows a wave carries for it."""
    return obs[mask]


class TestReset:
    def test_shapes(self):
        vec = make_vec(3)
        seqs = [sequence(0), sequence(1), sequence(2)]
        rows, counts = vec.reset(seqs)
        assert rows.dtype == np.float32
        assert rows.shape == (counts.sum(), CFG.job_features)
        assert counts.shape == (3,) and (counts >= 1).all()
        assert vec.active.all()
        assert vec.episodes.tolist() == [0, 1, 2]

    def test_partial_fill_pads_with_inactive(self):
        """Inactive environments own no part of the wave."""
        vec = make_vec(3)
        rows, counts = vec.reset([sequence(0)])
        assert vec.active.tolist() == [True, False, False]
        assert counts.shape == (1,) and len(rows) == counts[0]
        assert vec.episodes.tolist() == [0]

    def test_too_many_sequences_rejected(self):
        vec = make_vec(2)
        with pytest.raises(ValueError, match="queue the"):
            vec.reset([sequence(i) for i in range(3)])

    def test_empty_reset_rejected(self):
        with pytest.raises(ValueError):
            make_vec().reset([])


def assert_equals_single_envs(n_envs, sequences):
    """Every wave of a vec over ``sequences`` (always acting on slot 0)
    holds, per episode, what a lone SchedGym shows for it, and ends each
    episode with the same reward."""
    assert_waves_equal_padded_oracle(
        sequences, ClusterSpec(8), n_envs, False, lambda n_visible: 0
    )


class TestStep:
    def test_matches_single_env_in_lockstep(self):
        """Each vec slot must evolve exactly like a lone SchedGym."""
        assert_equals_single_envs(2, [sequence(10), sequence(11)])

    def test_wrong_action_shape(self):
        vec = make_vec(2)
        vec.reset([sequence(0), sequence(1)])
        with pytest.raises(ValueError, match="expected 2 actions"):
            vec.step(np.zeros(3, dtype=int))

    def test_step_when_all_done(self):
        vec = make_vec(1)
        vec.reset([[job(1, 0, 10, 2)]])
        result = vec.step(np.array([0]))
        assert result.dones[0] and vec.all_done
        with pytest.raises(RuntimeError, match="all environments are done"):
            vec.step(np.array([], dtype=int))

    def test_bad_actions_rejected_like_the_single_env(self):
        vec = make_vec(1)
        vec.reset([[job(1, 0, 10, 2)]])
        with pytest.raises(ValueError, match="out of range"):
            vec.step(np.array([7]))
        with pytest.raises(ValueError, match="padded slot"):
            vec.step(np.array([2]))


class TestAutoReset:
    def test_backlog_streams_through_envs(self):
        """5 one-job sequences through 2 envs: 5 terminal rewards total,
        episodes numbered in hand-over order whichever env runs them."""
        vec = make_vec(2)
        seqs = [[job(i + 1, 0, 10 * (i + 1), 2)] for i in range(5)]
        vec.reset(seqs[:2])
        vec.queue_sequences(seqs[2:])
        assert vec.n_queued == 3

        finished = []
        while not vec.all_done:
            episodes = vec.episodes
            result = vec.step(np.zeros(len(episodes), dtype=int))
            finished += episodes[result.dones].tolist()
        assert finished == [0, 1, 2, 3, 4]
        assert vec.n_queued == 0

    def test_auto_reset_obs_is_new_episode_start(self):
        vec = make_vec(1)
        first = [job(1, 0, 10, 2)]
        second = [job(7, 5.0, 20, 3)]
        vec.reset([first])
        vec.queue_sequences([second])
        result = vec.step(np.array([0]))
        assert result.dones[0] and vec.episodes.tolist() == [1]
        ref = SchedGym(8, make_reward("bsld"), CFG)
        ref_obs, ref_mask = ref.reset([j.copy() for j in second])
        np.testing.assert_array_equal(result.rows, unpad(ref_obs, ref_mask))
        np.testing.assert_array_equal(result.counts, [ref_mask.sum()])

    def test_deactivates_without_backlog(self):
        vec = make_vec(2)
        vec.reset([[job(1, 0, 10, 2)], [job(2, 0, 10, 2)]])
        result = vec.step(np.zeros(2, dtype=int))
        assert result.dones.all()
        assert vec.all_done
        assert result.rows.shape == (0, CFG.job_features)
        assert result.counts.shape == (0,)

    def test_longer_sequence_widens_the_static_table(self):
        """A queued episode longer than any before it outgrows the
        per-env slab while its neighbour is mid-episode: the table is
        widened under the running episode without disturbing its rows."""
        assert_equals_single_envs(
            2, [sequence(0, n=12), sequence(1, n=1), sequence(2, n=40)]
        )
