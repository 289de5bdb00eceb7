"""Golden equivalence tests for the lock-step rollout subsystem.

Three layers of guarantees, each pinned exactly (no tolerances):

1. the NumPy observation builder matches the per-job reference loop
   bit-for-bit, with and without a :class:`FeatureCache`;
2. :func:`discount_cumsum` matches the naive reversed Python recurrence
   bit-for-bit;
3. a training epoch collected by the lock-step rollout reproduces the
   sequential epoch (each trajectory stepped alone through ``SchedGym``,
   the reference kept in ``conftest.py``) exactly — same rewards, same update
   statistics, same post-update weights (``test_trainer.py`` adds the
   dense-policy cases).
"""

import numpy as np
import pytest

from repro.config import EnvConfig, PPOConfig, TrainConfig
from repro.rl import Trainer, discount_cumsum
from repro.sim import FeatureCache, build_observation
from repro.sim.env import stable_user_hash
from repro.workloads import Job, load_trace

from .conftest import SequentialTrainer
from .reference import build_observation_loop


def random_jobs(rng, n, n_procs=64):
    jobs = []
    for i in range(n):
        jobs.append(
            Job(
                job_id=i + 1,
                submit_time=float(rng.uniform(0, 1e5)),
                run_time=float(rng.uniform(1, 1e5)),
                requested_procs=int(rng.integers(1, n_procs + 1)),
                requested_time=float(rng.uniform(1, 4e5)),
                user_id=int(rng.integers(0, 500)),
            )
        )
    return jobs


class TestStableUserHash:
    def test_pinned_values(self):
        """Regression pin: CRC-32 based hash must never drift (a drift would
        silently invalidate every saved model)."""
        assert stable_user_hash(0) == 0.7822265625
        assert stable_user_hash(1) == 0.9287109375
        assert stable_user_hash(42) == 0.1328125
        assert stable_user_hash(-1) == 0.041015625
        assert stable_user_hash(1023) == 0.0458984375

    def test_range_and_determinism(self):
        for u in range(-5, 200, 7):
            h = stable_user_hash(u)
            assert 0.0 <= h < 1.0
            assert h == stable_user_hash(u)

    def test_observation_uses_stable_hash(self):
        cfg = EnvConfig(max_obsv_size=4)
        j = Job(job_id=1, submit_time=0.0, run_time=10.0, requested_procs=2,
                requested_time=10.0, user_id=42)
        obs, _, _ = build_observation([j], 0.0, 8, 8, cfg)
        assert obs[0, 5] == np.float32(stable_user_hash(42))


class TestObservationBuilderGolden:
    @pytest.mark.parametrize("seed", range(5))
    def test_vectorized_matches_loop_bitwise(self, seed):
        rng = np.random.default_rng(seed)
        cfg = EnvConfig(max_obsv_size=int(rng.integers(4, 64)))
        jobs = random_jobs(rng, int(rng.integers(1, 120)))
        now = float(rng.uniform(0, 2e5))
        free = int(rng.integers(0, 65))
        ref = build_observation_loop(jobs, now, free, 64, cfg)
        fast = build_observation(jobs, now, free, 64, cfg)
        np.testing.assert_array_equal(fast[0], ref[0])
        np.testing.assert_array_equal(fast[1], ref[1])
        assert fast[2] == ref[2]

    @pytest.mark.parametrize("seed", range(5))
    def test_cached_matches_loop_bitwise(self, seed):
        rng = np.random.default_rng(100 + seed)
        cfg = EnvConfig(max_obsv_size=32)
        jobs = random_jobs(rng, 80)
        cache = FeatureCache(jobs, 64, cfg)
        # random pending subsets, as removals during an episode produce
        subset = [j for j in jobs if rng.random() < 0.5] or jobs[:1]
        now = float(rng.uniform(0, 2e5))
        free = int(rng.integers(0, 65))
        ref = build_observation_loop(subset, now, free, 64, cfg)
        fast = build_observation(subset, now, free, 64, cfg, cache=cache)
        np.testing.assert_array_equal(fast[0], ref[0])
        np.testing.assert_array_equal(fast[1], ref[1])

    def test_presorted_input_skips_sort_safely(self):
        rng = np.random.default_rng(7)
        cfg = EnvConfig(max_obsv_size=16)
        jobs = sorted(random_jobs(rng, 30), key=lambda j: (j.submit_time, j.job_id))
        ref = build_observation_loop(jobs, 5e4, 10, 64, cfg)
        fast = build_observation(jobs, 5e4, 10, 64, cfg, assume_sorted=True)
        np.testing.assert_array_equal(fast[0], ref[0])

    def test_empty_queue(self):
        cfg = EnvConfig(max_obsv_size=8)
        obs, mask, visible = build_observation([], 0.0, 8, 8, cfg)
        assert (obs == 0).all() and not mask.any() and visible == []


class TestDiscountCumsumGolden:
    @pytest.mark.parametrize("discount", [0.0, 0.5, 0.97, 1.0])
    def test_matches_reversed_loop_bitwise(self, discount):
        rng = np.random.default_rng(3)
        x = rng.standard_normal(257) * rng.uniform(0.1, 100)
        out = discount_cumsum(x, discount)
        ref = np.empty_like(x)
        acc = 0.0
        for t in range(len(x) - 1, -1, -1):
            acc = x[t] + discount * acc
            ref[t] = acc
        np.testing.assert_array_equal(out, ref)

    def test_returns_float64_whatever_it_is_given(self):
        for x in ([1, 2, 3], np.array([1.0, 2.0, 3.0], dtype=np.float32), []):
            out = discount_cumsum(x, 1.0)
            assert out.dtype == np.float64 and out.shape == (len(x),)
        assert discount_cumsum([1, 2, 3], 0.5).tolist() == [2.75, 3.5, 3.0]


@pytest.fixture(scope="module")
def trace():
    return load_trace("Lublin-1", n_jobs=600, seed=5)


def run_one_epoch(trace, vectorized, backfill=False, epochs=1):
    t = (Trainer if vectorized else SequentialTrainer)(
        trace,
        env_config=EnvConfig(max_obsv_size=16, backfill=backfill),
        ppo_config=PPOConfig(train_pi_iters=8, train_v_iters=8),
        train_config=TrainConfig(
            epochs=epochs,
            trajectories_per_epoch=6,
            trajectory_length=18,
            seed=0,
        ),
    )
    records = [t.run_epoch(e) for e in range(epochs)]
    # each side took its own collector: the comparison is not vacuous
    assert getattr(t, "n_sequential", 0) == (0 if vectorized else 6 * epochs)
    return t, records


class TestTrainerEquivalenceGolden:
    """The acceptance-criterion test: vec epoch == sequential epoch, exactly."""

    def assert_identical(self, seq, vec):
        t_seq, rec_seq = seq
        t_vec, rec_vec = vec
        for rs, rv in zip(rec_seq, rec_vec):
            assert rs.mean_reward == rv.mean_reward
            assert rs.mean_metric == rv.mean_metric
            assert rs.n_rejected == rv.n_rejected
            assert rs.stats.policy_loss == rv.stats.policy_loss
            assert rs.stats.value_loss == rv.stats.value_loss
            assert rs.stats.kl == rv.stats.kl
            assert rs.stats.entropy == rv.stats.entropy
            assert rs.stats.pi_iters_run == rv.stats.pi_iters_run
            assert rs.val_reward == rv.val_reward
        for key, w in t_seq.policy.state_dict().items():
            np.testing.assert_array_equal(w, t_vec.policy.state_dict()[key])
        for key, w in t_seq.value.state_dict().items():
            np.testing.assert_array_equal(w, t_vec.value.state_dict()[key])

    def test_two_epochs_identical(self, trace):
        self.assert_identical(
            run_one_epoch(trace, vectorized=False, epochs=2),
            run_one_epoch(trace, vectorized=True, epochs=2),
        )

    def test_identical_with_backfill_ragged_episodes(self, trace):
        """Backfilling makes episode lengths ragged, so vec episodes finish
        out of trajectory order — the rollout's regrouping by trajectory
        must still restore the sequential batch layout exactly."""
        self.assert_identical(
            run_one_epoch(trace, vectorized=False, backfill=True),
            run_one_epoch(trace, vectorized=True, backfill=True),
        )
