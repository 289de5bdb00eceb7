"""Integration tests for the training loop (small scale, seeded).

Besides the mechanics, the goldens of the in-process rollout: an epoch of
:func:`lockstep_rollout` trains *bit-identically* to a loop of
one-episode ``Trainer._rollout`` calls, and an episode does not depend on
the lock-step width it ran at (no tolerances anywhere).
"""

import dataclasses
import multiprocessing
from pathlib import Path

import numpy as np
import pytest

from repro.config import EnvConfig, PPOConfig, TrainConfig
from repro.nn import ValueMLP, make_policy
from repro.rl import PPOAgent, Trainer, TrajectoryBuffer, make_reward, train
from repro.rl.ppo import UpdateStats
from repro.rl import EpochRecord
from repro.rl.trainer import lockstep_rollout
from repro.runtime import stream_rng
from repro.sim import VecSchedGym
from repro.workloads import SequenceSampler, load_trace

from .conftest import DenseOnly, SequentialTrainer


TINY_ENV = EnvConfig(max_obsv_size=16)
TINY_PPO = PPOConfig(train_pi_iters=15, train_v_iters=15)


def tiny_train_config(**kw):
    base = dict(epochs=2, trajectories_per_epoch=4, trajectory_length=24, seed=0)
    base.update(kw)
    return TrainConfig(**base)


@pytest.fixture(scope="module")
def trace():
    return load_trace("Lublin-1", n_jobs=800, seed=3)


class TestTrainerMechanics:
    def test_curve_length_matches_epochs(self, trace):
        t = Trainer(trace, env_config=TINY_ENV, ppo_config=TINY_PPO,
                    train_config=tiny_train_config())
        result = t.train()
        assert len(result.curve) == 2
        assert result.metric_curve().shape == (2,)

    def test_records_are_populated(self, trace):
        t = Trainer(trace, env_config=TINY_ENV, ppo_config=TINY_PPO,
                    train_config=tiny_train_config(epochs=1))
        record = t.train().curve[0]
        assert record.mean_metric >= 1.0        # bsld floor
        assert record.mean_reward == -record.mean_metric
        assert record.wall_time > 0
        assert not record.filtered_phase

    def test_reproducible_with_seed(self, trace):
        def run():
            t = Trainer(trace, env_config=TINY_ENV, ppo_config=TINY_PPO,
                        train_config=tiny_train_config(epochs=1))
            return t.train().metric_curve()

        np.testing.assert_allclose(run(), run())

    def test_as_scheduler_deploys(self, trace):
        t = Trainer(trace, env_config=TINY_ENV, ppo_config=TINY_PPO,
                    train_config=tiny_train_config(epochs=1))
        result = t.train()
        sched = result.as_scheduler()
        assert sched.name == "RL-Lublin-1"
        from repro.sim import run_scheduler

        seq = [j.copy() for j in trace.jobs[:30]]
        assert len(run_scheduler(seq, trace.max_procs, sched)) == 30

    def test_as_scheduler_before_train_raises(self, trace):
        from repro.rl import TrainingResult

        result = TrainingResult(trace_name="x", metric="bsld", policy_preset="kernel")
        with pytest.raises(RuntimeError):
            result.as_scheduler()

    def test_as_scheduler_use_best_does_not_mutate_policy(self, trace):
        """Regression: restoring the best snapshot must not overwrite the
        final-epoch weights — a later use_best=False deployment (or
        resumed training) would silently continue from the snapshot."""
        t = Trainer(trace, env_config=TINY_ENV, ppo_config=TINY_PPO,
                    train_config=tiny_train_config(epochs=1))
        result = t.train()
        final = {k: v.copy() for k, v in result.policy.state_dict().items()}
        # force a best snapshot that provably differs from the final weights
        result.best_policy_state = {k: v + 1.0 for k, v in final.items()}
        result.best_epoch = 0

        best_sched = result.as_scheduler(use_best=True)
        for key, value in result.policy.state_dict().items():
            np.testing.assert_array_equal(value, final[key])
        for key, value in best_sched.policy.state_dict().items():
            np.testing.assert_array_equal(value, final[key] + 1.0)

        final_sched = result.as_scheduler(use_best=False)
        for key, value in final_sched.policy.state_dict().items():
            np.testing.assert_array_equal(value, final[key])

    def test_save_load_round_trips_everything(self, trace, tmp_path):
        t = Trainer(trace, env_config=TINY_ENV, ppo_config=TINY_PPO,
                    train_config=tiny_train_config())
        result = t.train()
        path = tmp_path / "ckpt.npz"
        result.save(path)
        loaded = type(result).load(path)

        assert loaded.trace_name == result.trace_name
        assert loaded.metric == result.metric
        assert loaded.policy_preset == result.policy_preset
        assert loaded.n_procs == result.n_procs
        assert loaded.env_config == result.env_config
        assert loaded.best_epoch == result.best_epoch
        for group in ("policy", "value"):
            fresh = getattr(result, group).state_dict()
            restored = getattr(loaded, group).state_dict()
            for key in fresh:
                np.testing.assert_array_equal(fresh[key], restored[key])
        for key in result.best_policy_state:
            np.testing.assert_array_equal(
                result.best_policy_state[key], loaded.best_policy_state[key])
        assert [r.to_dict() for r in loaded.curve] == [
            r.to_dict() for r in result.curve]
        np.testing.assert_array_equal(
            loaded.metric_curve(), result.metric_curve())

    def test_save_before_train_raises(self, tmp_path):
        from repro.rl import TrainingResult

        result = TrainingResult(trace_name="x", metric="bsld",
                                policy_preset="kernel")
        with pytest.raises(RuntimeError):
            result.save(tmp_path / "ckpt.npz")

    def test_utilization_metric_sign(self, trace):
        """util is maximised: mean_metric must equal +mean_reward."""
        t = Trainer(trace, metric="util", env_config=TINY_ENV, ppo_config=TINY_PPO,
                    train_config=tiny_train_config(epochs=1))
        record = t.train().curve[0]
        assert record.mean_metric == record.mean_reward
        assert 0.0 < record.mean_metric <= 1.0

    def test_alternate_policy_preset(self, trace):
        t = Trainer(trace, policy_preset="mlp_v2", env_config=TINY_ENV,
                    ppo_config=TINY_PPO, train_config=tiny_train_config(epochs=1))
        result = t.train()
        assert result.policy_preset == "mlp_v2"

    def test_validation_never_mutates_its_sequences(self, trace):
        """``_validate`` hands the held-out sequences to the engines, which
        copy the jobs they run: epochs leave them as they were sampled,
        so every epoch validates on the same jobs."""
        t = Trainer(trace, env_config=TINY_ENV, ppo_config=TINY_PPO,
                    train_config=tiny_train_config())
        sequences = t._val_sequences
        before = [[dataclasses.astuple(j) for j in jobs] for jobs in sequences]
        first = t._validate()
        assert np.isfinite(first) and t._validate() == first
        t.train()
        assert t._val_sequences is sequences
        assert [[dataclasses.astuple(j) for j in jobs] for jobs in sequences] == before

    def test_train_function_entry_point(self, trace):
        result = train(trace, env_config=TINY_ENV, ppo_config=TINY_PPO,
                       train_config=tiny_train_config(epochs=1))
        assert result.trace_name == "Lublin-1"


class TestTrajectoryFilterIntegration:
    def test_filter_phase_flag(self, trace):
        cfg = tiny_train_config(
            epochs=2, use_trajectory_filter=True, filter_probe_samples=8,
            filter_phase1_fraction=0.5,
        )
        t = Trainer(trace, env_config=TINY_ENV, ppo_config=TINY_PPO, train_config=cfg)
        result = t.train()
        assert result.curve[0].filtered_phase
        assert not result.curve[1].filtered_phase

    def test_filter_fitted_at_construction(self, trace):
        cfg = tiny_train_config(use_trajectory_filter=True, filter_probe_samples=8)
        t = Trainer(trace, env_config=TINY_ENV, ppo_config=TINY_PPO, train_config=cfg)
        assert t.filter is not None
        assert t.filter.range is not None


class TestLearningSignal:
    def test_metric_improves_on_lublin(self, trace):
        """A few epochs at small scale should already beat the untrained
        policy — the Fig. 10 convergence property at miniature scale."""
        cfg = tiny_train_config(epochs=5, trajectories_per_epoch=8,
                                trajectory_length=32)
        t = Trainer(trace, env_config=TINY_ENV,
                    ppo_config=PPOConfig(train_pi_iters=40, train_v_iters=20),
                    train_config=cfg)
        curve = t.train().metric_curve()
        assert min(curve[2:]) < curve[0]


# ----------------------------------------------------------------------
# goldens of the in-process rollout
# ----------------------------------------------------------------------
GOLDEN_ENV = EnvConfig(max_obsv_size=16)


@pytest.fixture(scope="module")
def golden_trace():
    return load_trace("Lublin-1", n_jobs=600, seed=5)


def copy_sequences(sequences):
    return [[j.copy() for j in seq] for seq in sequences]


def make_trainer(trace, sequential=False, epochs=2, backfill=False, dense=False):
    """``sequential=True`` builds the reference: a loop of one-episode
    ``Trainer._rollout`` calls in place of the lock-step rollout.
    ``dense=True`` hides the kernel policy's row scorers, so acting and
    the update pad the ragged observations to the window at the policy's
    input."""
    m, f = GOLDEN_ENV.observation_shape
    return (SequentialTrainer if sequential else Trainer)(
        trace,
        env_config=EnvConfig(max_obsv_size=m, backfill=backfill),
        ppo_config=PPOConfig(train_pi_iters=8, train_v_iters=8),
        policy=DenseOnly(make_policy("kernel", m, f, seed=0)) if dense else None,
        train_config=TrainConfig(
            epochs=epochs,
            trajectories_per_epoch=6,
            trajectory_length=18,
            seed=0,
            n_envs=4,  # 6 trajectories over 4 envs: exercises auto-reset
        ),
    )


def train_run(trace, sequential=False, **kwargs):
    epochs = kwargs.setdefault("epochs", 2)
    with make_trainer(trace, sequential, **kwargs) as trainer:
        records = [trainer.run_epoch(e) for e in range(epochs)]
        # each side took its own rollout: the golden is not vacuous
        assert getattr(trainer, "n_sequential", 0) == (6 * epochs if sequential else 0)
        weights = {k: v.copy() for k, v in trainer.policy.state_dict().items()}
        values = {k: v.copy() for k, v in trainer.value.state_dict().items()}
    return records, weights, values


def assert_runs_equal(run_a, run_b):
    """Two ``train_run`` results agree bit for bit: records, policy
    weights, value weights."""
    (rec_a, w_a, v_a), (rec_b, w_b, v_b) = run_a, run_b
    for a, b in zip(rec_a, rec_b):
        assert a.epoch == b.epoch
        assert a.mean_reward == b.mean_reward
        assert a.mean_metric == b.mean_metric
        assert a.n_rejected == b.n_rejected
        assert a.val_reward == b.val_reward
        assert a.stats == b.stats
    for key in w_a:
        np.testing.assert_array_equal(w_a[key], w_b[key])
    for key in v_a:
        np.testing.assert_array_equal(v_a[key], v_b[key])


class TestEpochGolden:
    """The lock-step epoch == a loop of ``Trainer._rollout`` where episodes
    are ragged in length (backfilling) and where the policy reads the
    padded window (``DenseOnly``); ``test_equivalence.py`` pins the plain
    kernel epoch."""

    @pytest.mark.parametrize(
        "backfill,dense", [(True, False), (False, True), (True, True)],
        ids=["kernel-backfill", "dense", "dense-backfill"],
    )
    def test_epoch_identical_to_a_loop_of_rollouts(
        self, golden_trace, backfill, dense
    ):
        assert_runs_equal(
            train_run(golden_trace, sequential=True, backfill=backfill, dense=dense),
            train_run(golden_trace, backfill=backfill, dense=dense),
        )

    def test_trainer_starts_no_process_and_no_segment(self, golden_trace):
        shm = Path("/dev/shm")
        before = set(shm.iterdir()) if shm.is_dir() else set()
        with make_trainer(golden_trace, epochs=1) as t:
            assert np.isfinite(t.run_epoch(0).mean_reward)
            assert multiprocessing.active_children() == []
            if shm.is_dir():
                assert set(shm.iterdir()) == before


class TestLockstepRollout:
    def test_width_and_arrival_order_invariance(self, golden_trace):
        """Six episodes through widths 1, 2, 4 (auto-reset backlog) and 6
        are bit-identical episode for episode, per-episode log-probs
        included, and so is the epoch batch valued by one forward."""
        m, f = GOLDEN_ENV.observation_shape
        agent = PPOAgent(make_policy("kernel", m, f, seed=0), ValueMLP(m, f, seed=1))
        sequences = SequenceSampler(golden_trace, 18, seed=3).sample_many(6)

        def collect(width):
            vec = VecSchedGym(width, golden_trace.max_procs, make_reward("bsld"),
                              config=GOLDEN_ENV)
            rngs = [stream_rng(0, Trainer._ACT_STREAM, 0, t) for t in range(6)]
            episodes, rewards = lockstep_rollout(
                vec, agent, copy_sequences(sequences), rngs
            )
            buffer = TrajectoryBuffer()
            for t, ((rows, counts, actions), reward) in enumerate(
                zip(episodes, rewards)
            ):
                buffer.add_episode(
                    rows, counts, actions,
                    agent.episode_log_probs(rows, counts, actions), reward,
                    order=t,
                )
            batch = buffer.get(agent)
            del batch["windows"]
            return [(*episode, reward) for episode, reward in zip(episodes, rewards)], batch

        reference, reference_batch = collect(1)
        assert len(reference) == 6
        for width in (2, 4, 6):
            got, batch = collect(width)
            assert len(got) == len(reference)
            for episode, want in zip(got, reference):
                for column, expected in zip(episode, want):
                    np.testing.assert_array_equal(column, expected)
            assert batch.keys() == reference_batch.keys()
            for key, column in batch.items():
                np.testing.assert_array_equal(column, reference_batch[key])


def _record(**extra):
    return EpochRecord(
        epoch=0, mean_metric=1.0, mean_reward=-1.0,
        stats=UpdateStats(policy_loss=0.1, value_loss=0.2, kl=0.0,
                          entropy=1.0, pi_iters_run=8, early_stopped=False),
        n_rejected=0, wall_time=0.5, filtered_phase=False, val_reward=-2.0,
        **extra,
    )


class TestEpochRecordCompat:
    def test_roundtrip(self):
        rec = _record(phase_times={"rollout": 0.1, "update": 0.2})
        assert EpochRecord.from_dict(rec.to_dict()) == rec

    def test_loads_records_with_retired_staleness_fields(self):
        """Zoo checkpoints written while the trainer could run ahead of
        the learner carry two counters that no longer exist; they load,
        and the counters are dropped."""
        data = _record().to_dict()
        data.update(n_stale_dropped=3, n_stale_reweighted=1)
        got = EpochRecord.from_dict(data)
        assert got == _record()
        assert not hasattr(got, "n_stale_dropped")
