"""Integration tests for the training loop (small scale, seeded).

Besides the mechanics, the goldens of the in-process rollout: an epoch of
:func:`lockstep_rollout` trains *bit-identically* to the sequential
reference (``conftest.SequentialTrainer``: one episode at a time through
``SchedGym``), the reward-scale probe reads the reference's probe
episode, and an episode does not depend on which episodes stepped beside
it (no tolerances anywhere).
"""

import dataclasses
import multiprocessing
from pathlib import Path

import numpy as np
import pytest

from repro.config import EnvConfig, PPOConfig, TrainConfig
from repro.nn import ValueMLP, csr_indptr, make_policy
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

    @pytest.mark.parametrize("preset", ["kernel", "mlp_v2"])
    def test_best_checkpoint_deployed_earns_its_validation_reward(
        self, trace, preset
    ):
        """Validation runs the policy as deployed: the best checkpoint,
        deployed on the held-out sequences, earns exactly the reward that
        selected it — the kernel's shared waves and ``mlp_v2``'s one run
        per reset alike."""
        cfg = tiny_train_config(epochs=3, trajectories_per_epoch=2,
                                trajectory_length=16)
        with Trainer(trace, policy_preset=preset, env_config=TINY_ENV,
                     ppo_config=PPOConfig(train_pi_iters=5, train_v_iters=5),
                     train_config=cfg) as t:
            result = t.train()
            runs = t._runs(t._val_sequences)
        completed = result.as_scheduler().run_lockstep(runs)
        n_procs = t.cluster_spec.n_procs
        deployed = np.mean([t.reward_fn(done, n_procs) for done in completed])
        assert deployed == result.curve[result.best_epoch].val_reward

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
    """``sequential=True`` builds the reference: each episode stepped
    alone through ``SchedGym`` in place of the lock-step rollout.
    ``dense=True`` reads the kernel policy through its padded window
    (``DenseOnly``), so acting and the update pad the ragged observations
    to the window at the policy's input."""
    m, f = GOLDEN_ENV.observation_shape
    return (SequentialTrainer if sequential else Trainer)(
        trace,
        env_config=EnvConfig(max_obsv_size=m, backfill=backfill),
        ppo_config=PPOConfig(train_pi_iters=8, train_v_iters=8),
        policy=DenseOnly(make_policy("kernel", m, f, seed=0), m) if dense else None,
        train_config=TrainConfig(
            epochs=epochs,
            trajectories_per_epoch=6,
            trajectory_length=18,
            seed=0,
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
    """The lock-step epoch == the sequential reference where episodes
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


class TestRewardScaleProbe:
    """The epoch-0 probe is one lock-step run; the scale it leaves is the
    terminal reward of the same episode stepped through ``SchedGym``."""

    @pytest.mark.parametrize("seed", [7, 11])
    @pytest.mark.parametrize("preset", ["kernel", "mlp_v2", "lenet"])
    def test_probe_reads_the_sequential_reference(self, lublin_trace, preset, seed):
        def trainer(cls):
            return cls(
                lublin_trace, policy_preset=preset, env_config=GOLDEN_ENV,
                ppo_config=PPOConfig(train_pi_iters=1, train_v_iters=1),
                train_config=TrainConfig(trajectories_per_epoch=2,
                                         trajectory_length=128, seed=seed),
            )

        with trainer(SequentialTrainer) as reference:
            jobs, _ = reference._sample_sequence(filtered=False)
            _, reward = reference.episode(
                jobs, stream_rng(seed, Trainer._PROBE_STREAM, 0)
            )
            # the probe's actions move its reward: a probe on another
            # stream would not match
            _, other = reference.episode(
                jobs, stream_rng(seed, Trainer._PROBE_STREAM, 1)
            )
            assert other != reward
        with trainer(Trainer) as t:
            t.run_epoch(0)
            assert t._reward_scale == abs(reward)


def merged(batches):
    """Several :func:`lockstep_rollout` batches as one, in call order."""
    rows, counts, actions, step_ptrs, log_probs = zip(*batches)
    offsets = np.cumsum([0] + [len(a) for a in actions[:-1]])
    step_ptr = np.concatenate(
        [[0]] + [p[1:] + o for p, o in zip(step_ptrs, offsets)]
    )
    return (np.concatenate(rows), np.concatenate(counts),
            np.concatenate(actions), step_ptr, np.concatenate(log_probs))


class TestLockstepRollout:
    def test_width_and_arrival_order_invariance(self, golden_trace):
        """Six episodes stepped one per call, split 2 + 4 and all in one
        call are bit-identical step for step, act-time log-probs
        included, and so is the epoch batch valued by one forward."""
        m, f = GOLDEN_ENV.observation_shape
        agent = PPOAgent(make_policy("kernel", m, f, seed=0), ValueMLP(m, f, seed=1))
        sequences = SequenceSampler(golden_trace, 18, seed=3).sample_many(6)
        vec = VecSchedGym(golden_trace.max_procs, GOLDEN_ENV)
        reward_fn = make_reward("bsld")

        def collect(groups):
            """The six episodes, ``groups[g]`` of them per rollout call."""
            batches, rewards = [], []
            for lo, hi in zip(np.cumsum([0, *groups[:-1]]), np.cumsum(groups)):
                runs = [(jobs, golden_trace.max_procs, False)
                        for jobs in copy_sequences(sequences[lo:hi])]
                rngs = [stream_rng(0, Trainer._ACT_STREAM, 0, t)
                        for t in range(lo, hi)]
                batch, got_rewards = lockstep_rollout(vec, agent, runs, rngs,
                                                      reward_fn)
                batches.append(batch)
                rewards += got_rewards
            batch = merged(batches)
            data = TrajectoryBuffer(*batch, rewards).get(agent)
            del data["windows"]
            return (*batch, rewards), data

        reference, reference_batch = collect([1] * 6)
        assert len(reference[3]) == 6 + 1  # six episodes' step boundaries
        for groups in ([2, 4], [6]):
            got, batch = collect(groups)
            for column, expected in zip(got, reference):
                np.testing.assert_array_equal(column, expected)
            assert batch.keys() == reference_batch.keys()
            for key, column in batch.items():
                np.testing.assert_array_equal(column, reference_batch[key])

    @pytest.mark.parametrize("preset", ["kernel", "mlp_v2", "lenet"])
    def test_buffer_keeps_the_log_probs_it_acted_with(
        self, golden_trace, preset
    ):
        """The epoch's stored behaviour log-probs are the ones
        ``act_batch`` returned wave by wave, regrouped by trajectory, to
        the bit.  The kernel scores a job alone, so for it they also
        equal each episode scored again on its own T observations — the
        second pass the rollout no longer makes.  Backfilling makes the
        episodes ragged, so the last waves are narrower than the rest:
        there the window-reading presets can score a step differently in
        the last bits than a re-score of the whole episode would."""
        with Trainer(
            golden_trace, policy_preset=preset,
            env_config=dataclasses.replace(GOLDEN_ENV, backfill=True),
            train_config=TrainConfig(trajectories_per_epoch=3,
                                     trajectory_length=32, seed=0),
        ) as trainer:
            agent, waves = trainer.agent, []
            act_batch = agent.act_batch

            def recording(rows, counts, uniforms=None):
                actions, log_probs = act_batch(rows, counts, uniforms)
                waves.append((trainer.vec.runs, log_probs))
                return actions, log_probs

            agent.act_batch = recording
            buffer, _, _ = trainer._collect(0)

        trajs = np.concatenate([t for t, _ in waves])
        recorded = np.concatenate([lp for _, lp in waves])
        assert len(waves) > 1
        np.testing.assert_array_equal(
            buffer.log_probs, recorded[np.argsort(trajs, kind="stable")]
        )
        if preset != "kernel":
            return
        row_ptr = csr_indptr(buffer.counts)[buffer.step_ptr]
        episodes = zip(buffer.step_ptr[:-1], buffer.step_ptr[1:],
                       row_ptr[:-1], row_ptr[1:])
        for s0, s1, r0, r1 in episodes:
            actions = buffer.actions[s0:s1]
            recompute = agent.log_probs_batch(
                buffer.rows[r0:r1], buffer.counts[s0:s1]
            )[np.arange(s1 - s0), actions]
            np.testing.assert_array_equal(buffer.log_probs[s0:s1], recompute)


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
