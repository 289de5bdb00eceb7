"""Contract tests for episode-granular actor rollouts.

Five layers:

1. the golden property — collecting through the actor pool trains
   *bit-identically* to a loop of one-episode ``Trainer._rollout``
   calls, on the serial and process backends, for any worker count (no
   tolerances anywhere);
2. :class:`ActorRuntime` semantics — episode content is independent of
   the in-worker lock-step width / auto-reset backlog interleaving and
   of the worker count; every episode carries the weight version it ran
   on; :class:`EpochRecord` still loads the fields it retired;
3. faults — an actor SIGKILLed mid-rollout is a ``WorkerError`` naming
   it, with no leaked process or shared-memory lease;
4. the satellite bugfix — a mid-epoch exception inside a ``Trainer``
   context must not leak worker processes;
5. the collector rule — there is one; where its actors live follows
   from the runtime alone, and a serial one stays inside this process.
"""

import multiprocessing
import os
import signal
from pathlib import Path

import numpy as np
import pytest

from repro.config import EnvConfig, PPOConfig, RuntimeConfig, TrainConfig
from repro.rl import Trainer
from repro.rl.buffer import TrajectoryBuffer
from repro.rl.ppo import UpdateStats
from repro.rl.trainer import EpochRecord
from repro.nn import ValueMLP, make_policy
from repro.runtime import ActorRuntime, WorkerError, make_backend
from repro.runtime import actor as actor_mod
from repro.workloads import SequenceSampler, load_trace

from .conftest import DenseOnly, SequentialTrainer

SERIAL = RuntimeConfig()
PROCESS_2 = RuntimeConfig(backend="process", workers=2)
PROCESS_3 = RuntimeConfig(backend="process", workers=3)

ENV_CFG = EnvConfig(max_obsv_size=16)


@pytest.fixture(scope="module")
def trace():
    return load_trace("Lublin-1", n_jobs=600, seed=5)


def copy_sequences(sequences):
    return [[j.copy() for j in seq] for seq in sequences]


def make_trainer(trace, runtime, sequential=False, epochs=2, backfill=False,
                 dense=False):
    """``sequential=True`` builds the reference: a loop of one-episode
    ``Trainer._rollout`` calls in place of the actors.  ``dense=True``
    hides the kernel policy's row scorers, so acting and the update pad
    the ragged observations to the window at the policy's input."""
    m, f = ENV_CFG.observation_shape
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
            runtime=runtime,
        ),
    )


def train_run(trace, runtime, sequential=False, **kwargs):
    epochs = kwargs.setdefault("epochs", 2)
    with make_trainer(trace, runtime, sequential, **kwargs) as trainer:
        records = [trainer.run_epoch(e) for e in range(epochs)]
        # each side took its own collector: the golden is not vacuous
        taken = getattr(trainer, "n_sequential", 0)
        assert taken == (6 * epochs if sequential else 0)
        weights = {k: v.copy() for k, v in trainer.policy.state_dict().items()}
        values = {k: v.copy() for k, v in trainer.value.state_dict().items()}
    return records, weights, values


def assert_records_equal(rec_a, rec_b):
    for a, b in zip(rec_a, rec_b):
        assert a.epoch == b.epoch
        assert a.mean_reward == b.mean_reward
        assert a.mean_metric == b.mean_metric
        assert a.n_rejected == b.n_rejected
        assert a.val_reward == b.val_reward
        assert a.stats.policy_loss == b.stats.policy_loss
        assert a.stats.value_loss == b.stats.value_loss
        assert a.stats.kl == b.stats.kl
        assert a.stats.entropy == b.stats.entropy
        assert a.stats.pi_iters_run == b.stats.pi_iters_run


def assert_runs_equal(run_a, run_b):
    """Two ``train_run`` results agree bit for bit: records, policy
    weights, value weights."""
    (rec_a, w_a, v_a), (rec_b, w_b, v_b) = run_a, run_b
    assert_records_equal(rec_a, rec_b)
    for key in w_a:
        np.testing.assert_array_equal(w_a[key], w_b[key])
    for key in v_a:
        np.testing.assert_array_equal(v_a[key], v_b[key])


class TestAsyncGolden:
    """The acceptance-criterion test: actor pool == loop of
    ``Trainer._rollout`` — on the serial backend and on 2 and 3 processes."""

    @pytest.mark.parametrize("runtime", [SERIAL, PROCESS_2, PROCESS_3],
                             ids=["serial", "process2", "process3"])
    def test_staleness_zero_identical_to_locked(self, trace, runtime):
        assert_runs_equal(
            train_run(trace, SERIAL, sequential=True), train_run(trace, runtime)
        )

    @pytest.mark.parametrize(
        "backfill,dense", [(True, False), (False, True), (True, True)],
        ids=["kernel-backfill", "dense", "dense-backfill"],
    )
    def test_identical_with_backfill_and_padding_policies(
        self, trace, backfill, dense
    ):
        """The same golden where episodes are ragged in length
        (backfilling) and where the policy reads the padded window
        (``DenseOnly``): one sequential reference, every actor layout."""
        reference = train_run(
            trace, SERIAL, sequential=True, backfill=backfill, dense=dense
        )
        for runtime in (SERIAL, PROCESS_2, PROCESS_3):
            assert_runs_equal(
                reference,
                train_run(trace, runtime, backfill=backfill, dense=dense),
            )


class TestActorRuntime:
    """Direct driving of the actor pool, no trainer in the loop."""

    def collect(self, trace, sequences, runtime, n_envs, policy, value,
                epoch=0):
        actors = ActorRuntime(
            trace.max_procs, "bsld", config=ENV_CFG, runtime=runtime,
            n_envs=n_envs, seed=0,
        )
        with actors:
            actors.install(policy, value)
            episodes = actors.rollout(
                epoch, list(enumerate(copy_sequences(sequences)))
            )
        assert [ep.traj for ep in episodes] == list(range(len(sequences)))
        return {ep.traj: ep for ep in episodes}

    @pytest.fixture(scope="class")
    def networks(self):
        m, f = ENV_CFG.observation_shape
        return make_policy("kernel", m, f, seed=0), ValueMLP(m, f, seed=1)

    @pytest.fixture(scope="class")
    def sequences(self, trace):
        return SequenceSampler(trace, 18, seed=3).sample_many(6)

    def test_width_and_arrival_order_invariance(self, trace, sequences,
                                                networks):
        """Six episodes through width-1, width-4 (auto-reset backlog), and
        two- and three-worker pools (chunks split across processes) are
        bit-identical episode for episode."""
        policy, value = networks
        ref = self.collect(trace, sequences, SERIAL, 1, policy, value)
        assert sorted(ref) == list(range(6))
        for runtime, width in [(SERIAL, 4), (PROCESS_2, 2), (PROCESS_3, 4)]:
            got = self.collect(trace, sequences, runtime, width,
                               policy, value)
            assert sorted(got) == sorted(ref)
            for traj, ep in got.items():
                np.testing.assert_array_equal(ep.rows, ref[traj].rows)
                np.testing.assert_array_equal(ep.counts, ref[traj].counts)
                np.testing.assert_array_equal(ep.actions, ref[traj].actions)
                np.testing.assert_array_equal(ep.log_probs,
                                              ref[traj].log_probs)
                np.testing.assert_array_equal(ep.values, ref[traj].values)
                assert ep.reward == ref[traj].reward
                assert ep.steps == ref[traj].steps

    def test_episodes_carry_the_pushed_version(self, trace, sequences,
                                               networks):
        """A rollout runs on the weights last pushed, and says so."""
        policy, value = networks
        actors = ActorRuntime(trace.max_procs, "bsld", config=ENV_CFG,
                              runtime=PROCESS_2, n_envs=2, seed=0)
        with actors:
            actors.install(policy, value, version=0)
            assigned = list(enumerate(copy_sequences(sequences[:3])))
            assert {ep.version for ep in actors.rollout(0, assigned)} == {0}
            snapshot = {"policy": policy.state_dict(),
                        "value": value.state_dict()}
            actors.push_weights(2, snapshot)
            assigned = list(enumerate(copy_sequences(sequences[:3])))
            assert {ep.version for ep in actors.rollout(1, assigned)} == {2}

    def test_contract_errors(self, trace, sequences, networks):
        policy, value = networks
        with pytest.raises(ValueError):
            ActorRuntime(trace.max_procs, "bsld", config=ENV_CFG, n_envs=0)
        actors = ActorRuntime(trace.max_procs, "bsld", config=ENV_CFG,
                              n_envs=2)
        with actors:
            with pytest.raises(RuntimeError, match="install"):
                actors.rollout(0, list(enumerate(sequences[:1])))
            actors.install(policy, value, version=3)
            with pytest.raises(RuntimeError, match="installed"):
                actors.install(policy, value)
            with pytest.raises(ValueError, match="decrease"):
                actors.push_weights(2, {"policy": policy.state_dict(),
                                        "value": value.state_dict()})


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


# ----------------------------------------------------------------------
# faults
# ----------------------------------------------------------------------
def _episodes_or_die(state, task):
    """The actor task, except that the actor holding the odd trajectories
    leases a shared-memory span and is SIGKILLed mid-task."""
    _, assignments = task
    if any(traj % 2 for traj, _ in assignments):
        assert state["_shm_pool"].put([b"x" * 8192]) is not None
        os.kill(os.getpid(), signal.SIGKILL)
    return actor_mod._actor_episodes(state, task)


class TestActorDeath:
    def test_sigkill_mid_rollout_is_a_worker_error(self, trace, monkeypatch):
        with make_trainer(trace, PROCESS_2, epochs=2) as t:
            t.run_epoch(0)  # a healthy epoch first: the pool is up
            backend = t.actor_runtime.backend
            pool = backend._pool
            procs = list(backend._procs)
            monkeypatch.setattr(actor_mod, "_actor_episodes", _episodes_or_die)
            with pytest.raises(WorkerError, match="worker 1") as err:
                t.run_epoch(1)
            assert err.value.worker_id == 1
            assert not procs[1].is_alive()
            assert pool.n_leases == 0  # the dead actor's span was reclaimed
        assert not any(p.is_alive() for p in procs)
        assert multiprocessing.active_children() == []


def _unpicklable(state, _task):
    return lambda: None


class TestBackendAsyncPrimitives:
    def test_unpicklable_result_is_a_worker_error(self):
        with make_backend(PROCESS_2) as backend:
            with pytest.raises(WorkerError, match="unencodable") as err:
                backend.map(_unpicklable, [0, 1], chunksize=1)
            assert err.value.worker_id in (0, 1)
            # the failed reply was the pipe's only one: the pool still works
            assert backend.map(_recall_none, [0, 1], chunksize=1) == [None, None]


def _recall_none(state, _task):
    return None


class TestNoLeakedWorkers:
    """Satellite bugfix: a mid-epoch exception inside the Trainer context
    must tear down actor worker processes, not leak them."""

    def test_exception_mid_training_leaves_no_children(self, trace):
        with pytest.raises(RuntimeError, match="sentinel"):
            with make_trainer(trace, PROCESS_2, epochs=2) as t:
                t.run_epoch(0)
                assert t.actor_runtime.backend.started
                raise RuntimeError("sentinel")
        for proc in multiprocessing.active_children():
            proc.join(timeout=10)
        assert multiprocessing.active_children() == []


class TestCollectorRule:
    """There is one collector, the actor pool; the runtime only says where
    its actors live."""

    def test_serial_trainer_starts_no_process_and_no_segment(self, trace):
        shm = Path("/dev/shm")
        before = set(shm.glob("repro-*")) if shm.is_dir() else set()
        with make_trainer(trace, SERIAL, epochs=1) as t:
            record = t.run_epoch(0)
            assert np.isfinite(record.mean_reward)
            assert isinstance(t._actor_runtime, ActorRuntime)
            # checked while the actors are up, not after close()
            assert multiprocessing.active_children() == []
            if shm.is_dir():
                assert set(shm.glob("repro-*")) == before

    def test_process_trainer_collects_through_actors(self, trace):
        with make_trainer(trace, PROCESS_2, epochs=1) as t:
            t.run_epoch(0)
            assert isinstance(t._actor_runtime, ActorRuntime)
            assert t._actor_runtime.n_workers == 2
            assert len(multiprocessing.active_children()) == 2

    def test_episode_on_other_weights_is_a_fault(self, trace, monkeypatch):
        """The trainer checks that every episode ran on the weights it
        pushed; an actor that answers with another version fails the
        epoch instead of training on it."""
        with make_trainer(trace, SERIAL, epochs=1) as t:
            real = t.actor_runtime.rollout

            def rollout(epoch, assignments):
                episodes = real(epoch, assignments)
                episodes[2].version -= 1
                return episodes

            monkeypatch.setattr(t.actor_runtime, "rollout", rollout)
            with pytest.raises(RuntimeError, match="weight version"):
                t.run_epoch(0)

    def test_serial_worker_count_does_not_change_results(self, trace):
        """On the serial backend ``workers`` only partitions the actors'
        state: three of them train to the same bits as one."""
        assert_runs_equal(
            train_run(trace, SERIAL),
            train_run(trace, RuntimeConfig(backend="serial", workers=3)),
        )
