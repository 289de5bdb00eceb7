"""Contract tests for episode-granular actor rollouts (PR-7 acceptance).

Five layers:

1. the golden property — collecting through the actor pool with
   ``staleness=0`` trains *bit-identically* to a loop of one-episode
   ``Trainer._rollout`` calls, on the serial and process backends, for
   any worker count (no tolerances anywhere);
2. :class:`ActorRuntime` semantics — episode content is independent of
   the in-worker lock-step width / auto-reset backlog interleaving and
   of cross-worker arrival order; staleness stamping and the
   drop/reweight accounting that surfaces in :class:`EpochRecord`;
3. the backend ``post``/``next_result`` primitives the runtime rides on
   (FIFO order, error propagation, the drained-queue guard);
4. the satellite bugfix — a mid-epoch exception inside a ``Trainer``
   context must not leak worker processes;
5. the collector rule — there is one; where its actors live follows
   from the runtime alone, and a serial one stays inside this process.
"""

import multiprocessing
from pathlib import Path

import numpy as np
import pytest

from repro.config import EnvConfig, PPOConfig, RuntimeConfig, TrainConfig
from repro.rl import Trainer
from repro.rl.buffer import TrajectoryBuffer
from repro.rl.trainer import EpochRecord
from repro.nn import ValueMLP, make_policy
from repro.runtime import ActorRuntime, WorkerError, make_backend
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


def make_trainer(trace, runtime, sequential=False, staleness=0,
                 stale_mode="drop", epochs=2, backfill=False, dense=False):
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
            staleness=staleness,
            stale_mode=stale_mode,
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
        assert a.n_stale_dropped == b.n_stale_dropped
        assert a.n_stale_reweighted == b.n_stale_reweighted
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
    """The acceptance-criterion test: actor pool (staleness=0) == loop of
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

    def test_nonzero_staleness_trains(self, trace):
        """The prefetch window runs and every epoch stays well-formed."""
        records, _, _ = train_run(trace, PROCESS_2, staleness=1, epochs=3)
        for r in records:
            assert np.isfinite(r.mean_reward)
            assert np.isfinite(r.val_reward)
            assert r.n_stale_dropped == 0  # within the declared bound
            assert r.stats.pi_iters_run > 0


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
            actors.submit(epoch, list(enumerate(copy_sequences(sequences))))
            episodes = [actors.drain() for _ in range(len(sequences))]
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
        a two-worker pool (out-of-order cross-worker arrival) are
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

    def test_staleness_stamped_at_drain(self, trace, sequences, networks):
        """Episodes submitted before weight pushes run at the old version
        (per-worker FIFO) and drain with the version gap stamped."""
        policy, value = networks
        actors = ActorRuntime(trace.max_procs, "bsld", config=ENV_CFG,
                              runtime=PROCESS_2, n_envs=2, seed=0)
        with actors:
            actors.install(policy, value, version=0)
            actors.submit(0, list(enumerate(copy_sequences(sequences[:2]))))
            snapshot = {"policy": policy.state_dict(),
                        "value": value.state_dict()}
            actors.push_weights(1, snapshot)
            actors.push_weights(2, snapshot)
            stale = [actors.drain() for _ in range(2)]
            # same weights re-pushed: content identical, version stamp old
            assert all(ep.version == 0 and ep.staleness == 2 for ep in stale)
            actors.submit(1, list(enumerate(copy_sequences(sequences[:1]))))
            fresh = actors.drain()
            assert fresh.version == 2 and fresh.staleness == 0

    def test_contract_errors(self, trace, sequences, networks):
        policy, value = networks
        with pytest.raises(ValueError):
            ActorRuntime(trace.max_procs, "bsld", config=ENV_CFG, n_envs=0)
        actors = ActorRuntime(trace.max_procs, "bsld", config=ENV_CFG,
                              n_envs=2)
        with actors:
            with pytest.raises(RuntimeError, match="install"):
                actors.submit(0, list(enumerate(sequences[:1])))
            actors.install(policy, value, version=3)
            with pytest.raises(RuntimeError, match="installed"):
                actors.install(policy, value)
            with pytest.raises(ValueError, match="decrease"):
                actors.push_weights(2, {"policy": policy.state_dict(),
                                        "value": value.state_dict()})
            with pytest.raises(RuntimeError, match="in flight"):
                actors.drain()


class TestTrainerStaleness:
    """Drop/reweight accounting surfaces in the training curve."""

    def force_stale_epoch(self, trace, stale_mode):
        with make_trainer(trace, SERIAL, staleness=0,
                          stale_mode=stale_mode, epochs=1) as t:
            # Submit epoch 0 (episodes run at version 0), then advance the
            # learner two updates before collecting: every episode is now
            # 2 stale, past the staleness=0 bound.
            t._submit_epoch(0)
            t._n_updates = 2
            t.actor_runtime.push_weights(2, t.agent.export_weights())
            return t.run_epoch(0), t._n_updates

    def test_drop_mode_records_and_skips_update(self, trace):
        record, n_updates = self.force_stale_epoch(trace, "drop")
        assert record.n_stale_dropped == 6
        assert record.n_stale_reweighted == 0
        # nothing left to update on: a no-op epoch, version stays put
        assert record.stats.pi_iters_run == 0
        assert np.isnan(record.stats.policy_loss)
        assert n_updates == 2
        # the mean rollout reward is still reported for the curve
        assert np.isfinite(record.mean_reward)

    def test_reweight_mode_keeps_episodes(self, trace):
        record, n_updates = self.force_stale_epoch(trace, "reweight")
        assert record.n_stale_reweighted == 6
        assert record.n_stale_dropped == 0
        assert record.stats.pi_iters_run > 0
        assert np.isfinite(record.stats.policy_loss)
        assert n_updates == 3  # the update ran, weights were re-pushed

    def test_epoch_record_roundtrip_with_staleness_fields(self):
        rec = EpochRecord(
            epoch=0, mean_metric=1.0, mean_reward=-1.0,
            stats=__import__("repro.rl.ppo", fromlist=["UpdateStats"])
            .UpdateStats(policy_loss=0.1, value_loss=0.2, kl=0.0,
                         entropy=1.0, pi_iters_run=8, early_stopped=False),
            n_rejected=0, wall_time=0.5, filtered_phase=False,
            val_reward=-2.0, n_stale_dropped=3, n_stale_reweighted=1,
        )
        got = EpochRecord.from_dict(rec.to_dict())
        assert got == rec

    def test_epoch_record_loads_pre_async_dicts(self):
        """Checkpoints written before the staleness fields existed load
        with zero counts."""
        rec = EpochRecord(
            epoch=0, mean_metric=1.0, mean_reward=-1.0,
            stats=__import__("repro.rl.ppo", fromlist=["UpdateStats"])
            .UpdateStats(policy_loss=0.1, value_loss=0.2, kl=0.0,
                         entropy=1.0, pi_iters_run=8, early_stopped=False),
            n_rejected=0, wall_time=0.5, filtered_phase=False,
        )
        data = rec.to_dict()
        del data["n_stale_dropped"], data["n_stale_reweighted"]
        got = EpochRecord.from_dict(data)
        assert got.n_stale_dropped == 0 and got.n_stale_reweighted == 0


# ----------------------------------------------------------------------
# backend post/next_result primitives
# ----------------------------------------------------------------------
def _remember(state, value):
    state.setdefault("log", []).append(value)
    return value


def _recall(state):
    return list(state.get("log", []))


def _boom(state):
    raise ValueError("boom")


def _unpicklable(state):
    return lambda: None


class TestBackendAsyncPrimitives:
    @pytest.mark.parametrize("runtime", [SERIAL, PROCESS_2],
                             ids=["serial", "process2"])
    def test_fifo_per_worker(self, runtime):
        with make_backend(runtime) as backend:
            for i in range(3):
                for w in range(backend.n_workers):
                    backend.post(w, _remember, (w, i))
            assert backend.n_pending == 3 * backend.n_workers
            seen = {w: [] for w in range(backend.n_workers)}
            while backend.n_pending:
                worker, result = backend.next_result()
                seen[worker].append(result)
            for w, results in seen.items():
                assert results == [(w, i) for i in range(3)]
            # posted work mutated persistent worker state, and the sync
            # dispatch path is usable again once the queue is drained
            logs = backend.broadcast(_recall)
            assert logs == [[(w, i) for i in range(3)]
                            for w in range(backend.n_workers)]

    @pytest.mark.parametrize("runtime", [SERIAL, PROCESS_2],
                             ids=["serial", "process2"])
    def test_error_propagates_with_worker_id(self, runtime):
        with make_backend(runtime) as backend:
            backend.post(backend.n_workers - 1, _boom)
            with pytest.raises(WorkerError, match="boom") as err:
                # serial backends surface the error at post time already —
                # both paths funnel through next_result
                backend.next_result()
            assert err.value.worker_id == backend.n_workers - 1

    def test_sync_dispatch_refused_while_pending(self):
        with make_backend(PROCESS_2) as backend:
            backend.post(0, _remember, 1)
            with pytest.raises(RuntimeError, match="pending"):
                backend.broadcast(_recall)
            with pytest.raises(RuntimeError, match="pending"):
                backend.map(_recall, [()])
            backend.next_result()
            assert backend.broadcast(_recall) == [[1], []]

    def test_unpicklable_result_is_a_worker_error(self):
        with make_backend(PROCESS_2) as backend:
            backend.post(1, _unpicklable)
            with pytest.raises(WorkerError, match="unpicklable"):
                backend.next_result()


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

    @pytest.mark.parametrize("runtime,staleness", [(PROCESS_2, 0), (SERIAL, 1)],
                             ids=["process", "stale"])
    def test_process_or_stale_trainer_collects_through_actors(
        self, trace, runtime, staleness
    ):
        with make_trainer(trace, runtime, staleness=staleness, epochs=1) as t:
            t.run_epoch(0)
            assert isinstance(t._actor_runtime, ActorRuntime)
            assert t._actor_runtime.n_workers == runtime.workers
            assert len(multiprocessing.active_children()) == (
                runtime.workers if runtime.backend == "process" else 0
            )

    def test_serial_worker_count_does_not_change_results(self, trace):
        """On the serial backend ``workers`` only partitions the actors'
        state: three of them train to the same bits as one."""
        assert_runs_equal(
            train_run(trace, SERIAL),
            train_run(trace, RuntimeConfig(backend="serial", workers=3)),
        )
