"""The one checkpoint layout (``repro.checkpoint``): every file the repo
writes deploys through ``RLSchedulerPolicy.load``, older layouts still
read, and a file that is not a checkpoint fails naming itself."""

import dataclasses
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.checkpoint import CheckpointError
from repro.config import EnvConfig, PPOConfig, TrainConfig
from repro.nn import KernelPolicy
from repro.rl import Trainer, TrainingResult
from repro.schedulers import RLSchedulerPolicy
from repro.sim import run_scheduler
from repro.workloads import load_trace

FIXTURE = Path(__file__).parents[1] / "benchmarks/e2e/data/policy_kernel_m128.npz"

TINY_ENV = EnvConfig(max_obsv_size=16)


def starts(scheduler, trace, n=300, backfill=False):
    """The schedule ``scheduler`` makes of the first ``n`` jobs."""
    done = run_scheduler([j.copy() for j in trace.jobs[:n]], trace.max_procs,
                         scheduler, backfill=backfill)
    return sorted((j.job_id, j.start_time) for j in done)


def npz_arrays(path):
    with np.load(path) as data:
        return {key: data[key] for key in data.files}


def meta_of(path):
    return json.loads(bytes(npz_arrays(path)["__meta__"]).decode())


@pytest.fixture(scope="module")
def trace():
    return load_trace("Lublin-1", n_jobs=600, seed=3)


@pytest.fixture(scope="module")
def result(trace):
    """A trained result whose best epoch is not its last, so the
    deployed snapshot and the final-epoch policy differ."""
    with Trainer(trace, env_config=TINY_ENV,
                 ppo_config=PPOConfig(train_pi_iters=15, train_v_iters=15),
                 train_config=TrainConfig(epochs=2, trajectories_per_epoch=4,
                                          trajectory_length=24, seed=0)) as t:
        result = t.train()
    result.best_policy_state = {
        k: v + np.float32(0.05) for k, v in result.policy.state_dict().items()
    }
    result.best_epoch = 0
    result.train_meta = {"seed": 0, "epochs": 2}
    return result


class TestFrozenFixture:
    def test_decides_as_the_file_always_did(self, trace):
        """The benchmark's frozen policy file: the same name, cluster and
        schedule (with and without backfilling) as before the layout had
        one reader — the digest was taken with the previous reader."""
        policy = RLSchedulerPolicy.load(FIXTURE)
        assert (policy.name, policy.n_procs, policy.preset) == (
            "RL-Lublin-1", 256, "kernel")
        schedules = [starts(policy, trace, 400, backfill)
                     for backfill in (False, True)]
        digest = hashlib.sha256(repr(schedules).encode()).hexdigest()
        assert digest[:16] == "0b29ad842248773f"


class TestTrainingCheckpoint:
    def test_deploys_what_as_scheduler_deploys(self, result, trace, tmp_path):
        path = tmp_path / "zoo.npz"
        result.save(path)
        deployed = RLSchedulerPolicy.load(path)
        restored = TrainingResult.load(path).as_scheduler()
        assert deployed.name == restored.name == result.as_scheduler().name
        assert (starts(deployed, trace) == starts(restored, trace)
                == starts(result.as_scheduler(), trace))
        # the deployed weights are the best-epoch snapshot, not the final
        for key, value in deployed.policy.state_dict().items():
            np.testing.assert_array_equal(value, result.best_policy_state[key])

    def test_one_layout_and_no_key_written_twice(self, result, tmp_path):
        path = tmp_path / "zoo.npz"
        result.save(path)
        keys = set(npz_arrays(path))
        n = len(result.policy.state_dict())
        assert {f"p{i}" for i in range(n)} <= keys
        assert {f"final/p{i}" for i in range(n)} <= keys
        assert {k.partition("/")[0] for k in keys if "/" in k} == {"final", "value"}
        meta = meta_of(path)
        assert meta["preset"] == "kernel" and meta["name"] == "RL-Lublin-1"
        for retired in ("policy_preset", "max_obsv_size", "job_features"):
            assert retired not in meta

    def test_without_a_best_snapshot_the_final_policy_deploys(
        self, result, trace, tmp_path
    ):
        last = dataclasses.replace(result, best_policy_state=None, best_epoch=-1)
        path = tmp_path / "last.npz"
        last.save(path)
        assert not any(k.startswith("final/") for k in npz_arrays(path))
        loaded = TrainingResult.load(path)
        assert loaded.best_policy_state is None
        assert (starts(RLSchedulerPolicy.load(path), trace)
                == starts(last.as_scheduler(), trace))

    def test_a_deployable_policy_file_is_not_a_training_result(self, tmp_path):
        path = tmp_path / "policy.npz"
        RLSchedulerPolicy(KernelPolicy(7, seed=0), 8, TINY_ENV).save(path)
        with pytest.raises(ValueError, match="policy.npz.*lacks.*trace_name"):
            TrainingResult.load(path)


class TestParentZooLayout:
    """Zoo files written before the one layout kept the final policy,
    the best snapshot and the value network in ``policy/`` / ``best/`` /
    ``value/`` groups under a ``policy_preset`` key."""

    @pytest.fixture
    def old_zoo(self, result, tmp_path):
        path = tmp_path / "lublin-64.npz"
        arrays = {}
        for group, state in (("policy", result.policy.state_dict()),
                             ("best", result.best_policy_state),
                             ("value", result.value.state_dict())):
            arrays.update((f"{group}/{k}", v) for k, v in state.items())
        meta = {
            "trace_name": result.trace_name,
            "metric": result.metric,
            "policy_preset": result.policy_preset,
            "n_procs": result.n_procs,
            "best_epoch": result.best_epoch,
            "env_config": dataclasses.asdict(result.env_config),
            "train_meta": result.train_meta,
            "curve": [r.to_dict() for r in result.curve],
        }
        arrays["__meta__"] = np.frombuffer(json.dumps(meta).encode(), np.uint8)
        np.savez(path, **arrays)
        return path

    def test_restores_curve_and_provenance(self, result, old_zoo):
        loaded = TrainingResult.load(old_zoo)
        assert loaded.train_meta == result.train_meta
        assert [r.to_dict() for r in loaded.curve] == [
            r.to_dict() for r in result.curve]
        assert loaded.best_epoch == result.best_epoch
        for name in ("policy", "value"):
            for key, value in getattr(result, name).state_dict().items():
                np.testing.assert_array_equal(
                    getattr(loaded, name).state_dict()[key], value)
        for key, value in result.best_policy_state.items():
            np.testing.assert_array_equal(loaded.best_policy_state[key], value)

    def test_deploys_identically(self, result, old_zoo, trace):
        want = starts(result.as_scheduler(), trace)
        assert starts(TrainingResult.load(old_zoo).as_scheduler(), trace) == want
        deployed = RLSchedulerPolicy.load(old_zoo)
        assert deployed.name == "RL-Lublin-1"
        assert starts(deployed, trace) == want

    def test_saving_again_writes_the_one_layout(self, old_zoo, tmp_path):
        TrainingResult.load(old_zoo).save(tmp_path / "new.npz")
        assert "policy_preset" not in meta_of(tmp_path / "new.npz")


class TestPolicyFile:
    def test_file_from_before_env_config_was_stored(self, tmp_path, trace):
        network = KernelPolicy(7, seed=4)
        arrays = dict(network.state_dict())
        meta = {"preset": "kernel", "n_procs": trace.max_procs,
                "max_obsv_size": 16, "job_features": 7, "name": "old"}
        arrays["__meta__"] = np.frombuffer(json.dumps(meta).encode(), np.uint8)
        np.savez(tmp_path / "old.npz", **arrays)
        loaded = RLSchedulerPolicy.load(tmp_path / "old.npz")
        assert loaded.env_config == EnvConfig(max_obsv_size=16)
        fresh = RLSchedulerPolicy(network, trace.max_procs, TINY_ENV)
        assert starts(loaded, trace) == starts(fresh, trace)

    def test_interrupted_save_leaves_no_file(self, monkeypatch, tmp_path):
        """save() is write-then-rename, as ``TrainingResult.save`` is."""
        policy = RLSchedulerPolicy(KernelPolicy(7, seed=0), 8, TINY_ENV)
        target = tmp_path / "model.npz"

        def partial_write_then_die(path, **kwargs):
            with open(path, "wb") as fh:
                fh.write(b"truncated npz")
            raise KeyboardInterrupt

        monkeypatch.setattr(np, "savez", partial_write_then_die)
        with pytest.raises(KeyboardInterrupt):
            policy.save(target)
        assert list(tmp_path.iterdir()) == []

    def test_writes_the_path_it_is_given(self, tmp_path):
        RLSchedulerPolicy(KernelPolicy(7, seed=0), 8, TINY_ENV).save(
            tmp_path / "model")
        assert [p.name for p in tmp_path.iterdir()] == ["model"]
        assert RLSchedulerPolicy.load(tmp_path / "model").n_procs == 8


def _rewrite_meta(path, **changes):
    arrays, meta = npz_arrays(path), meta_of(path)
    meta.update(changes)
    meta = {k: v for k, v in meta.items() if v is not None}
    arrays["__meta__"] = np.frombuffer(json.dumps(meta).encode(), np.uint8)
    np.savez(path, **arrays)


def _drop_p1(path):
    arrays = npz_arrays(path)
    del arrays["p1"]
    np.savez(path, **arrays)


def _single_array(path):
    with open(path, "wb") as fh:
        np.save(fh, np.zeros(3))


@pytest.mark.parametrize("spoil, match", [
    (lambda p: p.unlink(), "model.npz: cannot open"),
    (lambda p: p.write_bytes(p.read_bytes()[:200]),
     "model.npz: not a readable .npz checkpoint"),
    (lambda p: np.savez(p, weights=np.zeros(3)),
     "model.npz: not a checkpoint .*'__meta__'"),
    (_single_array, "model.npz: not a readable .npz checkpoint"),
    (lambda p: _rewrite_meta(p, n_procs=None),
     "model.npz: checkpoint lacks field.*n_procs"),
    (lambda p: _rewrite_meta(p, preset="nope"),
     "model.npz: unknown policy preset 'nope'"),
    (_drop_p1, "model.npz: state has 7 arrays"),
], ids=["missing", "truncated", "foreign", "single-array", "key-absent",
        "unknown-preset", "weights-mismatch"])
def test_not_a_checkpoint_fails_naming_the_file(tmp_path, spoil, match):
    path = tmp_path / "model.npz"
    RLSchedulerPolicy(KernelPolicy(7, seed=0), 8, TINY_ENV).save(path)
    spoil(path)
    with pytest.raises(CheckpointError, match=match):
        RLSchedulerPolicy.load(path)
