"""Golden equivalence tests for the execution runtime (PR-2 acceptance).

Process-pool execution must be *bit-identical* to serial execution — same
seed, same trajectories, same update statistics, same evaluation scores —
for any worker count.  No tolerances anywhere: the backend is a pure
throughput knob, like ``n_envs`` in ``test_equivalence.py``.

Two layers:

1. a full training run (rollout + PPO update + validation + checkpoint
   selection) across backends and worker counts — in-parent collection on
   the serial runtime, actor processes on the process runtime;
2. ``api.evaluate`` / ``api.compare`` per-sequence values across backends
   and worker counts, heuristic and RL schedulers alike.
"""

import numpy as np
import pytest

from repro.api import compare, evaluate
from repro.config import (
    EnvConfig,
    EvalConfig,
    PPOConfig,
    RuntimeConfig,
    TrainConfig,
)
from repro.nn import KernelPolicy
from repro.rl import Trainer
from repro.schedulers import FCFS, SJF, RLSchedulerPolicy
from repro.workloads import load_trace

SERIAL = RuntimeConfig()
PROCESS_2 = RuntimeConfig(backend="process", workers=2)
PROCESS_3 = RuntimeConfig(backend="process", workers=3)


@pytest.fixture(scope="module")
def trace():
    return load_trace("Lublin-1", n_jobs=600, seed=5)


def train_run(trace, runtime, epochs=2):
    trainer = Trainer(
        trace,
        env_config=EnvConfig(max_obsv_size=16),
        ppo_config=PPOConfig(train_pi_iters=8, train_v_iters=8),
        train_config=TrainConfig(
            epochs=epochs,
            trajectories_per_epoch=6,
            trajectory_length=18,
            seed=0,
            n_envs=4,  # 6 trajectories over 4 envs: exercises auto-reset
            runtime=runtime,
        ),
    )
    with trainer:
        records = [trainer.run_epoch(e) for e in range(epochs)]
        weights = {k: v.copy() for k, v in trainer.policy.state_dict().items()}
        values = {k: v.copy() for k, v in trainer.value.state_dict().items()}
    return records, weights, values


class TestTrainingGolden:
    """The acceptance-criterion test: process == serial training, exactly."""

    @pytest.mark.parametrize("runtime", [PROCESS_2, PROCESS_3],
                             ids=["process2", "process3"])
    def test_process_training_identical_to_serial(self, trace, runtime):
        rec_s, w_s, v_s = train_run(trace, SERIAL)
        rec_p, w_p, v_p = train_run(trace, runtime)
        for a, b in zip(rec_s, rec_p):
            assert a.mean_reward == b.mean_reward
            assert a.mean_metric == b.mean_metric
            assert a.n_rejected == b.n_rejected
            assert a.stats.policy_loss == b.stats.policy_loss
            assert a.stats.value_loss == b.stats.value_loss
            assert a.stats.kl == b.stats.kl
            assert a.stats.entropy == b.stats.entropy
            assert a.stats.pi_iters_run == b.stats.pi_iters_run
            assert a.val_reward == b.val_reward
        for key in w_s:
            np.testing.assert_array_equal(w_s[key], w_p[key])
        for key in v_s:
            np.testing.assert_array_equal(v_s[key], v_p[key])


class TestEvaluationGolden:
    """Evaluation scores are backend- and worker-count-independent."""

    CFG = dict(n_sequences=5, sequence_length=24)

    @pytest.mark.parametrize("runtime", [PROCESS_2, PROCESS_3],
                             ids=["process2", "process3"])
    def test_evaluate_identical_values(self, trace, runtime):
        serial = evaluate(SJF(), trace,
                          config=EvalConfig(**self.CFG, runtime=SERIAL))
        pooled = evaluate(SJF(), trace,
                          config=EvalConfig(**self.CFG, runtime=runtime))
        assert serial == pooled  # float equality of the means
        np.testing.assert_array_equal(serial.values, pooled.values)

    def test_compare_identical_values(self, trace):
        serial = compare([FCFS(), SJF()], trace,
                         config=EvalConfig(**self.CFG, runtime=SERIAL))
        pooled = compare([FCFS(), SJF()], trace,
                         config=EvalConfig(**self.CFG, runtime=PROCESS_3))
        assert list(serial) == list(pooled)
        for name in serial:
            np.testing.assert_array_equal(
                serial[name].values, pooled[name].values
            )

    def test_rl_policy_broadcasts_to_workers(self, trace):
        """Pickling ships weights + metadata: an RL scheduler scores the
        same sequences identically inside process workers."""
        cfg = EnvConfig(max_obsv_size=16)
        policy = KernelPolicy(cfg.job_features, seed=0)
        sched = RLSchedulerPolicy(policy, n_procs=trace.max_procs,
                                  env_config=cfg)
        serial = evaluate(sched, trace,
                          config=EvalConfig(**self.CFG, runtime=SERIAL))
        pooled = evaluate(sched, trace,
                          config=EvalConfig(**self.CFG, runtime=PROCESS_2))
        np.testing.assert_array_equal(serial.values, pooled.values)

    def test_eval_result_shape(self, trace):
        result = evaluate(FCFS(), trace,
                          config=EvalConfig(**self.CFG, runtime=SERIAL))
        assert isinstance(result, float)
        assert result.n == self.CFG["n_sequences"]
        assert result.values.shape == (self.CFG["n_sequences"],)
        assert result.mean == pytest.approx(float(np.mean(result.values)))
        assert result.std == pytest.approx(float(np.std(result.values)))
        assert "mean" in repr(result) and "std" in repr(result)
