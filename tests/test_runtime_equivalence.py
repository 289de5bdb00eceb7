"""Golden equivalence tests for the execution runtime (PR-2 acceptance).

Process-pool evaluation must be *bit-identical* to serial evaluation:
``api.evaluate`` / ``api.compare`` per-sequence values are the same across
backends and worker counts, heuristic and RL schedulers alike — a kernel
policy and an MLP preset, whose weights are the largest payload a
broadcast carries.  No tolerances anywhere: the backend is a pure
throughput knob, like ``n_envs`` in ``test_equivalence.py``.
"""

import numpy as np
import pytest

from repro.api import compare, evaluate
from repro.config import EnvConfig, EvalConfig, RuntimeConfig
from repro.nn import KernelPolicy, make_policy
from repro.schedulers import FCFS, SJF, RLSchedulerPolicy
from repro.workloads import load_trace

SERIAL = RuntimeConfig()
PROCESS_2 = RuntimeConfig(backend="process", workers=2)
PROCESS_3 = RuntimeConfig(backend="process", workers=3)


@pytest.fixture(scope="module")
def trace():
    return load_trace("Lublin-1", n_jobs=600, seed=5)


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

    def test_mlp_policy_broadcasts_to_workers(self, trace):
        """The same with an MLP preset over the paper's 128-slot window:
        its first layer is the one array large enough that the pool used
        to carry it out of band; it now travels as a plain pickle."""
        cfg = EnvConfig(max_obsv_size=128)
        policy = make_policy("mlp_v1", cfg.max_obsv_size, cfg.job_features,
                             seed=0)
        assert max(p.data.nbytes for p in policy.parameters()) > 256 * 1024
        sched = RLSchedulerPolicy(policy, n_procs=trace.max_procs,
                                  env_config=cfg, preset="mlp_v1")
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
