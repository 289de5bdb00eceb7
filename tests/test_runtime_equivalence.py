"""Golden equivalence tests for evaluation fan-out.

Process-pool evaluation must be *bit-identical* to the in-process loop:
``api.evaluate`` / ``api.compare`` per-sequence values are the same for
1, 2 and 3 workers, heuristic and RL schedulers alike — a kernel policy
and an MLP preset, whose weights are the largest state a pool worker
starts with.  No tolerances anywhere: the worker count is a pure throughput
knob, as the grouping of training's lock-step waves is
(``test_trainer.py``).
"""

import numpy as np
import pytest

from repro.api import compare, evaluate
from repro.config import EnvConfig, EvalConfig
from repro.nn import KernelPolicy, make_policy
from repro.schedulers import FCFS, SJF, RLSchedulerPolicy
from repro.workloads import load_trace


@pytest.fixture(scope="module")
def trace():
    return load_trace("Lublin-1", n_jobs=600, seed=5)


class TestEvaluationGolden:
    """Evaluation scores are worker-count-independent."""

    CFG = dict(n_sequences=5, sequence_length=24)

    @pytest.mark.parametrize("workers", [2, 3],
                             ids=["process2", "process3"])
    def test_evaluate_identical_values(self, trace, workers):
        serial = evaluate(SJF(), trace,
                          config=EvalConfig(**self.CFG))
        pooled = evaluate(SJF(), trace,
                          config=EvalConfig(**self.CFG, workers=workers))
        assert serial == pooled  # float equality of the means
        np.testing.assert_array_equal(serial.values, pooled.values)

    def test_compare_identical_values(self, trace):
        serial = compare([FCFS(), SJF()], trace,
                         config=EvalConfig(**self.CFG))
        pooled = compare([FCFS(), SJF()], trace,
                         config=EvalConfig(**self.CFG, workers=3))
        assert list(serial) == list(pooled)
        for name in serial:
            np.testing.assert_array_equal(
                serial[name].values, pooled[name].values
            )

    @pytest.mark.parametrize("workers", [2, 3],
                             ids=["process2", "process3"])
    def test_rl_policy_broadcasts_to_workers(self, trace, workers):
        """Workers start with the scheduler's weights + metadata (inherited
        at fork, pickled once per worker under spawn): an RL scheduler
        scores the same sequences identically inside process workers,
        where its lock-step groups split at other boundaries."""
        cfg = EnvConfig(max_obsv_size=16)
        policy = KernelPolicy(cfg.job_features, seed=0)
        sched = RLSchedulerPolicy(policy, n_procs=trace.max_procs,
                                  env_config=cfg)
        serial = evaluate(sched, trace,
                          config=EvalConfig(**self.CFG))
        pooled = evaluate(sched, trace,
                          config=EvalConfig(**self.CFG, workers=workers))
        np.testing.assert_array_equal(serial.values, pooled.values)

    def test_rl_sequence_values_do_not_depend_on_the_group(self, trace):
        """Five sequences in one lock-step group score the first three as
        three sequences do."""
        cfg = EnvConfig(max_obsv_size=16)
        sched = RLSchedulerPolicy(KernelPolicy(cfg.job_features, seed=0),
                                  n_procs=trace.max_procs, env_config=cfg)
        config = dict(self.CFG, n_sequences=3)
        three = evaluate(sched, trace, config=EvalConfig(**config))
        five = evaluate(sched, trace, config=EvalConfig(**self.CFG))
        np.testing.assert_array_equal(three.values, five.values[:3])

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_per_cell_groups_match_whole_call_groups(self, trace, workers):
        """Cells name their own schedulers (one object in two cells is
        one scheduler, whose lock-step groups may span both); a heartbeat
        fires once per cell, in cell order, and changes no value."""
        from repro.api import _cell, _run_cells
        from repro.sim import ClusterSpec

        cfg = EnvConfig(max_obsv_size=16)
        sched = RLSchedulerPolicy(KernelPolicy(cfg.job_features, seed=0),
                                  n_procs=trace.max_procs, env_config=cfg)
        config = EvalConfig(n_sequences=3, sequence_length=24, seed=2)
        cluster = ClusterSpec(trace.max_procs)
        cells = [_cell([FCFS(), sched], trace, cluster, False, "bsld", config),
                 _cell([sched], trace, cluster, "easy", "bsld", config)]
        beats = []
        whole = _run_cells(cells, workers)
        by_cell = _run_cells(cells, workers,
                             heartbeat=lambda ci, s: beats.append(ci))
        assert beats == [0, 1]
        assert [len(row) for row in by_cell] == [2, 1]
        for row_whole, row_cell in zip(whole, by_cell):
            for a, b in zip(row_whole, row_cell):
                np.testing.assert_array_equal(a, b)
        alone = evaluate(sched, trace, backfill="easy", config=config)
        np.testing.assert_array_equal(by_cell[1][0], alone.values)

    def test_mlp_policy_broadcasts_to_workers(self, trace):
        """The same with an MLP preset over the paper's 128-slot window:
        its first layer is the one array large enough that the pool used
        to carry it out of band; it now starts with each worker like any
        other state."""
        cfg = EnvConfig(max_obsv_size=128)
        policy = make_policy("mlp_v1", cfg.max_obsv_size, cfg.job_features,
                             seed=0)
        assert max(p.data.nbytes for p in policy.parameters()) > 256 * 1024
        sched = RLSchedulerPolicy(policy, n_procs=trace.max_procs,
                                  env_config=cfg, preset="mlp_v1")
        serial = evaluate(sched, trace,
                          config=EvalConfig(**self.CFG))
        pooled = evaluate(sched, trace,
                          config=EvalConfig(**self.CFG, workers=2))
        np.testing.assert_array_equal(serial.values, pooled.values)

    def test_eval_result_shape(self, trace):
        result = evaluate(FCFS(), trace,
                          config=EvalConfig(**self.CFG))
        assert isinstance(result, float)
        assert result.n == self.CFG["n_sequences"]
        assert result.values.shape == (self.CFG["n_sequences"],)
        assert result.mean == pytest.approx(float(np.mean(result.values)))
        assert result.std == pytest.approx(float(np.std(result.values)))
        assert "mean" in repr(result) and "std" in repr(result)
