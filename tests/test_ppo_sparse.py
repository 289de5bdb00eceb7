"""The PPO update over a wave's job rows: the kernel's row scorers
against its padded window (``DenseOnly``, the same weights behind the
same contract), and the KL-reporting fix."""

import numpy as np
import pytest

from repro.config import EnvConfig, PPOConfig, TrainConfig
from repro.nn import KernelPolicy, RaggedRows, ValueMLP, make_policy
from repro.rl import PPOAgent, Trainer
from repro.rl.ppo import UpdateStats, _policy_plan, _policy_terms
from repro.workloads import load_trace

from .conftest import DenseOnly

F = 7


def synthetic_data(n=48, m=16, seed=0):
    """A PPO update batch of ragged observations with random (but
    internally consistent) queue lengths, 1..m jobs each."""
    rng = np.random.default_rng(seed)
    counts = rng.integers(1, m + 1, size=n)
    rows = rng.standard_normal((counts.sum(), F)).astype(np.float32)
    return {
        "rows": rows,
        "counts": counts,
        "windows": RaggedRows.from_csr(rows, counts, m),
        "actions": rng.integers(0, counts),
        "log_probs": -np.abs(rng.standard_normal(n)) - 0.5,
        "advantages": rng.standard_normal(n),
        "returns": rng.standard_normal(n),
    }


def make_agent(update_path="dense", m=16, **ppo_kwargs):
    """A kernel-policy agent; ``"dense"`` scores through the padded
    window (``DenseOnly``), ``"sparse"`` through the kernel's rows."""
    policy = KernelPolicy(F, hidden=(8, 8), seed=7)
    if update_path == "dense":
        policy = DenseOnly(policy, m)
    value = ValueMLP(m, F, hidden=(16, 16), seed=8)
    cfg = PPOConfig(**ppo_kwargs)
    return PPOAgent(policy, value, cfg, seed=0)


def policy_terms(policy, data, path, m=16):
    if path == "dense":
        policy = DenseOnly(policy, m)
    plan = _policy_plan(data, policy.dtype, None)
    return _policy_terms(policy, *plan, 0.2)


class TestSparsePath:
    def test_config_rejects_unknown_path(self):
        """The path is not configurable any more, and neither is where
        its gradients are computed."""
        with pytest.raises(TypeError):
            PPOConfig(update_path="sparse")
        with pytest.raises(TypeError):
            PPOAgent(KernelPolicy(F, seed=0), ValueMLP(16, F, seed=1),
                     grad_runtime=None)

    def test_forward_parity(self, dtype=np.float64, atol=1e-10):
        data = synthetic_data()
        policy = KernelPolicy(F, hidden=(8, 8), seed=7).astype(dtype)
        dense = policy_terms(policy, data, "dense")
        sparse = policy_terms(policy, data, "sparse")
        for d, s in zip(dense, sparse):
            assert d.numpy().dtype == s.numpy().dtype == dtype
            np.testing.assert_allclose(d.numpy(), s.numpy(), atol=atol)

    def test_gradient_parity_kernel_preset_m128(self, dtype=np.float64, atol=1e-8):
        """Acceptance pin: the kernel's row gradients match its padded
        window's within 1e-8 at the paper's MAX_OBSV_SIZE=128."""
        data = synthetic_data(n=32, m=128, seed=3)
        policy = KernelPolicy(F, hidden=(32, 16), seed=5).astype(dtype)

        def grads(path):
            policy.zero_grad()
            surrogate, ent_rows, _ = policy_terms(policy, data, path, m=128)
            (-surrogate.mean() - 0.01 * ent_rows.mean()).backward()
            return [p.grad.copy() for p in policy.parameters()]

        for gd, gs in zip(grads("dense"), grads("sparse")):
            assert gd.dtype == gs.dtype == dtype
            np.testing.assert_allclose(gd, gs, atol=atol)

    def test_parity_float32(self):
        """The float32 twins: the same two scorers on the networks as
        they are created, against float32 rows.  Terms are O(1) and a
        float32 ulp is 6e-8, summed over at most 128 slots: 1e-5
        absolute."""
        self.test_forward_parity(np.float32, atol=1e-5)
        self.test_gradient_parity_kernel_preset_m128(np.float32, atol=1e-5)

    def test_update_stats_parity(self):
        data = synthetic_data()
        stats_d = make_agent("dense").update(dict(data))
        stats_s = make_agent("sparse").update(dict(data))
        assert stats_d.policy_loss == pytest.approx(stats_s.policy_loss)
        assert stats_d.kl == pytest.approx(stats_s.kl)
        assert stats_d.entropy == pytest.approx(stats_s.entropy)
        assert stats_d.value_loss == stats_s.value_loss  # same value path


class TestKLReporting:
    def test_kl_is_mean_and_kl_last_is_final(self, monkeypatch):
        """Regression: stats.kl used to report only the LAST minibatch's
        KL; it must be the mean across the iterations that ran."""
        agent = make_agent(train_pi_iters=3, train_v_iters=1, target_kl=1e9)
        scripted = iter([(0.5, 0.1, 1.0), (0.4, 0.2, 1.0), (0.3, 0.6, 1.0)])
        monkeypatch.setattr(
            agent, "_policy_step", lambda plan: next(scripted)
        )
        monkeypatch.setattr(agent, "_value_step", lambda plan: 0.0)
        stats = agent.update(synthetic_data())
        assert stats.kl == pytest.approx(np.mean([0.1, 0.2, 0.6]))
        assert stats.kl_last == pytest.approx(0.6)

    def test_early_stop_still_uses_per_iter_kl(self, monkeypatch):
        agent = make_agent(train_pi_iters=5, train_v_iters=1, target_kl=0.1)
        kls = iter([0.01, 0.9, 0.01, 0.01, 0.01])
        monkeypatch.setattr(
            agent, "_policy_step", lambda plan: (0.0, next(kls), 0.0)
        )
        monkeypatch.setattr(agent, "_value_step", lambda plan: 0.0)
        stats = agent.update(synthetic_data())
        assert stats.early_stopped and stats.pi_iters_run == 2
        assert stats.kl_last == pytest.approx(0.9)

    def test_old_stats_dicts_still_load(self):
        """Checkpoints written before kl_last existed must round-trip."""
        old = {"policy_loss": 0.1, "value_loss": 0.2, "kl": 0.3,
               "entropy": 0.4, "pi_iters_run": 5, "early_stopped": False}
        stats = UpdateStats(**old)
        assert np.isnan(stats.kl_last)


class TestTrainerIntegration:
    @pytest.fixture(scope="class")
    def trace(self):
        return load_trace("Lublin-1", n_jobs=400, seed=3)

    def _run(self, trace, update_path):
        t = Trainer(
            trace,
            env_config=EnvConfig(max_obsv_size=8),
            ppo_config=PPOConfig(train_pi_iters=5, train_v_iters=5),
            policy=(
                DenseOnly(make_policy("kernel", 8, F, seed=0), 8)
                if update_path == "dense" else None
            ),
            train_config=TrainConfig(
                epochs=2, trajectories_per_epoch=2, trajectory_length=16,
                seed=0,
            ),
        )
        try:
            return t.train().metric_curve()
        finally:
            t.close()

    def test_sparse_matches_dense(self, trace):
        dense = self._run(trace, "dense")
        sparse = self._run(trace, "sparse")
        np.testing.assert_allclose(sparse, dense, rtol=1e-6)
