"""Unit tests for the PPO agent: acting, update mechanics, clip behaviour."""

import numpy as np
import pytest

from repro.config import PPOConfig
from repro.nn import (
    KernelPolicy,
    MLPPolicy,
    Parameter,
    RaggedRows,
    Tensor,
    ValueMLP,
    clip_grad_norm,
    csr_indptr,
    gather_rows,
    log_prob_of,
    masked_log_softmax,
    sample_action_batch,
    segment_log_softmax,
    segment_sum,
    window_extents,
)
from repro.rl import PPOAgent, TrajectoryBuffer

from .conftest import DenseOnly
from .reference import pad_window

M, F = 8, 7


def make_agent(seed=0, **ppo_kwargs):
    policy = KernelPolicy(F, hidden=(8, 8), seed=seed)
    value = ValueMLP(M, F, hidden=(16, 16), seed=seed + 1)
    return PPOAgent(policy, value, PPOConfig(**ppo_kwargs), seed=seed)


def synthetic_batch(agent, n_episodes=6, steps=5, seed=0):
    """Synthetic contextual-bandit task: picking the slot whose first
    feature is largest yields +1, anything else -1.  (A *feature*-based
    rule — a positional rule would be unlearnable for the kernel policy,
    which is order-equivariant by construction.)  Each of the
    ``n_episodes * steps`` decisions is an episode of its own, rewarded
    as it ends."""
    rng = np.random.default_rng(seed)
    n = n_episodes * steps
    rows = rng.random((n * M, F)).astype(np.float32)
    counts = np.full(n, M)
    best = rows[:, 0].reshape(n, M).argmax(axis=1)
    actions, logps = agent.act_batch(rows, counts)
    return TrajectoryBuffer(
        rows, counts, actions, np.arange(n + 1), logps,
        np.where(actions == best, 1.0, -1.0), gamma=1.0, lam=0.97,
    ).get(agent)


def full_queues(obs):
    """``(N, M, F)`` windows with every slot a job, as ragged observations."""
    return obs.reshape(-1, obs.shape[-1]), np.full(len(obs), obs.shape[1])


class TestActing:
    def test_act_returns_valid_tuple(self):
        agent = make_agent()
        rows, counts = full_queues(np.random.default_rng(0).random((1, M, F)))
        actions, logps = agent.act_batch(rows, counts)
        assert 0 <= actions[0] < M
        assert logps[0] <= 0.0
        assert agent.value_batch(RaggedRows.from_csr(rows, counts, M)).shape == (1,)

    def test_act_respects_mask(self):
        """Only an observation's own jobs can be chosen: slots past its
        count are masked out of the distribution."""
        agent = make_agent()
        counts = np.array([1, 3] * 10)
        rows = np.random.default_rng(0).random((counts.sum(), F))
        for _ in range(20):
            actions, _ = agent.act_batch(rows, counts)
            assert (actions < counts).all()
        assert set(actions[counts == 1].tolist()) == {0}

    def test_act_rejects_an_empty_queue(self):
        agent = make_agent()
        rows = np.random.default_rng(0).random((3, F))
        with pytest.raises(ValueError, match="at least one valid action"):
            agent.act_batch(rows, np.array([3, 0]))

    def test_act_greedy_deterministic(self):
        agent = make_agent()
        rows, counts = full_queues(np.random.default_rng(0).random((1, M, F)))
        choices = {int(agent.act_greedy_batch(rows, counts)[0]) for _ in range(5)}
        assert len(choices) == 1

    def test_act_stochastic_explores(self):
        agent = make_agent()
        obs = np.tile(np.random.default_rng(0).random((M, F)), (60, 1, 1))
        actions = agent.act_batch(*full_queues(obs))[0]
        assert len(set(actions.tolist())) > 1


class ColumnScorer:
    """A row-scoring policy whose scores are column 0 of the rows."""

    def score_rows(self, rows, counts):
        return np.asarray(rows)[:, 0]


class TestWindowOracle:
    """Acting softmaxes and samples on a block no wider than the wave's
    longest queue; the paper's window is ``M`` wide.  Both must give the
    same bits — log-probabilities, sampled actions, greedy actions — for
    every longest-queue length, or training curves drift with a NumPy
    summation change instead of failing here.  In float32, what training
    runs, and in float64."""

    @staticmethod
    def wave(m, longest, rng, n=9):
        """``n`` queues of 1..``longest`` jobs, one of them ``longest``
        deep and one a single job, with scores spread over ±30."""
        counts = rng.integers(1, longest + 1, size=n)
        counts[rng.integers(n)] = longest
        counts[(np.argmax(counts == longest) + 1) % n] = 1 if n > 1 else longest
        counts[np.argmax(counts == longest)] = longest
        scores = rng.standard_normal(counts.sum()) * rng.choice([0.1, 3.0, 30.0])
        return scores[:, None], counts

    @pytest.mark.parametrize("m", [5, 12, 16, 128, 200])
    def test_block_equals_the_full_window_bit_for_bit(self, m, dtype=np.float64):
        agent = PPOAgent(ColumnScorer(), ValueMLP(m, 1, hidden=(4,)))
        rng = np.random.default_rng(m)
        for longest in range(1, m + 1):
            for n in (1, 9):
                rows, counts = self.wave(m, longest, rng, n)
                rows = rows.astype(dtype)
                _, masks = pad_window(rows, counts, m)
                logits = np.full(masks.shape, -1e9, dtype=dtype)
                logits[masks] = rows[:, 0]
                want = masked_log_softmax(Tensor(logits), masks).numpy()
                assert want.dtype == dtype
                uniforms = rng.random(n)
                want_actions = sample_action_batch(want, uniforms)

                got = agent.log_probs_batch(rows, counts)
                width = got.shape[1]
                assert width <= m and (m > 128 or width < longest + 8)
                assert got.tobytes() == want[:, :width].copy().tobytes()
                assert (want[:, width:] < -1e8).all()

                actions, logps = agent.act_batch(rows, counts, uniforms)
                np.testing.assert_array_equal(actions, want_actions)
                assert (
                    logps.tobytes()
                    == want[np.arange(n), want_actions].tobytes()
                )
                np.testing.assert_array_equal(
                    agent.act_greedy_batch(rows, counts), want.argmax(axis=-1)
                )

    @pytest.mark.parametrize("m", [5, 12, 16, 128, 200])
    def test_float32_block_equals_the_full_window_bit_for_bit(self, m):
        self.test_block_equals_the_full_window_bit_for_bit(m, np.float32)


class TestUpdate:
    def test_update_returns_stats(self):
        agent = make_agent(train_pi_iters=5, train_v_iters=5)
        stats = agent.update(synthetic_batch(agent))
        assert np.isfinite(stats.policy_loss)
        assert np.isfinite(stats.value_loss)
        assert stats.pi_iters_run >= 1

    def test_update_rejects_empty(self):
        agent = make_agent()
        with pytest.raises(ValueError):
            agent.update({"actions": np.array([], dtype=np.int64)})

    def test_update_improves_synthetic_task(self):
        """After PPO updates, the agent should prefer the rewarded rule
        (pick the slot with the largest first feature)."""
        agent = make_agent(
            train_pi_iters=40, train_v_iters=10, target_kl=1e9, pi_lr=5e-3
        )
        for i in range(6):
            data = synthetic_batch(agent, n_episodes=15, steps=6, seed=i)
            agent.update(data)
        rng = np.random.default_rng(99)
        hits = []
        for _ in range(40):
            obs = rng.random((M, F))
            best = int(obs[:, 0].argmax())
            action = agent.act_greedy_batch(obs, [M])[0]
            hits.append(action == best)
        assert np.mean(hits) > 0.4  # chance level is 1/16

    def test_kl_early_stopping(self):
        agent = make_agent(train_pi_iters=80, target_kl=1e-8, pi_lr=0.05)
        stats = agent.update(synthetic_batch(agent))
        assert stats.early_stopped
        assert stats.pi_iters_run < 80

    def test_value_regression_converges(self):
        agent = make_agent(train_v_iters=200, vf_lr=1e-2, train_pi_iters=1)
        data = synthetic_batch(agent, n_episodes=4, steps=4)
        first = agent.update(data).value_loss
        second = agent.update(data).value_loss
        assert second < first

    def test_minibatching_caps_batch(self):
        agent = make_agent(minibatch_size=4, train_pi_iters=3, train_v_iters=3)
        stats = agent.update(synthetic_batch(agent, n_episodes=10, steps=4))
        assert stats.pi_iters_run >= 1  # runs without error on minibatches

    def test_update_changes_parameters(self):
        agent = make_agent(train_pi_iters=10, train_v_iters=10)
        before = [p.data.copy() for p in agent.policy.parameters()]
        agent.update(synthetic_batch(agent))
        after = agent.policy.parameters()
        assert any(not np.allclose(b, a.data) for b, a in zip(before, after))


    def test_update_is_float32_from_loss_to_adam_state(self, monkeypatch):
        """Nothing between the float32 rows and the weights widens: the
        buffer's float64 columns are cast in the plans, so both losses,
        every gradient and all of Adam's arrays have the networks' dtype."""
        agent = make_agent(train_pi_iters=3, train_v_iters=3, entropy_coef=0.01)
        data = synthetic_batch(agent)
        assert data["rows"].dtype == np.float32
        assert data["advantages"].dtype == data["returns"].dtype == np.float64
        losses = []
        backward = Tensor.backward
        monkeypatch.setattr(
            Tensor, "backward",
            lambda self, *a: (losses.append(self.data.dtype), backward(self, *a))[1],
        )
        agent.update(data)
        assert len(losses) == 6 and set(losses) == {np.dtype(np.float32)}
        for opt in (agent.pi_optimizer, agent.v_optimizer):
            arrays = [opt._data, opt._grad, opt._m, opt._v, opt._a, opt._b]
            arrays += [p.data for p in opt.params] + [p.grad for p in opt.params]
            assert {a.dtype for a in arrays} == {np.dtype(np.float32)}

    def test_a_float64_cast_agent_updates_in_float64(self):
        """The same code is a float64 learner when its parameters are:
        there is no other switch."""
        agent = make_agent(train_pi_iters=2, train_v_iters=2)
        agent.policy.astype(np.float64), agent.value.astype(np.float64)
        agent.update(synthetic_batch(agent))
        for opt in (agent.pi_optimizer, agent.v_optimizer):
            arrays = [opt._data, opt._grad, opt._m, opt._v, opt._a, opt._b]
            arrays += [p.data for p in opt.params] + [p.grad for p in opt.params]
            assert {a.dtype for a in arrays} == {np.dtype(np.float64)}


def ragged_batch(n, max_jobs=5, seed=0, m=16):
    """An update batch shaped like a rollout's: the float32 rows of the
    ``k`` waiting jobs of each of ``n`` steps, ``1 <= k <= max_jobs``, and
    their ``m``-slot windows."""
    rng = np.random.default_rng(seed)
    counts = rng.integers(1, max_jobs + 1, size=n)
    rows = rng.random((counts.sum(), F)).astype(np.float32)
    return {
        "rows": rows,
        "counts": counts,
        "windows": RaggedRows.from_csr(rows, counts, m),
        "actions": rng.integers(0, counts),
        "log_probs": -np.abs(rng.standard_normal(n)) - 0.5,
        "advantages": rng.standard_normal(n),
        "returns": rng.standard_normal(n),
    }


def reference_update(agent, data):
    """The update as it ran before plans, the ragged first layer and
    ragged observations, kept as the oracle: the batch is padded to the
    observation window up front, every iteration re-gathers ``data[k][idx]``,
    re-derives the valid rows, and the value network multiplies the dense
    padded matrix, cast to its dtype, through plain ``Tensor.__matmul__``.
    The kernel scores the valid rows of the window; any other policy
    scores the whole window, softmaxed by ``masked_log_softmax``.  Losses
    are sum-reduced and gradients divided by the row count (the mean
    loss, in another operation order).  Returns ``(policy_losses, kls,
    value_losses)`` per iteration.
    """
    cfg = agent.config
    n = len(data["actions"])
    size = min(cfg.minibatch_size, n)
    obs, masks = pad_window(
        data["rows"], data["counts"], agent.value.max_obsv_size
    )
    data = {k: v for k, v in data.items()
            if k not in ("rows", "counts", "windows")}
    data.update(obs=obs, masks=masks)

    def minibatch():
        if size >= n:
            return {k: v for k, v in data.items()}
        idx = agent.rng.choice(n, size=size, replace=False)
        return {k: v[idx] for k, v in data.items()}

    def step(optimizer, sum_loss, batch):
        optimizer.zero_grad()
        loss, kl = sum_loss(batch)
        loss.backward()
        for p in optimizer.params:
            p.grad = p.grad / size
        clip_grad_norm(optimizer.params, cfg.max_grad_norm)
        optimizer.step()
        return loss.item() / size, kl / size

    def policy_loss(batch):
        obs, masks = batch["obs"].astype(agent.policy.dtype), batch["masks"]
        if isinstance(agent.policy, KernelPolicy):
            b_idx, s_idx = np.nonzero(masks)
            indptr = csr_indptr(masks.sum(axis=1))
            scores = agent.policy.score_rows_grad(
                obs[b_idx, s_idx], masks.sum(axis=1)
            )
            log_probs = segment_log_softmax(scores, indptr)
            # a window's valid slots lead it: slot a is flat position indptr + a
            logp = gather_rows(log_probs, indptr[:-1] + batch["actions"])
            ent = -segment_sum(log_probs.exp() * log_probs, indptr)
        else:
            log_probs = masked_log_softmax(agent.policy(obs, masks), masks)
            logp = log_prob_of(log_probs, batch["actions"])
            ent = -(log_probs.exp() * log_probs).sum(axis=-1)
        ratio = (logp - Tensor(batch["log_probs"])).exp()
        adv = Tensor(batch["advantages"])
        clipped = ratio.clip(1 - cfg.clip_ratio, 1 + cfg.clip_ratio) * adv
        loss = -(ratio * adv).minimum(clipped).sum() - cfg.entropy_coef * ent.sum()
        return loss, float(np.sum(batch["log_probs"] - logp.numpy()))

    def value_loss(batch):
        flat = batch["obs"].reshape(len(batch["obs"]), -1).astype(agent.value.dtype)
        values = agent.value.mlp(Tensor(flat)).reshape(len(flat))
        return ((values - Tensor(batch["returns"])) ** 2.0).sum(), 0.0

    pi_losses, kls = [], []
    for _ in range(cfg.train_pi_iters):
        loss, kl = step(agent.pi_optimizer, policy_loss, minibatch())
        pi_losses.append(loss)
        kls.append(kl)
        if kl > 1.5 * cfg.target_kl:
            break
    v_losses = [
        step(agent.v_optimizer, value_loss, minibatch())[0]
        for _ in range(cfg.train_v_iters)
    ]
    return pi_losses, kls, v_losses


class TestUpdatePlan:
    """`update` gathers each minibatch once (once per epoch when a single
    minibatch covers the batch) and runs the value net on bucketed row
    prefixes; none of that may change what is computed.  The oracle runs
    float64-cast networks at 1e-10; the float32 twins, the networks as
    created, at :attr:`FLOAT32_TOL`."""

    #: float32 twins: losses agree to a few float32 ulps (6e-8 each,
    #: over sums of <= 60 terms): 1e-5 relative.  KL is a mean of
    #: differences of log-probs of magnitude ~1, so it carries their
    #: absolute round-off whatever its own size: 1e-6.  Weights get an
    #: absolute bound instead — Adam divides a gradient by its own
    #: magnitude, so where the true gradient is ~0 (the policy's last
    #: bias; units one side's round-off switches off) the two operation
    #: orders take steps of up to ``lr`` in different directions: 6
    #: iterations x lr 1e-3 at most, observed up to 2.1e-3.
    FLOAT32_TOL = dict(rel=1e-5, kl_abs=1e-6, weights=6e-3)

    def agents(self, update_path, policy="kernel", dtype=np.float64, **ppo):
        def build():
            net = (
                KernelPolicy(F, hidden=(8, 8), seed=3) if policy == "kernel"
                else MLPPolicy(16, F, hidden=(8, 8), seed=3)
            )
            if update_path == "dense" and policy == "kernel":
                net = DenseOnly(net, 16)  # the kernel read through its window
            cfg = PPOConfig(
                train_pi_iters=6, train_v_iters=6, entropy_coef=0.01, **ppo,
            )
            value = ValueMLP(16, F, hidden=(16, 8), seed=4)
            return PPOAgent(net.astype(dtype), value.astype(dtype), cfg, seed=5)

        return build(), build()

    def assert_same_update(
        self, agent, oracle, data, rel=1e-10, kl_abs=1e-14, weights=1e-10
    ):
        # behaviour log-probs of the initial policy: KL starts at zero
        log_probs = oracle.log_probs_batch(data["rows"], data["counts"])
        data["log_probs"] = log_probs[
            np.arange(len(data["actions"])), data["actions"]
        ]
        stats = agent.update(data)
        pi_losses, kls, v_losses = reference_update(oracle, data)
        assert stats.pi_iters_run == len(kls)
        assert stats.policy_loss == pytest.approx(np.mean(pi_losses), rel=rel)
        assert stats.kl == pytest.approx(np.mean(kls), rel=rel, abs=kl_abs)
        assert stats.kl_last == pytest.approx(kls[-1], rel=rel, abs=kl_abs)
        assert stats.value_loss == pytest.approx(np.mean(v_losses), rel=rel)
        for net in ("policy", "value"):
            for got, want in zip(getattr(agent, net).parameters(),
                                 getattr(oracle, net).parameters()):
                # atol: the policy's last bias has an exactly-zero true
                # gradient (softmax shift invariance); Adam normalises its
                # round-off noise into steps of ~1e-12
                np.testing.assert_allclose(
                    got.data, want.data, rtol=rel, atol=weights
                )
        # both drew the same minibatches from their generators
        assert agent.rng.random() == oracle.rng.random()
        return stats

    @pytest.mark.parametrize("update_path", ["dense", "sparse"])
    @pytest.mark.parametrize("minibatch_size", [4096, 24])
    def test_matches_per_iteration_gather(self, update_path, minibatch_size):
        agent, oracle = self.agents(update_path, minibatch_size=minibatch_size)
        self.assert_same_update(agent, oracle, ragged_batch(60))

    @pytest.mark.parametrize("update_path", ["dense", "sparse"])
    @pytest.mark.parametrize("minibatch_size", [4096, 24])
    def test_float32_matches_per_iteration_gather(self, update_path, minibatch_size):
        agent, oracle = self.agents(
            update_path, dtype=np.float32, minibatch_size=minibatch_size
        )
        self.assert_same_update(
            agent, oracle, ragged_batch(60), **self.FLOAT32_TOL
        )
        for net in (agent.policy, agent.value):
            assert all(p.data.dtype == np.float32 for p in net.parameters())

    def test_float32_dense_path_with_a_joint_policy(self):
        agent, oracle = self.agents(
            "dense", policy="mlp", dtype=np.float32, minibatch_size=24
        )
        self.assert_same_update(
            agent, oracle, ragged_batch(60, seed=1), **self.FLOAT32_TOL
        )

    def test_dense_path_with_a_joint_policy(self):
        agent, oracle = self.agents("dense", policy="mlp", minibatch_size=24)
        self.assert_same_update(agent, oracle, ragged_batch(60, seed=1))

    def test_early_stop_draws_no_further_minibatch(self):
        agent, oracle = self.agents(
            "sparse", minibatch_size=24, target_kl=1e-4, pi_lr=1e-3
        )
        stats = self.assert_same_update(agent, oracle, ragged_batch(60, seed=4))
        assert stats.early_stopped and stats.pi_iters_run == 3

    def test_single_minibatch_is_planned_once(self, monkeypatch):
        """The hoist itself: one policy gather per epoch when the batch
        fits a minibatch, one per iteration when it does not; the value
        plans gather from the batch's windows and bucket nothing."""
        import repro.rl.ppo as ppo

        data = ragged_batch(60)
        calls = {"policy_plan": 0, "from_csr": 0}

        def count(name, fn):
            def wrapped(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapped

        monkeypatch.setattr(
            ppo, "_policy_plan", count("policy_plan", ppo._policy_plan)
        )
        monkeypatch.setattr(
            RaggedRows, "from_csr", count("from_csr", RaggedRows.from_csr)
        )
        self.agents("sparse", target_kl=1e9)[0].update(data)
        assert calls == {"policy_plan": 1, "from_csr": 0}
        self.agents("sparse", target_kl=1e9, minibatch_size=24)[0].update(data)
        assert calls == {"policy_plan": 1 + 6, "from_csr": 0}

    def test_value_plans_are_the_epoch_windows(self):
        """The full-batch value plan is the batch's windows object; a
        minibatch's is each bucket's drawn members — the same matrix as
        bucketing the minibatch afresh, to round-off, at no more than
        twice its prefix volume."""
        import repro.rl.ppo as ppo

        data = ragged_batch(60, max_jobs=16, seed=8)
        windows = data["windows"]
        plan, returns = ppo._value_plan(windows, data["returns"], np.float32, None)
        assert plan is windows and returns.dtype == np.float32
        extents = window_extents(data["rows"], data["counts"])
        rng = np.random.default_rng(4)
        w = rng.standard_normal((16 * F, 5)).astype(np.float32)
        for size in (1, 24, 59, 60):
            idx = rng.choice(60, size=size, replace=False)
            plan, returns = ppo._value_plan(
                windows, data["returns"], np.float32, idx
            )
            np.testing.assert_array_equal(returns, data["returns"][idx].astype(np.float32))
            fresh = RaggedRows.from_csr(
                data["rows"], data["counts"], 16, select=idx
            )
            assert plan.shape == fresh.shape == (size, 16 * F)
            np.testing.assert_allclose(
                plan.product(w), fresh.product(w), rtol=1e-5, atol=1e-6
            )
            grad = rng.standard_normal((size, 5)).astype(np.float32)
            got, want = Parameter(w.copy()), Parameter(w.copy())
            plan.add_weight_grad(grad, got)
            fresh.add_weight_grad(grad, want)
            np.testing.assert_allclose(got.grad, want.grad, rtol=1e-5, atol=1e-5)
            assert plan.volume <= 2 * extents[idx].sum()

    def test_value_batch_matches_the_dense_forward(self):
        agent, _ = self.agents("sparse")
        data = ragged_batch(40, seed=6)
        obs, _ = pad_window(data["rows"], data["counts"], 16)
        dense = agent.value.mlp(Tensor(obs.reshape(40, -1)))
        np.testing.assert_allclose(
            agent.value_batch(data["windows"]),
            dense.numpy().reshape(40), rtol=1e-12, atol=1e-14,
        )

    def test_masked_out_action_is_rejected(self):
        """The plan checks that a stored action is one of its
        observation's jobs."""
        agent, _ = self.agents("sparse")
        data = ragged_batch(20)
        data["actions"][7] = data["counts"][7]
        with pytest.raises(ValueError, match=r"rows \[7\] are masked out"):
            agent.update(data)


def test_ragged_work_follows_fill_not_padding():
    """Hardware-independent guard for the value step's cost: at <= 5 %
    fill of the paper's 128-slot window the first layer's multiply-
    accumulate count is at most a quarter of the dense product's."""
    h = 128
    data = ragged_batch(768, max_jobs=11, seed=7, m=128)
    fill = data["counts"].sum() / (768 * 128)
    assert fill <= 0.05
    ragged = data["windows"]
    assert ragged.volume * h <= 0.25 * 768 * 128 * F * h
