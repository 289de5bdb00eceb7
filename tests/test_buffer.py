"""Unit tests for the GAE trajectory buffer."""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.nn import RaggedRows
from repro.rl import TrajectoryBuffer

F = 3


def fill_episode(buf, n_steps, terminal=10.0, order=None):
    """One episode of ``n_steps`` decisions, 1-4 waiting jobs each."""
    counts = np.arange(n_steps) % 4 + 1
    buf.add_episode(
        np.zeros((counts.sum(), F), np.float32), counts,
        np.arange(n_steps) % counts, -np.ones(n_steps), terminal,
        order=order,
    )


def critic(value_batch, n_slots=4):
    """An agent stand-in for :meth:`TrajectoryBuffer.get`: its critic is
    ``value_batch`` over windows of ``n_slots`` jobs (by default the
    widest observation of :func:`fill_episode`)."""
    return SimpleNamespace(
        value=SimpleNamespace(max_obsv_size=n_slots), value_batch=value_batch
    )


def valued(values):
    """An agent whose critic reads ``values`` (one per step of the batch)."""
    return critic(lambda windows: np.asarray(values, dtype=np.float64))


def unvalued(buf):
    """An agent whose critic values every step of ``buf`` at 0."""
    return valued([0.0] * buf.n_steps)


class TestMechanics:
    def test_rejects_bad_gamma(self):
        with pytest.raises(ValueError):
            TrajectoryBuffer(gamma=1.5)

    def test_end_episode_without_steps(self):
        with pytest.raises(RuntimeError, match="at least one step"):
            fill_episode(TrajectoryBuffer(), 0)

    def test_get_empty(self):
        with pytest.raises(RuntimeError, match="empty"):
            TrajectoryBuffer().get(valued([]))

    def test_counts(self):
        buf = TrajectoryBuffer()
        fill_episode(buf, 3)
        fill_episode(buf, 5)
        assert buf.n_steps == 8
        assert buf.n_episodes == 2
        assert buf.episode_rewards == [10.0, 10.0]

    def test_clear(self):
        buf = TrajectoryBuffer()
        fill_episode(buf, 3)
        buf.clear()
        assert buf.n_steps == 0

    def test_clear_keeps_hyperparams_and_is_reusable(self):
        buf = TrajectoryBuffer(gamma=0.5, lam=1.0)
        fill_episode(buf, 3)
        buf.clear()
        assert buf.gamma == 0.5 and buf.n_episodes == 0
        fill_episode(buf, 3, terminal=8.0)
        data = buf.get(unvalued(buf), normalize_advantages=False)
        np.testing.assert_allclose(data["returns"], [2.0, 4.0, 8.0])


class TestReturns:
    def test_terminal_reward_propagates_with_gamma_one(self):
        """Paper setting: zero intermediate rewards, terminal metric reward,
        gamma=1 — every step's return equals the terminal reward."""
        buf = TrajectoryBuffer(gamma=1.0, lam=0.95)
        fill_episode(buf, 4, terminal=-42.0)
        data = buf.get(unvalued(buf), normalize_advantages=False)
        np.testing.assert_allclose(data["returns"], [-42.0] * 4)

    def test_discounted_returns(self):
        buf = TrajectoryBuffer(gamma=0.5, lam=1.0)
        fill_episode(buf, 3, terminal=8.0)
        data = buf.get(unvalued(buf), normalize_advantages=False)
        np.testing.assert_allclose(data["returns"], [2.0, 4.0, 8.0])

    def test_gae_with_zero_values_equals_returns(self):
        buf = TrajectoryBuffer(gamma=1.0, lam=1.0)
        fill_episode(buf, 4, terminal=6.0)
        data = buf.get(valued([0.0] * 4), normalize_advantages=False)
        np.testing.assert_allclose(data["advantages"], data["returns"])

    def test_gae_baseline_reduces_advantage(self):
        """A value baseline equal to the reward zeroes the advantage."""
        buf = TrajectoryBuffer(gamma=1.0, lam=1.0)
        fill_episode(buf, 3, terminal=6.0)
        data = buf.get(valued([6.0, 6.0, 6.0]), normalize_advantages=False)
        np.testing.assert_allclose(data["advantages"], 0.0, atol=1e-12)

    def test_episodes_isolated(self):
        """GAE must not leak across episode boundaries."""
        buf = TrajectoryBuffer(gamma=1.0, lam=1.0)
        fill_episode(buf, 2, terminal=100.0)
        fill_episode(buf, 2, terminal=-100.0)
        data = buf.get(unvalued(buf), normalize_advantages=False)
        np.testing.assert_allclose(data["returns"], [100, 100, -100, -100])

    def test_per_step_rewards(self):
        """An array reward is one reward per step (the terminal one
        included), discounted like the sequence reward."""
        buf = TrajectoryBuffer(gamma=0.5, lam=1.0)
        buf.add_episode(
            np.zeros((3, F), np.float32), [1, 1, 1], [0, 0, 0], -np.ones(3),
            np.array([1.0, 2.0, 8.0]),
        )
        data = buf.get(unvalued(buf), normalize_advantages=False)
        np.testing.assert_allclose(data["returns"], [4.0, 6.0, 8.0])
        assert buf.episode_rewards == [11.0]


class TestBatchedPath:
    """add_episode — the one ingestion call: a finished episode's columns
    as one batch."""

    def test_equals_scalar_path(self):
        """The vectorised recurrences equal the scalar path — GAE-λ and
        the discounted return written out as one reversed Python loop over
        the steps — bit for bit, per-step rewards included."""
        rng = np.random.default_rng(0)
        gamma, lam = 0.99, 0.97
        buf = TrajectoryBuffer(gamma=gamma, lam=lam)
        want_adv, want_ret, all_values = [], [], []
        for steps, per_step in [(1, False), (7, False), (12, True)]:
            values = rng.standard_normal(steps)
            all_values.append(values)
            rewards = rng.standard_normal(steps) if per_step else np.zeros(steps)
            if not per_step:
                rewards[-1] = -3.5
            buf.add_episode(
                np.zeros((steps, F), np.float32), np.ones(steps, int),
                np.zeros(steps, int), -np.ones(steps),
                rewards if per_step else -3.5,
            )
            adv, ret = np.empty(steps), np.empty(steps)
            next_value = next_adv = next_ret = 0.0
            for t in range(steps - 1, -1, -1):
                delta = rewards[t] + gamma * next_value - values[t]
                adv[t] = next_adv = delta + gamma * lam * next_adv
                ret[t] = next_ret = rewards[t] + gamma * next_ret
                next_value = values[t]
            want_adv.append(adv)
            want_ret.append(ret)
        data = buf.get(
            critic(lambda windows: np.concatenate(all_values), 1),
            normalize_advantages=False,
        )
        np.testing.assert_array_equal(data["advantages"], np.concatenate(want_adv))
        np.testing.assert_array_equal(data["returns"], np.concatenate(want_ret))

    def test_deferred_values_required_at_end(self):
        """Every per-step column must cover the episode's steps, and the
        values, deferred to ``get``, every step of the batch."""
        buf = TrajectoryBuffer()
        fill_episode(buf, 4)
        with pytest.raises(ValueError, match="expected 4 values"):
            buf.get(valued([1.0, 2.0]))
        with pytest.raises(ValueError, match="expected 2 log_probs"):
            buf.add_episode(np.zeros((2, F)), [1, 1], [0, 0], [-1.0], 1.0)
        with pytest.raises(ValueError, match="expected 2 counts"):
            buf.add_episode(np.zeros((3, F)), [1, 1, 1], [0, 0], [-1.0, -1.0],
                            1.0)

    def test_counts_must_cover_the_rows(self):
        with pytest.raises(ValueError, match="cover 2 job rows, got 5"):
            TrajectoryBuffer().add_episode(
                np.zeros((5, F)), [1, 1], [0, 0], [-1.0, -1.0], 1.0
            )

    def test_out_of_order_slots_sorted_in_get(self):
        """Episodes added out of trajectory order still concatenate by
        their order key, observations included."""
        buf = TrajectoryBuffer(gamma=1.0, lam=1.0)
        for order, steps, terminal in [(1, 3, -1.0), (0, 2, 1.0)]:
            counts = np.full(steps, order + 1)
            buf.add_episode(
                np.full((counts.sum(), F), order, np.float32), counts,
                np.full(steps, order), -np.ones(steps), terminal, order=order,
            )
        data = buf.get(unvalued(buf), normalize_advantages=False)
        np.testing.assert_array_equal(data["actions"], [0, 0, 1, 1, 1])
        np.testing.assert_array_equal(data["returns"], [1, 1, -1, -1, -1])
        np.testing.assert_array_equal(data["counts"], [1, 1, 2, 2, 2])
        np.testing.assert_array_equal(data["rows"][:, 0], [0, 0] + [1] * 6)


class TestGetArrays:
    def test_shapes_and_dtypes(self):
        buf = TrajectoryBuffer()
        fill_episode(buf, 5)
        data = buf.get(unvalued(buf))
        assert data["counts"].tolist() == [1, 2, 3, 4, 1]
        assert data["rows"].shape == (11, F)
        assert data["rows"].dtype == np.float32
        assert data["actions"].dtype == np.int64
        assert data["advantages"].shape == (5,)
        assert set(data) == {"rows", "counts", "actions", "log_probs",
                             "advantages", "returns", "windows"}

    def test_advantage_normalisation(self):
        buf = TrajectoryBuffer()
        fill_episode(buf, 4, terminal=5.0)
        adv = buf.get(valued([1.0, 2.0, 3.0, 4.0]))["advantages"]
        assert adv.mean() == pytest.approx(0.0, abs=1e-9)
        assert adv.std() == pytest.approx(1.0, rel=1e-6)


class TestEpochValuePass:
    """``get`` windows the whole batch once, in batch order, values it
    with one call of the agent's critic and hands the windows on."""

    def test_one_critic_call_over_the_batch_windows(self):
        rng = np.random.default_rng(3)
        buf = TrajectoryBuffer(gamma=1.0, lam=1.0)
        for order, steps in [(1, 3), (0, 5)]:
            counts = rng.integers(1, 5, size=steps)
            buf.add_episode(
                rng.random((counts.sum(), F)).astype(np.float32), counts,
                np.zeros(steps, int), -np.ones(steps), 2.0, order=order,
            )
        seen = []

        def value_batch(windows):
            seen.append(windows)
            return np.arange(windows.shape[0], dtype=np.float32)

        data = buf.get(critic(value_batch), normalize_advantages=False)
        assert len(seen) == 1 and data["windows"] is seen[0]
        want = RaggedRows.from_csr(data["rows"], data["counts"], 4)
        w = rng.standard_normal((4 * F, 2)).astype(np.float32)
        assert seen[0].shape == (8, 4 * F)
        assert seen[0].product(w).tobytes() == want.product(w).tobytes()
        # the critic's values are the baseline, per episode in batch order
        values = np.arange(8.0)
        next_values = np.array([1, 2, 3, 4, 0, 6, 7, 0.0])
        np.testing.assert_array_equal(
            data["advantages"],
            [sum((np.r_[0, 0, 0, 0, 2.0, 0, 0, 2.0] + next_values - values)[t:end])
             for t, end in zip(range(8), [5] * 5 + [8] * 3)],
        )
