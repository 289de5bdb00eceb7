"""Unit tests for the GAE trajectory buffer."""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.nn import RaggedRows, csr_indptr
from repro.rl import TrajectoryBuffer

F = 3


def episodes(*lengths, terminal=10.0, **kw):
    """A buffer of episodes of ``lengths`` decisions, 1-4 waiting jobs
    each, ending with the terminal reward ``terminal`` (one for all, or
    one per episode)."""
    n = sum(lengths)
    counts = np.concatenate([np.arange(k) % 4 + 1 for k in lengths])
    return TrajectoryBuffer(
        np.zeros((counts.sum(), F), np.float32), counts,
        np.arange(n) % counts, csr_indptr(lengths),
        -np.ones(n), np.broadcast_to(terminal, (len(lengths),)), **kw,
    )


def critic(value_batch, n_slots=4):
    """An agent stand-in for :meth:`TrajectoryBuffer.get`: its critic is
    ``value_batch`` over windows of ``n_slots`` jobs (by default the
    widest observation of :func:`episodes`)."""
    return SimpleNamespace(
        value=SimpleNamespace(max_obsv_size=n_slots), value_batch=value_batch
    )


def valued(values):
    """An agent whose critic reads ``values`` (one per step of the batch)."""
    return critic(lambda windows: np.asarray(values, dtype=np.float64))


def unvalued(buf):
    """An agent whose critic values every step of ``buf`` at 0."""
    return valued([0.0] * len(buf.actions))


def normalised(adv):
    """PPO's advantage normalisation, operation for operation."""
    return (adv - adv.mean()) / (adv.std() + 1e-8)


class TestMechanics:
    def test_end_episode_without_steps(self):
        with pytest.raises(ValueError, match="at least one step"):
            episodes(3, 0, 2)

    def test_get_empty(self):
        with pytest.raises(ValueError, match="empty"):
            TrajectoryBuffer(np.zeros((0, F)), [], [], [0], [], [])


class TestReturns:
    def test_terminal_reward_propagates_with_gamma_one(self):
        """Paper setting: zero intermediate rewards, terminal metric reward,
        gamma=1 — every step's return equals the terminal reward."""
        buf = episodes(4, terminal=-42.0, gamma=1.0, lam=0.95)
        data = buf.get(unvalued(buf))
        np.testing.assert_allclose(data["returns"], [-42.0] * 4)

    def test_discounted_returns(self):
        buf = episodes(3, terminal=8.0, gamma=0.5, lam=1.0)
        data = buf.get(unvalued(buf))
        np.testing.assert_allclose(data["returns"], [2.0, 4.0, 8.0])

    def test_gae_with_zero_values_equals_returns(self):
        buf = episodes(4, 2, terminal=[6.0, -2.0], gamma=1.0, lam=1.0)
        data = buf.get(valued([0.0] * 6))
        np.testing.assert_allclose(
            data["advantages"], normalised(data["returns"])
        )

    def test_gae_baseline_reduces_advantage(self):
        """A value baseline equal to the reward zeroes the advantage."""
        buf = episodes(3, terminal=6.0, gamma=1.0, lam=1.0)
        data = buf.get(valued([6.0, 6.0, 6.0]))
        np.testing.assert_allclose(data["advantages"], 0.0, atol=1e-12)

    def test_episodes_isolated(self):
        """GAE must not leak across episode boundaries."""
        buf = episodes(2, 2, terminal=[100.0, -100.0], gamma=1.0, lam=1.0)
        data = buf.get(unvalued(buf))
        np.testing.assert_allclose(data["returns"], [100, 100, -100, -100])


class TestBatchedPath:
    """The constructor takes the epoch's columns as one batch."""

    def test_equals_scalar_path(self):
        """The per-episode recurrences over the batch equal the scalar
        path — GAE-λ and the discounted return written out as one reversed
        Python loop over each episode's steps — bit for bit."""
        rng = np.random.default_rng(0)
        gamma, lam = 0.99, 0.97
        lengths, terminals = [1, 7, 12], rng.standard_normal(3)
        values = rng.standard_normal(sum(lengths))
        want_adv, want_ret = [], []
        for steps, terminal, v in zip(
            lengths, terminals, np.split(values, np.cumsum(lengths)[:-1])
        ):
            rewards = np.zeros(steps)
            rewards[-1] = terminal
            adv, ret = np.empty(steps), np.empty(steps)
            next_value = next_adv = next_ret = 0.0
            for t in range(steps - 1, -1, -1):
                delta = rewards[t] + gamma * next_value - v[t]
                adv[t] = next_adv = delta + gamma * lam * next_adv
                ret[t] = next_ret = rewards[t] + gamma * next_ret
                next_value = v[t]
            want_adv.append(adv)
            want_ret.append(ret)
        n = sum(lengths)
        buf = TrajectoryBuffer(
            np.zeros((n, F), np.float32), np.ones(n, int), np.zeros(n, int),
            csr_indptr(lengths), -np.ones(n), terminals, gamma=gamma, lam=lam,
        )
        data = buf.get(critic(lambda windows: values, 1))
        np.testing.assert_array_equal(
            data["advantages"], normalised(np.concatenate(want_adv))
        )
        np.testing.assert_array_equal(data["returns"], np.concatenate(want_ret))

    def test_deferred_values_required_at_end(self):
        """Every per-step column must cover the batch's steps, and the
        values, deferred to ``get``, every step of the batch."""
        buf = episodes(4)
        with pytest.raises(ValueError, match="expected 4 values"):
            buf.get(valued([1.0, 2.0]))
        with pytest.raises(ValueError, match="expected 2 log_probs"):
            TrajectoryBuffer(np.zeros((2, F)), [1, 1], [0, 0], [0, 2], [-1.0],
                             [1.0])
        with pytest.raises(ValueError, match="expected 2 counts"):
            TrajectoryBuffer(np.zeros((3, F)), [1, 1, 1], [0, 0], [0, 2],
                             [-1.0, -1.0], [1.0])

    def test_counts_must_cover_the_rows(self):
        with pytest.raises(ValueError, match="cover 2 job rows, got 5"):
            TrajectoryBuffer(np.zeros((5, F)), [1, 1], [0, 0], [0, 2],
                             [-1.0, -1.0], [1.0])


class TestGetArrays:
    def test_shapes_and_dtypes(self):
        buf = episodes(5)
        data = buf.get(unvalued(buf))
        assert data["counts"].tolist() == [1, 2, 3, 4, 1]
        assert data["rows"].shape == (11, F)
        assert data["rows"].dtype == np.float32
        assert data["actions"].dtype == np.int64
        assert data["advantages"].shape == (5,)
        assert set(data) == {"rows", "counts", "actions", "log_probs",
                             "advantages", "returns", "windows"}

    def test_advantage_normalisation(self):
        buf = episodes(4, terminal=5.0)
        adv = buf.get(valued([1.0, 2.0, 3.0, 4.0]))["advantages"]
        assert adv.mean() == pytest.approx(0.0, abs=1e-9)
        assert adv.std() == pytest.approx(1.0, rel=1e-6)


class TestEpochValuePass:
    """``get`` windows the whole batch once, in batch order, values it
    with one call of the agent's critic and hands the windows on."""

    def test_one_critic_call_over_the_batch_windows(self):
        rng = np.random.default_rng(3)
        counts = rng.integers(1, 5, size=8)
        buf = TrajectoryBuffer(
            rng.random((counts.sum(), F)).astype(np.float32), counts,
            np.zeros(8, int), csr_indptr([5, 3]), -np.ones(8), [2.0, 2.0],
            gamma=1.0, lam=1.0,
        )
        seen = []

        def value_batch(windows):
            seen.append(windows)
            return np.arange(windows.shape[0], dtype=np.float32)

        data = buf.get(critic(value_batch))
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
            normalised(np.array([
                sum((np.r_[0, 0, 0, 0, 2.0, 0, 0, 2.0] + next_values - values)[t:end])
                for t, end in zip(range(8), [5] * 5 + [8] * 3)
            ])),
        )
