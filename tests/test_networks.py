"""Unit tests for the policy/value networks, incl. the key order-invariance
property of the kernel network (paper §III-1, §IV-B1)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn import (
    POLICY_PRESETS,
    KernelPolicy,
    LeNetPolicy,
    MLPPolicy,
    ValueMLP,
    make_policy,
    masked_log_softmax,
    no_grad,
)
from repro.rl import PPOAgent

from .reference import pad_window

M, F = 16, 7  # small observation space for tests


def random_obs(batch=2, seed=0):
    return np.random.default_rng(seed).random((batch, M, F))


class TestKernelPolicy:
    def test_output_shape(self):
        net = KernelPolicy(F)
        assert net(random_obs()).shape == (2, M)

    def test_accepts_single_observation(self):
        net = KernelPolicy(F)
        assert net(random_obs()[0]).shape == (1, M)

    def test_parameter_count_under_1000(self):
        """Paper: 'we are able to control the parameter size of the policy
        network less than 1,000'."""
        net = KernelPolicy(F, hidden=(32, 16, 8))
        assert net.num_parameters() < 1000

    def test_order_equivariance(self):
        """Reordering jobs must reorder scores identically (§IV-B1)."""
        net = KernelPolicy(F, seed=3)
        obs = random_obs(batch=1, seed=1)
        logits = net(obs).numpy()[0]
        perm = np.random.default_rng(2).permutation(M)
        logits_perm = net(obs[:, perm]).numpy()[0]
        np.testing.assert_allclose(logits[perm], logits_perm, rtol=1e-10)

    def test_same_job_same_score_regardless_of_position(self):
        net = KernelPolicy(F, seed=3)
        job_vec = np.random.default_rng(4).random(F)
        obs = np.zeros((1, M, F))
        obs[0, 2] = job_vec
        score_at_2 = net(obs).numpy()[0, 2]
        obs2 = np.zeros((1, M, F))
        obs2[0, 9] = job_vec
        score_at_9 = net(obs2).numpy()[0, 9]
        assert score_at_2 == pytest.approx(score_at_9, rel=1e-12)

    def test_feature_mismatch_rejected(self):
        net = KernelPolicy(F)
        with pytest.raises(ValueError, match="features"):
            net(np.ones((1, M, F + 1)))

    def test_needs_hidden_layers(self):
        with pytest.raises(ValueError):
            KernelPolicy(F, hidden=())


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    features=st.sampled_from([7, 9]),
    sizes=st.lists(st.integers(1, 600), min_size=1, max_size=12),
)
def test_kernel_score_does_not_depend_on_its_neighbours(seed, features, sizes):
    """A job's score is a function of its own row (§IV-B1), bit for bit:
    the rows of many queues scored in one call score as each queue alone,
    and a job that appears twice in a queue scores the same both times,
    so the first of them wins an argmax tie."""
    rng = np.random.default_rng(seed)
    net = KernelPolicy(features, seed=seed % 7)
    parts = [rng.random((k, features)).astype(np.float32) for k in sizes]
    alone = [net.score_rows(part, [len(part)]) for part in parts]
    np.testing.assert_array_equal(
        net.score_rows(np.concatenate(parts), sizes), np.concatenate(alone)
    )
    for _ in range(20):
        queue = rng.random((int(rng.integers(2, 129)), features))
        queue = queue.astype(np.float32)
        first, second = sorted(rng.choice(len(queue), 2, replace=False))
        queue[second] = queue[first]
        scores = net.score_rows(queue, [len(queue)])
        assert scores[first] == scores[second]
        assert np.argmax(scores) != second


@pytest.mark.parametrize("m", [16, 128])
@pytest.mark.parametrize("preset", sorted(POLICY_PRESETS))
def test_every_preset_scores_a_ragged_wave(preset, m):
    """The one policy contract, for every Table IV network: a wave of
    ragged observations in, one score per visible job out — the valid
    slots of the padded ``forward``, in wave order, from either scorer —
    and the agent's acting log-probs are ``masked_log_softmax`` of that
    forward bit for bit.  Only the kernel scores a job from its own row
    alone."""
    rng = np.random.default_rng(m)
    net = make_policy(preset, m, F, seed=1)
    counts = rng.integers(1, m + 1, size=9)
    counts[:2] = m, 1
    rows = rng.random((counts.sum(), F)).astype(np.float32)
    obs, masks = pad_window(rows, counts, m)
    with no_grad():
        logits = net(obs, masks)
    scores = net.score_rows(rows, counts)
    assert scores.shape == (counts.sum(),)
    assert scores.tobytes() == logits.numpy()[masks].tobytes()
    assert net.score_rows_grad(rows, counts).numpy().tobytes() == scores.tobytes()

    agent = PPOAgent(net, ValueMLP(m, F, hidden=(4,)))
    got = agent.log_probs_batch(rows, counts)
    want = masked_log_softmax(logits, masks).numpy()
    width = got.shape[1]
    assert got.tobytes() == want[:, :width].copy().tobytes()
    assert (want[:, width:] < -1e8).all()
    assert net.row_local == (preset == "kernel")


class TestMLPPolicy:
    def test_output_shape(self):
        net = MLPPolicy(M, F)
        assert net(random_obs()).shape == (2, M)

    def test_not_order_equivariant(self):
        """The flat MLP mixes positions — the paper's motivation for the
        kernel design."""
        net = MLPPolicy(M, F, seed=3)
        obs = random_obs(batch=1, seed=1)
        logits = net(obs).numpy()[0]
        perm = np.random.default_rng(2).permutation(M)
        logits_perm = net(obs[:, perm]).numpy()[0]
        assert not np.allclose(logits[perm], logits_perm)

    def test_v1_bigger_than_v2(self):
        v1 = make_policy("mlp_v1", M, F)
        v2 = make_policy("mlp_v2", M, F)
        assert v1.num_parameters() > v2.num_parameters()


class TestLeNetPolicy:
    def test_output_shape(self):
        net = LeNetPolicy(M, F)
        assert net(random_obs()).shape == (2, M)

    def test_rejects_tiny_observation(self):
        with pytest.raises(ValueError, match="too small"):
            LeNetPolicy(2, 3)

    def test_gradients_flow_through_conv_stack(self):
        net = LeNetPolicy(M, F, seed=0)
        logits = net(random_obs(batch=1))
        lp = masked_log_softmax(logits, np.ones((1, M), bool))
        lp[0, 0].backward()
        assert all(p.grad is not None for p in net.parameters())


class TestValueMLP:
    def test_scalar_per_observation(self):
        net = ValueMLP(M, F)
        out = net(random_obs(batch=5))
        assert out.shape == (5,)

    def test_gradients_flow(self):
        net = ValueMLP(M, F)
        net(random_obs()).sum().backward()
        assert all(p.grad is not None for p in net.parameters())


class TestPresets:
    def test_all_table4_presets_construct(self):
        for name in POLICY_PRESETS:
            net = make_policy(name, M, F)
            assert net(random_obs()).shape == (2, M)

    def test_unknown_preset(self):
        with pytest.raises(KeyError, match="unknown policy preset"):
            make_policy("resnet", M, F)

    def test_kernel_is_smallest(self):
        sizes = {n: make_policy(n, M, F).num_parameters() for n in POLICY_PRESETS}
        assert sizes["kernel"] == min(sizes.values())
