"""Unit tests for masked softmax / categorical utilities."""

import numpy as np
import pytest

from repro.nn import (
    Parameter,
    Tensor,
    log_prob_of,
    masked_log_softmax,
    sample_action_batch,
)


class TestMaskedLogSoftmax:
    def test_probabilities_sum_to_one(self):
        logits = Tensor(np.array([[1.0, 2.0, 3.0, 4.0]]))
        mask = np.array([[True, True, True, False]])
        lp = masked_log_softmax(logits, mask).numpy()
        p = np.exp(lp)
        assert p[0, 3] == pytest.approx(0.0, abs=1e-12)
        assert p[0, :3].sum() == pytest.approx(1.0)

    def test_matches_plain_softmax_when_unmasked(self):
        x = np.random.default_rng(0).normal(size=(2, 5))
        lp = masked_log_softmax(Tensor(x), np.ones((2, 5), bool)).numpy()
        ref = x - x.max(axis=1, keepdims=True)
        ref = ref - np.log(np.exp(ref).sum(axis=1, keepdims=True))
        np.testing.assert_allclose(lp, ref, rtol=1e-12)

    def test_numerically_stable_for_huge_logits(self):
        logits = Tensor(np.array([[1e4, 1e4 - 1.0]]))
        lp = masked_log_softmax(logits, np.array([[True, True]])).numpy()
        assert np.isfinite(lp).all()

    def test_all_masked_row_rejected(self):
        with pytest.raises(ValueError, match="at least one valid action"):
            masked_log_softmax(Tensor(np.ones((1, 3))), np.zeros((1, 3), bool))

    def test_gradient_zero_on_masked_slots(self):
        t = Parameter(np.array([[1.0, 2.0, 3.0]]))
        mask = np.array([[True, True, False]])
        masked_log_softmax(t, mask)[0, 0].backward()
        assert t.grad[0, 2] == 0.0

    def test_order_equivariance(self):
        """Permuting logits permutes log-probs identically — the property
        the kernel network is built to exploit."""
        x = np.array([[0.3, 1.7, -0.5, 2.2]])
        mask = np.ones((1, 4), bool)
        lp = masked_log_softmax(Tensor(x), mask).numpy()
        perm = [2, 0, 3, 1]
        lp_perm = masked_log_softmax(Tensor(x[:, perm]), mask).numpy()
        np.testing.assert_allclose(lp[:, perm], lp_perm, rtol=1e-12)


class TestLogProbOf:
    def test_gathers_correct_entries(self):
        lp = Tensor(np.log(np.array([[0.2, 0.8], [0.5, 0.5]])))
        out = log_prob_of(lp, np.array([1, 0])).numpy()
        np.testing.assert_allclose(out, np.log([0.8, 0.5]))

    def test_gradient_flows_to_chosen(self):
        t = Parameter(np.zeros((2, 3)))
        lp = masked_log_softmax(t, np.ones((2, 3), bool))
        log_prob_of(lp, np.array([0, 2])).sum().backward()
        # chosen entries get positive gradient pressure
        assert t.grad[0, 0] > 0 and t.grad[1, 2] > 0


class TestSampling:
    def test_sample_respects_distribution(self):
        rng = np.random.default_rng(0)
        log_p = np.tile(np.log(np.array([0.9, 0.1])), (2000, 1))
        draws = sample_action_batch(log_p, rng.random(2000))
        assert np.mean(draws) == pytest.approx(0.1, abs=0.03)

    def test_sample_never_picks_masked(self):
        rng = np.random.default_rng(1)
        lp = masked_log_softmax(
            Tensor(np.zeros((1, 4))), np.array([[True, False, True, False]])
        ).numpy()
        draws = sample_action_batch(np.tile(lp, (200, 1)), rng.random(200))
        assert set(draws.tolist()) <= {0, 2}
