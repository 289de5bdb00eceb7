"""Unit tests for the Lublin-Feitelson workload model."""

import numpy as np
import pytest

from repro.workloads import LUBLIN_1, LUBLIN_2, LublinParams, generate_lublin_trace
from repro.workloads import lublin
from repro.workloads.lublin import calibrate_mean
from repro.workloads.stats import characterize

from .reference import sample_arrivals_loop


class TestParams:
    def test_defaults_valid(self):
        p = LublinParams()
        assert p.uhi == 8.0  # log2(256)
        assert p.umed == 8.0 - 2.5

    def test_umed_never_below_ulow(self):
        p = LublinParams(n_procs=4, umed_offset=10.0)
        assert p.umed == p.ulow

    def test_rejects_tiny_cluster(self):
        with pytest.raises(ValueError, match="at least 2"):
            LublinParams(n_procs=1)

    def test_rejects_bad_probability(self):
        with pytest.raises(ValueError, match="probability"):
            LublinParams(serial_prob=1.5)

    def test_rejects_nonpositive_interarrival(self):
        with pytest.raises(ValueError, match="mean_interarrival"):
            LublinParams(mean_interarrival=0.0)


class TestGeneration:
    def test_job_count_and_ids(self):
        trace = generate_lublin_trace(LUBLIN_1, n_jobs=200, seed=0)
        assert len(trace) == 200
        assert [j.job_id for j in trace] == list(range(1, 201))

    def test_rejects_zero_jobs(self):
        with pytest.raises(ValueError):
            generate_lublin_trace(LUBLIN_1, n_jobs=0)

    def test_sizes_within_cluster(self):
        trace = generate_lublin_trace(LUBLIN_1, n_jobs=500, seed=1)
        assert all(1 <= j.requested_procs <= 256 for j in trace)

    def test_arrivals_monotone(self):
        trace = generate_lublin_trace(LUBLIN_1, n_jobs=500, seed=2)
        submits = [j.submit_time for j in trace]
        assert submits == sorted(submits)

    def test_estimates_at_least_runtime(self):
        trace = generate_lublin_trace(LUBLIN_1, n_jobs=500, seed=3)
        assert all(j.requested_time >= j.run_time for j in trace)

    def test_deterministic_with_seed(self):
        a = generate_lublin_trace(LUBLIN_1, n_jobs=100, seed=5)
        b = generate_lublin_trace(LUBLIN_1, n_jobs=100, seed=5)
        assert all(
            x.run_time == y.run_time and x.submit_time == y.submit_time
            for x, y in zip(a, b)
        )

    def test_different_seeds_differ(self):
        a = generate_lublin_trace(LUBLIN_1, n_jobs=100, seed=5)
        b = generate_lublin_trace(LUBLIN_1, n_jobs=100, seed=6)
        assert any(x.run_time != y.run_time for x, y in zip(a, b))

    def test_users_assigned(self):
        trace = generate_lublin_trace(LUBLIN_1, n_jobs=200, seed=0, n_users=16)
        users = {j.user_id for j in trace}
        assert users and all(0 <= u < 16 for u in users)


class TestCalibration:
    """Presets must reproduce the Table II characteristics of the paper."""

    @pytest.mark.parametrize(
        "params,it,rt,nt",
        [(LUBLIN_1, 771, 4862, 22), (LUBLIN_2, 460, 1695, 39)],
        ids=["Lublin-1", "Lublin-2"],
    )
    def test_table2_moments(self, params, it, rt, nt):
        trace = generate_lublin_trace(params, n_jobs=8000, seed=0)
        stats = characterize(trace)
        assert stats.mean_interarrival == pytest.approx(it, rel=0.15)
        assert stats.mean_runtime == pytest.approx(rt, rel=0.15)
        assert stats.mean_requested_procs == pytest.approx(nt, rel=0.25)

    def test_lublin2_wider_than_lublin1(self):
        t1 = generate_lublin_trace(LUBLIN_1, n_jobs=4000, seed=0)
        t2 = generate_lublin_trace(LUBLIN_2, n_jobs=4000, seed=0)
        s1, s2 = characterize(t1), characterize(t2)
        assert s2.mean_requested_procs > s1.mean_requested_procs
        assert s2.mean_runtime < s1.mean_runtime


class TestCalibrateMean:
    def test_hits_target_under_cap(self):
        rng = np.random.default_rng(0)
        x = rng.lognormal(3.0, 2.0, size=20000)
        out = calibrate_mean(x, target=500.0, cap=10_000.0)
        assert out.mean() == pytest.approx(500.0, rel=0.01)
        assert out.max() <= 10_000.0

    def test_rejects_target_above_cap(self):
        with pytest.raises(ValueError):
            calibrate_mean(np.ones(10), target=100.0, cap=50.0)


class TestChunkwiseArrivals:
    """Thinning a chunk of candidates with one mask must not change a
    trace: same arrivals, same generator state afterwards (the
    over-estimates, users and executable ids are drawn after them)."""

    # 63/64/65 straddle the smallest chunk; 2048 and 10 000 are the sizes
    # the benchmark workloads generate
    @pytest.mark.parametrize("n", [1, 63, 64, 65, 2048, 10_000])
    @pytest.mark.parametrize("params", [LUBLIN_1, LUBLIN_2], ids=["L1", "L2"])
    def test_traces_equal_the_per_candidate_loop(self, params, n, monkeypatch):
        for seed in (0, 7, 11, 123):
            got = generate_lublin_trace(params, n_jobs=n, seed=seed)
            with monkeypatch.context() as patch:
                patch.setattr(lublin, "_sample_arrivals", sample_arrivals_loop)
                want = generate_lublin_trace(params, n_jobs=n, seed=seed)
            assert [job_fields(j) for j in got] == [job_fields(j) for j in want]

    def test_arrivals_and_generator_state(self):
        a, b = np.random.default_rng(5), np.random.default_rng(5)
        got = lublin._sample_arrivals(LUBLIN_2, 1000, a)
        want = sample_arrivals_loop(LUBLIN_2, 1000, b)
        assert got.tobytes() == want.tobytes()
        assert a.random() == b.random()


def job_fields(job):
    return tuple(getattr(job, name) for name in job.__slots__)
