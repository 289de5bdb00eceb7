"""Unit tests for workload characterisation and sequence sampling."""

import numpy as np
import pytest

from repro.workloads import (
    Job,
    SequenceSampler,
    characterize,
    interarrival_times,
    rebase_jobs,
    sample_sequence,
    user_job_counts,
)

from .conftest import make_trace


def simple_trace(n=10, n_procs=8):
    jobs = [
        Job(job_id=i + 1, submit_time=10.0 * i, run_time=5.0 + i,
            requested_procs=1 + i % 4, user_id=i % 3)
        for i in range(n)
    ]
    return make_trace(jobs, n_procs)


class TestCharacterize:
    def test_basic_moments(self):
        stats = characterize(simple_trace())
        assert stats.n_jobs == 10
        assert stats.mean_interarrival == pytest.approx(10.0)
        assert stats.mean_runtime == pytest.approx(np.mean([5 + i for i in range(10)]))
        assert stats.n_users == 3

    def test_needs_two_jobs(self):
        with pytest.raises(ValueError):
            characterize(simple_trace(n=1))

    def test_interarrival_times(self):
        gaps = interarrival_times(simple_trace(n=5))
        assert gaps.tolist() == [10.0, 10.0, 10.0, 10.0]

    def test_user_counts_exclude_unknown(self):
        jobs = [
            Job(job_id=1, submit_time=0, run_time=1, requested_procs=1, user_id=-1),
            Job(job_id=2, submit_time=1, run_time=1, requested_procs=1, user_id=4),
        ]
        counts = user_job_counts(make_trace(jobs, 4))
        assert counts == {4: 1}

    def test_table_row_format(self):
        row = characterize(simple_trace()).table_row()
        assert "test" in row

    def test_poisson_burstiness_near_zero(self):
        rng = np.random.default_rng(0)
        t = np.cumsum(rng.exponential(100.0, size=5000))
        jobs = [
            Job(job_id=i + 1, submit_time=float(ti), run_time=10.0, requested_procs=1)
            for i, ti in enumerate(t)
        ]
        stats = characterize(make_trace(jobs, 4))
        assert abs(stats.burstiness) < 0.05


class TestRebase:
    def test_rebase_shifts_to_zero(self):
        jobs = simple_trace().jobs[3:6]
        rebased = rebase_jobs(jobs)
        assert min(j.submit_time for j in rebased) == 0.0
        # gaps preserved
        assert rebased[1].submit_time - rebased[0].submit_time == 10.0

    def test_rebase_clears_schedule_state(self):
        jobs = simple_trace().jobs[:2]
        jobs[0].start_time = 99.0
        rebased = rebase_jobs(jobs)
        assert not rebased[0].scheduled

    def test_rebase_empty(self):
        assert rebase_jobs([]) == []

    def test_rebase_equals_validated_replace_field_for_field(self, lublin_trace):
        """``rebase_jobs`` copies without re-running ``Job.__init__``; the
        result must equal the validating ``dataclasses.replace`` form on
        every field, bookkeeping included."""
        import dataclasses

        jobs = [j.copy() for j in lublin_trace.jobs[100:164]]
        jobs[3].start_time = 42.0  # scheduled in a previous life
        t0 = min(j.submit_time for j in jobs)
        fields = [f.name for f in dataclasses.fields(jobs[0])]
        for got, job in zip(rebase_jobs(jobs), jobs):
            want = dataclasses.replace(job.copy(), submit_time=job.submit_time - t0)
            for name in fields:
                assert getattr(got, name) == getattr(want, name), name
                assert type(getattr(got, name)) is type(getattr(want, name))
            assert got is not job


class TestSampleSequence:
    def test_length_and_rebasing(self, rng):
        trace = simple_trace(n=20)
        seq = sample_sequence(trace, 5, rng)
        assert len(seq) == 5
        assert seq[0].submit_time == 0.0

    def test_pinned_start(self, rng):
        trace = simple_trace(n=20)
        seq = sample_sequence(trace, 3, rng, start=4)
        assert [j.job_id for j in seq] == [5, 6, 7]

    def test_rejects_bad_lengths(self, rng):
        trace = simple_trace(n=10)
        with pytest.raises(ValueError):
            sample_sequence(trace, 0, rng)
        with pytest.raises(ValueError):
            sample_sequence(trace, 11, rng)
        with pytest.raises(ValueError):
            sample_sequence(trace, 5, rng, start=8)


class TestSequenceSampler:
    def test_reproducible_across_instances(self):
        trace = simple_trace(n=50)
        a = SequenceSampler(trace, 5, seed=3).sample_many(4)
        b = SequenceSampler(trace, 5, seed=3).sample_many(4)
        for sa, sb in zip(a, b):
            assert [j.job_id for j in sa] == [j.job_id for j in sb]

    def test_reset_rewinds(self):
        trace = simple_trace(n=50)
        s = SequenceSampler(trace, 5, seed=3)
        first = [j.job_id for j in s.sample()]
        s.reset()
        again = [j.job_id for j in s.sample()]
        assert first == again

    def test_samples_vary(self):
        trace = simple_trace(n=200)
        s = SequenceSampler(trace, 5, seed=3)
        starts = {tuple(j.job_id for j in s.sample()) for _ in range(20)}
        assert len(starts) > 1
