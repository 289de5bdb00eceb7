"""Unit tests for scheduling metrics (paper §II-A3 definitions)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.metrics import (
    BSLD_THRESHOLD,
    METRICS,
    average_bounded_slowdown,
    average_response_time,
    average_slowdown,
    average_waiting_time,
    fairness_aggregate,
    job_bounded_slowdown,
    job_response_time,
    job_slowdown,
    job_waiting_time,
    makespan,
    metric_by_name,
    per_user_metric,
    resource_utilization,
)
from repro.workloads import Job


def done_job(jid=1, submit=0.0, start=10.0, run=100.0, procs=2, user=1):
    j = Job(job_id=jid, submit_time=submit, run_time=run, requested_procs=procs,
            user_id=user)
    j.start_time = start
    return j


class TestPerJob:
    def test_waiting_time(self):
        assert job_waiting_time(done_job(submit=5.0, start=25.0)) == 20.0

    def test_response_time(self):
        assert job_response_time(done_job(submit=0, start=10, run=100)) == 110.0

    def test_slowdown(self):
        assert job_slowdown(done_job(submit=0, start=50, run=100)) == 1.5

    def test_bounded_slowdown_long_job(self):
        # runtime 100 > threshold: bsld == slowdown
        j = done_job(submit=0, start=50, run=100)
        assert job_bounded_slowdown(j) == pytest.approx(1.5)

    def test_bounded_slowdown_short_job_uses_threshold(self):
        # runtime 1s, waited 9s: raw slowdown = 10, bounded = (9+1)/10 = 1
        j = done_job(submit=0, start=9, run=1)
        assert job_slowdown(j) == pytest.approx(10.0)
        assert job_bounded_slowdown(j) == pytest.approx(1.0)

    def test_bounded_slowdown_floor_is_one(self):
        j = done_job(submit=0, start=0, run=1)  # no wait at all
        assert job_bounded_slowdown(j) == 1.0

    def test_custom_threshold(self):
        j = done_job(submit=0, start=60, run=30)
        assert job_bounded_slowdown(j, threshold=60.0) == pytest.approx(1.5)


class TestAverages:
    def test_average_waiting_time(self):
        jobs = [done_job(1, 0, 10), done_job(2, 0, 30)]
        assert average_waiting_time(jobs) == 20.0

    def test_average_response_time(self):
        jobs = [done_job(1, 0, 10, run=10), done_job(2, 0, 30, run=10)]
        assert average_response_time(jobs) == 30.0

    def test_averages_reject_unscheduled(self):
        j = Job(job_id=1, submit_time=0, run_time=10, requested_procs=1)
        with pytest.raises(ValueError, match="never scheduled"):
            average_waiting_time([j])

    def test_bsld_always_at_least_one(self):
        jobs = [done_job(i, 0, 0, run=1) for i in range(5)]
        assert average_bounded_slowdown(jobs) == 1.0

    def test_slowdown_at_least_bsld(self):
        jobs = [done_job(1, 0, 100, run=2), done_job(2, 0, 5, run=50)]
        assert average_slowdown(jobs) >= average_bounded_slowdown(jobs)


@st.composite
def completed_jobs(draw):
    """Completed-job lists with interactive (``run_time`` < 10), exactly
    threshold-long and zero-runtime jobs among them."""
    jobs = []
    for i in range(draw(st.integers(1, 12))):
        submit = draw(st.floats(0.0, 1e6))
        wait = draw(st.one_of(st.just(0.0), st.floats(0.0, 1e5)))
        run = draw(st.one_of(
            st.sampled_from([0.0, 1e-12, 0.5, 9.999, 10.0, 10.001]),
            st.floats(0.0, 1e5),
        ))
        jobs.append(done_job(i, submit=submit, start=submit + wait, run=run))
    return jobs


@settings(max_examples=200, deadline=None)
@given(completed_jobs(), st.sampled_from([BSLD_THRESHOLD, 1.0, 60.0]))
def test_averages_are_the_mean_of_the_per_job_functions(jobs, threshold):
    """The averages spell the per-job quantities out in place; the
    ``job_*`` functions are the definition.  Same float operations in the
    same order, so ``==`` — not ``approx``."""
    def mean(values):
        return float(np.mean(values))

    assert average_waiting_time(jobs) == mean([job_waiting_time(j) for j in jobs])
    assert average_response_time(jobs) == mean(
        [job_response_time(j) for j in jobs]
    )
    assert average_slowdown(jobs) == mean([job_slowdown(j) for j in jobs])
    assert average_bounded_slowdown(jobs) == mean(
        [job_bounded_slowdown(j) for j in jobs]
    )
    assert average_bounded_slowdown(jobs, threshold) == mean(
        [job_bounded_slowdown(j, threshold) for j in jobs]
    )


def test_every_average_rejects_an_unscheduled_job_by_name():
    jobs = [done_job(1), Job(job_id=2, submit_time=0, run_time=10, requested_procs=1)]
    for average in (average_waiting_time, average_response_time,
                    average_slowdown, average_bounded_slowdown):
        with pytest.raises(ValueError, match="job 2 was never scheduled"):
            average(jobs)


class TestUtilization:
    def test_perfect_utilization(self):
        # 2 jobs × 2 procs × 100s back-to-back on a 4-proc cluster
        jobs = [
            done_job(1, submit=0, start=0, run=100, procs=4),
        ]
        assert resource_utilization(jobs, 4) == pytest.approx(1.0)

    def test_half_utilization(self):
        jobs = [done_job(1, submit=0, start=0, run=100, procs=2)]
        assert resource_utilization(jobs, 4) == pytest.approx(0.5)

    def test_makespan(self):
        jobs = [done_job(1, 0, 0, run=50), done_job(2, 10, 60, run=40)]
        assert makespan(jobs) == 100.0

    def test_util_rejects_bad_procs(self):
        with pytest.raises(ValueError):
            resource_utilization([done_job()], 0)


class TestFairness:
    def test_per_user_split(self):
        jobs = [
            done_job(1, 0, 0, run=100, user=1),      # bsld 1
            done_job(2, 0, 900, run=100, user=2),    # bsld 10
        ]
        per_user = per_user_metric(jobs)
        assert per_user[1] == pytest.approx(1.0)
        assert per_user[2] == pytest.approx(10.0)

    def test_max_aggregator(self):
        jobs = [
            done_job(1, 0, 0, run=100, user=1),
            done_job(2, 0, 900, run=100, user=2),
        ]
        assert fairness_aggregate(jobs, aggregator="max") == pytest.approx(10.0)
        assert fairness_aggregate(jobs, aggregator="mean") == pytest.approx(5.5)

    def test_unknown_aggregator(self):
        with pytest.raises(ValueError):
            fairness_aggregate([done_job()], aggregator="median")


class TestRegistry:
    def test_all_paper_metrics_present(self):
        for name in ["bsld", "slowdown", "wait", "resp", "util"]:
            assert name in METRICS

    def test_direction_flags(self):
        assert metric_by_name("util")[1] is True      # maximise
        assert metric_by_name("bsld")[1] is False     # minimise

    def test_unknown_metric(self):
        with pytest.raises(KeyError, match="unknown metric"):
            metric_by_name("nope")

    def test_registry_functions_run(self):
        jobs = [done_job(1, 0, 10, run=100, procs=2)]
        for name, (fn, _) in METRICS.items():
            value = fn(jobs, 4)
            assert isinstance(value, float)
