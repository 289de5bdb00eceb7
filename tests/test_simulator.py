"""Unit + integration tests for the discrete-event scheduling engine."""

import pytest

from repro.config import EnvConfig
from repro.schedulers import FCFS, SJF, make_scheduler
from repro.sim import SchedulingEngine, VecSchedGym, run_scheduler
from repro.sim.metrics import average_waiting_time
from repro.workloads import Job

from .test_engine_core import (  # noqa: F401  (workloads is a fixture)
    GOLDENS,
    _case_params,
    _digest,
    _resolve,
    workloads,
)


def job(jid, submit, run, procs, req_time=None, user=0):
    return Job(
        job_id=jid, submit_time=submit, run_time=run, requested_procs=procs,
        requested_time=req_time if req_time is not None else run, user_id=user,
    )


class TestEngineBasics:
    def test_empty_sequence_rejected(self):
        with pytest.raises(ValueError):
            SchedulingEngine([], 4)

    def test_oversized_job_rejected(self):
        with pytest.raises(ValueError, match="cluster has 4"):
            SchedulingEngine([job(1, 0, 10, 8)], 4)

    def test_repeated_job_id_rejected(self):
        """A row names one job, keyed by its id: two jobs with one id used
        to share a row, so FCFS / SJF / WFP3 died mid-run ("job 1 is not
        pending") and a training reset read the second job's features
        for the first.  The sequence is refused up front instead."""
        jobs = [job(1, 0, 100, 4), job(1, 1, 10, 4), job(2, 2, 5, 4)]
        match = "job 1 appears more than once"
        with pytest.raises(ValueError, match=match):
            SchedulingEngine(jobs, 4)
        for name in ("FCFS", "SJF", "WFP3"):
            with pytest.raises(ValueError, match=match):
                run_scheduler(jobs, 4, make_scheduler(name))
        with pytest.raises(ValueError, match=match):
            VecSchedGym(4, EnvConfig(max_obsv_size=4)).reset(
                [(jobs, 4, False)])

    def test_single_job_runs_immediately(self):
        engine = SchedulingEngine([job(1, 0, 100, 2)], 4)
        assert engine.advance_until_decision()
        engine.commit(engine.pending[0])
        assert not engine.advance_until_decision()
        assert engine.done
        done = engine.completed[0]
        assert done.start_time == 0.0
        assert done.end_time == 100.0

    def test_commit_requires_pending_job(self):
        engine = SchedulingEngine([job(1, 0, 10, 2), job(2, 500, 10, 2)], 4)
        engine.advance_until_decision()
        with pytest.raises(ValueError, match="not pending"):
            engine.commit(job(99, 0, 1, 1))

    def test_trace_jobs_not_mutated(self):
        original = [job(1, 0, 100, 2)]
        engine = SchedulingEngine(original, 4)
        engine.advance_until_decision()
        engine.commit(engine.pending[0])
        engine.advance_until_decision()
        assert not original[0].scheduled  # engine worked on copies

    def test_commit_waits_for_resources(self):
        jobs = [job(1, 0, 100, 4), job(2, 0, 50, 4)]
        engine = SchedulingEngine(jobs, 4)
        engine.advance_until_decision()
        j1 = next(j for j in engine.pending if j.job_id == 1)
        engine.commit(j1)
        engine.advance_until_decision()
        j2 = next(j for j in engine.pending if j.job_id == 2)
        engine.commit(j2)  # must wait until t=100
        assert j2.start_time == 100.0

    def test_arrivals_join_queue_while_waiting(self):
        jobs = [job(1, 0, 100, 4), job(2, 0, 50, 4), job(3, 10, 5, 1)]
        engine = SchedulingEngine(jobs, 4)
        engine.advance_until_decision()
        engine.commit(next(j for j in engine.pending if j.job_id == 1))
        engine.advance_until_decision()
        engine.commit(next(j for j in engine.pending if j.job_id == 2))
        # job 3 arrived at t=10 while job 2 waited until t=100
        assert {j.job_id for j in engine.pending} == {3}


class TestRunScheduler:
    def test_fcfs_order(self):
        jobs = [job(1, 0, 100, 4), job(2, 1, 10, 4), job(3, 2, 10, 4)]
        done = run_scheduler(jobs, 4, FCFS())
        starts = {j.job_id: j.start_time for j in done}
        assert starts[1] == 0.0
        assert starts[2] == 100.0
        assert starts[3] == 110.0

    def test_sjf_reorders(self):
        jobs = [job(1, 0, 100, 4), job(2, 1, 10, 4), job(3, 2, 50, 4)]
        done = run_scheduler(jobs, 4, SJF())
        starts = {j.job_id: j.start_time for j in done}
        # job1 starts first (alone at t=0); then SJF picks job2 before job3
        assert starts[2] == 100.0
        assert starts[3] == 110.0

    def test_accepts_bare_score_function(self):
        jobs = [job(1, 0, 10, 2), job(2, 0, 10, 2)]
        done = run_scheduler(jobs, 4, lambda j, now, c: -j.job_id)
        assert len(done) == 2

    def test_one_loop_for_every_decision_source(self):
        """A Scheduler, a duck-typed ``select`` object and a bare score
        function with the same priority produce the same schedule."""

        class Duck:
            def select(self, pending, now, cluster):
                return min(pending, key=lambda j: (j.requested_time, j.job_id))

        jobs = [job(i, i // 3, 5 + (7 * i) % 11, 1 + i % 4) for i in range(1, 30)]
        want = [(j.job_id, j.start_time) for j in run_scheduler(jobs, 4, SJF())]
        for source in (Duck(), lambda j, now, c: j.requested_time):
            done = run_scheduler(jobs, 4, source)
            assert [(j.job_id, j.start_time) for j in done] == want

    def test_all_jobs_complete(self, lublin_trace):
        seq = [j.copy() for j in lublin_trace.jobs[:80]]
        done = run_scheduler(seq, lublin_trace.max_procs, SJF())
        assert len(done) == 80
        assert all(j.scheduled for j in done)

    def test_start_never_before_submit(self, lublin_trace):
        seq = [j.copy() for j in lublin_trace.jobs[:80]]
        done = run_scheduler(seq, lublin_trace.max_procs, FCFS())
        assert all(j.start_time >= j.submit_time for j in done)


class TestBackfilling:
    def test_backfill_reduces_waiting(self, sdsc_trace):
        seq = [j.copy() for j in sdsc_trace.jobs[200:500]]
        plain = run_scheduler(seq, sdsc_trace.max_procs, FCFS(), backfill=False)
        filled = run_scheduler(seq, sdsc_trace.max_procs, FCFS(), backfill=True)
        assert average_waiting_time(filled) <= average_waiting_time(plain)

    def test_backfill_textbook_case(self):
        """Classic EASY example: a short narrow job jumps a blocked wide one."""
        jobs = [
            job(1, 0, 100, 3),            # runs immediately, holds 3/4
            job(2, 1, 50, 4),             # must wait for all 4 procs (t=100)
            job(3, 2, 50, 1, req_time=50) # fits the hole, ends at t<=100
        ]
        done = run_scheduler(jobs, 4, FCFS(), backfill=True)
        starts = {j.job_id: j.start_time for j in done}
        assert starts[3] < starts[2]          # backfilled ahead
        assert starts[2] == 100.0             # head job NOT delayed

    def test_backfill_never_delays_head_job(self):
        """A long candidate that would push the head job back must not run."""
        jobs = [
            job(1, 0, 100, 3),
            job(2, 1, 50, 4),
            job(3, 2, 500, 1, req_time=500),  # would overrun shadow, extra=0
        ]
        done = run_scheduler(jobs, 4, FCFS(), backfill=True)
        starts = {j.job_id: j.start_time for j in done}
        assert starts[2] == 100.0
        assert starts[3] >= 100.0

    def test_completion_count_with_backfill(self, lublin_trace):
        seq = [j.copy() for j in lublin_trace.jobs[:120]]
        done = run_scheduler(seq, lublin_trace.max_procs, SJF(), backfill=True)
        assert len(done) == 120


class TestDeterminism:
    def test_same_inputs_same_schedule(self, lublin_trace):
        seq = [j.copy() for j in lublin_trace.jobs[:60]]
        d1 = run_scheduler(seq, lublin_trace.max_procs, SJF(), backfill=True)
        d2 = run_scheduler(seq, lublin_trace.max_procs, SJF(), backfill=True)
        s1 = sorted((j.job_id, j.start_time) for j in d1)
        s2 = sorted((j.job_id, j.start_time) for j in d2)
        assert s1 == s2


class TestHotPathInvariants:
    """The vectorised observation path relies on these engine properties."""

    def test_pending_always_fcfs_sorted(self, lublin_trace):
        from repro.sim import SchedulingEngine

        seq = [j.copy() for j in lublin_trace.jobs[:80]]
        engine = SchedulingEngine(seq, lublin_trace.max_procs, backfill=True)
        while engine.advance_until_decision():
            keys = [(j.submit_time, j.job_id) for j in engine.pending]
            assert keys == sorted(keys)
            # SJF-style pick from the middle exercises mid-list removal
            engine.commit(min(engine.pending, key=lambda j: j.requested_time))
        assert engine.done

    def test_commit_foreign_job_raises(self, tiny_jobs):
        from repro.sim import SchedulingEngine
        from repro.workloads import Job

        engine = SchedulingEngine(tiny_jobs, 4)
        engine.advance_until_decision()
        foreign = Job(job_id=99, submit_time=0.0, run_time=5.0, requested_procs=1)
        with pytest.raises(ValueError, match="not pending"):
            engine.commit(foreign)

    def test_running_property_in_start_order(self, tiny_jobs):
        from repro.sim import SchedulingEngine

        engine = SchedulingEngine(tiny_jobs, 4)
        engine.advance_until_decision()
        engine.commit(next(j for j in engine.pending if j.job_id == 1))
        engine.advance_until_decision()
        engine.commit(next(j for j in engine.pending if j.job_id == 2))
        assert [j.job_id for j in engine.running_view] == [1, 2]
        # job 3 needs the full machine: committing it drains 1 and 2 first
        engine.advance_until_decision()
        engine.commit(next(j for j in engine.pending if j.job_id == 3))
        assert [j.job_id for j in engine.running_view] == [3]


class TestRunningView:
    def test_running_view_is_live_and_uncopied(self, tiny_jobs):
        engine = SchedulingEngine(tiny_jobs, 4)
        view = engine.running_view
        assert len(view) == 0
        engine.advance_until_decision()
        engine.commit(engine.pending[0])
        assert [j.job_id for j in view] == [1]  # same view, now one job


class TestBoundRunGoldens:
    """``run_scheduler`` binds schedulers (ranked / hoisted picks) where the
    engine goldens call ``select``: the completion schedules must agree."""

    @pytest.mark.parametrize("case_key", _case_params())
    def test_bound_run_reproduces_golden_schedule(self, case_key, workloads):
        golden = GOLDENS["cases"][case_key]
        seq, cluster, scheduler, backfill = _resolve(case_key, workloads)
        done = run_scheduler(seq, cluster, scheduler, backfill=backfill)
        completed = [(j.job_id, j.start_time) for j in done]
        assert _digest(completed) == golden["completed_digest"]
