"""Backfill edge cases under multi-resource (processor + memory) constraints:
procs-fit-but-memory-doesn't candidates, shadow-reservation correctness with
memory in the release plan, and empty-queue no-ops."""

import pytest

from repro.sim import (
    Cluster,
    SchedulingEngine,
    backfill_candidates,
    conservative_backfill_candidates,
    shadow_state,
)
from repro.workloads import Job


def job(jid, procs, req_time, submit=0.0, run=None, mem=-1.0):
    return Job(
        job_id=jid,
        submit_time=submit,
        run_time=run if run is not None else req_time,
        requested_procs=procs,
        requested_time=req_time,
        requested_mem=mem,
    )


def running_job(jid, procs, req_time, start, mem=-1.0):
    j = job(jid, procs, req_time, mem=mem)
    j.start_time = start
    return j


class TestShadowState:
    def test_memory_delays_shadow_beyond_processor_fit(self):
        """Head fits procs at the first release but memory only at the
        second — the shadow is the *later* instant."""
        c = Cluster(8, memory=10.0)
        r1 = running_job(1, 4, req_time=100, start=0.0, mem=0.5)  # 2 mem, ends 100
        r2 = running_job(2, 2, req_time=200, start=0.0, mem=3.0)  # 6 mem, ends 200
        c.allocate(r1)
        c.allocate(r2)
        head = job(3, 4, 50, mem=1.5)  # needs 4 procs + 6 mem
        # at t=100: procs free 2+4=6 >= 4, mem free 2+2=4 < 6 -> not yet
        # at t=200: mem free 4+6=10 >= 6 -> shadow
        shadow, extra, extra_mem = shadow_state(head, [r1, r2], c, now=0.0)
        assert shadow == 200.0
        assert extra == 8 - 4
        assert extra_mem == pytest.approx(10.0 - 6.0)

    def test_full_capacity_head_survives_release_order_drift(self):
        """Regression: reassembling the free pool by float summation in
        release order can land an ulp below capacity; a head job that
        demands exactly the cluster memory must still plan a start."""
        c = Cluster(8, memory=10.0)
        runners = [
            running_job(1, 1, req_time=100, start=0.0, mem=0.1),
            running_job(2, 1, req_time=200, start=0.0, mem=0.2),
            running_job(3, 1, req_time=300, start=0.0, mem=0.3),
        ]
        for r in runners:
            c.allocate(r)
        # 10 - 0.1 - 0.2 - 0.3 then + 0.1 + 0.2 + 0.3 reassembles to
        # 9.999999999999998 < 10.0 — the drift this test pins down.
        head = job(4, 8, 50, submit=1.0, mem=1.25)  # exactly 10 mem
        shadow, extra, extra_mem = shadow_state(head, runners, c, now=0.0)
        assert shadow == 300.0
        assert extra == 0
        assert extra_mem == 0.0  # clamped, never an ulp-negative budget

    def test_unconstrained_extra_mem_is_inf(self):
        import math

        c = Cluster(8)
        head = job(1, 4, 100)
        shadow, extra, extra_mem = shadow_state(head, [], c, now=5.0)
        assert shadow == 5.0 and extra == 4
        assert math.isinf(extra_mem)


class TestCandidatesUnderMemory:
    def _blocked_head(self):
        """8 procs / 10 mem; 6 procs + 6 mem busy until t=100; head wants
        everything, so shadow = 100 and extra = extra_mem = 0."""
        c = Cluster(8, memory=10.0)
        r = running_job(1, 6, req_time=100, start=0.0, mem=1.0)  # 6 mem
        c.allocate(r)
        head = job(2, 8, 50, submit=1.0, mem=1.25)  # 10 mem at shadow
        return c, r, head

    def test_fits_procs_but_not_memory_is_skipped(self):
        c, r, head = self._blocked_head()
        # 2 procs / 4 mem free; candidate fits procs and ends before the
        # shadow, but wants 2*2.5 = 5 mem > 4 free.
        cand = job(3, 2, 90, submit=2.0, mem=2.5)
        assert backfill_candidates(head, [head, cand], [r], c, now=0.0) == []
        assert conservative_backfill_candidates(
            head, [head, cand], [r], c, now=0.0
        ) == []

    def test_same_candidate_accepted_when_memory_fits(self):
        c, r, head = self._blocked_head()
        cand = job(3, 2, 90, submit=2.0, mem=2.0)  # 4 mem == 4 free
        assert backfill_candidates(head, [head, cand], [r], c, now=0.0) == [cand]

    def test_memory_extra_budget_blocks_shadow_overrun(self):
        """A candidate that overruns the shadow must fit the *memory*
        head-room reserved for the head job, not just the processor one."""
        c = Cluster(8, memory=10.0)
        r = running_job(1, 6, req_time=100, start=0.0, mem=1.0)  # 6 mem
        c.allocate(r)
        head = job(2, 4, 50, submit=1.0, mem=1.5)  # at shadow: extra=4, extra_mem=4
        # Overruns shadow; 2 procs <= extra 4, but 2*2.5=5 mem > extra_mem 4.
        over_mem = job(3, 2, 1000, submit=2.0, mem=2.5)
        assert backfill_candidates(head, [head, over_mem], [r], c, now=0.0) == []
        # Same shape within the memory budget is accepted.
        ok = job(4, 2, 1000, submit=2.0, mem=2.0)
        assert backfill_candidates(head, [head, ok], [r], c, now=0.0) == [ok]

    def test_memory_extra_budget_consumed_in_order(self):
        c = Cluster(8, memory=10.0)
        r = running_job(1, 4, req_time=100, start=0.0, mem=0.5)  # 2 mem
        c.allocate(r)
        # Head needs 6 procs (> 4 free): shadow = 100, where extra = 2
        # procs and extra_mem = 10 - 3 = 7.
        head = job(2, 6, 50, submit=1.0, mem=0.5)
        # Both candidates overrun the shadow; each consumes 4 of extra_mem.
        c1 = job(3, 1, 1000, submit=2.0, mem=4.0)
        c2 = job(4, 1, 1000, submit=3.0, mem=4.0)
        chosen = backfill_candidates(head, [head, c1, c2], [r], c, now=0.0)
        # c1 leaves extra_mem = 3 < 4, so c2 is rejected on memory alone
        # (its single proc would still fit extra = 1).
        assert chosen == [c1]

    def test_empty_queue_is_a_noop(self):
        c, r, head = self._blocked_head()
        assert backfill_candidates(head, [head], [r], c, now=0.0) == []
        assert backfill_candidates(head, [], [r], c, now=0.0) == []
        assert conservative_backfill_candidates(head, [], [r], c, now=0.0) == []


class TestEngineShadowReservation:
    def test_backfill_never_delays_head_under_memory_pressure(self):
        """Engine-level shadow-reservation correctness: with EASY backfill
        on a memory-constrained cluster, the committed head job must start
        no later than its planned shadow time."""
        from repro.sim.cluster import ClusterSpec

        jobs = [
            job(1, 6, 100, submit=0.0, mem=1.0),   # occupies 6 procs/6 mem
            job(2, 8, 50, submit=1.0, mem=1.25),   # the head: full machine
            job(3, 2, 40, submit=2.0, mem=2.0),    # backfillable (4 mem)
            job(4, 2, 40, submit=3.0, mem=2.5),    # procs fit, memory not
        ]
        engine = SchedulingEngine(
            jobs, ClusterSpec(8, memory=10.0), backfill=True
        )
        engine.advance_until_decision()
        # FCFS walk: job 1 starts immediately; commit job 2 (blocked head).
        engine.commit(engine.pending[0])
        engine.advance_until_decision()
        head = engine.pending[0]
        assert head.job_id == 2
        shadow, _, _ = shadow_state(
            head, list(engine.running_view), engine.cluster, engine.now
        )
        engine.commit(head)
        assert head.start_time <= shadow
        # Job 3 was backfilled before the head started; job 4 was not.
        j3 = next(j for j in engine.jobs if j.job_id == 3)
        assert j3.start_time >= 0 and j3.start_time < head.start_time
        while engine.advance_until_decision():
            engine.commit(engine.pending[0])
        assert engine.done

    def test_commit_with_only_head_pending_waits_cleanly(self):
        """Empty-queue no-op at engine level: committing the only pending
        job triggers backfill passes over an empty candidate set."""
        from repro.sim.cluster import ClusterSpec

        jobs = [
            job(1, 8, 60, submit=0.0, mem=1.0),
            job(2, 8, 60, submit=1.0, mem=1.0),
        ]
        engine = SchedulingEngine(jobs, ClusterSpec(8, memory=10.0), backfill=True)
        engine.advance_until_decision()
        engine.commit(engine.pending[0])
        engine.advance_until_decision()
        engine.commit(engine.pending[0])  # must wait for job 1; no candidates
        assert engine.jobs[1].start_time == pytest.approx(60.0)
        while engine.advance_until_decision():
            engine.commit(engine.pending[0])
        assert engine.done
