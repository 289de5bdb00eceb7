"""Engine-split pins: batch goldens + online ``submit()`` equivalence.

The golden cases in ``tests/data/engine_goldens.json`` were captured from
the pre-split ``SchedulingEngine`` (before ``EngineCore`` was extracted).
The refactored batch engine must reproduce every decision log and
completion schedule bit-for-bit, and replaying the same sampled sequences
through ``OnlineSchedulingEngine.submit()`` — one submission at a time,
pumping decisions between arrivals so commits genuinely stall and resume
at the horizon — must land on the identical decision log.
"""

import hashlib
import json
import math
from pathlib import Path

import pytest

from repro.scenarios import get_scenario
from repro.schedulers import make_scheduler
from repro.sim import ClusterSpec, OnlineSchedulingEngine, SchedulingEngine
from repro.workloads import SequenceSampler, load_trace
from repro.workloads.job import Job

GOLDENS = json.loads(
    (Path(__file__).parent / "data" / "engine_goldens.json").read_text()
)


def _digest(obj):
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


@pytest.fixture(scope="module")
def workloads():
    meta = GOLDENS["workload"]
    trace = load_trace(meta["trace"], n_jobs=meta["n_jobs"], seed=meta["seed"])
    seqs = SequenceSampler(
        trace, meta["seq_len"], seed=meta["sampler_seed"]
    ).sample_many(2)
    mem_scen = get_scenario(meta["mem_scenario"])
    mem_trace = mem_scen.build_trace(n_jobs=meta["mem_n_jobs"])
    mem_seq = SequenceSampler(
        mem_trace, meta["seq_len"], seed=meta["sampler_seed"]
    ).sample_many(1)[0]
    cases = {}
    for si, seq in enumerate(seqs):
        cases[f"lublin/{si}"] = (seq, ClusterSpec(trace.max_procs))
    cases["mem"] = (mem_seq, mem_scen.cluster)
    return cases


def _case_params():
    return sorted(GOLDENS["cases"])


def _resolve(case_key, workloads):
    parts = case_key.split("/")
    if parts[0] == "mem":
        _, sched, bf = parts
        seq, cluster = workloads["mem"]
    else:
        _, si, sched, bf = parts
        seq, cluster = workloads[f"lublin/{si}"]
    backfill = False if bf == "False" else bf
    return seq, cluster, make_scheduler(sched), backfill


def batch_decision_log(jobs, cluster, scheduler, backfill):
    engine = SchedulingEngine(jobs, cluster, backfill=backfill)
    log = []
    while engine.advance_until_decision():
        best = scheduler.select(engine.pending, engine.now, engine.cluster)
        log.append((best.job_id, engine.now))
        engine.commit(best)
    assert engine.done
    completed = [(j.job_id, j.start_time) for j in engine.completed]
    return log, completed


def online_decision_log(jobs, cluster, scheduler, backfill):
    """Replay ``jobs`` through submit()/advance(), one arrival at a time.

    Decisions are pumped after every submission, so commits stall at the
    horizon whenever the chosen job cannot start before the next arrival
    is known — exercising the stall/resume path on every sequence.
    """
    engine = OnlineSchedulingEngine(cluster, backfill=backfill)
    log, completed, stalls = [], [], 0

    def pump():
        nonlocal stalls
        while engine.next_decision():
            best = scheduler.select(engine.pending, engine.now, engine.cluster)
            log.append((best.job_id, engine.now))
            if not engine.commit(best):
                stalls += 1
                return
        completed.extend(
            (j.job_id, j.start_time) for j in engine.take_completed()
        )

    for job in sorted(jobs, key=lambda j: (j.submit_time, j.job_id)):
        engine.submit(job)
        pump()
    engine.drain()
    pump()
    assert engine.idle, "engine not quiescent after drain"
    completed.extend((j.job_id, j.start_time) for j in engine.take_completed())
    return log, completed, stalls


class TestBatchGoldens:
    """The refactored batch engine is bit-identical to the pre-split one."""

    @pytest.mark.parametrize("case_key", _case_params())
    def test_golden(self, case_key, workloads):
        golden = GOLDENS["cases"][case_key]
        seq, cluster, scheduler, backfill = _resolve(case_key, workloads)
        log, completed = batch_decision_log(seq, cluster, scheduler, backfill)
        assert len(log) == golden["n_decisions"]
        assert [d[0] for d in log[:12]] == golden["first_decisions"]
        assert _digest(log) == golden["decision_digest"]
        assert _digest(completed) == golden["completed_digest"]
        assert max(c[1] for c in completed) == pytest.approx(
            golden["makespan"], abs=0
        )


class TestOnlineEquivalence:
    """submit()-replay reproduces the batch decision log exactly."""

    @pytest.mark.parametrize("case_key", _case_params())
    def test_replay_matches_batch(self, case_key, workloads):
        golden = GOLDENS["cases"][case_key]
        seq, cluster, scheduler, backfill = _resolve(case_key, workloads)
        log, completed, stalls = online_decision_log(
            seq, cluster, scheduler, backfill
        )
        assert _digest(log) == golden["decision_digest"]
        # completion order can differ only in harvest batching, not content
        assert _digest(sorted(completed)) == _digest(
            sorted(
                batch_decision_log(seq, cluster, scheduler, backfill)[1]
            )
        )

    def test_replay_actually_stalls(self, workloads):
        # the equivalence above is vacuous unless commits really pause at
        # the horizon and resume; assert the path is exercised
        seq, cluster = workloads["lublin/0"]
        _, _, stalls = online_decision_log(
            seq, cluster, make_scheduler("FCFS"), "easy"
        )
        assert stalls > 0


def _job(job_id, submit, run=10.0, procs=1, req=None):
    return Job(
        job_id=job_id,
        submit_time=submit,
        run_time=run,
        requested_procs=procs,
        requested_time=req if req is not None else run,
        user_id=0,
    )


class TestOnlineEngine:
    def test_submit_validates_against_spec(self):
        engine = OnlineSchedulingEngine(ClusterSpec(4))
        with pytest.raises(ValueError, match="requests 8 procs"):
            engine.submit(_job(1, 0.0, procs=8))

    def test_duplicate_submit_rejected(self):
        engine = OnlineSchedulingEngine(ClusterSpec(4))
        engine.submit(_job(1, 0.0))
        with pytest.raises(ValueError, match="already known"):
            engine.submit(_job(1, 5.0))

    def test_submit_copies_and_clamps_late_arrivals(self):
        engine = OnlineSchedulingEngine(ClusterSpec(4))
        engine.submit(_job(1, 100.0))
        assert engine.next_decision()
        engine.commit(engine.pending[0])
        assert engine.now == 100.0
        original = _job(2, 3.0)  # "arrives" long before the clock
        admitted = engine.submit(original)
        assert admitted is not original  # engine owns a copy
        assert original.submit_time == 3.0  # caller's object untouched
        assert admitted.submit_time == 100.0  # clamped to now
        assert engine.next_decision()
        assert engine.pending[0].job_id == 2

    def test_late_and_tying_submissions_are_admitted_in_fcfs_order(self):
        """A submission earlier than one not yet admitted, and one tying
        its time with a smaller job id, are sorted in ahead of it: the
        queue is the batch engine's, not the order of the calls."""
        jobs = [_job(9, 10.0), _job(4, 5.0), _job(7, 10.0), _job(3, 10.0)]
        engine = OnlineSchedulingEngine(ClusterSpec(1))
        for job in jobs:  # 10 | 5 before it | 10 again | 10 with id 3 < 7 < 9
            engine.submit(job)
        assert engine.horizon == 10.0 and not engine.idle
        log = []
        while engine.next_decision():
            log.append((engine.pending[0].job_id, engine.now))
            if not engine.commit(engine.pending[0]):
                break
        # job 4 runs 5 -> 15; the commit of job 3 stalls on that finish
        # with all of the t=10 arrivals admitted behind it, by id
        assert log == [(4, 5.0), (3, 10.0)]
        assert [j.job_id for j in engine.pending] == [3, 7, 9]
        assert engine.pending_rows == [3, 2, 0]  # rows follow submissions
        engine.drain()
        while engine.next_decision():
            log.append((engine.pending[0].job_id, engine.now))
            engine.commit(engine.pending[0])
        batch = SchedulingEngine(jobs, ClusterSpec(1))
        want = []
        while batch.advance_until_decision():
            want.append((batch.pending[0].job_id, batch.now))
            batch.commit(batch.pending[0])
        # the stalled commit of job 3 is one decision, logged once
        assert log == want == [(4, 5.0), (3, 10.0), (7, 15.0), (9, 25.0)]

    def test_a_tying_arrival_may_displace_the_committed_job(self):
        """The committed job's queue index is carried through the wait; an
        arrival clamped to ``now`` with a smaller id sorts in ahead of it,
        and the job that finally starts is still the committed one."""
        engine = OnlineSchedulingEngine(ClusterSpec(4))
        engine.submit(_job(1, 0.0, run=20.0, procs=4))
        assert engine.next_decision() and engine.commit(engine.pending[0])
        engine.submit(_job(8, 10.0, procs=4))
        assert engine.next_decision()
        assert not engine.commit(engine.pending[0])  # stalls at t=10
        late = engine.submit(_job(5, 2.0, procs=4))  # clamped to now=10, id < 8
        assert late.submit_time == 10.0
        engine.drain()
        assert engine.next_decision()  # job 8 started; job 5 awaits its turn
        assert [j.job_id for j in engine.pending] == [5]
        assert [(j.job_id, j.start_time) for j in engine.take_started()] == [
            (1, 0.0), (8, 20.0),
        ]

    def test_arrival_buffer_holds_the_live_set_only(self):
        """10 000 submit / pump / harvest cycles: what was admitted leaves
        the arrival buffer at the next submission, so a long-lived daemon's
        engine does not grow with the jobs it has served."""
        engine = OnlineSchedulingEngine(ClusterSpec(4), backfill="easy")
        deepest = 0
        for i in range(10_000):
            engine.submit(_job(i, float(i), run=2.5, procs=1 + i % 2))
            while engine.next_decision():
                if not engine.commit(engine.pending[0]):
                    break
            engine.take_started()
            engine.take_completed()
            deepest = max(deepest, len(engine._arrivals))
        assert deepest <= 2
        assert len(engine._row_of) <= 8 and len(engine._finishes) <= 4
        engine.drain()
        while engine.next_decision():
            engine.commit(engine.pending[0])
        assert engine.idle and engine.n_events == 20_000

    def test_commit_stalls_and_resumes_at_horizon(self):
        engine = OnlineSchedulingEngine(ClusterSpec(4))
        engine.submit(_job(1, 0.0, run=50.0, procs=4))
        assert engine.next_decision()
        assert engine.commit(engine.pending[0])
        # job 2 needs the whole cluster; the finish event at t=50 is
        # beyond the horizon (t=1), so the commit must stall
        engine.submit(_job(2, 1.0, procs=4))
        assert engine.next_decision()
        assert not engine.commit(engine.pending[0])
        assert engine.inflight is not None and engine.inflight.job_id == 2
        # a later observation lifts the horizon past the finish: resume
        engine.advance(60.0)
        assert not engine.next_decision()  # resumed; nothing else pending
        assert engine.inflight is None
        # job 2 started at t=50 and its finish (t=60) is inside the horizon
        done = {j.job_id: j.start_time for j in engine.take_completed()}
        assert done == {1: 0.0, 2: 50.0}
        assert engine.now == 60.0

    def test_commit_other_job_while_inflight_raises(self):
        engine = OnlineSchedulingEngine(ClusterSpec(4))
        engine.submit(_job(1, 0.0, run=50.0, procs=4))
        engine.next_decision()
        engine.commit(engine.pending[0])
        engine.submit(_job(2, 1.0, procs=4))
        engine.submit(_job(3, 2.0, procs=4))
        engine.next_decision()
        assert not engine.commit(engine.pending[0])
        other = engine.pending[1]
        with pytest.raises(RuntimeError, match="already in flight"):
            engine.commit(other)

    def test_take_completed_releases_rows(self):
        engine = OnlineSchedulingEngine(ClusterSpec(4))
        for i in range(5):
            engine.submit(_job(i, float(i)))
        while engine.next_decision():
            engine.commit(engine.pending[0])
        engine.drain()
        while engine.next_decision():
            engine.commit(engine.pending[0])
        done = engine.take_completed()
        assert sorted(j.job_id for j in done) == list(range(5))
        assert engine._row_of == {}  # bookkeeping fully released
        assert engine.take_completed() == []
        assert engine.idle
        # ids can be reused after harvest — a daemon recycles id space
        engine.submit(_job(1, engine.now))
        assert engine.next_decision()

    def test_take_started_reports_every_start_once_in_start_order(self):
        """Committed, backfilled and resumed-after-a-stall starts alike:
        the harvested deltas add up to the engine's own start order."""
        engine = OnlineSchedulingEngine(ClusterSpec(4), backfill="easy")
        assert engine.take_started() == []
        engine.submit(_job(1, 0.0, run=50.0, procs=3))
        engine.submit(_job(2, 1.0, run=10.0, procs=4))  # head: must wait
        engine.submit(_job(3, 2.0, run=5.0, procs=1))   # backfills beside 1
        seen = []
        while engine.next_decision():
            if not engine.commit(engine.pending[0]):
                break
        seen.append([j.job_id for j in engine.take_started()])
        assert seen == [[1, 3]]  # 2 stalled at the horizon, 3 backfilled
        assert engine.take_started() == []
        assert {j.job_id for j in engine.running_view} == {1, 3}
        engine.drain()
        while engine.next_decision():
            engine.commit(engine.pending[0])
        started = engine.take_started()
        assert [j.job_id for j in started] == [2]  # the resumed commit
        assert started[0].start_time == 50.0
        assert engine.idle

    def test_counters(self):
        engine = OnlineSchedulingEngine(ClusterSpec(4))
        for i in range(3):
            engine.submit(_job(i, float(i)))
        assert engine.n_submitted == 3
        engine.drain()
        while engine.next_decision():
            engine.commit(engine.pending[0])
        assert engine.n_started == 3

    def test_horizon_monotonic(self):
        engine = OnlineSchedulingEngine(ClusterSpec(4))
        engine.advance(10.0)
        engine.advance(5.0)
        assert engine.horizon == 10.0
        engine.drain()
        assert engine.horizon == math.inf
