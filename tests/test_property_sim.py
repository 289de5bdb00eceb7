"""Property-based tests on simulator + metrics invariants over random
workloads and both backfilling modes, plus the decision-loop equivalences
the engine's incremental paths rest on: the engine's backfill planner
against the public reference functions, every bound pick (heuristic or
RL) against ``select``, every RL lock-step run against
``run_scheduler``, online replay under arbitrary ``advance()`` chunking
against the batch decision log (a served RL tenant against
``run_scheduler`` too), and the pending-queue invariants after every
event — and the ragged observation
path against its padded oracle: every ``VecSchedGym`` wave, padded out,
against the per-job loop encoder, and each of its runs against a lone
``SchedGym`` episode."""

import heapq
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

from repro.config import EnvConfig, TenantConfig
from repro.nn import KernelPolicy, make_policy
from repro.schedulers import (
    ALL_HEURISTICS,
    FCFS,
    SJF,
    UNICEP,
    WFP3,
    RLSchedulerPolicy,
    Scheduler,
    make_scheduler,
)
from repro.sim import (
    ClusterSpec,
    FeatureCache,
    OnlineSchedulingEngine,
    SchedGym,
    SchedulingEngine,
    VecSchedGym,
    backfill_candidates,
    conservative_backfill_candidates,
    mem_demand,
    observation_rows,
    run_scheduler,
)
from repro.sim.metrics import (
    average_bounded_slowdown,
    average_slowdown,
    average_waiting_time,
    job_bounded_slowdown,
    resource_utilization,
)
from repro.nn.ragged import pad_observations
from repro.serve import SchedulerService, job_to_wire
from repro.workloads import Job

from .reference import build_observation_loop, pad_window

N_PROCS = 16


@st.composite
def job_sequences(draw, max_jobs=25, memory=False):
    """Jobs of 1..N_PROCS processors; with ``memory``, each also asks for
    memory per processor (a power of two, at most ``TOTAL_MEM`` in all,
    so a one-processor job can take the whole memory and memory binds
    where processors do not) or none (the SWF ``-1`` sentinel)."""
    n = draw(st.integers(min_value=1, max_value=max_jobs))
    jobs = []
    t = 0.0
    for i in range(n):
        t += draw(st.floats(min_value=0.0, max_value=500.0))
        run = draw(st.floats(min_value=1.0, max_value=5000.0))
        over = draw(st.floats(min_value=1.0, max_value=10.0))
        procs = draw(st.integers(1, N_PROCS))
        mem = -1.0
        if memory:
            mem = draw(st.sampled_from(
                [m for m in (-1.0, 0.5, 2.0, 8.0, 32.0) if m * procs <= TOTAL_MEM]
            ))
        jobs.append(
            Job(
                job_id=i + 1,
                submit_time=t,
                run_time=run,
                requested_procs=procs,
                requested_time=run * over,
                requested_mem=mem,
                user_id=draw(st.integers(0, 3)),
            )
        )
    return jobs


SCHEDULERS = [FCFS(), SJF(), WFP3(), UNICEP()]


@settings(max_examples=40, deadline=None)
@given(job_sequences(), st.booleans(), st.sampled_from(SCHEDULERS))
def test_every_job_completes_exactly_once(jobs, backfill, scheduler):
    done = run_scheduler(jobs, N_PROCS, scheduler, backfill=backfill)
    assert sorted(j.job_id for j in done) == sorted(j.job_id for j in jobs)


@settings(max_examples=40, deadline=None)
@given(job_sequences(), st.booleans(), st.sampled_from(SCHEDULERS))
def test_no_job_starts_before_submission(jobs, backfill, scheduler):
    done = run_scheduler(jobs, N_PROCS, scheduler, backfill=backfill)
    assert all(j.start_time >= j.submit_time - 1e-9 for j in done)


@settings(max_examples=40, deadline=None)
@given(st.booleans(), st.booleans(), st.data())
def test_cluster_capacity_never_exceeded(backfill, memory, data):
    """At every start instant, concurrently-running jobs fit in the
    cluster: its processors and, on a memory-constrained cluster, its
    memory."""
    jobs = data.draw(job_sequences(memory=memory))
    spec = ClusterSpec(N_PROCS, memory=TOTAL_MEM if memory else None)
    done = run_scheduler(jobs, spec, FCFS(), backfill=backfill)
    events = sorted(
        [(j.start_time, j.requested_procs, mem_demand(j)) for j in done]
        + [(j.end_time, -j.requested_procs, -mem_demand(j)) for j in done],
        key=lambda e: (e[0], e[1]),  # releases (negative) first on ties
    )
    procs = mem = 0
    for _, d_procs, d_mem in events:
        procs += d_procs
        mem += d_mem
        assert procs <= N_PROCS
        assert mem <= spec.total_mem + 1e-9 * spec.total_mem


@settings(max_examples=30, deadline=None)
@given(job_sequences())
def test_bounded_slowdown_at_least_one(jobs):
    done = run_scheduler(jobs, N_PROCS, SJF())
    assert all(job_bounded_slowdown(j) >= 1.0 for j in done)
    assert average_bounded_slowdown(done) >= 1.0


@settings(max_examples=30, deadline=None)
@given(job_sequences())
def test_slowdown_dominates_bounded_slowdown(jobs):
    done = run_scheduler(jobs, N_PROCS, SJF())
    assert average_slowdown(done) >= average_bounded_slowdown(done) - 1e-9


@settings(max_examples=30, deadline=None)
@given(job_sequences())
def test_utilization_in_unit_interval(jobs):
    done = run_scheduler(jobs, N_PROCS, FCFS())
    util = resource_utilization(done, N_PROCS)
    assert 0.0 < util <= 1.0 + 1e-9


@settings(max_examples=30, deadline=None)
@given(job_sequences())
def test_waiting_time_nonnegative(jobs):
    done = run_scheduler(jobs, N_PROCS, WFP3())
    assert average_waiting_time(done) >= -1e-9


@settings(max_examples=25, deadline=None)
@given(job_sequences(), st.sampled_from(SCHEDULERS))
def test_backfill_only_reorders_never_drops(jobs, scheduler):
    plain = run_scheduler(jobs, N_PROCS, scheduler, backfill=False)
    filled = run_scheduler(jobs, N_PROCS, scheduler, backfill=True)
    assert {j.job_id for j in plain} == {j.job_id for j in filled}


@settings(max_examples=25, deadline=None)
@given(job_sequences())
def test_single_proc_jobs_with_idle_cluster_never_wait(jobs):
    """If every job fits trivially and arrivals are spread out, the cluster
    can always start the FCFS head immediately once it's the only one."""
    # Rebuild with 1-proc requests: capacity 16 means <=16 concurrent.
    thin = [
        Job(job_id=j.job_id, submit_time=j.submit_time, run_time=1.0,
            requested_procs=1, requested_time=1.0)
        for j in jobs[:10]
    ]
    done = run_scheduler(thin, N_PROCS, FCFS())
    # With 1s runtimes and <=10 jobs on 16 procs, waits are bounded by the
    # drain of at most 10 jobs: never more than 10 seconds.
    assert all(j.start_time - j.submit_time <= 10.0 for j in done)


# ----------------------------------------------------------------------
# the decision loop's incremental paths against their references
# ----------------------------------------------------------------------
TOTAL_MEM = 2.0 * N_PROCS
BACKFILL_ON = (True, "easy", "conservative")
FIXTURE_POLICY = (
    Path(__file__).parents[1] / "benchmarks/e2e/data/policy_kernel_m128.npz"
)


def fcfs_key(job):
    return (job.submit_time, job.job_id)


def ids(jobs):
    return [j.job_id for j in jobs]


def colliding_jobs(draw, memory, max_jobs):
    """A job stream built to collide: timestamps, runtime requests and
    sizes come from small pools (tied scores, tied queue keys), job ids
    are shuffled against arrival order, and estimates may undershoot the
    runtime (releases the planner clamps to ``now``)."""
    n = draw(st.integers(1, max_jobs))
    job_ids = draw(st.permutations(range(1, n + 1)))
    jobs, t = [], 0.0
    for job_id in job_ids:
        t += draw(st.sampled_from([0.0, 0.0, 1.0, 7.0, 40.0]))
        run = draw(st.sampled_from([1.0, 5.0, 20.0, 90.0]))
        jobs.append(
            Job(
                job_id=job_id,
                submit_time=t,
                run_time=run,
                requested_procs=draw(st.sampled_from([1, 2, 4, 7, N_PROCS])),
                requested_time=run * draw(st.sampled_from([0.25, 1.0, 3.0])),
                # per-processor; 2.0 * N_PROCS is the whole cluster
                requested_mem=(
                    draw(st.sampled_from([-1.0, 0.3, 1.0, 2.0])) if memory else -1.0
                ),
                user_id=draw(st.integers(0, 3)),
            )
        )
    return jobs


@st.composite
def engine_cases(draw, max_jobs=16):
    """A colliding job stream and its cluster; half the cases run on a
    memory-constrained one."""
    memory = draw(st.booleans())
    jobs = colliding_jobs(draw, memory, max_jobs)
    return jobs, ClusterSpec(N_PROCS, memory=TOTAL_MEM if memory else None)


@st.composite
def vec_cases(draw, max_sequences=5):
    """Several colliding job streams for one cluster (half of them
    memory-constrained)."""
    memory = draw(st.booleans())
    sequences = [
        colliding_jobs(draw, memory, 14)
        for _ in range(draw(st.integers(1, max_sequences)))
    ]
    spec = ClusterSpec(N_PROCS, memory=TOTAL_MEM if memory else None)
    return sequences, spec


class _Checked:
    """Engine mixin: queue invariants after every event and start, and
    every backfill pass compared with the public reference planner."""

    def check_queue(self):
        keys = [fcfs_key(j) for j in self.pending]
        assert keys == sorted(keys), "pending left FCFS order"
        assert self.pending_rows == [self._row_of[j.job_id] for j in self.pending]
        if self.jobs is not None:
            assert all(
                self.jobs[row] is job
                for row, job in zip(self.pending_rows, self.pending)
            )

    def _step(self, until):
        event = super()._step(until)
        self.check_queue()
        return event

    def _start(self, i, job):
        assert self.pending[i] is job
        super()._start(i, job)
        self.check_queue()

    def _backfill_plan(self, head):
        plan = super()._backfill_plan(head)
        assert all(self.pending[i] is job for i, job in plan)
        got = [job for _, job in plan]
        reference = (
            conservative_backfill_candidates
            if self.backfill == "conservative"
            else backfill_candidates
        )
        # the references take any order; hand them the reverse of ours
        want = reference(
            head, self.pending[::-1], list(self.running_view)[::-1],
            self.cluster, self.now,
        )
        assert ids(got) == ids(want)
        return plan


class CheckedBatch(_Checked, SchedulingEngine):
    pass


class CheckedOnline(_Checked, OnlineSchedulingEngine):
    pass


def pick_arbitrary(engine, data):
    """Any waiting job, so queues reach shapes no heuristic would leave."""
    return engine.pending[data.draw(st.integers(0, len(engine.pending) - 1))]


@settings(max_examples=120, deadline=None)
@given(engine_cases(), st.sampled_from(BACKFILL_ON), st.data())
def test_engine_planner_matches_reference_backfill(case, backfill, data):
    """(i) ``EngineCore._backfill_pass`` — sorted-queue walk, lazy shadow,
    recorded releases — picks exactly what ``backfill_candidates`` /
    ``conservative_backfill_candidates`` pick from the same state given
    unsorted input, including for heads that already fit."""
    jobs, spec = case
    engine = CheckedBatch(jobs, spec, backfill=backfill)
    while engine.advance_until_decision():
        for head in engine.pending[:3]:  # the engine only plans blocked heads
            engine._backfill_pass(head)
        engine.commit(pick_arbitrary(engine, data))
    assert engine.done


def test_planner_reorders_releases_clamped_to_now():
    """Two jobs outlive their estimates; clamped to ``now`` they release in
    demand order (3 then 5 procs), not estimate order (5 then 3): the head
    (6 procs) is planned after both, leaving 4 spare, and the 2-proc job
    that overruns the shadow time backfills on them."""
    jobs = [
        Job(job_id=1, submit_time=0.0, run_time=100.0, requested_procs=5,
            requested_time=10.0),
        Job(job_id=2, submit_time=0.0, run_time=100.0, requested_procs=3,
            requested_time=15.0),
        Job(job_id=3, submit_time=1.0, run_time=10.0, requested_procs=6,
            requested_time=10.0),
        Job(job_id=4, submit_time=20.0, run_time=50.0, requested_procs=2,
            requested_time=50.0),
    ]
    engine = CheckedBatch(jobs, 10, backfill="easy")
    while engine.advance_until_decision():
        engine.commit(engine.pending[0])
    start = {j.job_id: j.start_time for j in engine.completed}
    assert start[4] == 20.0 and start[3] == 100.0


def bound_schedulers():
    return [make_scheduler(name) for name in sorted(ALL_HEURISTICS)]


def rl_schedulers():
    # a window smaller than the queues, so the FCFS cut-off binds
    narrow = EnvConfig(max_obsv_size=4)
    schedulers = [
        RLSchedulerPolicy(
            KernelPolicy(narrow.job_features, seed=3), n_procs=N_PROCS,
            env_config=narrow, name="RL-narrow",
        )
    ]
    wide = EnvConfig(max_obsv_size=8, memory_features=True)
    schedulers.append(
        RLSchedulerPolicy(
            KernelPolicy(wide.job_features, seed=4), n_procs=N_PROCS,
            env_config=wide, name="RL-mem",
        )
    )
    # a policy that reads the whole padded window, one run per reset
    schedulers.append(
        RLSchedulerPolicy(
            make_policy("mlp_v2", narrow.max_obsv_size, narrow.job_features,
                        seed=5),
            n_procs=N_PROCS, env_config=narrow, preset="mlp_v2",
            name="RL-mlp",
        )
    )
    if FIXTURE_POLICY.exists():
        schedulers.append(RLSchedulerPolicy.load(FIXTURE_POLICY))
    return schedulers


@pytest.mark.parametrize("scheduler", bound_schedulers(), ids=lambda s: s.name)
def test_bound_pick_is_select(scheduler):
    """(ii) ``scheduler.bind(engine)()`` is the job ``select`` returns —
    the ``(score, job_id)`` argmin of the generic ``Scheduler.select`` —
    at every decision of queues full of ties."""

    @settings(max_examples=60, deadline=None)
    @given(engine_cases(), st.sampled_from((False, "easy")), st.data())
    def check(case, backfill, data):
        jobs, spec = case
        engine = SchedulingEngine(jobs, spec, backfill=backfill)
        pick = scheduler.bind(engine)
        while engine.advance_until_decision():
            queue = engine.pending[::-1]  # select() sorts for itself
            want = Scheduler.select(scheduler, queue, engine.now, engine.cluster)
            assert pick() is want
            engine.commit(pick_arbitrary(engine, data))

    check()


@pytest.mark.parametrize("scheduler", rl_schedulers(), ids=lambda s: s.name)
def test_rl_bound_pick_is_select(scheduler):
    """(ii) An RL policy bound to an engine picks, from the engine's own
    rows and with no sort, the job ``select`` returns for the same queue
    handed over in reverse — also with its feature table compacted to the
    window whenever it passes one window of rows, and never past its
    bound."""

    @settings(max_examples=60, deadline=None)
    @given(engine_cases(), st.sampled_from((False, "easy")), st.booleans(),
           st.data())
    def check(case, backfill, tight, data):
        jobs, spec = case
        engine = SchedulingEngine(jobs, spec, backfill=backfill)
        pick = scheduler.bind(engine)
        if tight:
            pick.bound = pick.m
        while engine.advance_until_decision():
            queue = engine.pending[::-1]  # select() sorts for itself
            want = scheduler.select(queue, engine.now, engine.cluster)
            assert pick() is want
            assert pick.table.size <= pick.bound
            engine.commit(pick_arbitrary(engine, data))

    check()


@pytest.mark.parametrize("scheduler", rl_schedulers(), ids=lambda s: s.name)
def test_lockstep_run_is_select(scheduler):
    """(ii) An RL policy's lock-step batch path, ``run_lockstep`` (one
    feature table over every run's jobs), schedules a run exactly as
    ``run_scheduler`` does through the policy's bound picker (a table
    grown as jobs enter the window, checked against ``select`` above) —
    on queues full of ties, so a pick that broke a tie differently would
    show."""

    @settings(max_examples=60, deadline=None)
    @given(engine_cases(), st.sampled_from((False, "easy")))
    def check(case, backfill):
        jobs, spec = case
        (got,) = scheduler.run_lockstep([(jobs, spec, backfill)])
        want = run_scheduler(jobs, spec, scheduler, backfill=backfill)
        assert [(j.job_id, j.start_time) for j in got] == [
            (j.job_id, j.start_time) for j in want
        ]

    check()


@pytest.mark.parametrize("name", ["WFP3", "UNICEP"])
def test_bound_pick_breaks_a_tie_across_arrivals_by_job_id(name):
    """Jobs 2 and 1 wait 2 s of a 2 s request and 1 s of a 1 s request: the
    same score from different arrivals, where queue order (job 2 first)
    and the job-id tie-break (job 1) disagree."""
    jobs = [
        Job(job_id=9, submit_time=0.0, run_time=3.0, requested_procs=1),
        Job(job_id=3, submit_time=0.5, run_time=1.0, requested_procs=1),
        Job(job_id=2, submit_time=1.0, run_time=1.0, requested_procs=1,
            requested_time=2.0),
        Job(job_id=1, submit_time=2.0, run_time=1.0, requested_procs=1,
            requested_time=1.0),
    ]
    scheduler = make_scheduler(name)
    engine = SchedulingEngine(jobs, 1)
    pick = scheduler.bind(engine)
    picks = []
    while engine.advance_until_decision():
        assert pick() is scheduler.select(engine.pending, engine.now, engine.cluster)
        picks.append((pick().job_id, engine.now, len(engine.pending)))
        engine.commit(pick())
    assert picks[2] == (1, 3.0, 2)


def test_bound_pick_falls_back_to_select_on_an_open_ended_engine():
    engine = OnlineSchedulingEngine(N_PROCS)
    for job_id, requested in ((1, 50.0), (2, 5.0)):
        engine.submit(Job(job_id=job_id, submit_time=0.0, run_time=5.0,
                          requested_procs=1, requested_time=requested))
    assert engine.next_decision()
    for scheduler in bound_schedulers():
        want = scheduler.select(engine.pending, engine.now, engine.cluster)
        assert scheduler.bind(engine)() is want


def decision_log(engine, scheduler, log):
    """Pump an online engine dry at its current horizon."""
    while engine.next_decision():
        best = scheduler.select(engine.pending, engine.now, engine.cluster)
        log.append((best.job_id, engine.now))
        if not engine.commit(best):
            return


@settings(max_examples=80, deadline=None)
@given(
    engine_cases(),
    st.sampled_from(SchedulingEngine.BACKFILL_MODES),
    st.sampled_from(["FCFS", "SJF", "WFP3", "F1", "FirstFit"]),
    st.data(),
)
def test_advance_chunking_reproduces_batch_log(case, backfill, name, data):
    """(iii) Feeding the stream to the online engine one submission at a
    time, with external time ticking forward in arbitrary ``advance()``
    chunks between arrivals, lands on the batch decision log — and (iv)
    keeps the queue invariants through every stall and resume."""
    jobs, spec = case
    scheduler = make_scheduler(name)

    batch = CheckedBatch(jobs, spec, backfill=backfill)
    pick = scheduler.bind(batch)
    want = []
    while batch.advance_until_decision():
        best = pick()
        want.append((best.job_id, batch.now))
        batch.commit(best)

    online = CheckedOnline(spec, backfill=backfill)
    stream = sorted(jobs, key=fcfs_key)
    log = []
    for job, following in zip(stream, stream[1:] + [None]):
        online.submit(job)
        decision_log(online, scheduler, log)
        if following is None:
            break
        gap = following.submit_time - job.submit_time
        for fraction in sorted(
            data.draw(st.lists(st.floats(0.0, 1.0), max_size=3))
        ):
            online.advance(job.submit_time + fraction * gap)
            decision_log(online, scheduler, log)
    online.drain()
    decision_log(online, scheduler, log)
    assert online.idle
    assert log == want
    assert sorted((j.job_id, j.start_time) for j in online.take_completed()) == (
        sorted((j.job_id, j.start_time) for j in batch.completed)
    )


@pytest.mark.parametrize("backfill", [False, "easy"])
def test_served_rl_tenant_starts_jobs_as_run_scheduler(backfill):
    """(iii) An RL tenant of the serving daemon (the committed kernel
    fixture), fed the stream one submission at a time with external time
    ticking forward in arbitrary ``advance()`` chunks, starts every job
    at the time ``run_scheduler`` gives for the same jobs and policy —
    and each of its picks is the job ``select`` returns for that
    decision's queue."""

    @settings(max_examples=40, deadline=None)
    @given(engine_cases(), st.data())
    def check(case, data):
        jobs, spec = case
        svc = SchedulerService(TenantConfig(
            name="rl", n_procs=spec.n_procs, memory=spec.memory,
            backfill=backfill, policy_path=str(FIXTURE_POLICY),
        ))
        policy, engine, pick = svc.policy, svc.engine, svc._pick

        def checked_pick():
            queue = engine.pending[::-1]  # select() sorts for itself
            want = policy.select(queue, engine.now, engine.cluster)
            got = pick()
            assert got is want
            return got

        svc._pick = checked_pick
        stream = sorted(jobs, key=fcfs_key)
        for job, following in zip(stream, stream[1:] + [None]):
            svc.submit(job_to_wire(job))
            if following is None:
                break
            gap = following.submit_time - job.submit_time
            for fraction in sorted(
                data.draw(st.lists(st.floats(0.0, 1.0), max_size=3))
            ):
                svc.advance(job.submit_time + fraction * gap)
        svc.drain()
        want = run_scheduler(jobs, spec, policy, backfill=backfill)
        assert {
            j.job_id: svc.status(j.job_id)["job"]["start_time"] for j in jobs
        } == {j.job_id: j.start_time for j in want}

    check()


@settings(max_examples=80, deadline=None)
@given(
    engine_cases(),
    st.sampled_from(SchedulingEngine.BACKFILL_MODES),
    st.data(),
)
def test_queue_invariants_under_unordered_online_submissions(case, backfill, data):
    """(iv) Submissions in arbitrary order — late ones clamped to ``now``,
    so timestamps tie with ids out of order — keep ``pending`` sorted by
    ``(submit_time, job_id)`` with ``pending_rows`` parallel to it after
    every event and every start (asserted inside the checked engine)."""
    jobs, spec = case
    engine = CheckedOnline(spec, backfill=backfill)
    for job in data.draw(st.permutations(jobs)):
        engine.submit(job)
        if data.draw(st.booleans()):
            while engine.next_decision():
                if not engine.commit(pick_arbitrary(engine, data)):
                    break
    engine.drain()
    while engine.next_decision():
        engine.commit(pick_arbitrary(engine, data))
    assert engine.idle
    assert sorted(ids(engine.take_completed())) == sorted(ids(jobs))


# ----------------------------------------------------------------------
# event order: sorted arrivals + a finish heap against one event heap
# ----------------------------------------------------------------------
FINISH, ARRIVAL = 0, 1  # a finish sorts first on a time tie


class EventLoggedBatch(CheckedBatch):
    """Every applied event, as ``(time, kind, job_id)``, is what one heap
    of all events would have popped — arrivals on it from the start, each
    finish from the moment its job starts."""

    def __init__(self, jobs, cluster, backfill):
        super().__init__(jobs, cluster, backfill=backfill)
        self.log = []
        self.heap = [(j.submit_time, ARRIVAL, j.job_id) for j in self.jobs]
        heapq.heapify(self.heap)

    def _start(self, i, job):
        super()._start(i, job)
        heapq.heappush(self.heap, (job.end_time, FINISH, job.job_id))

    def _step(self, until):
        finished, waiting = len(self.completed), set(ids(self.pending))
        event = super()._step(until)
        if len(self.completed) > finished:
            applied = (self.now, FINISH, self.completed[-1].job_id)
        elif len(self.pending) > len(waiting):
            (newcomer,) = set(ids(self.pending)) - waiting
            applied = (self.now, ARRIVAL, newcomer)
        else:  # nothing applied: nothing was due
            assert not self.heap or self.heap[0][0] > until
            return event
        assert applied == heapq.heappop(self.heap)
        self.log.append(applied)
        return event


@st.composite
def tying_jobs(draw, max_jobs=14):
    """Jobs whose events collide: tied submit times, zero runtimes, and
    runtimes that are sums of the arrival gaps, so finishes land on
    arrivals and on each other."""
    n = draw(st.integers(1, max_jobs))
    jobs, t = [], 0.0
    for job_id in draw(st.permutations(range(1, n + 1))):
        t += draw(st.sampled_from([0.0, 0.0, 1.0, 2.0, 5.0]))
        jobs.append(
            Job(
                job_id=job_id,
                submit_time=t,
                run_time=draw(st.sampled_from([0.0, 0.0, 1.0, 2.0, 3.0, 5.0, 8.0])),
                requested_procs=draw(st.sampled_from([1, 2, 4, N_PROCS])),
                requested_time=draw(st.sampled_from([1.0, 4.0, 10.0])),
            )
        )
    return jobs


@settings(max_examples=150, deadline=None)
@given(
    tying_jobs(), st.sampled_from(SchedulingEngine.BACKFILL_MODES), st.data()
)
def test_event_order_is_the_sorted_event_list(jobs, backfill, data):
    """The two-way merge of the sorted arrival sequence and the finish heap
    applies events in ``(time, finish-before-arrival, job_id)`` order:
    step for step what a single heap of all events pops (checked inside
    the engine), and — when no zero runtime lets a finish be created at
    the instant it is due, behind events of that instant already applied —
    ``sorted`` over the episode's whole event list."""
    engine = EventLoggedBatch(jobs, N_PROCS, backfill)
    while engine.advance_until_decision():
        engine.commit(pick_arbitrary(engine, data))
    assert engine.done and not engine.heap
    assert len(engine.log) == engine.n_events == 2 * len(jobs)
    events = [(j.submit_time, ARRIVAL, j.job_id) for j in jobs] + [
        (j.end_time, FINISH, j.job_id) for j in engine.completed
    ]
    assert sorted(engine.log) == sorted(events)
    if all(j.run_time > 0 for j in jobs):
        assert engine.log == sorted(events)


@settings(max_examples=80, deadline=None)
@given(
    engine_cases(),
    st.sampled_from(SchedulingEngine.BACKFILL_MODES),
    st.sampled_from(["FCFS", "SJF", "F1"]),
    st.data(),
)
def test_out_of_order_submissions_reproduce_the_batch_log(
    case, backfill, name, data
):
    """Submissions the engine has not admitted yet are kept sorted: handed
    over in any order — earlier times after later ones, tying times with
    smaller ids last — in bursts with pumps between, they are admitted as
    the batch engine admits the sorted sequence, decision for decision."""
    jobs, spec = case
    scheduler = make_scheduler(name)
    batch = CheckedBatch(jobs, spec, backfill=backfill)
    want = []
    while batch.advance_until_decision():
        best = scheduler.select(batch.pending, batch.now, batch.cluster)
        want.append((best.job_id, batch.now))
        batch.commit(best)

    online = CheckedOnline(spec, backfill=backfill)
    log = []
    stream = sorted(jobs, key=fcfs_key)
    while stream:
        # a burst of the next few arrivals, shuffled; nothing is pumped
        # until all of it is in, so nothing is clamped to a later ``now``
        burst = data.draw(st.integers(1, len(stream)))
        for job in data.draw(st.permutations(stream[:burst])):
            online.submit(job)
        stream = stream[burst:]
        decision_log(online, scheduler, log)
    online.drain()
    decision_log(online, scheduler, log)
    assert online.idle
    assert log == want


# ----------------------------------------------------------------------
# ragged observations against the padded oracle
# ----------------------------------------------------------------------
def negative_bsld(jobs, n_procs):
    return -average_bounded_slowdown(jobs)


def assert_waves_equal_padded_oracle(sequences, spec, backfill, choose):
    """Run ``sequences`` through one ``VecSchedGym`` and, beside it, each
    one through its own ``SchedGym`` with the same actions
    (``choose(n_visible)`` picks them).  Every wave, padded out, must equal
    the loop encoder's window of that run's queue bit for bit, every run
    must finish on the single environment's step, and its completed jobs
    must earn the single environment's reward.  Returns the deepest queue
    met (window cut-off ignored) and whether a wave ever ended on a zero
    last column."""
    memory = spec.memory is not None
    # a 4-slot window: most of these queues outgrow it, so the FCFS
    # cut-off at MAX_OBSV_SIZE binds
    config = EnvConfig(
        max_obsv_size=4, backfill=backfill, memory_features=memory,
    )

    def copies(seq):
        return [j.copy() for j in seq]

    vec = VecSchedGym(spec.n_procs, config)
    rows, counts = vec.reset([(copies(s), spec, backfill) for s in sequences])
    # per run: its SchedGym and that env's latest (obs, mask)
    refs = []
    for s in sequences:
        env = SchedGym(spec, negative_bsld, config)
        refs.append([env, env.reset(copies(s))])
    deepest, trailing_zero = 0, False
    while len(counts):
        runs = vec.runs.tolist()
        trailing_zero |= bool((rows[np.cumsum(counts) - 1, -1] == 0).any())
        obs, masks = pad_window(rows, counts, config.max_obsv_size)
        for got, want in zip(
            pad_observations(rows, counts, config.max_obsv_size), (obs, masks)
        ):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        actions = []
        for k, e in enumerate(runs):
            env, (gym_obs, gym_mask) = refs[e]
            engine = env.engine
            deepest = max(deepest, len(engine.pending))
            want_obs, want_mask, _ = build_observation_loop(
                engine.pending[::-1], engine.now, engine.cluster.free_procs,
                spec.n_procs, config, free_mem=engine.cluster.free_mem,
                total_mem=engine.cluster.total_mem,
            )
            assert obs[k].tobytes() == want_obs.tobytes()
            assert masks[k].tolist() == want_mask.tolist()
            assert gym_obs.tobytes() == want_obs.tobytes()
            assert gym_mask.tolist() == want_mask.tolist()
            actions.append(choose(int(counts[k])))
        result = vec.step(np.array(actions))
        for k, e in enumerate(runs):
            ref_result = refs[e][0].step(actions[k])
            assert (e in result.finished) == ref_result.done
            if ref_result.done:
                completed = vec.engines[e].completed
                assert negative_bsld(completed, spec.n_procs) == ref_result.reward
            refs[e][1] = (ref_result.observation, ref_result.action_mask)
        rows, counts = result.rows, result.counts
    assert all(engine.done for engine in vec.engines)
    return deepest, trailing_zero


@settings(max_examples=100, deadline=None)
@given(vec_cases(), st.sampled_from(SchedulingEngine.BACKFILL_MODES), st.data())
def test_every_wave_equals_the_padded_loop_oracle(case, backfill, data):
    """(v) Ragged from the env on: what ``VecSchedGym`` emits is, padded
    out, the window the per-job loop encodes — procs-only and memory
    clusters (with the memory columns), every backfill mode, queues past
    the window — and every run of a vec is a lone ``SchedGym`` episode,
    whichever runs step beside it."""
    sequences, spec = case
    assert_waves_equal_padded_oracle(
        sequences, spec, backfill,
        lambda n_visible: data.draw(st.integers(0, n_visible - 1)),
    )


@pytest.mark.parametrize("memory", [False, True], ids=["procs", "memory"])
def test_wave_oracle_covers_queues_past_the_window(memory):
    """The property above is only as good as its queues are deep: a burst
    of whole-cluster jobs queues up far behind a 4-slot window, and with
    every byte of memory taken the free-memory column reads exactly 0 —
    the trailing zero a ragged extent must not count."""
    burst = [
        Job(job_id=i + 1, submit_time=0.0, run_time=10.0 + i,
            requested_procs=N_PROCS, requested_time=20.0 + i,
            requested_mem=2.0 if memory else -1.0, user_id=i % 3)
        for i in range(11)
    ]
    spec = ClusterSpec(N_PROCS, memory=TOTAL_MEM if memory else None)
    deepest, trailing_zero = assert_waves_equal_padded_oracle(
        [burst, burst[:3]], spec, "easy", lambda n_visible: n_visible - 1
    )
    assert deepest > 2 * 4
    assert trailing_zero == memory


@settings(max_examples=100, deadline=None)
@given(vec_cases(), st.sampled_from([False, "easy", "conservative"]), st.data())
def test_a_run_makes_at_most_one_decision_per_job(case, backfill, data):
    """A decision waits until the job it chose starts (backfilling others
    meanwhile), so a run asks for at most as many decisions as it has
    jobs, whatever is chosen and whichever runs step beside it — the
    bound the rollout's up-front uniform draw (``len(jobs)`` per
    trajectory) rests on."""
    sequences, spec = case
    vec = VecSchedGym(spec.n_procs, EnvConfig(max_obsv_size=4, backfill=backfill))
    _, counts = vec.reset([([j.copy() for j in s], spec, backfill)
                           for s in sequences])
    decisions = np.zeros(len(sequences), dtype=np.int64)
    while len(counts):
        decisions[vec.runs] += 1
        actions = [data.draw(st.integers(0, int(n) - 1)) for n in counts]
        counts = vec.step(np.array(actions)).counts
    assert all(engine.done for engine in vec.engines)
    assert (decisions <= [len(s) for s in sequences]).all()


# ----------------------------------------------------------------------
# the job-feature table against the loop oracle, through its whole life
# ----------------------------------------------------------------------
def table_jobs(job_ids):
    return st.builds(
        Job,
        job_id=job_ids,
        submit_time=st.floats(0.0, 1e5),
        run_time=st.just(10.0),
        requested_procs=st.integers(1, N_PROCS),
        requested_time=st.floats(1.0, 1e6),
        requested_mem=st.sampled_from([-1.0, 0.5, 2.0, 64.0]),
        user_id=st.integers(0, 5),
    )


class FeatureTableLife(RuleBasedStateMachine):
    """(vi) One ``FeatureCache`` through what an engine-bound picker does
    to it — jobs arrive and get the next rows, and the table is compacted
    to any survivors, in any order — in any interleaving.  Ids may repeat
    with other attributes: the table is keyed by row alone.  After every
    step ``observation_rows`` over the live rows' FCFS window is bit for
    bit the loop encoder's rows of the live jobs, in both layouts, with
    and without a memory capacity."""

    @initialize(memory_features=st.booleans(), finite_mem=st.booleans())
    def layout(self, memory_features, finite_mem):
        self.total_mem = 256.0 if finite_mem else math.inf
        self.config = EnvConfig(
            max_obsv_size=400, memory_features=memory_features,
        )
        self.table = FeatureCache((), N_PROCS, self.config, self.total_mem)
        self.live: list[Job] = []  # the job of each table row, in row order

    @rule(jobs=st.one_of(
        st.lists(table_jobs(st.integers(1, 150)), max_size=40),
        # a burst past the 64-row floor, so capacity has to double
        st.lists(table_jobs(st.integers(1000, 1200)), min_size=65,
                 max_size=80),
    ))
    def arrive(self, jobs):
        lo = len(self.live)
        assert self.table.rows(jobs).tolist() == list(range(lo, lo + len(jobs)))
        self.live += jobs

    @rule(data=st.data())
    def compact(self, data):
        keep = data.draw(st.permutations(range(len(self.live))))
        keep = keep[: data.draw(st.integers(0, len(keep)))]
        self.table.compact(np.array(keep, dtype=np.intp))
        self.live = [self.live[r] for r in keep]
        # capacity is back on the doubling schedule
        assert len(self.table.submit) == max(
            64, 1 << (self.table.size - 1).bit_length()
        )

    @invariant()
    def rows_equal_the_loop_oracle(self):
        table, config, queue = self.table, self.config, self.live
        assert table.size == len(queue)
        assert table.size <= len(table.submit) == len(table.procs) \
            == len(table.static)
        now = max((j.submit_time for j in queue), default=0.0) + 17.0
        free_procs = len(queue) % (N_PROCS + 1)
        free_mem = min(self.total_mem, 100.0) / 3
        want, mask, _ = build_observation_loop(
            queue, now, free_procs, N_PROCS, config,
            free_mem=free_mem, total_mem=self.total_mem,
        )
        # the loop's window: a stable FCFS sort of the rows, cut to M
        window = sorted(range(len(queue)), key=lambda r: (
            queue[r].submit_time, queue[r].job_id))[: config.max_obsv_size]
        got = observation_rows(
            table, np.array(window, dtype=np.intp), now, free_procs, N_PROCS,
            config, free_mem=free_mem, total_mem=self.total_mem,
        )
        assert got.dtype == want.dtype
        assert got.tobytes() == want[mask].tobytes()


FeatureTableLife.TestCase.settings = settings(
    max_examples=60, stateful_step_count=25, deadline=None
)
test_feature_table_life = FeatureTableLife.TestCase
