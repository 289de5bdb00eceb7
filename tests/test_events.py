"""The engine's event ordering contract, observed through the engines.

Deterministic ordering matters for reproducibility: events apply in time
order; on a time tie finishes apply before arrivals (so resources freed at
time t are visible to a job arriving at t) and then by job id.  Arrivals
are read from a sorted sequence and finishes from a heap (``sim/core.py``,
"Event order"), so the contract is asserted on what the engines do, not on
a queue object.
"""

import pytest

from repro.sim import OnlineSchedulingEngine, SchedulingEngine
from repro.workloads import Job


def job(jid=1, submit=0.0, run=10.0, procs=1):
    return Job(job_id=jid, submit_time=submit, run_time=run, requested_procs=procs)


def run_fcfs(engine):
    """Commit the queue head at every decision; ``(job_id, now)`` per
    decision."""
    log = []
    while engine.advance_until_decision():
        log.append((engine.pending[0].job_id, engine.now))
        engine.commit(engine.pending[0])
    return log


class TestOrdering:
    def test_time_order(self):
        """Arrivals are admitted by submit time, however they were handed
        over, and finishes apply by end time, whatever the start order."""
        engine = SchedulingEngine(
            [job(1, 5.0, run=1.0), job(2, 2.0, run=9.0), job(3, 9.0, run=2.0)], 4
        )
        assert run_fcfs(engine) == [(2, 2.0), (1, 5.0), (3, 9.0)]
        assert [j.job_id for j in engine.completed] == [1, 2, 3]  # 6, 11, 11
        assert engine.now == 11.0

    def test_finish_before_arrival_on_tie(self):
        """Resources freed at t must be visible to a job arriving at t."""
        engine = SchedulingEngine(
            [job(1, 0.0, run=5.0, procs=4), job(2, 5.0, procs=4)], 4
        )
        engine.advance_until_decision()
        engine.commit(engine.pending[0])
        assert engine.advance_until_decision()
        # job 2's arrival at t=5 found job 1 already gone: it starts at
        # once, without waiting for any further event
        assert engine.now == 5.0 and not engine.running_view
        assert engine.cluster.free_procs == 4
        events = engine.n_events
        engine.commit(engine.pending[0])
        assert engine.n_events == events and engine.pending == []

    def test_job_id_breaks_remaining_ties(self):
        """Equal-time arrivals queue by job id; equal-time finishes apply
        by job id, whichever started first."""
        engine = SchedulingEngine(
            [job(1, 0.0, run=6.0, procs=4), job(7, 5.0), job(3, 5.0), job(5, 5.0)],
            4,
        )
        engine.advance_until_decision()
        engine.commit(engine.pending[0])
        assert engine.advance_until_decision()
        assert [j.job_id for j in engine.pending] == [3]  # one event, one job
        engine.commit(engine.pending[0])  # waits for job 1, admitting 5 and 7
        assert engine.now == 6.0
        assert [j.job_id for j in engine.pending] == [5, 7]
        engine.commit(engine.pending[1])
        engine.commit(engine.pending[0])
        assert [j.job_id for j in engine.running_view] == [3, 7, 5]
        assert not engine.advance_until_decision()
        assert [(j.job_id, j.end_time) for j in engine.completed] == [
            (1, 6.0), (3, 16.0), (5, 16.0), (7, 16.0),
        ]

    def test_peek_does_not_pop(self):
        """An event beyond the horizon is looked at and left where it is,
        however often the engine is pumped."""
        engine = OnlineSchedulingEngine(4)
        engine.submit(job(1, 0.0, run=10.0))
        assert engine.next_decision()
        assert engine.commit(engine.pending[0])
        for _ in range(3):
            assert not engine.next_decision()  # the finish at t=10 waits
            assert (engine.now, engine.n_events) == (0.0, 1)
            assert [j.job_id for j in engine.running_view] == [1]
        engine.advance(10.0)
        assert not engine.next_decision()
        assert (engine.now, engine.n_events) == (10.0, 2)
        assert not engine.running_view

    def test_next_time(self):
        """The next event is the earlier of the next finish and the next
        arrival, each time."""
        engine = SchedulingEngine(
            [job(1, 0.0, run=3.0), job(2, 1.0, run=7.0), job(3, 6.0, run=1.0)], 1
        )
        seen = []
        while engine.advance_until_decision():
            seen.append((engine.now, engine.n_events))
            engine.commit(engine.pending[0])
        # arrival 0 | arrival 1 | finish 3, arrival 6 | finish 10, finish 11
        assert seen == [(0.0, 1), (1.0, 2), (6.0, 4)]
        assert (engine.now, engine.n_events) == (11.0, 6)

    def test_empty_pop_raises(self):
        """With no event left the engine reports the end — and a commit
        that still waits for one is a deadlock, not a silent return."""
        engine = OnlineSchedulingEngine(4)
        assert not engine.advance_until_decision()
        assert engine.n_events == 0
        engine.submit(job(1, 0.0, procs=4))
        assert engine.next_decision()
        engine.cluster.allocate(job(99, procs=2))  # held behind its back
        with pytest.raises(RuntimeError, match="deadlock: job 1 cannot fit"):
            engine.commit(engine.pending[0], until=float("inf"))

    def test_negative_time_rejected(self):
        """``Job`` refuses negative times at construction; a field set
        afterwards is still refused where it would become an event."""
        early = job(1)
        early.submit_time = -1.0
        with pytest.raises(ValueError, match="event time must be non-negative"):
            SchedulingEngine([job(2, 3.0), early], 4)
        shrinking = job(3, 0.0)
        engine = SchedulingEngine([shrinking], 4)
        engine.advance_until_decision()
        engine.pending[0].run_time = -5.0
        with pytest.raises(ValueError, match="event time must be non-negative"):
            engine.commit(engine.pending[0])

    def test_bool_and_len(self):
        """``idle`` counts arrivals not admitted yet and finishes still
        due; ``n_events`` counts each event once."""
        engine = OnlineSchedulingEngine(4)
        assert engine.idle
        engine.submit(job(1, 0.0, run=2.0))
        assert not engine.idle and engine.n_events == 0  # submitted, unseen
        assert engine.next_decision()
        engine.commit(engine.pending[0])
        assert not engine.idle and engine.n_events == 1  # running
        engine.drain()
        assert not engine.next_decision()
        assert engine.idle and engine.n_events == 2
