"""Discrete-event scheduling engine — the heart of SchedGym (paper §IV-D).

The engine replays a job sequence against a homogeneous cluster, asking a
decision source (heuristic scheduler or RL agent) to pick one waiting job
at each scheduling point.  Semantics follow the paper's SchedGym:

* the cluster starts idle; jobs arrive per their submit times;
* once a job is *selected* the engine commits to it: if it cannot start
  immediately, the engine advances time (completing running jobs, admitting
  arrivals) until it fits — optionally EASY-backfilling other waiting jobs
  that cannot delay it;
* actual runtimes come from the trace and are hidden from deciders; only
  requested runtimes are visible (used for backfill planning);
* the episode ends when every job in the sequence has completed.

:class:`SchedulingEngine` is the low-level stepper shared by
:func:`run_scheduler` (heuristics / trained policies, used by all the table
benches) and :class:`repro.sim.env.SchedGym` (the RL training env).  The
event mechanics live in :class:`repro.sim.core.EngineCore`; this driver
adds only what the batch setting knows up front — the full job list — and
is bit-identical to the pre-split engine (golden-pinned).  The open-ended
variant that accepts streaming submissions is
:class:`repro.sim.core.OnlineSchedulingEngine`.
"""

from __future__ import annotations

from typing import Callable, Sequence

from repro.telemetry import core as _telemetry
from repro.workloads.job import Job

from .cluster import ClusterSpec, mem_demand
from .core import EngineCore, _fcfs_key

__all__ = ["SchedulingEngine", "run_scheduler"]


class SchedulingEngine(EngineCore):
    """Event-driven stepper over one pre-sampled job sequence.

    The driver loop is::

        engine = SchedulingEngine(jobs, n_procs, backfill=True)
        engine.advance_until_decision()
        while not engine.done:
            job = <pick one of engine.pending>
            engine.commit(job)
            engine.advance_until_decision()
        completed = engine.completed

    All arrivals are known at construction — the sorted job list is the
    core's arrival sequence — and ``commit`` never pauses (the default
    infinite horizon applies), so it behaves exactly as before the core
    split.
    """

    def __init__(
        self,
        jobs: Sequence[Job],
        n_procs: int | ClusterSpec,
        backfill: bool | str = False,
    ):
        if not jobs:
            raise ValueError("cannot simulate an empty job sequence")
        super().__init__(n_procs, backfill=backfill)
        #: the sequence in arrival order — and, read through the core's
        #: cursor, the arrival events themselves
        self.jobs = self._arrivals = [
            j.copy() for j in sorted(jobs, key=_fcfs_key)
        ]
        # _validate_fits_cluster's two tests, the call kept for the raise;
        # no demand exceeds an unconstrained cluster's memory
        max_procs, total_mem = self.spec.n_procs, self.spec.total_mem
        bounded = self.spec.memory is not None
        for j in self.jobs:
            if j.requested_procs > max_procs or (
                bounded and mem_demand(j) > total_mem
            ):
                self._validate_fits_cluster(j)
        earliest = self.jobs[0].submit_time
        if earliest < 0:  # sorted: no arrival is negative unless the first is
            raise ValueError(f"event time must be non-negative, got {earliest}")
        #: row index of each job within ``self.jobs``; observation builders
        #: gather precomputed per-job feature columns by these rows
        self._row_of = {j.job_id: i for i, j in enumerate(self.jobs)}
        if len(self._row_of) < len(self.jobs):
            # a row names one job: two jobs with one id would share it
            dup = next(j.job_id for i, j in enumerate(self.jobs)
                       if self._row_of[j.job_id] != i)
            raise ValueError(f"job {dup} appears more than once in the sequence")
        self._next_row = len(self.jobs)

    # ------------------------------------------------------------------
    @property
    def done(self) -> bool:
        return len(self.completed) == len(self.jobs)

    @property
    def n_jobs(self) -> int:
        return len(self.jobs)


def _bind(scheduler, engine: EngineCore) -> Callable[[], Job]:
    """``pick()`` for one episode of ``engine``, from any decision source.

    A :class:`repro.schedulers.base.Scheduler` binds itself (its ``bind``
    hook may precompute per-episode state); any other object with
    ``select(pending, now, cluster)`` is called with the engine's live
    queue; a bare priority function ``score(job, now, cluster)`` picks the
    *lowest* score, ties broken by job id.
    """
    bind = getattr(scheduler, "bind", None)
    if bind is not None:
        return bind(engine)
    select = getattr(scheduler, "select", None)
    if select is not None:
        return lambda: select(engine.pending, engine.now, engine.cluster)

    def key(job: Job) -> tuple[float, int]:
        return (scheduler(job, engine.now, engine.cluster), job.job_id)

    return lambda: min(engine.pending, key=key)


def run_scheduler(
    jobs: Sequence[Job],
    n_procs: int | ClusterSpec,
    scheduler,
    backfill: bool | str = False,
) -> list[Job]:
    """Schedule a whole sequence with a policy; return the completed jobs.

    ``scheduler`` is either an object with ``select(pending, now, cluster)``
    (any :class:`repro.schedulers.base.Scheduler`, including RL policies) or
    a bare priority function ``score(job, now, cluster)`` where the *lowest*
    score is selected first, matching Table III's convention.  Ties break by
    job id for determinism.  Either way it is bound to the episode's engine
    once (:meth:`repro.schedulers.base.Scheduler.bind` for schedulers) and
    asked for one pick per decision.
    """
    engine = SchedulingEngine(jobs, n_procs, backfill=backfill)
    pick = _bind(scheduler, engine)
    reg = _telemetry.current()
    with reg.span("engine.episode"):
        while engine.advance_until_decision():
            engine.commit(pick())
    assert engine.done, "engine stopped before completing all jobs"
    if reg.enabled:
        # events/s = engine.events / span total of engine.episode
        reg.counter("engine.events").add(engine.n_events)
        reg.counter("engine.decisions").add(len(engine.completed))
    return engine.completed
