"""Event-driven engine core shared by the batch and online schedulers.

:class:`EngineCore` owns the mechanics every engine variant needs — the
event heap, the bisect-sorted FCFS pending queue, cluster admission,
backfill shadow budgets, and completion handling — without assuming a
pre-sampled job sequence.  Two drivers sit on top of it:

* :class:`repro.sim.simulator.SchedulingEngine` replays a fixed sequence
  (all arrivals known up front) and is bit-identical to the pre-split
  engine — pinned by ``tests/test_engine_core.py`` goldens;
* :class:`OnlineSchedulingEngine` (here) is open-ended: jobs arrive via
  :meth:`~OnlineSchedulingEngine.submit` and simulated time only advances
  up to a *horizon* — the latest externally-observed instant — so the
  engine never runs ahead of arrivals it has not seen yet.

The horizon plumbing is the one semantic addition.  ``commit`` in the
batch engine fast-forwards time until the chosen job fits; online, that
fast-forward must pause at the horizon (a later submission might arrive
before the next queued event) and resume later.  The resume re-enters the
wait loop *at the event-processing step* — exactly where it paused — so a
stalled-and-resumed commit processes the identical event sequence the
batch engine would, which is what makes online replay reproduce the batch
decision log bit-for-bit.

Queue invariant
---------------
``pending`` is sorted by ``(submit_time, job_id)`` and ``pending_rows``
is parallel to it, after every event and every start, on both drivers.
Everything on the decision path leans on it: observation building takes
the first ``M`` rows, bound schedulers pick over ``pending_rows``
(:meth:`repro.schedulers.Scheduler.bind`), and the backfill planner
(:meth:`EngineCore._backfill_pass`) walks the queue as it stands.  The
planner's references are the public functions of :mod:`repro.sim.backfill`
— unsorted input, everything re-derived per call — and
``tests/test_property_sim.py`` holds the two together on generated
engine states.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from operator import itemgetter
from typing import ValuesView

from repro.telemetry import core as _telemetry
from repro.workloads.job import Job

from .backfill import planned_start
from .cluster import ClusterSpec, mem_demand
from .events import EventKind, EventQueue

__all__ = ["EngineCore", "OnlineSchedulingEngine"]


def _fcfs_key(job: Job) -> tuple[float, int]:
    return (job.submit_time, job.job_id)


class EngineCore:
    """Event heap + pending queue + admission, independent of job source.

    Hot-path invariants (relied on by the vectorised rollout path):

    * ``pending`` is kept sorted by ``(submit_time, job_id)`` — FCFS order —
      at all times, so neither observation building nor the backfill
      planner ever re-sorts it.  Arrivals pop off the event heap in
      exactly that order, so maintaining the invariant is an O(1) append
      that compares against the queue's tail.
    * ``pending_rows`` is parallel to ``pending``: the feature row of each
      waiting job.  Rows are unique per live job, so a start locates its
      job with one C-level ``pending_rows.index(row)`` and deletes the two
      list slots — there is no third key list to keep in step.
    * running jobs are tracked in an insertion-ordered id map, making the
      per-finish-event removal O(1) instead of an O(n) list scan with the
      full dataclass ``__eq__``.
    """

    #: accepted backfilling modes (True is an alias for "easy")
    BACKFILL_MODES = (False, True, "easy", "conservative")

    #: the episode's whole job population, indexed by ``pending_rows``,
    #: when it is known up front (the batch driver sets it); ``None`` on an
    #: open-ended engine.  Schedulers bound to an engine precompute per-job
    #: columns over it (see :meth:`repro.schedulers.Scheduler.bind`).
    jobs: list[Job] | None = None

    def __init__(self, cluster: int | ClusterSpec, backfill: bool | str = False):
        if backfill not in self.BACKFILL_MODES:
            raise ValueError(
                f"backfill must be one of {self.BACKFILL_MODES}, got {backfill!r}"
            )
        self.spec = ClusterSpec.coerce(cluster)
        self.cluster = self.spec.build()
        self.backfill = backfill
        self.now = 0.0
        #: waiting jobs, always sorted by (submit_time, job_id) — FCFS order
        self.pending: list[Job] = []
        #: feature row of each pending job (parallel to ``pending``);
        #: observation builders and bound schedulers gather precomputed
        #: per-job columns by these rows without any per-step lookups
        self.pending_rows: list[int] = []
        self._row_of: dict[int, int] = {}
        self._next_row = 0
        self._running: dict[int, Job] = {}  # job_id -> Job, insertion-ordered
        #: job_id -> (planned end by requested runtime, procs, memory) of
        #: each running job, recorded at its start for the backfill planner
        #: (kept only when backfilling is on)
        self._planned: dict[int, tuple[float, int, float]] = {}
        self.completed: list[Job] = []
        self._events = EventQueue()
        #: events processed so far (arrivals + finishes); drives the
        #: telemetry events/s rate without touching the per-event path
        self.n_events = 0
        #: job whose commit paused at the horizon mid-wait, if any
        self._stall: Job | None = None
        # The pending-depth instrument is resolved once per episode: the
        # decision loop pays a single None check when telemetry is off.
        _reg = _telemetry.current()
        self._tel_depth = (
            _reg.histogram("engine.pending_depth", bounds=_telemetry.INT_BOUNDS)
            if _reg.enabled
            else None
        )

    # ------------------------------------------------------------------
    @property
    def running_view(self) -> ValuesView[Job]:
        """Currently executing jobs in start order: a live, read-only view
        of the engine's own map (no copy; do not hold it across events)."""
        return self._running.values()

    @property
    def running(self) -> list[Job]:
        """Currently executing jobs, in start order (a fresh list)."""
        return list(self.running_view)

    def _validate_fits_cluster(self, job: Job) -> None:
        """Reject jobs that can never run on this cluster."""
        if job.requested_procs > self.spec.n_procs:
            raise ValueError(
                f"job {job.job_id} requests {job.requested_procs} procs but the "
                f"cluster has {self.spec.n_procs}"
            )
        if mem_demand(job) > self.spec.total_mem:
            raise ValueError(
                f"job {job.job_id} needs {mem_demand(job):g} memory units but "
                f"the cluster has {self.spec.total_mem:g}"
            )

    # ------------------------------------------------------------------
    def _pending_index(self, job: Job) -> int:
        """Index of ``job`` in the pending list, or -1."""
        row = self._row_of.get(job.job_id)
        if row is None:
            return -1
        try:
            i = self.pending_rows.index(row)
        except ValueError:
            return -1
        found = self.pending[i]
        # identity first: committed jobs are the engine's own objects,
        # and the dataclass __eq__ compares all 19 fields
        return i if found is job or found == job else -1

    def _start(self, job: Job) -> None:
        """Allocate and launch ``job`` at the current time."""
        self.cluster.allocate(job)
        job.start_time = self.now
        i = self._pending_index(job)
        if i < 0:  # mirrors the old list.remove(job) contract
            raise ValueError(f"job {job.job_id} is not pending")
        del self.pending[i]
        del self.pending_rows[i]
        self._running[job.job_id] = job
        if self.backfill:
            self._planned[job.job_id] = (
                self.now + job.requested_time, job.requested_procs, mem_demand(job)
            )
        self._events.push(job.end_time, EventKind.FINISH, job)

    def _process_next_event(self) -> None:
        """Advance the clock to the next event and apply it."""
        time, kind, job_id, job = self._events.pop_raw()
        assert time >= self.now, "event queue went backwards in time"
        self.now = time
        self.n_events += 1
        if kind == EventKind.FINISH:
            self.cluster.release(job)
            del self._running[job_id]
            self._planned.pop(job_id, None)
            self.completed.append(job)
        else:
            # Arrivals pop in (time, job_id) order, so appending after a
            # tail that sorts no later preserves the FCFS sort.  The bisect
            # branch takes online submissions that tie the tail's
            # timestamp (clamped to ``now``) with a smaller job id.
            pending = self.pending
            i = len(pending)
            if i:
                tail = pending[-1]
                if time < tail.submit_time or (
                    time == tail.submit_time and job_id < tail.job_id
                ):
                    i = bisect_left(pending, (time, job_id), key=_fcfs_key)
            pending.insert(i, job)
            self.pending_rows.insert(i, self._row_of[job_id])

    def advance_until_decision(self, until: float = math.inf) -> bool:
        """Run events (up to ``until``) until a scheduling decision is needed.

        Returns True if there is a decision to make (pending non-empty),
        False if no more events are reachable — the episode is over (batch)
        or the horizon was hit (online).
        """
        while not self.pending:
            next_time = self._events.next_time
            if next_time is None or next_time > until:
                return False
            self._process_next_event()
        if self._tel_depth is not None:
            self._tel_depth.record(len(self.pending))
        return True

    def commit(self, job: Job, until: float = math.inf) -> bool:
        """Commit to starting ``job``: wait (and backfill) until it fits.

        Returns True once the job started.  With a finite ``until`` the
        wait pauses — returning False — when the next event lies beyond
        it; calling again (with a later ``until``) resumes exactly where
        the wait left off.
        """
        if self._pending_index(job) < 0:
            raise ValueError(f"job {job.job_id} is not pending")
        # Resume a stalled commit at the event-processing step it paused
        # before, not from the top: a fresh backfill pass at the unchanged
        # state would be a no-op, but skipping it keeps the control flow
        # bit-identical to an uninterrupted batch commit.
        resumed = self._stall is job
        self._stall = None
        fits = self.cluster.fits  # can_allocate(job), its demand taken once
        procs, mem = job.requested_procs, mem_demand(job)
        while True:
            if not resumed:
                if fits(procs, mem):
                    break
                if self.backfill:
                    # backfilled starts only take resources: the head
                    # cannot have come to fit, so it is not asked again
                    for candidate in self._backfill_pass(job):
                        self._start(candidate)
            resumed = False
            next_time = self._events.next_time
            if next_time is None:
                raise RuntimeError(
                    f"deadlock: job {job.job_id} cannot fit and no events remain"
                )
            if next_time > until:
                self._stall = job
                return False
            self._process_next_event()
        self._start(job)
        return True

    def _backfill_pass(self, head: Job) -> list[Job]:
        """Waiting jobs that may start now without delaying ``head``.

        Decision-for-decision the public
        :func:`~repro.sim.backfill.backfill_candidates` /
        :func:`~repro.sim.backfill.conservative_backfill_candidates` (the
        property-test oracles) applied to the engine's own state, minus
        the work that state makes redundant: ``pending`` is walked as it
        stands (FCFS-sorted by invariant), a job is dropped on the free
        vector before anything else is looked at, and the head's shadow
        time is planned only once some job passes that test.
        """
        free = self.cluster.free_procs
        if not free:
            return []
        free_mem = self.cluster.free_mem
        now = self.now
        easy = self.backfill != "conservative"
        shadow = None
        chosen: list[Job] = []
        for job in self.pending:
            procs = job.requested_procs
            if procs > free:
                continue
            need_mem = mem_demand(job)
            if need_mem > free_mem or job.job_id == head.job_id:
                continue
            if shadow is None:
                shadow, extra, extra_mem = self._shadow(head)
            if not now + job.requested_time <= shadow:
                # overruns the head's reservation: EASY admits it on the
                # spare budget, conservative never
                if not (easy and procs <= extra and need_mem <= extra_mem):
                    continue
                extra -= procs
                extra_mem -= need_mem
            chosen.append(job)
            free -= procs
            free_mem -= need_mem
        return chosen

    def _shadow(self, head: Job) -> tuple[float, int, float]:
        """:func:`~repro.sim.backfill.shadow_state` of the running jobs,
        from the releases recorded at their starts."""
        now = self.now
        releases = sorted(self._planned.values())
        # shadow_state clamps an overrun job's release to ``now``, which
        # re-orders the releases already due among themselves by demand
        due = bisect_right(releases, (now, math.inf))
        if due > 1:
            releases[:due] = sorted(releases[:due], key=itemgetter(1, 2))
        return planned_start(head, releases, self.cluster, now)


class OnlineSchedulingEngine(EngineCore):
    """Open-ended engine variant: time is driven by external arrivals.

    The driver loop is::

        engine = OnlineSchedulingEngine(ClusterSpec(256), backfill="easy")
        engine.submit(job)                  # as requests arrive
        while engine.next_decision():       # pump after submit/advance
            engine.commit(<pick one of engine.pending>)
        started = engine.take_started()     # committed + backfilled starts
        finished = engine.take_completed()  # harvest + free bookkeeping
        engine.drain()                      # shutdown: run to quiescence

    Simulated time never advances past the *horizon* — the latest
    submit/advance instant seen so far — because a future submission may
    arrive before the next queued event.  ``commit`` therefore may stall
    (return False); the in-flight job is remembered and the next
    :meth:`next_decision` pump resumes it before exposing new decisions.

    Unlike the batch engine there is no ``jobs`` list: completed jobs are
    handed back through :meth:`take_completed`, which also drops their
    row-index bookkeeping so a long-lived daemon holds memory proportional
    to the *live* job set, not everything it ever served.
    """

    def __init__(self, cluster: int | ClusterSpec, backfill: bool | str = False):
        super().__init__(cluster, backfill=backfill)
        self._horizon = 0.0
        self._inflight: Job | None = None
        #: jobs started since the last :meth:`take_started`, in start order
        self.started: list[Job] = []
        self.n_submitted = 0
        self.n_started = 0

    # ------------------------------------------------------------------
    @property
    def horizon(self) -> float:
        """Latest externally-observed instant; events beyond it wait."""
        return self._horizon

    @property
    def inflight(self) -> Job | None:
        """The committed-but-stalled job, if a commit paused at the horizon."""
        return self._inflight

    @property
    def idle(self) -> bool:
        """True when nothing is pending, running, stalled, or queued."""
        return (
            not self.pending
            and self._inflight is None
            and not self._running
            and not self._events
        )

    # ------------------------------------------------------------------
    def submit(self, job: Job) -> Job:
        """Admit an externally-arriving job; returns the engine's copy.

        The submission instant becomes the new horizon.  A ``submit_time``
        in the simulated past is clamped to ``now`` — the arrival is only
        being observed now, and the pending-queue sort key must agree with
        the arrival event's timestamp.
        """
        if job.job_id in self._row_of or job.job_id in self._running:
            raise ValueError(f"job {job.job_id} is already known to the engine")
        self._validate_fits_cluster(job)
        job = job.copy()
        if job.submit_time < self.now:
            job.submit_time = self.now
        self._row_of[job.job_id] = self._next_row
        self._next_row += 1
        self._events.push(job.submit_time, EventKind.ARRIVAL, job)
        if job.submit_time > self._horizon:
            self._horizon = job.submit_time
        self.n_submitted += 1
        return job

    def advance(self, until: float) -> None:
        """Declare that external time has reached ``until``."""
        if until > self._horizon:
            self._horizon = until

    def drain(self) -> None:
        """Lift the horizon: no further submissions will ever arrive."""
        self.advance(math.inf)

    # ------------------------------------------------------------------
    def next_decision(self) -> bool:
        """Pump events up to the horizon; True if a decision awaits.

        Resumes any stalled commit first — new decisions are not exposed
        while a previous commitment is still waiting to be honoured.
        """
        if self._inflight is not None:
            if not super().commit(self._inflight, self._horizon):
                return False
            self.n_started += 1
            self._inflight = None
        return self.advance_until_decision(self._horizon)

    def commit(self, job: Job, until: float | None = None) -> bool:
        """Commit to ``job``; False if the wait stalled at the horizon."""
        if self._inflight is not None and self._inflight is not job:
            raise RuntimeError(
                f"commit already in flight for job {self._inflight.job_id}; "
                "pump next_decision() before committing another"
            )
        self._inflight = None
        if super().commit(job, self._horizon if until is None else until):
            self.n_started += 1
            return True
        self._inflight = job
        return False

    def _start(self, job: Job) -> None:
        super()._start(job)
        self.started.append(job)

    def take_started(self) -> list[Job]:
        """Harvest the jobs started since the last call, committed and
        backfilled alike: a driver need not walk the running set."""
        started, self.started = self.started, []
        return started

    def take_completed(self) -> list[Job]:
        """Harvest finished jobs and release their row bookkeeping."""
        done = self.completed
        if not done:
            return done
        self.completed = []
        for job in done:
            self._row_of.pop(job.job_id, None)
        return done
