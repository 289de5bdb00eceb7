"""Event-driven engine core shared by the batch and online schedulers.

:class:`EngineCore` owns the mechanics every engine variant needs — the
event order, the bisect-sorted FCFS pending queue, cluster admission,
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
wait loop *at the event step* — exactly where it paused — so a
stalled-and-resumed commit processes the identical event sequence the
batch engine would, which is what makes online replay reproduce the batch
decision log bit-for-bit.

Event order
-----------
Events apply in ``(time, finish before arrival, job_id)`` order — a job
arriving at ``t`` sees the resources freed at ``t`` — and no queue object
holds them.  Arrivals not admitted yet are a list sorted by
``(submit_time, job_id)`` read through a cursor: they are in order before
the first event runs, so they never enter a heap (the batch driver's list
is ``jobs`` itself).  Finishes alone live on a heap, as bare ``(end_time,
job_id, job)`` tuples pushed at each start.  :meth:`EngineCore._step` is
the two-way merge: it applies whichever of the heap's top and the job
under the cursor is due first (the finish on a tie) unless that lies
beyond ``until``, and says what it did; ``advance_until_decision`` and
``commit``'s wait are loops over it.  Online, ``submit`` sorts the job
into the arrivals past the cursor — at the end, unless it is earlier than
a submission not admitted yet or ties its time with a smaller job id (a
``submit_time`` in the simulated past is clamped to ``now`` first) — and
drops the admitted prefix, so the list holds the live set only.
``tests/test_property_sim.py`` holds the merge to a single ``(time, kind,
job_id)`` heap of all events, step for step.

Queue invariant
---------------
``pending`` is sorted by ``(submit_time, job_id)`` and ``pending_rows``
is parallel to it, after every event and every start, on both drivers.
Everything on the decision path leans on it: observation building takes
the first ``M`` rows, bound schedulers pick over ``pending_rows``
(:meth:`repro.schedulers.Scheduler.bind`), the backfill planner
(:meth:`EngineCore._backfill_plan`) walks the queue as it stands, and
``commit`` finds its job once and carries the index through the wait —
every start deletes by index.  The planner's references are the public
functions of :mod:`repro.sim.backfill` — unsorted input, everything
re-derived per call — and ``tests/test_property_sim.py`` holds the two
together on generated engine states.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right, insort
from heapq import heappop, heappush
from operator import attrgetter, itemgetter
from typing import ValuesView

from repro.config import BACKFILL_MODES
from repro.telemetry import core as _telemetry
from repro.workloads.job import Job

from .backfill import planned_start
from .cluster import ClusterSpec, mem_demand

__all__ = ["EngineCore", "OnlineSchedulingEngine"]

_fcfs_key = attrgetter("submit_time", "job_id")

#: what :meth:`EngineCore._step` did: applied a finish, applied an
#: arrival, found no event left, or found the next one beyond ``until``
_FINISH, _ARRIVAL, _EXHAUSTED, _BEYOND = range(4)


class EngineCore:
    """Event merge + pending queue + admission, independent of job source.

    Hot-path invariants (relied on by the vectorised rollout path):

    * ``pending`` is kept sorted by ``(submit_time, job_id)`` — FCFS order —
      at all times, so neither observation building nor the backfill
      planner ever re-sorts it.  Arrivals are admitted in exactly that
      order, so maintaining the invariant is an O(1) append that compares
      against the queue's tail.
    * ``pending_rows`` is parallel to ``pending``: the feature row of each
      waiting job.  Rows are unique per live job, so a commit locates its
      job with one C-level ``pending_rows.index(row)`` and every start
      deletes the two list slots by index — there is no third key list to
      keep in step.
    * running jobs are tracked in an insertion-ordered id map, making the
      per-finish-event removal O(1) instead of an O(n) list scan with the
      full dataclass ``__eq__``.
    """

    #: accepted backfilling modes, :data:`repro.config.BACKFILL_MODES`
    BACKFILL_MODES = BACKFILL_MODES

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
        #: the same releases, kept sorted: insorted at a start, bisected
        #: out at the finish
        self._releases: list[tuple[float, int, float]] = []
        self.completed: list[Job] = []
        #: arrivals sorted by (submit_time, job_id); those from ``_cursor``
        #: on are not admitted yet (see "Event order" above)
        self._arrivals: list[Job] = []
        self._cursor = 0
        #: min-heap of ``(end_time, job_id, job)``, one per running job
        self._finishes: list[tuple[float, int, Job]] = []
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

    def _start(self, i: int, job: Job) -> None:
        """Allocate and launch ``job``, the waiting job at index ``i``, at
        the current time."""
        mem = self.cluster.allocate(job)
        now = self.now
        job.start_time = now
        del self.pending[i]
        del self.pending_rows[i]
        job_id = job.job_id
        self._running[job_id] = job
        if self.backfill:
            release = (now + job.requested_time, job.requested_procs, mem)
            self._planned[job_id] = release
            insort(self._releases, release)
        end = now + job.run_time  # job.end_time, without its two properties
        if end < 0:
            raise ValueError(f"event time must be non-negative, got {end}")
        heappush(self._finishes, (end, job_id, job))

    def _step(self, until: float) -> int:
        """Apply the next event due by ``until`` and say what it was.

        The next event is the earlier of the finish heap's top and the
        arrival under the cursor; a finish wins an equal-time tie, so a
        job arriving at ``t`` sees the resources freed at ``t``.
        """
        finishes = self._finishes
        cursor = self._cursor
        arrivals = self._arrivals
        job = arrivals[cursor] if cursor < len(arrivals) else None
        if finishes and (job is None or finishes[0][0] <= job.submit_time):
            time = finishes[0][0]
            finish = True
        elif job is None:
            return _EXHAUSTED
        else:
            time = job.submit_time
            finish = False
        if time > until:
            return _BEYOND
        assert time >= self.now, "event order went backwards in time"
        self.now = time
        self.n_events += 1
        if finish:
            _, job_id, job = heappop(finishes)
            self.cluster.release(job)
            del self._running[job_id]
            release = self._planned.pop(job_id, None)
            if release is not None:
                releases = self._releases
                del releases[bisect_left(releases, release)]
            self.completed.append(job)
            return _FINISH
        self._cursor = cursor + 1
        # Arrivals come in (time, job_id) order, so appending after a tail
        # that sorts no later preserves the FCFS sort.  The bisect branch
        # takes online submissions that tie the tail's timestamp (clamped
        # to ``now``) with a smaller job id.
        job_id = job.job_id
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
        return _ARRIVAL

    def advance_until_decision(self, until: float = math.inf) -> bool:
        """Run events (up to ``until``) until a scheduling decision is needed.

        Returns True if there is a decision to make (pending non-empty),
        False if no more events are reachable — the episode is over (batch)
        or the horizon was hit (online).
        """
        while not self.pending:
            if self._step(until) >= _EXHAUSTED:
                return False
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
        i = self._pending_index(job)
        if i < 0:
            raise ValueError(f"job {job.job_id} is not pending")
        # Resume a stalled commit at the event step it paused before, not
        # from the top: a fresh backfill pass at the unchanged state would
        # be a no-op, but skipping it keeps the control flow bit-identical
        # to an uninterrupted batch commit.
        resumed = self._stall is job
        self._stall = None
        cluster = self.cluster
        rows = self.pending_rows
        row = rows[i]
        procs, mem = job.requested_procs, mem_demand(job)
        while True:
            if not resumed:
                # cluster.fits(procs, mem), once per event of the wait
                if procs <= cluster.free_procs and mem <= cluster.free_mem:
                    break
                if self.backfill:
                    # backfilled starts only take resources: the head
                    # cannot have come to fit, so it is not asked again
                    for started, (at, candidate) in enumerate(
                        self._backfill_plan(job)
                    ):
                        at -= started  # every start closed a slot below it
                        self._start(at, candidate)
                        if at < i:
                            i -= 1
            resumed = False
            event = self._step(until)
            if event == _ARRIVAL:
                if rows[i] != row:  # a tying arrival sorted in ahead of it
                    i = rows.index(row)
            elif event == _EXHAUSTED:
                raise RuntimeError(
                    f"deadlock: job {job.job_id} cannot fit and no events remain"
                )
            elif event == _BEYOND:
                self._stall = job
                return False
        self._start(i, job)
        return True

    def _backfill_pass(self, head: Job) -> list[Job]:
        """Waiting jobs that may start now without delaying ``head``, in
        the order they are to be started."""
        return [job for _, job in self._backfill_plan(head)]

    def _backfill_plan(self, head: Job) -> list[tuple[int, Job]]:
        """:meth:`_backfill_pass` with each job's index in ``pending``.

        Decision-for-decision the public
        :func:`~repro.sim.backfill.backfill_candidates` /
        :func:`~repro.sim.backfill.conservative_backfill_candidates` (the
        property-test oracles) applied to the engine's own state, minus
        the work that state makes redundant: ``pending`` is walked as it
        stands (FCFS-sorted by invariant) and only while a processor is
        left, a job is dropped on the free vector before anything else is
        looked at, and the head's shadow time is planned only once some
        job passes that test.
        """
        free = self.cluster.free_procs
        if not free:
            return []
        free_mem = self.cluster.free_mem
        now = self.now
        easy = self.backfill != "conservative"
        head_id = head.job_id
        shadow = None
        chosen: list[tuple[int, Job]] = []
        for i, job in enumerate(self.pending):
            procs = job.requested_procs
            if procs > free:
                continue
            need_mem = mem_demand(job)
            if need_mem > free_mem or job.job_id == head_id:
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
            chosen.append((i, job))
            free -= procs
            if not free:  # every job asks for at least one processor
                break
            free_mem -= need_mem
        return chosen

    def _shadow(self, head: Job) -> tuple[float, int, float]:
        """:func:`~repro.sim.backfill.shadow_state` of the running jobs,
        from the releases recorded at their starts."""
        now = self.now
        releases = self._releases
        # shadow_state clamps an overrun job's release to ``now``, which
        # re-orders the releases already due among themselves by demand
        due = bisect_right(releases, (now, math.inf))
        if due > 1:
            releases = releases.copy()
            releases[:due] = sorted(releases[:due], key=itemgetter(1, 2))
        return planned_start(head, releases, self.cluster, now)


class OnlineSchedulingEngine(EngineCore):
    """Open-ended engine variant: time is driven by external arrivals.

    The driver loop is::

        engine = OnlineSchedulingEngine(ClusterSpec(256), backfill="easy")
        engine.submit(job)                  # as requests arrive
        while engine.next_decision():       # pump after submit/advance
            engine.commit(<pick one of engine.pending>)
        engine.live(job_id)                 # a live job's copy, or None
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
    to the *live* job set, not everything it ever served.  The engine is
    the one record of a live job: :meth:`live` returns its copy, whose
    ``start_time`` is set once it starts.
    """

    def __init__(self, cluster: int | ClusterSpec, backfill: bool | str = False):
        super().__init__(cluster, backfill=backfill)
        self._horizon = 0.0
        self.n_submitted = 0

    # ------------------------------------------------------------------
    @property
    def horizon(self) -> float:
        """Latest externally-observed instant; events beyond it wait."""
        return self._horizon

    @property
    def idle(self) -> bool:
        """True when nothing is pending, running, stalled, or yet to be
        admitted."""
        return (
            not self.pending
            and self._stall is None
            and not self._running  # one finish on the heap per running job
            and self._cursor == len(self._arrivals)
        )

    # ------------------------------------------------------------------
    def submit(self, job: Job) -> Job:
        """Admit an externally-arriving job; returns the engine's copy.

        The submission instant becomes the new horizon.  A ``submit_time``
        in the simulated past is clamped to ``now`` — the arrival is only
        being observed now, and the pending-queue sort key must agree with
        the arrival event's timestamp.
        """
        # a job keeps its row from submit to take_completed, running too
        if job.job_id in self._row_of:
            raise ValueError(f"job {job.job_id} is already known to the engine")
        self._validate_fits_cluster(job)
        job = job.copy()
        if job.submit_time < self.now:
            job.submit_time = self.now
        self._row_of[job.job_id] = self._next_row
        self._next_row += 1
        arrivals = self._arrivals
        if self._cursor:
            # drop the admitted prefix: the buffer holds the live set only
            del arrivals[: self._cursor]
            self._cursor = 0
        # at the end, unless it is out of order or ties with a smaller id
        insort(arrivals, job, key=_fcfs_key)
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
        if self._stall is not None and not super().commit(
            self._stall, self._horizon
        ):
            return False
        return self.advance_until_decision(self._horizon)

    def commit(self, job: Job, until: float | None = None) -> bool:
        """Commit to ``job``; False if the wait stalled at the horizon."""
        if self._stall is not None and self._stall is not job:
            raise RuntimeError(
                f"commit already in flight for job {self._stall.job_id}; "
                "pump next_decision() before committing another"
            )
        return super().commit(job, self._horizon if until is None else until)

    def live(self, job_id: int) -> Job | None:
        """The engine's copy of ``job_id`` while it is live — running,
        pending (a stalled commit included), or submitted for a later
        instant and not admitted yet — and None once it has finished."""
        job = self._running.get(job_id)
        if job is None and (row := self._row_of.get(job_id)) is not None:
            rows = self.pending_rows
            if row in rows:
                return self.pending[rows.index(row)]
            # not admitted yet, or finished and not harvested yet
            arrivals = self._arrivals[self._cursor:]
            job = next((j for j in arrivals if j.job_id == job_id), None)
        return job

    def take_completed(self) -> list[Job]:
        """Harvest finished jobs and release their row bookkeeping."""
        done = self.completed
        if not done:
            return done
        self.completed = []
        for job in done:
            self._row_of.pop(job.job_id, None)
        return done
