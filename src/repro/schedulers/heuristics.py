"""Heuristic priority-function schedulers — Table III of the paper, exactly:

==========  ===========================================================
FCFS        ``score(t) = s_t``
SJF         ``score(t) = r_t``
WFP3        ``score(t) = -(w_t / r_t)^3 * n_t``
UNICEP      ``score(t) = -w_t / (log2(n_t) * r_t)``
F1          ``score(t) = log10(r_t) * n_t + 870 * log10(s_t)``
==========  ===========================================================

where ``s_t`` is submit time, ``r_t`` requested runtime, ``n_t`` requested
processors, and ``w_t = now - s_t`` the elapsed waiting time.  The engine
selects the job with the **minimum** score.

Numerical guards (the formulas are singular at the boundaries of real
traces): ``log2(n_t)`` uses ``max(n_t, 2)`` so serial jobs don't divide by
zero, and ``log10(s_t)`` uses ``max(s_t, 1)`` because sampled sequences are
re-based to start at t = 0.  Both guards only affect jobs at the singular
points and keep the orderings the published formulas imply.

``LJF`` and ``SmallestFirst`` are included for ablations (§II-A3 mentions
Smallest Job First as a classic utilization-oriented policy).
``FirstFit`` is the resource-aware ablation: FCFS restricted to jobs whose
full resource vector (processors *and*, on memory-constrained scenario
clusters, memory) fits the free capacity right now — it exercises
:meth:`repro.sim.cluster.Cluster.can_allocate` and therefore reacts to
memory pressure the Table III formulas cannot see.

Bound picks
-----------
``select`` scores every waiting job through :meth:`Scheduler.score` on
every decision.  Bound to a batch engine (:meth:`Scheduler.bind`), the
heuristics stop re-deriving what an episode fixes: FCFS, SJF, F1, LJF and
Smallest are *time-invariant* — their score reads only the job — so they
rank the episode's jobs once and a pick is a C-level ``min`` over the
waiting rows' ranks; WFP3 and UNICEP depend on ``now`` and keep their
per-job constants in per-row lists, evaluating the same float operations
in the same order as ``score``.  FirstFit reads the cluster and binds to
``select`` like any other scheduler.  ``tests/test_property_sim.py`` pins
every bound pick to ``select``'s ``(score, job_id)`` argmin.
"""

from __future__ import annotations

import math

from repro.sim.cluster import Cluster
from repro.workloads.job import Job

from .base import Scheduler

__all__ = [
    "FCFS",
    "SJF",
    "LJF",
    "SmallestFirst",
    "FirstFit",
    "WFP3",
    "UNICEP",
    "F1",
    "HEURISTICS",
    "ALL_HEURISTICS",
    "make_scheduler",
]


class _Ranked(Scheduler):
    """A time-invariant priority: ``score`` reads nothing but the job.

    Bound to an episode, the whole population is ordered once by
    ``(score, job_id)`` and each pick is the waiting row of least rank.
    """

    def bind(self, engine):
        jobs = engine.jobs
        if jobs is None:
            return super().bind(engine)
        cluster = engine.cluster
        order = sorted(
            range(len(jobs)),
            key=lambda i: (self.score(jobs[i], 0.0, cluster), jobs[i].job_id),
        )
        rank = [0] * len(jobs)
        for position, row in enumerate(order):
            rank[row] = position
        key = rank.__getitem__
        return lambda: jobs[min(engine.pending_rows, key=key)]


class _Waiting(Scheduler):
    """A priority that moves with the time waited.

    Bound to an episode, ``score``'s per-job constants live in per-row
    lists (:meth:`_row_scores`) and a pick evaluates, over the waiting
    rows only, the same float operations in the same order as ``score``
    — except its ``max(wait, 0.0)``, the identity for a job that has
    arrived.
    """

    def _row_scores(self, jobs: list[Job]):
        """``scores(now, rows)``: the score of each waiting row."""
        raise NotImplementedError

    def bind(self, engine):
        jobs = engine.jobs
        if jobs is None:
            return super().bind(engine)
        scores = self._row_scores(jobs)

        def pick() -> Job:
            # least (score, job_id), as select's tuple argmin
            rows = engine.pending_rows
            values = scores(engine.now, rows)
            best = min(values)
            if values.count(best) == 1:
                return jobs[rows[values.index(best)]]
            tied = (jobs[row] for row, v in zip(rows, values) if v == best)
            return min(tied, key=lambda job: job.job_id)

        return pick


class FCFS(_Ranked):
    """First Come First Served."""

    name = "FCFS"

    def score(self, job: Job, now: float, cluster: Cluster) -> float:
        return job.submit_time


class SJF(_Ranked):
    """Shortest Job First (by requested runtime — actual is invisible)."""

    name = "SJF"

    def score(self, job: Job, now: float, cluster: Cluster) -> float:
        return job.requested_time


class LJF(_Ranked):
    """Longest Job First (ablation baseline)."""

    name = "LJF"

    def score(self, job: Job, now: float, cluster: Cluster) -> float:
        return -job.requested_time


class SmallestFirst(_Ranked):
    """Smallest Job First — classic utilization-oriented policy (§II-A3)."""

    name = "Smallest"

    def score(self, job: Job, now: float, cluster: Cluster) -> float:
        return job.requested_procs


class FirstFit(Scheduler):
    """FCFS over the jobs whose resource vector fits *right now*.

    Jobs that cannot start immediately (procs or — on memory-constrained
    clusters — memory) are deprioritised by a constant offset larger than
    any submit time, so the engine only commits to a blocked job when
    nothing runnable is waiting.  The resource check is the cluster's own
    :meth:`~repro.sim.cluster.Cluster.can_allocate`, which keeps this
    heuristic automatically consistent with whatever resources the
    cluster models.
    """

    name = "FirstFit"

    #: larger than any realistic submit timestamp (~3000 CE in seconds)
    _BLOCKED_OFFSET = 2.0**40

    def score(self, job: Job, now: float, cluster: Cluster) -> float:
        blocked = 0.0 if cluster.can_allocate(job) else self._BLOCKED_OFFSET
        return job.submit_time + blocked


class WFP3(_Waiting):
    """WFP3 (Tang et al. [3]): favours long-waiting, short, narrow jobs."""

    name = "WFP3"

    def score(self, job: Job, now: float, cluster: Cluster) -> float:
        wait = max(now - job.submit_time, 0.0)
        r = max(job.requested_time, 1.0)
        return -((wait / r) ** 3) * job.requested_procs

    def _row_scores(self, jobs):
        submit = [j.submit_time for j in jobs]
        r = [max(j.requested_time, 1.0) for j in jobs]
        n = [j.requested_procs for j in jobs]
        return lambda now, rows: [
            -(((now - submit[i]) / r[i]) ** 3) * n[i] for i in rows
        ]


class UNICEP(_Waiting):
    """UNICEP (Tang et al. [3]) — `UNICEF` in some texts."""

    name = "UNICEP"

    def score(self, job: Job, now: float, cluster: Cluster) -> float:
        wait = max(now - job.submit_time, 0.0)
        r = max(job.requested_time, 1.0)
        denom = math.log2(max(job.requested_procs, 2)) * r
        return -wait / denom

    def _row_scores(self, jobs):
        submit = [j.submit_time for j in jobs]
        denom = [
            math.log2(max(j.requested_procs, 2)) * max(j.requested_time, 1.0)
            for j in jobs
        ]
        return lambda now, rows: [-(now - submit[i]) / denom[i] for i in rows]


class F1(_Ranked):
    """F1 from Carastan-Santos & de Camargo [4] — the state-of-the-art
    regression-fit policy for minimising average bounded slowdown."""

    name = "F1"

    def score(self, job: Job, now: float, cluster: Cluster) -> float:
        r = max(job.requested_time, 1.0)
        s = max(job.submit_time, 1.0)
        return math.log10(r) * job.requested_procs + 870.0 * math.log10(s)


#: Registry of the paper's five baselines, in Table III order.
HEURISTICS: dict[str, type[Scheduler]] = {
    "FCFS": FCFS,
    "SJF": SJF,
    "WFP3": WFP3,
    "UNICEP": UNICEP,
    "F1": F1,
}

#: Everything instantiable by name: Table III plus the ablation policies.
ALL_HEURISTICS: dict[str, type[Scheduler]] = {
    **HEURISTICS,
    "LJF": LJF,
    "Smallest": SmallestFirst,
    "FirstFit": FirstFit,
}


def make_scheduler(name: str) -> Scheduler:
    """Instantiate a heuristic scheduler by name (Table III + ablations)."""
    try:
        return ALL_HEURISTICS[name]()
    except KeyError:
        raise KeyError(
            f"unknown scheduler {name!r}; known: {sorted(ALL_HEURISTICS)}"
        ) from None
