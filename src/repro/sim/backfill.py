"""EASY backfilling (paper §II-A4, §IV-D), resource-vector aware.

When the committed (head) job cannot start, EASY backfilling computes the
head job's *shadow time* — the earliest instant its request will fit, based
on the **requested** (not actual) runtimes of running jobs — and starts any
waiting job that either

* finishes (by its own requested runtime) before the shadow time, or
* uses no more than the resources that will still be spare at the shadow
  time after the head job is placed ("extra" processors/memory).

Backfilled jobs therefore never delay the planned start of the head job.
Planning uses requested runtimes because actual runtimes are invisible to
schedulers; since users over-estimate, plans are conservative and the head
job can only start earlier than planned, never later.

Multi-resource planning
-----------------------
With a memory-constrained :class:`~repro.sim.cluster.Cluster`, "fits"
means *both* components of the resource vector fit: the shadow time is
the earliest planned release instant at which the head job's processors
**and** memory are available, and the extra budget is tracked per
resource.  On an unconstrained cluster every memory comparison is against
``inf``, so candidate selection is decision-for-decision identical to the
original processor-only algorithm.

Reference and engine
--------------------
:func:`backfill_candidates`, :func:`conservative_backfill_candidates` and
:func:`shadow_state` are the *reference*: they accept the waiting and
running jobs in any order and derive everything — FCFS order, planned
releases — from scratch on each call.  The engine
(:meth:`repro.sim.core.EngineCore._backfill_pass`) reaches the same
candidates from state it already maintains (a sorted queue, releases
recorded at each start) and shares only the release walk,
:func:`planned_start`; the property tests use the functions here as its
oracle.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

from repro.workloads.job import Job

from .cluster import Cluster, mem_demand

__all__ = [
    "shadow_state",
    "planned_start",
    "shadow_time_and_extra",
    "backfill_candidates",
    "conservative_backfill_candidates",
]


def shadow_state(
    head: Job,
    running: Sequence[Job],
    cluster: Cluster,
    now: float,
) -> tuple[float, int, float]:
    """Earliest planned start for ``head`` and spare resources then.

    ``running`` jobs must have ``start_time`` set.  Returns ``(shadow,
    extra_procs, extra_mem)`` where the extras are the head-room left at
    ``shadow`` after reserving the head job (``extra_mem`` is ``inf`` on
    an unconstrained cluster).
    """
    # Planned release order by *requested* end time; a job that outlived
    # its estimate is planned to release now.
    releases = sorted(
        (max(j.start_time + j.requested_time, now), j.requested_procs, mem_demand(j))
        for j in running
    )
    return planned_start(head, releases, cluster, now)


def planned_start(
    head: Job,
    releases: Iterable[tuple[float, int, float]],
    cluster: Cluster,
    now: float,
) -> tuple[float, int, float]:
    """:func:`shadow_state` over ready-made ``(planned_end, procs, mem)``
    releases, in the order they are planned to happen.

    The walk shared by the reference (which derives the releases from the
    running jobs on every call) and the engine (which records each release
    when the job starts).  A ``planned_end`` in the past counts as ``now``.
    """
    head_procs = head.requested_procs
    head_mem = mem_demand(head)
    free = cluster.free_procs
    free_mem = cluster.free_mem
    if head_procs <= free and head_mem <= free_mem:  # cluster.fits
        return now, free - head_procs, max(free_mem - head_mem, 0.0)
    total_mem = cluster.total_mem
    # Float demands reassemble the free pool in release order, which can
    # round a full-capacity plan an ulp below the capacity; cap the plan
    # at the physical total and give the fit test a relative tolerance so
    # a head job demanding exactly the cluster memory still plans a start.
    mem_tol = 0.0 if total_mem == math.inf else 1e-9 * max(1.0, total_mem)
    for planned_end, procs, mem in releases:
        free += procs
        free_mem += mem
        if free_mem > total_mem:
            free_mem = total_mem
        if free >= head_procs and free_mem + mem_tol >= head_mem:
            return (
                max(planned_end, now),
                free - head_procs,
                max(free_mem - head_mem, 0.0),
            )
    raise RuntimeError(
        f"head job {head.job_id} ({head_procs} procs, "
        f"{head_mem:g} mem) can never fit: running jobs release only "
        f"{free} procs / {free_mem:g} mem on a {cluster.n_procs}-proc "
        f"({total_mem:g}-mem) cluster"
    )


def shadow_time_and_extra(
    head: Job,
    running: Sequence[Job],
    cluster: Cluster,
    now: float,
) -> tuple[float, int]:
    """Processor-only view of :func:`shadow_state` (the historical API)."""
    shadow, extra, _ = shadow_state(head, running, cluster, now)
    return shadow, extra


def backfill_candidates(
    head: Job,
    pending: Sequence[Job],
    running: Sequence[Job],
    cluster: Cluster,
    now: float,
) -> list[Job]:
    """Jobs (FCFS order) that may start now without delaying ``head``.

    The returned list is what the engine should start *in order*; the spare
    ("extra") budget is consumed as candidates that overrun the shadow time
    are accepted, so later candidates see the reduced head-room.
    """
    shadow, extra, extra_mem = shadow_state(head, running, cluster, now)
    free = cluster.free_procs
    free_mem = cluster.free_mem
    chosen: list[Job] = []
    for job in sorted(pending, key=lambda j: (j.submit_time, j.job_id)):
        if job.job_id == head.job_id:
            continue
        need_mem = mem_demand(job)
        if job.requested_procs > free or need_mem > free_mem:
            continue
        ends_before_shadow = now + job.requested_time <= shadow
        if ends_before_shadow:
            chosen.append(job)
            free -= job.requested_procs
            free_mem -= need_mem
        elif job.requested_procs <= extra and need_mem <= extra_mem:
            chosen.append(job)
            free -= job.requested_procs
            free_mem -= need_mem
            extra -= job.requested_procs
            extra_mem -= need_mem
    return chosen


def conservative_backfill_candidates(
    head: Job,
    pending: Sequence[Job],
    running: Sequence[Job],
    cluster: Cluster,
    now: float,
) -> list[Job]:
    """Conservative backfilling: candidates may start only if they finish
    (by requested runtime) before the head job's shadow time.

    Unlike EASY, the "extra resources" allowance is not used, so no
    backfilled job may overrun the shadow time at all — a stricter
    guarantee that protects *every* queued job's implied reservation, at
    the cost of fewer backfill opportunities.  Included as the classic
    ablation point against EASY (Mu'alem & Feitelson, TPDS 2001).
    """
    shadow, _, _ = shadow_state(head, running, cluster, now)
    free = cluster.free_procs
    free_mem = cluster.free_mem
    chosen: list[Job] = []
    for job in sorted(pending, key=lambda j: (j.submit_time, j.job_id)):
        if job.job_id == head.job_id:
            continue
        need_mem = mem_demand(job)
        if job.requested_procs > free or need_mem > free_mem:
            continue
        if now + job.requested_time <= shadow:
            chosen.append(job)
            free -= job.requested_procs
            free_mem -= need_mem
    return chosen
