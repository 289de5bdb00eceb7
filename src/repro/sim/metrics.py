"""Scheduling metrics (paper §II-A3) as pure functions on completed jobs.

All four paper goals are implemented, plus their per-user fairness
aggregations (§V-F):

* ``average_waiting_time``     — `wait`,  minimise
* ``average_response_time``    — `resp`,  minimise
* ``average_slowdown``         — unbounded slowdown, minimise (Appendix A)
* ``average_bounded_slowdown`` — `bsld` with a 10-second interactive
  threshold, minimise
* ``resource_utilization``     — `util`, maximise

A *completed* job is a :class:`~repro.workloads.job.Job` whose
``start_time`` has been set by the simulator.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Callable, Sequence

import numpy as np

from repro.workloads.job import Job

__all__ = [
    "BSLD_THRESHOLD",
    "job_waiting_time",
    "job_response_time",
    "job_slowdown",
    "job_bounded_slowdown",
    "average_waiting_time",
    "average_response_time",
    "average_slowdown",
    "average_bounded_slowdown",
    "resource_utilization",
    "makespan",
    "per_user_metric",
    "fairness_aggregate",
    "METRICS",
    "metric_by_name",
]

#: Interactive threshold (seconds) of the bounded-slowdown definition.
BSLD_THRESHOLD = 10.0


def _require_scheduled(jobs: Sequence[Job]) -> None:
    for j in jobs:
        if not j.start_time >= 0:  # Job.scheduled
            raise ValueError(f"job {j.job_id} was never scheduled; metrics undefined")


# ---------------------------------------------------------------------------
# per-job quantities
# ---------------------------------------------------------------------------
def job_waiting_time(job: Job) -> float:
    """w_j = start - submit."""
    return job.start_time - job.submit_time


def job_response_time(job: Job) -> float:
    """w_j + e_j (turnaround)."""
    return job_waiting_time(job) + job.run_time


def job_slowdown(job: Job) -> float:
    """(w_j + e_j) / e_j — blows up for e_j near 0 (the Appendix metric)."""
    return job_response_time(job) / max(job.run_time, 1e-9)


def job_bounded_slowdown(job: Job, threshold: float = BSLD_THRESHOLD) -> float:
    """max((w_j + e_j) / max(e_j, threshold), 1)."""
    return max(job_response_time(job) / max(job.run_time, threshold), 1.0)


# ---------------------------------------------------------------------------
# sequence-level metrics
# ---------------------------------------------------------------------------
# Each average spells its per-job quantity out in one comprehension: the
# float operations of the ``job_*`` function of that name, in its order
# (those stay the definition and the test oracle).  An evaluation pass
# and every training trajectory end here, once per job.
def average_waiting_time(jobs: Sequence[Job]) -> float:
    _require_scheduled(jobs)
    return float(np.mean([j.start_time - j.submit_time for j in jobs]))


def average_response_time(jobs: Sequence[Job]) -> float:
    _require_scheduled(jobs)
    return float(np.mean([j.start_time - j.submit_time + j.run_time for j in jobs]))


def average_slowdown(jobs: Sequence[Job]) -> float:
    _require_scheduled(jobs)
    return float(np.mean([
        (j.start_time - j.submit_time + j.run_time) / max(j.run_time, 1e-9)
        for j in jobs
    ]))


def average_bounded_slowdown(
    jobs: Sequence[Job], threshold: float = BSLD_THRESHOLD
) -> float:
    _require_scheduled(jobs)
    return float(np.mean([
        max(
            (j.start_time - j.submit_time + j.run_time) / max(j.run_time, threshold),
            1.0,
        )
        for j in jobs
    ]))


def makespan(jobs: Sequence[Job]) -> float:
    """Time from the first submission to the last completion."""
    _require_scheduled(jobs)
    first = min(j.submit_time for j in jobs)
    last = max(j.end_time for j in jobs)
    return last - first


def resource_utilization(jobs: Sequence[Job], n_procs: int) -> float:
    """Used node-seconds over available node-seconds across the makespan."""
    _require_scheduled(jobs)
    if n_procs <= 0:
        raise ValueError("n_procs must be positive")
    span = makespan(jobs)
    if span <= 0:
        return 1.0
    used = sum(j.requested_procs * j.run_time for j in jobs)
    return used / (n_procs * span)


# ---------------------------------------------------------------------------
# fairness (§V-F): per-user metric + aggregator
# ---------------------------------------------------------------------------
def per_user_metric(
    jobs: Sequence[Job],
    metric: Callable[[Sequence[Job]], float] = average_bounded_slowdown,
) -> dict[int, float]:
    """The metric evaluated separately on each user's jobs.

    Jobs with unknown user (id -1) are grouped under -1 — synthetic Lublin
    traces always carry user ids, but real SWF files may not.
    """
    by_user: dict[int, list[Job]] = defaultdict(list)
    for j in jobs:
        by_user[j.user_id].append(j)
    return {u: metric(js) for u, js in by_user.items()}


def fairness_aggregate(
    jobs: Sequence[Job],
    metric: Callable[[Sequence[Job]], float] = average_bounded_slowdown,
    aggregator: str = "max",
) -> float:
    """Aggregate per-user metric values: 'max' (the paper's Maximal) or 'mean'."""
    values = list(per_user_metric(jobs, metric).values())
    if aggregator == "max":
        return float(max(values))
    if aggregator == "mean":
        return float(np.mean(values))
    raise ValueError(f"unknown aggregator {aggregator!r}; use 'max' or 'mean'")


# ---------------------------------------------------------------------------
# registry used by the reward builder and benches
# ---------------------------------------------------------------------------
#: name -> (callable(jobs, n_procs) -> value, higher_is_better)
METRICS: dict[str, tuple[Callable[[Sequence[Job], int], float], bool]] = {
    "bsld": (lambda jobs, n: average_bounded_slowdown(jobs), False),
    "slowdown": (lambda jobs, n: average_slowdown(jobs), False),
    "wait": (lambda jobs, n: average_waiting_time(jobs), False),
    "resp": (lambda jobs, n: average_response_time(jobs), False),
    "util": (resource_utilization, True),
    "fair-bsld-max": (
        lambda jobs, n: fairness_aggregate(jobs, average_bounded_slowdown, "max"),
        False,
    ),
    "fair-bsld-mean": (
        lambda jobs, n: fairness_aggregate(jobs, average_bounded_slowdown, "mean"),
        False,
    ),
}


def metric_by_name(name: str) -> tuple[Callable[[Sequence[Job], int], float], bool]:
    """Look up ``(fn(jobs, n_procs) -> value, higher_is_better)`` by name."""
    try:
        return METRICS[name]
    except KeyError:
        raise KeyError(f"unknown metric {name!r}; known: {sorted(METRICS)}") from None
