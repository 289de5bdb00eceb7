"""Scheduler interface.

A scheduler is a *priority function* (paper §I): given a waiting job, the
current time, and the cluster state, it returns a score — the **lowest**
score is scheduled first (Table III convention; FCFS scores by submit
time).  :meth:`Scheduler.select` is the generic argmin with deterministic
job-id tie-breaking; RL policies override it to run the policy network on
the whole queue at once, and run whole batches of episodes through
:meth:`~repro.schedulers.RLSchedulerPolicy.run_lockstep`.

``select(pending, now, cluster)`` is the public contract — it takes any
queue, in any order.  :meth:`Scheduler.bind` is the hook every engine
loop uses instead — the batch loop (:func:`repro.sim.run_scheduler`) and
the serving daemon (:class:`repro.serve.SchedulerService`) bind once and
ask the picker for each decision.  A bound scheduler may lean on what
the engine fixes — an episode's job population (a priority order,
per-job constants) or, on any engine, the FCFS order of ``pending`` and
the row each job holds — and must pick exactly the job ``select`` would.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING, Callable, Sequence

from repro.sim.cluster import Cluster
from repro.workloads.job import Job

if TYPE_CHECKING:
    from repro.sim.core import EngineCore

__all__ = ["Scheduler"]


class Scheduler(abc.ABC):
    """Base class for all scheduling policies."""

    #: human-readable name used in benchmark tables
    name: str = "scheduler"

    @abc.abstractmethod
    def score(self, job: Job, now: float, cluster: Cluster) -> float:
        """Priority value of ``job``; lower is scheduled first."""

    def select(self, pending: Sequence[Job], now: float, cluster: Cluster) -> Job:
        """Pick the next job from the waiting queue."""
        if not pending:
            raise ValueError("cannot select from an empty queue")
        return min(pending, key=lambda j: (self.score(j, now, cluster), j.job_id))

    def bind(self, engine: "EngineCore") -> Callable[[], Job]:
        """``pick()`` for one episode: the job :meth:`select` would choose
        from ``engine``'s queue at the moment it is called.

        The default closes over :meth:`select`.  Overrides may precompute
        per-episode state from ``engine.jobs`` and read
        ``engine.pending_rows`` instead of walking ``engine.pending``; the
        heuristics fall back to this when ``engine.jobs`` is ``None`` (an
        open-ended engine has no fixed population to precompute over),
        while an RL policy reads the rows of either engine as they come
        (:class:`~repro.schedulers.rl_scheduler.EnginePicker`).
        """
        select = self.select
        return lambda: select(engine.pending, engine.now, engine.cluster)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"
