"""Policy inference over the online engine: one service per tenant.

:class:`SchedulerService` owns one
:class:`~repro.sim.core.OnlineSchedulingEngine` plus a decision policy
(heuristic or loaded :class:`~repro.schedulers.RLSchedulerPolicy`) and
turns submissions into scheduling decisions.  The policy is bound to the
engine once (:meth:`~repro.schedulers.Scheduler.bind`) and ``pump`` asks
the picker for each decision.  An RL tenant's picker reads the engine's
FCFS-sorted queue as it stands and keeps a feature table keyed by engine
row, bounded by a fixed number of observation windows
(:class:`~repro.schedulers.rl_scheduler.EnginePicker`); a heuristic
tenant's picker is its ``select`` on the live queue.  Memory is bounded
by the *live* job set: completed jobs are harvested out of the engine,
and the finished-job history kept for ``status`` queries is a
:class:`FinishedRing` — a fixed-capacity FIFO of typed columns (times in
``array('d')``, processor counts in ``array('q')``, one job id per slot
and one id → slot dict, ≈ 160 B a job) that grows by append up to
``completed_history`` and then overwrites its oldest slot; a finished
job's ``status`` record is built from its slot only when asked.

:class:`SchedulerRouter` multiplexes N independent tenants — separate
clusters, policies, clocks, and telemetry labels — behind the one wire
protocol, mapping request dicts to responses.  Both classes are
synchronous and single-threaded by design: the selector-loop front end
(:mod:`repro.serve.server`) serialises requests, so no locking exists
anywhere in the decision path.
"""

from __future__ import annotations

import math
from array import array
from time import perf_counter

from repro.config import ServeConfig, TenantConfig
from repro.schedulers import RLSchedulerPolicy, make_scheduler
from repro.sim import ClusterSpec, OnlineSchedulingEngine
from repro.telemetry import core as _telemetry
from repro.telemetry.core import Histogram, histogram_quantile

from .protocol import (
    ProtocolError,
    _integer,
    job_from_wire,
    job_to_wire,
    ok_response,
)

__all__ = ["ServiceError", "SchedulerService", "SchedulerRouter"]


class ServiceError(ValueError):
    """A well-formed request the service cannot honour (bad tenant/job)."""


class FinishedRing:
    """The last ``capacity`` finished jobs, one slot each, oldest
    overwritten first.

    Columns grow by append until they hold ``capacity`` slots, so an idle
    ring holds nothing in proportion to its capacity (and ``capacity`` 0
    keeps nothing).  A job id submitted again after it finished takes a
    new slot when it finishes again; its older slot stays in the ring,
    unreachable, until the ring overwrites it, which leaves the newer
    entry alone.
    """

    def __init__(self, capacity: int):
        self.capacity = capacity
        self._slot: dict[int, int] = {}  # job id -> its latest slot
        self._ids: list[int] = []        # job id per slot
        self._submit = array("d")
        self._start = array("d")
        self._finish = array("d")
        self._procs = array("q")
        self._oldest = 0  # the slot the next finish overwrites once full

    def __len__(self) -> int:
        return len(self._slot)

    def __contains__(self, job_id: int) -> bool:
        return job_id in self._slot

    def extend(self, jobs) -> None:
        """Record finished ``jobs`` (the engine's own, in finish order)."""
        capacity = self.capacity
        if not capacity:
            return
        slot_of, ids = self._slot, self._ids
        for job in jobs:
            job_id = job.job_id
            start = job.start_time
            if len(ids) < capacity:
                slot = len(ids)
                ids.append(job_id)
                self._submit.append(job.submit_time)
                self._start.append(start)
                self._finish.append(start + job.run_time)  # job.end_time
                self._procs.append(job.requested_procs)
            else:
                slot = self._oldest
                self._oldest = slot + 1 if slot + 1 < capacity else 0
                evicted = ids[slot]
                if slot_of.get(evicted) == slot:  # not re-finished since
                    del slot_of[evicted]
                ids[slot] = job_id
                self._submit[slot] = job.submit_time
                self._start[slot] = start
                self._finish[slot] = start + job.run_time
                self._procs[slot] = job.requested_procs
            slot_of[job_id] = slot

    def record(self, job_id: int, tenant: str) -> dict | None:
        """``job_id``'s ``status`` record, or None when it is not held."""
        slot = self._slot.get(job_id)
        if slot is None:
            return None
        submit, start = self._submit[slot], self._start[slot]
        return {
            "job_id": job_id,
            "tenant": tenant,
            "state": "finished",
            "submit_time": submit,
            "requested_procs": self._procs[slot],
            "start_time": start,
            "finish_time": self._finish[slot],
            "wait_time": start - submit,
        }


class SchedulerService:
    """One tenant: an online engine + a policy + bounded bookkeeping."""

    def __init__(self, tenant: TenantConfig,
                 completed_history: int = ServeConfig.completed_history):
        self.tenant = tenant
        # the tenant's memory is per processor, the spec's the cluster's
        self.spec = ClusterSpec(
            tenant.n_procs,
            memory=None if tenant.memory is None
            else tenant.memory * tenant.n_procs,
        )
        self.engine = OnlineSchedulingEngine(self.spec, backfill=tenant.backfill)
        if tenant.policy_path is not None:
            # retarget through the checked setter: a policy trained for a
            # different cluster size is re-aimed here, not mid-decision
            self.policy = RLSchedulerPolicy.load(tenant.policy_path).retarget(
                self.spec, name=f"RL:{tenant.name}"
            )
        else:
            self.policy = make_scheduler(tenant.scheduler)
        self._pick = self.policy.bind(self.engine)
        self._records: dict[int, dict] = {}  # live jobs (pending/running)
        self._history = FinishedRing(completed_history)
        self.n_decisions = 0
        self.n_finished = 0
        # Every decision's latency is recorded once, into one histogram:
        # the registry's per-tenant instrument when telemetry is on, a
        # private one otherwise; stats() reads its quantiles.
        reg = _telemetry.current()
        suffix = f"{{tenant={tenant.name}}}"
        self._latency = (
            reg.histogram(f"serve.decision_latency_sec{suffix}")
            if reg.enabled
            else Histogram()
        )
        self._tel_decisions = reg.counter(f"serve.decisions{suffix}")

    # ------------------------------------------------------------------
    def submit(self, payload: dict) -> dict:
        """Admit one wire job; pump decisions; report the resulting state."""
        job = job_from_wire(payload)
        try:
            admitted = self.engine.submit(job)
        except ValueError as exc:
            raise ServiceError(str(exc)) from None
        self._records[admitted.job_id] = {
            "job_id": admitted.job_id,
            "tenant": self.tenant.name,
            "state": "pending",
            "submit_time": admitted.submit_time,
            "requested_procs": admitted.requested_procs,
        }
        decisions = self.pump()
        return {
            "job": job_to_wire(admitted),
            "state": self._state_of(admitted.job_id),
            "decisions": decisions,
        }

    def advance(self, until: float) -> dict:
        """External time reached ``until``; run any decisions that unblocks."""
        if not isinstance(until, (int, float)) or math.isnan(until):
            raise ServiceError(f"advance needs a numeric 'until', got {until!r}")
        self.engine.advance(float(until))
        return {"decisions": self.pump(), "now": self.engine.now}

    def drain(self) -> dict:
        """Run every queued job to completion (horizon lifts to infinity)."""
        self.engine.drain()
        decisions = self.pump()
        assert self.engine.idle, "engine not quiescent after drain"
        # nothing waits: a fresh picker holds no started job's row
        self._pick = self.policy.bind(self.engine)
        # "decisions" is the *delta* made by this drain, consistent with
        # submit/advance; the cumulative count lives in stats()["decisions"],
        # which would otherwise clobber it
        return {**self.stats(), "decisions": decisions}

    def status(self, job_id) -> dict:
        try:
            job_id = _integer(job_id)
        except (TypeError, ValueError, OverflowError):  # int(1e400) overflows
            raise ServiceError(f"status needs an integer job_id, got {job_id!r}") from None
        record = self._records.get(job_id)
        if record is not None:
            return {"job": dict(record)}
        record = self._history.record(job_id, self.tenant.name)
        if record is None:
            raise ServiceError(
                f"unknown job {job_id} on tenant {self.tenant.name!r} "
                "(never submitted, or evicted from the finished history)"
            )
        return {"job": record}

    def stats(self) -> dict:
        engine = self.engine
        return {
            "tenant": self.tenant.name,
            "scheduler": self.policy.name,
            "n_procs": self.spec.n_procs,
            "submitted": engine.n_submitted,
            "started": engine.n_started,
            "finished": self.n_finished,
            "pending": len(engine.pending),
            "running": len(engine.running_view),
            "free_procs": engine.cluster.free_procs,
            "now": engine.now,
            "decisions": self.n_decisions,
            "decision_latency_sec": latency_summary(self._latency),
        }

    # ------------------------------------------------------------------
    def pump(self) -> int:
        """Resolve every decision reachable at the current horizon."""
        engine = self.engine
        made = 0
        while engine.next_decision():
            t0 = perf_counter()
            best = self._pick()
            started = engine.commit(best)
            self._latency.record(perf_counter() - t0)
            self._tel_decisions.add()
            self.n_decisions += 1
            made += 1
            if not started:
                break  # stalled at the horizon; a later submit/advance resumes
        self._reconcile()
        return made

    def _reconcile(self) -> None:
        """Sync job records with the engine's start and finish deltas;
        finished jobs leave ``_records`` for the history ring."""
        for job in self.engine.take_started():
            record = self._records.get(job.job_id)
            if record is not None:
                record["state"] = "running"
                record["start_time"] = job.start_time
        finished = self.engine.take_completed()
        if not finished:
            return
        self.n_finished += len(finished)
        records = self._records
        for job in finished:
            records.pop(job.job_id, None)
        self._history.extend(finished)

    def _state_of(self, job_id: int) -> str:
        record = self._records.get(job_id)
        if record is not None:
            return record["state"]
        return "finished" if job_id in self._history else "unknown"


def latency_summary(hist: Histogram) -> dict:
    """``count`` / ``p50`` / ``p99`` / ``mean`` of a latency histogram
    (bucket-interpolated quantiles; ``None`` while it is empty)."""
    if hist.count == 0:
        return {"count": 0, "p50": None, "p99": None, "mean": None}
    entry = hist.to_dict()
    return {
        "count": hist.count,
        "p50": histogram_quantile(entry, 0.50),
        "p99": histogram_quantile(entry, 0.99),
        "mean": hist.sum / hist.count,
    }


class SchedulerRouter:
    """Dispatch wire requests across the configured tenants."""

    def __init__(self, config: ServeConfig):
        self.config = config
        self.services = {
            tenant.name: SchedulerService(
                tenant, completed_history=config.completed_history
            )
            for tenant in config.tenants
        }

    # ------------------------------------------------------------------
    def service(self, name: str | None) -> SchedulerService:
        if name is None:
            if len(self.services) == 1:
                return next(iter(self.services.values()))
            if "default" in self.services:
                return self.services["default"]
            raise ServiceError(
                "request must name a tenant; this daemon serves "
                f"{sorted(self.services)}"
            )
        service = self.services.get(name)
        if service is None:
            raise ServiceError(
                f"unknown tenant {name!r}; this daemon serves "
                f"{sorted(self.services)}"
            )
        return service

    def dispatch(self, msg: dict) -> dict:
        """One validated request in, one response dict out.

        ``ProtocolError``/``ServiceError`` raised here are client errors;
        the server maps them to ``ok: false`` responses.
        """
        op = msg["op"]
        tenant = msg.get("tenant")
        if tenant is not None and not isinstance(tenant, str):
            raise ProtocolError(f"tenant must be a string, got {tenant!r}")
        if op == "ping":
            return ok_response(tenants=sorted(self.services))
        if op == "submit":
            if "job" not in msg:
                raise ProtocolError("submit needs a 'job' object")
            return ok_response(**self.service(tenant).submit(msg["job"]))
        if op == "status":
            if "job_id" not in msg:
                raise ProtocolError("status needs a 'job_id'")
            return ok_response(**self.service(tenant).status(msg["job_id"]))
        if op == "advance":
            if "until" not in msg:
                raise ProtocolError("advance needs an 'until' timestamp")
            return ok_response(**self.service(tenant).advance(msg["until"]))
        if op == "stats":
            if tenant is None:
                return ok_response(
                    tenants={
                        name: service.stats()
                        for name, service in self.services.items()
                    }
                )
            return ok_response(**self.service(tenant).stats())
        if op == "drain":
            if tenant is None:
                return ok_response(
                    stop=bool(msg.get("stop", False)),
                    tenants={
                        name: service.drain()
                        for name, service in self.services.items()
                    },
                )
            return ok_response(
                stop=bool(msg.get("stop", False)),
                **self.service(tenant).drain(),
            )
        raise ProtocolError(f"unhandled op {op!r}")  # unreachable: decode vets op

    def drain_all(self) -> dict:
        """Graceful-shutdown path: every tenant runs to quiescence."""
        return {name: service.drain() for name, service in self.services.items()}
