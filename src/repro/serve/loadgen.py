"""Closed-loop load generator for the scheduler daemon.

Drives a running daemon over its real socket front end: one connection
per tenant, submissions interleaved round-robin, each request waiting
for its response before the next is sent (closed loop — the offered
load adapts to service capacity instead of overrunning it).  Measures
client-observed request latency (into a telemetry histogram, as the
service does) and end-to-end requests/sec, then drains every tenant and
folds in the service-side decision-latency percentiles.  The CI serve
smoke and the tests drive the daemon with it.
"""

from __future__ import annotations

from time import perf_counter

from repro.telemetry.core import Histogram
from repro.workloads.job import Job
from repro.workloads.sampler import SequenceSampler

from .client import ServeClient
from .service import latency_summary

__all__ = ["trace_jobs", "run_closed_loop"]


def trace_jobs(
    trace, n_jobs: int, seed: int = 0, max_procs: int | None = None
) -> list[Job]:
    """A submission stream sampled from a workload trace, arrival order.

    ``max_procs`` clamps each job's processor request so the stream fits
    a tenant whose cluster is smaller than the trace's original machine
    (the daemon rejects jobs that can never be allocated).
    """
    sequence = SequenceSampler(trace, n_jobs, seed=seed).sample()
    if max_procs is not None:
        for job in sequence:
            job.requested_procs = min(job.requested_procs, max_procs)
    return sorted(sequence, key=lambda j: (j.submit_time, j.job_id))


def run_closed_loop(
    host: str,
    port: int,
    jobs_by_tenant: dict[str, list[Job]],
    drain: bool = True,
) -> dict:
    """Submit every job, round-robin across tenants; return the report.

    The report is hardware-comparable within one run only (wall-clock
    throughput); the decision-latency percentiles come from the service's
    own per-decision timer, so they exclude socket and JSON overhead.
    """
    clients = {
        tenant: ServeClient(host, port) for tenant in jobs_by_tenant
    }
    try:
        streams = {tenant: iter(jobs) for tenant, jobs in jobs_by_tenant.items()}
        latencies = Histogram()
        per_tenant = {tenant: {"requests": 0, "decisions": 0}
                      for tenant in jobs_by_tenant}
        requests = decisions = 0
        t_start = perf_counter()
        while streams:
            for tenant in list(streams):
                job = next(streams[tenant], None)
                if job is None:
                    del streams[tenant]
                    continue
                t0 = perf_counter()
                response = clients[tenant].submit(job, tenant=tenant)
                latencies.record(perf_counter() - t0)
                requests += 1
                decisions += response["decisions"]
                per_tenant[tenant]["requests"] += 1
                per_tenant[tenant]["decisions"] += response["decisions"]
        wall = perf_counter() - t_start
        report = {
            "requests": requests,
            "wall_sec": wall,
            "requests_per_sec": requests / wall if wall > 0 else None,
            "decisions": decisions,
        }
        report["request_latency_sec"] = latency_summary(latencies)
        if drain:
            stats = {}
            for tenant, client in clients.items():
                final = client.drain(tenant=tenant)
                decisions += final.get("decisions", 0)
                per_tenant[tenant]["decisions"] += final.get("decisions", 0)
                stats[tenant] = {
                    k: v for k, v in final.items() if k not in ("v", "ok", "stop")
                }
            report["decisions"] = decisions
            report["tenants"] = stats
            # service-side decision latency: the worst tenant's
            # percentiles, the conservative gate input
            report["decision_latency_sec"] = {
                q: max((s["decision_latency_sec"][q] for s in stats.values()
                        if s["decision_latency_sec"][q] is not None),
                       default=None)
                for q in ("p50", "p99")
            }
        report["per_tenant"] = per_tenant
        return report
    finally:
        for client in clients.values():
            client.close()
