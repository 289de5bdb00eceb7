"""Blocking socket client for the scheduler daemon.

Shared by the ``repro submit`` CLI and the load generator
(:mod:`repro.serve.loadgen`), so every consumer speaks the wire protocol
through one implementation.  One request per call, one response per
line; server-reported failures raise :class:`ServeError`.
"""

from __future__ import annotations

import json
import socket

from repro.config import ServeConfig
from repro.workloads.job import Job
from repro.workloads.swf import read_swf

from .protocol import PROTOCOL_VERSION, encode, job_to_wire

__all__ = ["ServeError", "ServeClient", "replay_swf"]


class ServeError(RuntimeError):
    """The daemon rejected a request (or the connection broke)."""


class ServeClient:
    """One connection to a running daemon; safe to reuse across requests."""

    def __init__(self, host: str = ServeConfig.host,
                 port: int = ServeConfig.port,
                 timeout: float = 30.0):
        self.address = (host, port)
        try:
            self._sock = socket.create_connection((host, port), timeout=timeout)
        except OSError as exc:
            raise ServeError(
                f"cannot reach the scheduler daemon at {host}:{port}: {exc}"
            ) from None
        self._reader = self._sock.makefile("rb")

    # ------------------------------------------------------------------
    def request(self, op: str, **fields) -> dict:
        message = {"v": PROTOCOL_VERSION, "op": op}
        for key, value in fields.items():
            if value is not None:
                message[key] = value
        try:
            self._sock.sendall(encode(message))
            line = self._reader.readline()
        except OSError as exc:
            raise ServeError(f"connection to {self.address} broke: {exc}") from None
        if not line:
            raise ServeError("daemon closed the connection")
        response = json.loads(line)
        if not response.get("ok"):
            raise ServeError(response.get("error", "unknown server error"))
        return response

    # -- op wrappers ----------------------------------------------------
    def submit(self, job: Job | dict, tenant: str | None = None) -> dict:
        payload = job_to_wire(job) if isinstance(job, Job) else dict(job)
        return self.request("submit", tenant=tenant, job=payload)

    def status(self, job_id: int, tenant: str | None = None) -> dict:
        return self.request("status", tenant=tenant, job_id=job_id)

    def stats(self, tenant: str | None = None) -> dict:
        return self.request("stats", tenant=tenant)

    def advance(self, until: float, tenant: str | None = None) -> dict:
        return self.request("advance", tenant=tenant, until=until)

    def drain(self, tenant: str | None = None, stop: bool = False) -> dict:
        return self.request("drain", tenant=tenant, stop=stop or None)

    def ping(self) -> dict:
        return self.request("ping")

    # ------------------------------------------------------------------
    def close(self) -> None:
        for closer in (self._reader.close, self._sock.close):
            try:
                closer()
            except OSError:
                pass

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def replay_swf(
    client: ServeClient,
    path: str,
    tenant: str | None = None,
    limit: int | None = None,
    drain: bool = True,
) -> dict:
    """Stream an SWF trace file into the daemon, job by job.

    Submission order follows the trace's (submit_time, job_id) order, so
    the daemon sees the same arrival process the batch engine would
    replay.  Returns a summary: jobs submitted, decisions triggered, and
    (when ``drain``) the tenant's final stats.
    """
    trace = read_swf(path)
    jobs = trace.jobs[:limit] if limit is not None else trace.jobs
    if not jobs:
        raise ServeError(f"no usable jobs in {path}")
    submitted = decisions = 0
    for job in jobs:
        response = client.submit(job, tenant=tenant)
        submitted += 1
        decisions += response["decisions"]
    summary = {"submitted": submitted, "decisions": decisions}
    if drain:
        final = client.drain(tenant=tenant)
        per_tenant = final.get("tenants")
        if tenant is None and isinstance(per_tenant, dict):
            # daemon-wide drain: the response is keyed per tenant
            decisions += sum(t.get("decisions", 0) for t in per_tenant.values())
            stats = (next(iter(per_tenant.values()))
                     if len(per_tenant) == 1 else per_tenant)
        else:
            decisions += final.get("decisions", 0)
            stats = {
                k: v for k, v in final.items() if k not in ("v", "ok", "stop")
            }
        summary["decisions"] = decisions
        summary["stats"] = stats
    return summary
