"""Scheduler-as-a-service: the online serving layer.

The batch entry points replay pre-sampled sequences; this package runs
the same scheduling/admission/backfill logic as a long-lived daemon over
the open-ended :class:`~repro.sim.core.OnlineSchedulingEngine`:

* :mod:`~repro.serve.protocol` — versioned JSON line protocol
  (``submit`` / ``status`` / ``stats`` / ``advance`` / ``drain``);
* :mod:`~repro.serve.service` — per-tenant policy inference
  (:class:`SchedulerService`) and the multi-tenant
  :class:`SchedulerRouter`;
* :mod:`~repro.serve.server` — the selector-loop socket front end
  (one ``send`` per read) with graceful SIGTERM/``drain`` shutdown;
* :mod:`~repro.serve.client` — the blocking client the ``repro submit``
  CLI and the load generator share;
* :mod:`~repro.serve.loadgen` — the closed-loop load generator the CI
  serve smoke and the tests drive the daemon with.

Configuration enters through :class:`repro.config.ServeConfig` /
:class:`repro.config.TenantConfig` (CLI: ``python -m repro serve``).
"""

from .client import ServeClient, ServeError, replay_swf
from .loadgen import run_closed_loop, trace_jobs
from .protocol import (
    OPS,
    PROTOCOL_VERSION,
    ProtocolError,
    job_from_wire,
    job_to_wire,
)
from .server import ServeDaemon, serve
from .service import SchedulerRouter, SchedulerService, ServiceError

__all__ = [
    "PROTOCOL_VERSION",
    "OPS",
    "ProtocolError",
    "job_from_wire",
    "job_to_wire",
    "SchedulerService",
    "SchedulerRouter",
    "ServiceError",
    "ServeDaemon",
    "serve",
    "ServeClient",
    "ServeError",
    "replay_swf",
    "run_closed_loop",
    "trace_jobs",
]
