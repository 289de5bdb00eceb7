"""Versioned JSON line protocol for the scheduler daemon.

One request per line, one response per line (NDJSON over a stream
socket).  Every message carries the protocol version so clients and
servers fail loudly across incompatible upgrades instead of
misinterpreting fields::

    -> {"v": 1, "op": "submit", "tenant": "batch",
        "job": {"job_id": 7, "run_time": 600, "requested_procs": 4}}
    <- {"v": 1, "ok": true, "job": {...}, "state": "running",
        "decisions": 1}

Operations:

``submit``
    admit one job to a tenant's cluster; the response reports the job's
    state after the decision pump ran (it may already be running).
``status``
    look up one job by ``job_id``.
``stats``
    per-tenant engine/service counters (all tenants when none is named).
``advance``
    declare that external time reached ``until`` — drives decisions for
    jobs whose start had to wait on the clock.
``drain``
    run every queued job to completion; with ``"stop": true`` the daemon
    shuts down gracefully after responding.
``ping``
    liveness/version probe.

The shared :func:`job_from_wire` / :func:`job_to_wire` codecs are the
single source of truth for the job schema — the CLI client and the load
generator both speak through them.
"""

from __future__ import annotations

import json
from math import isfinite

from repro.workloads.job import Job

__all__ = [
    "PROTOCOL_VERSION",
    "OPS",
    "ProtocolError",
    "encode",
    "decode",
    "ok_response",
    "error_response",
    "job_from_wire",
    "job_to_wire",
]

PROTOCOL_VERSION = 1
OPS = ("submit", "status", "stats", "advance", "drain", "ping")

#: wire job schema (``job_id``, ``run_time`` and ``requested_procs`` are
#: required; :func:`job_from_wire` spells the converters out)
_JOB_FIELDS = frozenset((
    "job_id", "run_time", "requested_procs", "submit_time",
    "requested_time", "requested_mem", "user_id",
))

#: the one encoder every frame goes through: ``json.dumps`` builds a new
#: ``JSONEncoder`` per call whenever its separators are not the defaults
_ENCODER = json.JSONEncoder(separators=(",", ":"))


class ProtocolError(ValueError):
    """A malformed or version-incompatible wire message."""


def encode(msg: dict) -> bytes:
    """One NDJSON frame (compact separators keep the hot path small)."""
    return (_ENCODER.encode(msg) + "\n").encode()


def decode(line: bytes | str) -> dict:
    """Parse and validate one request line."""
    try:
        msg = json.loads(line)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ProtocolError(f"request is not valid JSON: {exc}") from None
    except RecursionError:
        raise ProtocolError("request is not valid JSON: nested too deeply") from None
    if not isinstance(msg, dict):
        raise ProtocolError("request must be a JSON object")
    version = msg.get("v")
    if version != PROTOCOL_VERSION:
        raise ProtocolError(
            f"unsupported protocol version {version!r} "
            f"(this server speaks v{PROTOCOL_VERSION})"
        )
    op = msg.get("op")
    if op not in OPS:
        raise ProtocolError(f"op must be one of {OPS}, got {op!r}")
    return msg


def ok_response(**fields) -> dict:
    return {"v": PROTOCOL_VERSION, "ok": True, **fields}


def error_response(message: str) -> dict:
    return {"v": PROTOCOL_VERSION, "ok": False, "error": message}


def _finite(value) -> float:
    """``float(value)``, refusing NaN (as a run time it would enter the
    event heap) and the infinities (as a submit time, one would lift the
    engine's horizon for good)."""
    value = float(value)
    if not isfinite(value):
        raise ValueError(value)
    return value


def _integer(value) -> int:
    """``value`` as the integer it denotes: an integer, or an integral
    float (``4.0`` — JSON writers differ on which they emit).  Bare
    ``int()`` also takes ``1.5`` for 1, ``true`` for 1 and ``"7"`` for 7:
    a job id or a processor count nobody sent."""
    number = int(value)  # raises for NaN, the infinities, null, containers
    if number != value or isinstance(value, bool):  # "7" != 7
        raise ValueError(value)
    return number


def job_from_wire(payload) -> Job:
    """Build a :class:`Job` from its wire dict (shared client/server)."""
    if not isinstance(payload, dict):
        raise ProtocolError("job must be a JSON object")
    get = payload.get
    try:  # ``field`` names the one being converted, for the error message
        job_id = _integer(payload[field := "job_id"])
        run_time = _finite(payload[field := "run_time"])
        requested_procs = _integer(payload[field := "requested_procs"])
        submit_time = _finite(get(field := "submit_time", 0.0))
        # schedulers only ever see the requested runtime; default it to
        # the actual one so minimal submissions still plan sensibly
        requested_time = _finite(get(field := "requested_time", run_time))
        requested_mem = _finite(get(field := "requested_mem", -1.0))
        user_id = _integer(get(field := "user_id", -1))
    except KeyError:
        raise ProtocolError(f"job is missing required field {field!r}") from None
    except (TypeError, ValueError, OverflowError):  # int(1e400) overflows
        integer = field in ("job_id", "requested_procs", "user_id")
        raise ProtocolError(
            f"job field {field!r} must be a finite number, "
            f"got {payload[field]!r}"
            + (" (an integer is required)" if integer else "")
        ) from None
    if not payload.keys() <= _JOB_FIELDS:
        raise ProtocolError(
            f"unknown job fields: {sorted(set(payload) - _JOB_FIELDS)}"
        )
    try:
        return Job(job_id, submit_time, run_time, requested_procs,
                   requested_time, requested_mem, user_id)
    except ValueError as exc:
        raise ProtocolError(f"invalid job: {exc}") from None


def job_to_wire(job: Job) -> dict:
    wire = {
        "job_id": job.job_id,
        "submit_time": job.submit_time,
        "run_time": job.run_time,
        "requested_procs": job.requested_procs,
        "requested_time": job.requested_time,
    }
    if job.requested_mem > 0:
        wire["requested_mem"] = job.requested_mem
    if job.user_id >= 0:
        wire["user_id"] = job.user_id
    return wire
