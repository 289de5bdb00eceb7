"""Versioned JSONL sink, schema validator, and summary-tree renderer.

The on-disk format is ``repro/telemetry@1``: one JSON object per line.
The first line is always a ``run`` event carrying the schema tag and run
metadata; subsequent lines are ``epoch`` (per-epoch training summaries),
``heartbeat`` (study cell progress), and ``snapshot`` (the
instrument state, usually once at end of run).  Every line carries a
wall-clock ``ts`` — this file is the *only* place wall-clock time exists;
instruments themselves time with monotonic clocks and results never see
either.

Non-finite floats are serialized as ``null`` so the file parses with any
strict JSON reader.
"""

from __future__ import annotations

import json
import logging
import math
import time
from contextlib import contextmanager

from . import core
from .core import TelemetrySnapshot, histogram_quantile

__all__ = [
    "SCHEMA",
    "TelemetrySink",
    "validate_jsonl",
    "render_summary",
    "telemetry_run",
]

SCHEMA = "repro/telemetry@1"
EVENTS = ("run", "epoch", "heartbeat", "snapshot")

logger = logging.getLogger("repro.telemetry")


def _json_safe(obj):
    """Replace non-finite floats with None, recursively."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {k: _json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_safe(v) for v in obj]
    return obj


class TelemetrySink:
    """Append-only JSONL writer for one run.

    Lines are flushed as written so a live run can be tailed.  The sink
    never reads instruments itself — callers pass snapshots/fields in —
    which keeps it trivially safe to open even when telemetry is
    otherwise disabled.
    """

    def __init__(self, path: str, meta: dict | None = None):
        self.path = str(path)
        self._fh = open(self.path, "w", encoding="utf-8")
        self.write_event("run", schema=SCHEMA, meta=dict(meta or {}))

    def write_event(self, event: str, **fields) -> None:
        if event not in EVENTS:
            raise ValueError(f"unknown event type {event!r}")
        if self._fh is None:
            return
        record = {"event": event, "ts": time.time()}
        record.update(fields)
        self._fh.write(json.dumps(_json_safe(record), sort_keys=True) + "\n")
        self._fh.flush()

    def write_snapshot(self, snap: TelemetrySnapshot, **fields) -> None:
        self.write_event("snapshot", data=snap.to_dict(), **fields)

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "TelemetrySink":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


# -- validation ---------------------------------------------------------
def _check(cond: bool, line_no: int, msg: str) -> None:
    if not cond:
        raise ValueError(f"telemetry jsonl line {line_no}: {msg}")


def _validate_stats(entry: dict, line_no: int, what: str) -> None:
    _check(isinstance(entry, dict), line_no, f"{what} entry must be an object")
    for key in ("count", "sum"):
        _check(key in entry, line_no, f"{what} entry missing {key!r}")
    _check(
        isinstance(entry["count"], int) and entry["count"] >= 0,
        line_no, f"{what} count must be a non-negative int",
    )


def validate_jsonl(path: str) -> dict:
    """Validate a file against ``repro/telemetry@1``.

    Raises ``ValueError`` with the offending line number on any problem;
    returns ``{"lines": n, "events": {event: count}, "snapshot": dict|None}``
    (the *last* snapshot's data) on success.
    """
    events: dict[str, int] = {}
    last_snapshot = None
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    _check(len(lines) > 0, 0, "file is empty")
    for i, raw in enumerate(lines, start=1):
        try:
            record = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise ValueError(f"telemetry jsonl line {i}: not JSON ({exc})") from None
        _check(isinstance(record, dict), i, "line must be a JSON object")
        event = record.get("event")
        _check(event in EVENTS, i, f"unknown event {event!r}")
        _check(
            isinstance(record.get("ts"), (int, float)), i, "missing numeric ts"
        )
        if i == 1:
            _check(event == "run", i, "first line must be a run event")
            _check(
                record.get("schema") == SCHEMA,
                i, f"schema must be {SCHEMA!r}, got {record.get('schema')!r}",
            )
        if event == "epoch":
            _check(
                isinstance(record.get("epoch"), int) and record["epoch"] >= 0,
                i, "epoch event needs a non-negative int 'epoch'",
            )
            phases = record.get("phases")
            _check(
                phases is None or isinstance(phases, dict),
                i, "'phases' must be an object or null",
            )
        if event == "heartbeat":
            _check(
                isinstance(record.get("cell"), str),
                i, "heartbeat event needs a string 'cell'",
            )
        if event == "snapshot":
            data = record.get("data")
            _check(isinstance(data, dict), i, "snapshot needs an object 'data'")
            for table in ("counters", "gauges", "histograms", "spans"):
                _check(
                    isinstance(data.get(table), dict),
                    i, f"snapshot data missing table {table!r}",
                )
            for name, value in data["counters"].items():
                _check(
                    isinstance(value, (int, float)),
                    i, f"counter {name!r} must be numeric",
                )
            for name, entry in data["gauges"].items():
                _validate_stats(entry, i, f"gauge {name!r}")
            for name, entry in data["spans"].items():
                _validate_stats(entry, i, f"span {name!r}")
            for name, entry in data["histograms"].items():
                _validate_stats(entry, i, f"histogram {name!r}")
                _check(
                    isinstance(entry.get("bounds"), list)
                    and isinstance(entry.get("counts"), list),
                    i, f"histogram {name!r} needs 'bounds' and 'counts' lists",
                )
                _check(
                    len(entry["counts"]) == len(entry["bounds"]) + 1,
                    i, f"histogram {name!r}: len(counts) != len(bounds)+1",
                )
                _check(
                    sum(entry["counts"]) == entry["count"],
                    i, f"histogram {name!r}: bucket counts do not sum to count",
                )
            last_snapshot = data
        events[event] = events.get(event, 0) + 1
    _check(events.get("snapshot", 0) >= 1, len(lines), "no snapshot event")
    return {"lines": len(lines), "events": events, "snapshot": last_snapshot}


# -- summary tree -------------------------------------------------------
def _fmt_sec(seconds: float) -> str:
    if seconds != seconds:  # nan
        return "-"
    if seconds >= 1.0:
        return f"{seconds:.2f}s"
    if seconds >= 1e-3:
        return f"{seconds * 1e3:.1f}ms"
    return f"{seconds * 1e6:.0f}us"


def render_summary(snap: TelemetrySnapshot) -> str:
    """Human-readable end-of-run tree for one snapshot.

    Spans are nested by their slash-joined paths; histograms report
    interpolated p50/p90/p99.
    """
    lines = ["telemetry summary"]
    if snap.spans:
        lines.append("  spans")
        for path in sorted(snap.spans):
            st = snap.spans[path]
            depth = path.count("/")
            name = path.rsplit("/", 1)[-1]
            mean = st["sum"] / st["count"] if st["count"] else math.nan
            lines.append(
                f"  {'  ' * (depth + 1)}{name:<28} n {st['count']:<7} "
                f"total {_fmt_sec(st['sum']):<9} mean {_fmt_sec(mean)}"
            )
    if snap.counters:
        lines.append("  counters")
        for name in sorted(snap.counters):
            lines.append(f"    {name:<30} {snap.counters[name]}")
    if snap.gauges:
        lines.append("  gauges")
        for name in sorted(snap.gauges):
            st = snap.gauges[name]
            mean = st["sum"] / st["count"] if st["count"] else math.nan
            last = st.get("last")
            last_s = "-" if last is None else f"{last:.4g}"
            lines.append(
                f"    {name:<30} last {last_s:<10} mean {mean:.4g} "
                f"n {st['count']}"
            )
    if snap.histograms:
        lines.append("  histograms")
        for name in sorted(snap.histograms):
            st = snap.histograms[name]
            p50 = histogram_quantile(st, 0.50)
            p90 = histogram_quantile(st, 0.90)
            p99 = histogram_quantile(st, 0.99)
            lines.append(
                f"    {name:<30} n {st['count']:<7} "
                f"p50 {p50:.4g}  p90 {p90:.4g}  p99 {p99:.4g}  "
                f"max {st['max']:.4g}"
            )
    return "\n".join(lines)


# -- run-scoped wiring helper -------------------------------------------
@contextmanager
def telemetry_run(config, meta: dict | None = None):
    """Honour a :class:`repro.config.TelemetryConfig` around one entry point.

    ``None`` (telemetry off) yields ``None`` and costs nothing.  If a
    registry is already active (an enclosing run owns telemetry), this
    records into it and does not open a second sink.  Otherwise it
    activates a fresh registry, opens the JSONL sink when a path is
    configured, and on exit writes the final snapshot and logs the
    summary tree at INFO.
    """
    if config is None or core.enabled():
        yield None
        return
    with core.session() as reg:
        sink = TelemetrySink(config.path, meta=meta) if config.path else None
        try:
            yield sink
        finally:
            snap = reg.snapshot()
            if sink is not None:
                sink.write_snapshot(snap)
                sink.close()
            if not snap.empty:
                logger.info(render_summary(snap))
