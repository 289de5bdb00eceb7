"""Low-overhead telemetry for the training/serving stack.

See :mod:`repro.telemetry.core` for the instrument model and
:mod:`repro.telemetry.sink` for the ``repro/telemetry@1`` JSONL format.

Typical use::

    from repro import telemetry

    with telemetry.session() as reg:
        with reg.span("epoch.rollout"):
            ...
        reg.counter("engine.events").add(n)
        snap = reg.snapshot()
"""

from .core import (  # noqa: F401
    Counter,
    Gauge,
    Histogram,
    Telemetry,
    TelemetrySnapshot,
    DURATION_BOUNDS_SEC,
    INT_BOUNDS,
    current,
    enabled,
    histogram_quantile,
    session,
    set_active,
)
from .sink import (  # noqa: F401
    SCHEMA,
    TelemetrySink,
    render_summary,
    telemetry_run,
    validate_jsonl,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "Telemetry",
    "TelemetrySnapshot",
    "DURATION_BOUNDS_SEC",
    "INT_BOUNDS",
    "current",
    "enabled",
    "histogram_quantile",
    "session",
    "set_active",
    "SCHEMA",
    "TelemetrySink",
    "render_summary",
    "telemetry_run",
    "validate_jsonl",
]
