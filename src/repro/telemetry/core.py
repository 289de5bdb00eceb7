"""Telemetry core: counters, gauges, histograms, spans, snapshots.

One :class:`Telemetry` registry holds every instrument recorded by a
process.  Instruments are cheap plain-Python accumulators — no threads,
no locks, no I/O — so they can live inside the simulator and rollout hot
paths.  The registry is *disabled* by default: a disabled registry hands
out shared no-op instruments and a no-op span, so instrumented code costs
one attribute access and nothing else until someone opts in.

Design rules that everything else builds on:

* **Monotonic clocks only.**  Spans time with ``time.perf_counter``;
  wall-clock timestamps exist only in the JSONL sink (:mod:`.sink`),
  never inside instruments, so telemetry can never perturb results.
* **Deltas fold into one registry.**  A pool worker records into a
  fresh registry and ships each task's :meth:`Telemetry.drain` delta
  back with the task's value; :meth:`Telemetry.absorb` folds the deltas
  into the parent's registry in task order.  Counters add, histogram
  buckets add, span/gauge stats combine by (count, sum, min, max), and a
  gauge's ``last`` is the last absorbed.

The module-level active registry (:func:`current`, :func:`session`,
:func:`set_active`) is process-global and single-threaded by design —
every process in the runtime (parent and pool workers) is single-threaded
where it records.
"""

from __future__ import annotations

import math
import time
from bisect import bisect_left
from contextlib import contextmanager
from dataclasses import dataclass, field

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
    "session",
    "set_active",
]

#: log-spaced duration buckets, 1 µs .. 500 s (upper-inclusive edges).
DURATION_BOUNDS_SEC: tuple[float, ...] = tuple(
    m * 10.0**e for e in range(-6, 3) for m in (1.0, 2.5, 5.0)
)

#: small-integer buckets for queue depths / chunk sizes.
INT_BOUNDS: tuple[float, ...] = (
    0, 1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64, 96, 128, 192, 256, 384,
    512, 768, 1024,
)


# -- instruments --------------------------------------------------------
class Counter:
    """A monotonically increasing sum."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def add(self, n: int | float = 1) -> None:
        self.value += n


class Gauge:
    """Last-set value plus a (count, sum, min, max) running summary."""

    __slots__ = ("last", "count", "sum", "min", "max")

    def __init__(self) -> None:
        self.last = None
        self.count = 0
        self.sum = 0.0
        self.min = math.inf
        self.max = -math.inf

    def set(self, value: float) -> None:
        value = float(value)
        self.last = value
        self.count += 1
        self.sum += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value


class Histogram:
    """Fixed-bucket histogram with interpolated quantile estimates.

    ``bounds`` are upper-inclusive bucket edges; values above the last
    edge land in an overflow bucket, so ``counts`` has ``len(bounds)+1``
    entries.  Bounds are fixed at creation — merging requires identical
    bounds, which holds by construction because every process creates the
    instrument from the same call site.
    """

    __slots__ = ("bounds", "counts", "count", "sum", "min", "max")

    def __init__(self, bounds=DURATION_BOUNDS_SEC) -> None:
        bounds = tuple(float(b) for b in bounds)
        if not bounds or list(bounds) != sorted(set(bounds)):
            raise ValueError("histogram bounds must be strictly increasing")
        self.bounds = bounds
        self.counts = [0] * (len(bounds) + 1)
        self.count = 0
        self.sum = 0.0
        self.min = math.inf
        self.max = -math.inf

    def record(self, value: float) -> None:
        value = float(value)
        self.counts[bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.sum += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    def to_dict(self) -> dict:
        """The entry snapshots carry and :func:`histogram_quantile` reads."""
        return {"bounds": list(self.bounds), "counts": list(self.counts),
                "count": self.count, "sum": self.sum, "min": self.min,
                "max": self.max}


def histogram_quantile(hist: dict, q: float) -> float:
    """Estimate the ``q``-quantile of a serialized histogram entry.

    Linear interpolation inside the containing bucket, clamped to the
    observed ``[min, max]`` so estimates never exceed real data range.
    ``nan`` when the histogram is empty.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile must be in [0, 1], got {q}")
    total = hist["count"]
    if total == 0:
        return math.nan
    bounds, counts = hist["bounds"], hist["counts"]
    target = q * total
    cum = 0.0
    for i, n in enumerate(counts):
        if n == 0:
            continue
        if cum + n >= target:
            lo = hist["min"] if i == 0 else bounds[i - 1]
            hi = hist["max"] if i == len(bounds) else min(bounds[i], hist["max"])
            lo = max(lo, hist["min"])
            if hi <= lo:
                return float(lo)
            frac = (target - cum) / n
            return float(min(max(lo + frac * (hi - lo), hist["min"]), hist["max"]))
        cum += n
    return float(hist["max"])


# -- no-op instruments (the disabled path) ------------------------------
class _NullCounter(Counter):
    __slots__ = ()

    def add(self, n=1) -> None:
        pass


class _NullGauge(Gauge):
    __slots__ = ()

    def set(self, value) -> None:
        pass


class _NullHistogram(Histogram):
    __slots__ = ()

    def record(self, value) -> None:
        pass


class _NullSpan:
    """Shared no-op context manager for the disabled path."""

    __slots__ = ()
    elapsed = 0.0
    path = ""

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NULL_COUNTER = _NullCounter()
_NULL_GAUGE = _NullGauge()
_NULL_HISTOGRAM = _NullHistogram()
_NULL_SPAN = _NullSpan()


# -- snapshots ----------------------------------------------------------
@dataclass
class TelemetrySnapshot:
    """A picklable, JSON-safe view of one registry's state."""

    counters: dict = field(default_factory=dict)
    gauges: dict = field(default_factory=dict)
    histograms: dict = field(default_factory=dict)
    spans: dict = field(default_factory=dict)

    @property
    def empty(self) -> bool:
        return not (self.counters or self.gauges or self.histograms or self.spans)

    def to_dict(self) -> dict:
        return {
            "counters": {k: v for k, v in self.counters.items()},
            "gauges": {k: dict(v) for k, v in self.gauges.items()},
            "histograms": {k: dict(v) for k, v in self.histograms.items()},
            "spans": {k: dict(v) for k, v in self.spans.items()},
        }

    @classmethod
    def from_dict(cls, data: dict) -> "TelemetrySnapshot":
        return cls(
            counters=dict(data.get("counters", {})),
            gauges={k: dict(v) for k, v in data.get("gauges", {}).items()},
            histograms={k: dict(v) for k, v in data.get("histograms", {}).items()},
            spans={k: dict(v) for k, v in data.get("spans", {}).items()},
        )


# -- spans --------------------------------------------------------------
class _Span:
    """Timing context manager; nests through the registry's span stack.

    The recorded name is the slash-joined path of enclosing spans
    (``"epoch.rollout/probe"``), so traces read as a tree.  ``__exit__``
    always records — an exception inside the span still produces a
    sample, and the stack unwinds correctly because ``finally`` semantics
    of the ``with`` statement guarantee ``__exit__`` runs.
    """

    __slots__ = ("_reg", "_name", "path", "_start", "elapsed")

    def __init__(self, reg: "Telemetry", name: str):
        self._reg = reg
        self._name = name
        self.path = name
        self._start = 0.0
        self.elapsed = 0.0

    def __enter__(self) -> "_Span":
        stack = self._reg._span_stack
        self.path = f"{stack[-1]}/{self._name}" if stack else self._name
        stack.append(self.path)
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> bool:
        self.elapsed = time.perf_counter() - self._start
        stack = self._reg._span_stack
        if stack and stack[-1] == self.path:
            stack.pop()
        self._reg.add_span_time(self.path, self.elapsed)
        return False


# -- registry -----------------------------------------------------------
class Telemetry:
    """Instrument registry; hands out no-ops when ``enabled`` is False."""

    def __init__(self, enabled: bool = True):
        self.enabled = bool(enabled)
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}
        self._spans: dict[str, dict] = {}
        self._span_stack: list[str] = []

    # -- instrument factories (cached by name) --------------------------
    def counter(self, name: str) -> Counter:
        if not self.enabled:
            return _NULL_COUNTER
        inst = self._counters.get(name)
        if inst is None:
            inst = self._counters[name] = Counter()
        return inst

    def gauge(self, name: str) -> Gauge:
        if not self.enabled:
            return _NULL_GAUGE
        inst = self._gauges.get(name)
        if inst is None:
            inst = self._gauges[name] = Gauge()
        return inst

    def histogram(self, name: str, bounds=DURATION_BOUNDS_SEC) -> Histogram:
        if not self.enabled:
            return _NULL_HISTOGRAM
        inst = self._histograms.get(name)
        if inst is None:
            inst = self._histograms[name] = Histogram(bounds)
        return inst

    def span(self, name: str):
        """Nestable timing context manager (``with reg.span("x") as sp:``)."""
        if not self.enabled:
            return _NULL_SPAN
        return _Span(self, name)

    def add_span_time(self, path: str, seconds: float, count: int = 1) -> None:
        """Record accumulated time directly (hot loops batch their timing
        locally and flush once instead of entering a span per step)."""
        if not self.enabled:
            return
        entry = self._spans.get(path)
        if entry is None:
            entry = self._spans[path] = {
                "count": 0, "sum": 0.0, "min": math.inf, "max": -math.inf,
            }
        seconds = float(seconds)
        per = seconds / count if count else 0.0
        entry["count"] += count
        entry["sum"] += seconds
        if per < entry["min"]:
            entry["min"] = per
        if per > entry["max"]:
            entry["max"] = per

    def span_seconds(self, path: str) -> float:
        """Total recorded seconds under ``path`` (0.0 when absent)."""
        entry = self._spans.get(path)
        return entry["sum"] if entry else 0.0

    # -- snapshots ------------------------------------------------------
    def snapshot(self) -> TelemetrySnapshot:
        return TelemetrySnapshot(
            counters={k: c.value for k, c in self._counters.items()},
            gauges={
                k: {"last": g.last, "count": g.count, "sum": g.sum,
                    "min": g.min, "max": g.max}
                for k, g in self._gauges.items()
            },
            histograms={k: h.to_dict() for k, h in self._histograms.items()},
            spans={k: dict(v) for k, v in self._spans.items()},
        )

    def drain(self) -> TelemetrySnapshot:
        """Snapshot then reset — the per-task delta a pool worker ships."""
        snap = self.snapshot()
        self.reset()
        return snap

    def absorb(self, snap: TelemetrySnapshot) -> None:
        """Merge a pool worker's snapshot delta into this registry."""
        if not self.enabled or snap is None or snap.empty:
            return
        for name, value in snap.counters.items():
            self.counter(name).add(value)
        for name, st in snap.gauges.items():
            g = self.gauge(name)
            if st["count"] == 0:
                continue
            g.count += st["count"]
            g.sum += st["sum"]
            g.min = min(g.min, st["min"])
            g.max = max(g.max, st["max"])
            g.last = st.get("last")
        for name, st in snap.histograms.items():
            h = self.histogram(name, bounds=st["bounds"])
            if tuple(h.bounds) != tuple(st["bounds"]):
                raise ValueError(f"histogram bounds mismatch for {name!r}")
            h.counts = [x + y for x, y in zip(h.counts, st["counts"])]
            h.count += st["count"]
            h.sum += st["sum"]
            h.min = min(h.min, st["min"])
            h.max = max(h.max, st["max"])
        for name, st in snap.spans.items():
            entry = self._spans.get(name)
            if entry is None:
                self._spans[name] = dict(st)
                continue
            entry["count"] += st["count"]
            entry["sum"] += st["sum"]
            entry["min"] = min(entry["min"], st["min"])
            entry["max"] = max(entry["max"], st["max"])

    def reset(self) -> None:
        self._counters.clear()
        self._gauges.clear()
        self._histograms.clear()
        self._spans.clear()
        # deliberately keep the span stack: open spans record on exit

    def has_data(self) -> bool:
        return bool(
            self._counters or self._gauges or self._histograms or self._spans
        )


# -- module-level active registry ---------------------------------------
_DISABLED = Telemetry(enabled=False)
_active: Telemetry = _DISABLED


def current() -> Telemetry:
    """The process-wide active registry (disabled unless opted in)."""
    return _active


def enabled() -> bool:
    return _active.enabled


def set_active(registry: Telemetry | None) -> Telemetry:
    """Swap the active registry; returns the previous one (for restore)."""
    global _active
    prev = _active
    _active = registry if registry is not None else _DISABLED
    return prev


@contextmanager
def session(registry: Telemetry | None = None):
    """Scoped enablement: activate a fresh (or given) registry, restore on
    exit.  The standard way tests and benchmarks opt in."""
    reg = registry if registry is not None else Telemetry(enabled=True)
    prev = set_active(reg)
    try:
        yield reg
    finally:
        set_active(prev)
