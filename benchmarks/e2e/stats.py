"""Small-sample statistics and the host calibration probe."""

from __future__ import annotations

import math
import statistics
from time import perf_counter

import numpy as np

__all__ = [
    "median", "percentile", "tail_percentile", "host_probe_ms",
    "REFERENCE_PROBE_MS",
]

#: probe time of the host the baseline was measured on; times are reported
#: as ``wall * REFERENCE_PROBE_MS / probe`` — seconds on that host
REFERENCE_PROBE_MS = 6.0

#: the percentiles a report may quote, lowest first
PERCENTILE_LADDER = (0.5, 0.9, 0.99, 0.999, 0.9999)

median = statistics.median


def percentile(sorted_values, q: float) -> float:
    """Nearest-rank percentile of an ascending sequence."""
    if not sorted_values:
        raise ValueError("percentile of an empty sample")
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1]


def tail_percentile(n: int) -> float | None:
    """The highest percentile of the ladder that still has at least ten
    of ``n`` samples beyond it (``None`` below 20 samples): quoting p99
    from 300 samples would report the third-largest value as a tail."""
    best = None
    for q in PERCENTILE_LADDER:
        if n - math.ceil(q * n) >= 10:
            best = q
    return best


def host_probe_ms(python_only: bool = False, repeats: int = 3) -> float:
    """Median milliseconds of a fixed probe: a pure-Python loop, plus —
    unless ``python_only`` — about half as long again in NumPy kernels.

    The probe's work never changes, so its time moves only with the
    machine: it is taken around every timed region, reported as
    ``host_calib_ms``, and used to scale the region's time to the
    reference host (see :data:`REFERENCE_PROBE_MS`).  The two mixes exist
    because this host's drift hits interpreter-bound code harder than
    NumPy kernels: a workload is scaled by the probe that resembles it.
    """
    samples = []
    for _ in range(repeats):
        t0 = perf_counter()
        acc = 0
        for i in range(100_000 if python_only else 60_000):
            acc += i * i % 7
        if not python_only:
            a = np.arange(100_000, dtype=np.float64)
            for _ in range(8):
                a = np.sqrt(a * 1.0001 + 1.0)
        samples.append((perf_counter() - t0) * 1e3)
    return median(samples)
