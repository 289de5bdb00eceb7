"""Telemetry's rollout cost (``telemetry_floor.py``).

Not collected by pytest — run explicitly::

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src taskset -c 0 \\
        python benchmarks/perf/telemetry_floor.py
"""
