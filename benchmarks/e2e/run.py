"""The repo benchmark: one command, four workloads, every metric by name.

::

    python3 benchmarks/e2e/run.py --workload NAME --seed S --seconds T --trace 0|1
    PYTHONPATH=src python -m benchmarks.e2e --seed S [--workload NAME] [--trace]

With ``--workload`` the workload runs in this process and the last line
of stdout is the result object ``BENCHMARK.json`` describes: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  Without it every workload runs in a fresh child process,
one after the other, and the last line maps workload name to result.

A run is: ``setup`` (several times; ``setup_s`` is the median), timed
units until ``--seconds`` have passed, teardown.  Every timing is the
median over units.  Each timed region is bracketed by a fixed host probe
and reported scaled to the reference host (``wall * REFERENCE_PROBE_MS /
probe``): this VM's speed drifts by a third over minutes, which no
amount of repetition inside one run averages out.  The unscaled medians
are printed beside them as ``wall_*``.  A traced run spends half its
time on plain units and half on units with the tracer's wrappers
installed, so the two medians give the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import resource
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[2]
if __package__ in (None, ""):
    # Run as a script: sys.path[0] is this directory, where trace.py would
    # shadow the standard library's trace module.  Import as a package.
    sys.path[0] = str(ROOT)
if str(ROOT / "src") not in sys.path:
    sys.path.insert(1, str(ROOT / "src"))

from benchmarks.e2e.stats import (  # noqa: E402 - needs the path set above
    REFERENCE_PROBE_MS,
    host_probe_ms,
    median,
)

WORKLOAD_NAMES = (
    "train-update-bound", "train-rollout-bound", "eval-matrix", "serve-mixed",
)

#: (name, unit) of the end-to-end metrics, as in BENCHMARK.json
END_TO_END = (("unit_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MiB"))

#: set-ups per run; setup_s is their median
SETUP_REPEATS = 3
#: fewest timed units a phase accepts, however short ``--seconds`` is
MIN_UNITS = 3


def per_layer_spec() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric, as in BENCHMARK.json."""
    from benchmarks.e2e.trace import layer_metric_names

    units = {"self_s": "s/unit", "calls": "1/unit", "share": "share"}
    spec = [(n, units[n.rpartition(".")[2]]) for n in layer_metric_names()]
    spec += [
        ("rl.ppo.update.total_s", "s/unit"),
        ("nn.backward_s", "s/unit"),
        ("nn.optim_s", "s/unit"),
        ("rl.ppo.pi_iters", "1/unit"),
        ("sim.core.decisions", "1/unit"),
        ("schedulers.pending_mean", "jobs"),
        ("schedulers.pending_max", "jobs"),
        ("serve.submit_p50_us", "us/req"),
        ("serve.submit_p99_us", "us/req"),
        ("serve.status_p50_us", "us/req"),
        ("serve.decisions_per_submit", "ratio"),
        ("serve.direct_req_per_s", "1/s"),
        ("serve.served_over_direct", "ratio"),
        ("trace.untraced_share", "share"),
        ("trace.missing_targets", "count"),
        ("trace_overhead", "ratio"),
        ("host_calib_ms", "ms"),
    ]
    return spec


# ----------------------------------------------------------------------
class Timed:
    """Wall times of timed regions, each bracketed by the host probe."""

    def __init__(self, python_only: bool):
        self.python_only = python_only    # which probe mix scales these
        self.wall: list[float] = []
        self.probes: list[float] = []     # (before + after) / 2 per region

    def region(self, fn) -> float:
        before = host_probe_ms(self.python_only)
        t0 = perf_counter()
        fn()
        wall = perf_counter() - t0
        self.wall.append(wall)
        self.probes.append((before + host_probe_ms(self.python_only)) / 2)
        return wall

    @property
    def raw_s(self) -> float:
        """Median wall time, as the clock read it."""
        return median(self.wall)

    @property
    def ref_s(self) -> float:
        """Median wall time scaled to the reference host: each region by
        the probe samples taken right around it."""
        return median(
            wall * REFERENCE_PROBE_MS / probe
            for wall, probe in zip(self.wall, self.probes)
        )


def timed_units(workload, seconds: float, units: int | None,
                tracer=None) -> Timed:
    """Run units for ``seconds`` (or exactly ``units``)."""
    timed = Timed(workload.interpreter_bound)
    deadline = perf_counter() + seconds

    def more() -> bool:
        if units is not None:
            return len(timed.wall) < units
        return len(timed.wall) < MIN_UNITS or perf_counter() < deadline

    while more():
        workload.prepare_unit()
        if tracer is not None:
            tracer.begin_unit()
        wall = timed.region(workload.run_unit)
        if tracer is not None:
            tracer.end_unit(wall)
        workload.check_unit()
    return timed


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 units: int | None) -> dict:
    from benchmarks.e2e.workloads import WORKLOADS

    setups = Timed(WORKLOADS[name].interpreter_bound)
    ended = []            # torn-down instances: their failures still count
    workload = None
    for _ in range(1 if trace else SETUP_REPEATS):
        if workload is not None:
            workload.teardown()
            ended.append(workload)
        workload = WORKLOADS[name](seed)
        setups.region(workload.setup)

    times = timed_units(workload, seconds / 2 if trace else seconds, units)
    layer_values = None
    if trace:
        layer_values, traced_workload = traced_phase(
            workload, seed, seconds / 2, units, times
        )
        if traced_workload is not workload:
            traced_workload.teardown()
            ended.append(traced_workload)
    info = workload.info()
    workload.teardown()
    ended.append(workload)

    rss = workload.peak_rss_mb
    if rss is None:
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    report = dict(
        workload=name, seed=seed, units=len(times.wall),
        unit=workload.unit, work_unit=workload.work_unit,
        work_per_unit=workload.work_per_unit,
        attempted=sum(w.attempted for w in ended),
        failed=sum(w.failed for w in ended),
        result_digest=workload.result_digest,
        host_calib_ms=median(times.probes),
        info=info,
        raw={"unit_s": times.raw_s, "setup_s": setups.raw_s},
        end_to_end={
            "unit_s": times.ref_s,
            "setup_s": setups.ref_s,
            "peak_rss_mb": rss,
        },
    )
    if layer_values is not None:
        layer_values.update(info)
        layer_values["host_calib_ms"] = report["host_calib_ms"]
        report["per_layer"] = layer_values
    return report


def traced_phase(workload, seed: int, seconds: float, units: int | None,
                 untraced: Timed) -> tuple[dict, object]:
    """Install the wrappers and run traced units.  Returns the per-layer
    values (``None`` where a layer could not be wrapped at all) and the
    workload instance the traced units ran on."""
    from benchmarks.e2e import trace as tracing
    from benchmarks.e2e.workloads import CACHE_DIR

    # before the wrappers go in: whatever this compares is untraced
    values = workload.untraced_extras(untraced.raw_s)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = workload.for_trace()
        times = timed_units(traced, seconds, units, tracer)
    finally:
        tracer.uninstall()
    n = tracer.n_units
    # seconds per unit on the reference host, like the end-to-end times
    per_unit = REFERENCE_PROBE_MS / median(times.probes) / n
    table = tracer.layer_table()
    table.update(
        {layer: {"self_s": 0.0, "calls": 0} for layer in tracing.DERIVED_LAYERS}
    )
    traced.derive_layers(table, tracer)
    attributed = 0.0
    for layer, row in table.items():
        if row is None:
            values.update({f"{layer}.{f}": None
                           for f in ("self_s", "calls", "share")})
            continue
        attributed += row["self_s"]
        values[f"{layer}.self_s"] = row["self_s"] * per_unit
        values[f"{layer}.calls"] = row["calls"] / n
        values[f"{layer}.share"] = row["self_s"] / tracer.unit_wall
    values["trace.untraced_share"] = 1.0 - attributed / tracer.unit_wall
    values["trace.missing_targets"] = len(tracer.missing)
    values["trace_overhead"] = times.ref_s / untraced.ref_s
    values["rl.ppo.update.total_s"] = (
        tracer.inclusive("PPOAgent.update") * per_unit
    )
    values["nn.backward_s"] = tracer.inclusive("Tensor.backward") * per_unit
    values["nn.optim_s"] = (
        tracer.inclusive("Adam.step", "clip_grad_norm") * per_unit
    )
    values["sim.core.decisions"] = tracer.decisions / n
    values["schedulers.pending_mean"] = (
        tracer.pending_sum / tracer.pending_n if tracer.pending_n else 0.0
    )
    values["schedulers.pending_max"] = tracer.pending_max
    tracer.write(
        CACHE_DIR / f"trace-{workload.name}.jsonl",
        {"workload": workload.name, "seed": seed, "units": n},
    )
    return values, traced


# ----------------------------------------------------------------------
def print_report(report: dict, trace: bool) -> dict:
    """The named metrics, human-readable; returns the result object."""
    e2e = report["end_to_end"]
    rate = report["work_per_unit"] / report["raw"]["unit_s"]
    print(f"workload {report['workload']}  seed {report['seed']}  "
          f"{report['units']} timed units (unit = one {report['unit']}, "
          f"{report['work_per_unit']} {report['work_unit']})")
    metrics = {}
    if trace:
        for name, unit in per_layer_spec():
            # "-": this workload does not produce the number; "null": the
            # layer could not be wrapped (stderr and trace.missing_targets
            # say why).  The result object holds numbers only: both are 0.
            value = report["per_layer"].get(name, "-")
            if value is None or value == "-":
                shown, value = "null" if value is None else "-", 0.0
            else:
                shown = f"{value:.6g}"
            print(f"  metric {name:<34} {shown:>12} {unit}")
            metrics[name] = {"value": float(value), "unit": unit}
    else:
        for name, unit in END_TO_END:
            print(f"  metric {name:<34} {e2e[name]:>12.6g} {unit}")
            metrics[name] = {"value": e2e[name], "unit": unit}
        for name, value in report["raw"].items():
            print(f"  info   {'wall_' + name:<34} {value:>12.6g} s")
        print(f"  info   {'work_per_s':<34} {rate:>12.6g} "
              f"{report['work_unit']}/s")
        for name, value in report["info"].items():
            print(f"  info   {name:<34} {value:>12.6g}")
        print(f"  info   {'host_calib_ms':<34} "
              f"{report['host_calib_ms']:>12.6g} ms")
    print(f"  ops_attempted {report['attempted']}  ops_failed "
          f"{report['failed']}  result_digest {report['result_digest']}")
    return {
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }


def run_all(args) -> int:
    """Each workload alone in a fresh process, one after the other."""
    results = {}
    for name in WORKLOAD_NAMES:
        command = [sys.executable, __file__, "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
        if args.units is not None:
            command += ["--units", str(args.units)]
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
        lines = done.stdout.splitlines()
        if done.returncode != 0 or not lines:
            print(f"workload {name} failed (exit {done.returncode})",
                  file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]))
        results[name] = json.loads(lines[-1])
    print(json.dumps(results))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, default=None,
                        help="run one workload in this process (default: "
                             "all four, each in a fresh process)")
    parser.add_argument("--seed", type=int, default=0,
                        help="seeds input generation only")
    parser.add_argument("--seconds", type=float, default=15.0,
                        help="how long the timed units run")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="1: report per-layer metrics from a traced run")
    parser.add_argument("--units", type=int, default=None,
                        help="run exactly N timed units per phase instead "
                             "of --seconds (smoke tests)")
    args = parser.parse_args(argv)
    if args.workload is None:
        return run_all(args)
    report = run_workload(args.workload, args.seed, args.seconds,
                          bool(args.trace), args.units)
    print(json.dumps(print_report(report, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
