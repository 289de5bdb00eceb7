"""Bench-regression gate: fail CI when rollout throughput drops.

Compares a fresh ``run_perf.py`` result against the committed
``BENCH_perf.json`` baseline at the same scale and exits non-zero when
rollout performance regressed.  Two baseline-relative checks run,
covering the two ways a regression can hide:

* **absolute throughput** (``rollout.vectorized_steps_per_sec``): gates
  when the baseline was recorded on comparable hardware (same machine /
  core count / python major.minor); on different hardware a drop is
  reported as advisory instead of failing — unless ``--strict`` forces
  the gate.  Absolute steps/s across differently-sized CI runners would
  otherwise be a standing false alarm.
* **within-run speedup ratio** (``ppo_update.sparse_speedup`` — the
  sparse policy step the agent picks for the kernel policy vs the dense
  oracle): measured *within one run*, so it is hardware-independent and
  gates on **every** platform.  The tolerance is looser
  (``--ratio-tolerance``, default 40%) because tiny smoke runs are
  noisy; the check exists to catch the optimised path collapsing toward
  its oracle, which no runner change can excuse.

A third check is an **absolute floor**, not a baseline comparison:
``telemetry.enabled_over_disabled`` (telemetry-enabled over -disabled
rollout throughput, paired reps within one run) must stay at or above
``--telemetry-floor`` (default 0.95 — "telemetry costs at most 5%").
Being within-run it gates on every platform; being absolute it cannot
drift downward one tolerated baseline bump at a time.

A fourth check is an **absolute floor** on the serving layer:
``serving.served_over_direct`` (closed-loop requests/sec through the
daemon's socket front end over the same submission streams dispatched
to the router in-process, within one run) must stay at or above
``--serving-floor`` (default 0.05 — "the wire layer costs at most
~20x the scheduling work it fronts"; measured ~0.22 at seed).  Like
the telemetry floor it is within-run, so it gates on every platform,
and being absolute it cannot drift downward one baseline bump at a
time.  0 disables the check.

Improvements and unrelated-metric noise never fail.  A baseline with no
entry for the requested scale passes with a notice (first run on a new
scale seeds the baseline).

Usage::

    cp BENCH_perf.json /tmp/baseline.json
    PYTHONPATH=src python benchmarks/perf/run_perf.py --scale smoke
    python benchmarks/perf/check_regression.py \
        --baseline /tmp/baseline.json --current BENCH_perf.json --scale smoke
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

METRIC = ("rollout", "vectorized_steps_per_sec")
#: (section, key, what fell) — within-run, hardware-independent ratios
RATIO_METRICS = (
    ("ppo_update", "sparse_speedup", "sparse-update speedup"),
)


def lookup_ratio(report: dict, section: str, key: str):
    """``report[section][key]``, ``None`` when either level is missing."""
    node = report.get(section)
    return node.get(key) if isinstance(node, dict) else None


def load_scale(path: Path, scale: str) -> dict | None:
    doc = json.loads(path.read_text())
    if "scales" in doc:
        return doc["scales"].get(scale)
    # pre-PR-2 flat document
    return doc if doc.get("scale") == scale else None


def describe(report: dict) -> str:
    plat = report.get("platform", {})
    return (f"python {plat.get('python', '?')}, numpy {plat.get('numpy', '?')}, "
            f"{plat.get('machine', '?')}, {plat.get('cpu_count', '?')} cores")


def _python_series(version) -> str:
    """``"3.11.7" -> "3.11"`` — patch releases are throughput-comparable."""
    return ".".join(str(version).split(".")[:2])


def same_platform(a: dict, b: dict) -> bool:
    pa, pb = a.get("platform", {}), b.get("platform", {})
    if _python_series(pa.get("python")) != _python_series(pb.get("python")):
        return False
    return all(pa.get(k) == pb.get(k) for k in ("machine", "cpu_count"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--baseline", type=Path, required=True)
    parser.add_argument("--current", type=Path, required=True)
    parser.add_argument("--scale", default="smoke")
    parser.add_argument("--tolerance", type=float, default=0.2,
                        help="allowed fractional throughput drop (0.2 = 20%%)")
    parser.add_argument("--ratio-tolerance", type=float, default=0.4,
                        help="allowed fractional drop of a within-run "
                             "speedup ratio; gates on any hardware "
                             "(0.4 = 40%%)")
    parser.add_argument("--strict", action="store_true",
                        help="fail on throughput drops even across platform "
                             "changes")
    parser.add_argument("--telemetry-floor", type=float, default=0.95,
                        help="absolute floor for the within-run "
                             "telemetry-enabled/disabled rollout throughput "
                             "ratio (0.95 = at most 5%% overhead); 0 "
                             "disables the check")
    parser.add_argument("--serving-floor", type=float, default=0.05,
                        help="absolute floor for the within-run "
                             "served-over-direct request-throughput ratio "
                             "of the serving daemon (socket front end vs "
                             "in-process dispatch); 0 disables the check")
    args = parser.parse_args(argv)

    if not 0 <= args.tolerance < 1:
        parser.error("tolerance must be in [0, 1)")
    if not 0 <= args.ratio_tolerance < 1:
        parser.error("ratio-tolerance must be in [0, 1)")
    if not 0 <= args.telemetry_floor <= 1:
        parser.error("telemetry-floor must be in [0, 1]")
    if not 0 <= args.serving_floor <= 1:
        parser.error("serving-floor must be in [0, 1]")

    base = load_scale(args.baseline, args.scale)
    if base is None:
        print(f"[bench-check] no {args.scale!r} baseline in {args.baseline}; "
              "nothing to compare (baseline will seed on commit)")
        return 0
    cur = load_scale(args.current, args.scale)
    if cur is None:
        print(f"[bench-check] current run {args.current} has no "
              f"{args.scale!r} entry", file=sys.stderr)
        return 2

    failed = False

    # -- absolute throughput: gates on comparable hardware only ----------
    section, key = METRIC
    base_v = base[section][key]
    cur_v = cur[section][key]
    floor = base_v * (1.0 - args.tolerance)
    print(f"[bench-check] scale={args.scale} {section}.{key}: "
          f"baseline {base_v:,.0f} ({describe(base)})")
    print(f"[bench-check]   current {cur_v:,.0f} ({describe(cur)}); "
          f"floor {floor:,.0f} at {args.tolerance:.0%} tolerance")
    if cur_v < floor:
        drop = f"rollout throughput dropped {1 - cur_v / base_v:.1%} " \
               f"(> {args.tolerance:.0%})"
        if args.strict or same_platform(base, cur):
            print(f"[bench-check] FAIL: {drop}", file=sys.stderr)
            failed = True
        else:
            print(f"[bench-check] ADVISORY: {drop}, but the baseline was "
                  "recorded on different hardware — not gating (use "
                  "--strict to force)")

    # -- speedup ratios: hardware-independent, gate everywhere -----------
    for section, key, label in RATIO_METRICS:
        base_r = lookup_ratio(base, section, key)
        cur_r = lookup_ratio(cur, section, key)
        if base_r is None or cur_r is None:
            print(f"[bench-check] {section}.{key}: missing on one side; "
                  "skipping ratio check")
            continue
        ratio_floor = base_r * (1.0 - args.ratio_tolerance)
        print(f"[bench-check] scale={args.scale} {section}.{key}: "
              f"baseline {base_r:.2f}x, current {cur_r:.2f}x; floor "
              f"{ratio_floor:.2f}x at {args.ratio_tolerance:.0%} tolerance")
        if cur_r < ratio_floor:
            print(f"[bench-check] FAIL: {label} fell "
                  f"{1 - cur_r / base_r:.1%} (> {args.ratio_tolerance:.0%}) "
                  "— this ratio is measured within one run, so hardware "
                  "differences do not excuse it", file=sys.stderr)
            failed = True

    # -- telemetry overhead: absolute within-run floor -------------------
    tel = lookup_ratio(cur, "telemetry", "enabled_over_disabled")
    if args.telemetry_floor == 0:
        print("[bench-check] telemetry.enabled_over_disabled: check disabled")
    elif tel is None:
        print("[bench-check] telemetry.enabled_over_disabled: missing from "
              "current run; skipping overhead check")
    else:
        print(f"[bench-check] scale={args.scale} "
              f"telemetry.enabled_over_disabled: {tel:.3f} "
              f"(floor {args.telemetry_floor:.2f})")
        if tel < args.telemetry_floor:
            print(f"[bench-check] FAIL: telemetry-enabled rollout throughput "
                  f"is {tel:.3f}x the disabled path (< "
                  f"{args.telemetry_floor:.2f}) — instrumentation overhead "
                  "exceeds the budget; this is within-run, so hardware "
                  "differences do not excuse it", file=sys.stderr)
            failed = True

    # -- serving wire-layer overhead: absolute within-run floor ----------
    srv = lookup_ratio(cur, "serving", "served_over_direct")
    if args.serving_floor == 0:
        print("[bench-check] serving.served_over_direct: check disabled")
    elif srv is None:
        print("[bench-check] serving.served_over_direct: missing from "
              "current run; skipping serving check")
    else:
        print(f"[bench-check] scale={args.scale} "
              f"serving.served_over_direct: {srv:.3f} "
              f"(floor {args.serving_floor:.2f})")
        if srv < args.serving_floor:
            print(f"[bench-check] FAIL: the daemon's socket front end "
                  f"delivers only {srv:.3f}x of the in-process dispatch "
                  f"throughput (< {args.serving_floor:.2f}) — the wire "
                  "layer (framing, dispatch, event loop) regressed; this "
                  "is within-run, so hardware differences do not excuse "
                  "it", file=sys.stderr)
            failed = True

    if failed:
        return 1
    print("[bench-check] OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
