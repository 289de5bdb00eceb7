"""Tests for the CI bench-regression gate (benchmarks/perf/check_regression.py).

The gate has four kinds of checks: absolute rollout throughput (gates
only on comparable hardware), the within-run sparse-vs-dense PPO update
ratio, which gates on every platform, the absolute telemetry-overhead floor
(enabled/disabled rollout throughput within one run), and the absolute
serving wire-layer floor (``serving.served_over_direct``).  These tests pin
the decision table so the CI step stays a real gate rather than a
decorative one.
"""

import importlib.util
import json
from pathlib import Path

import pytest

_SCRIPT = Path(__file__).resolve().parents[1] / "benchmarks" / "perf" / "check_regression.py"
_spec = importlib.util.spec_from_file_location("check_regression", _SCRIPT)
check_regression = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check_regression)


def bench_doc(steps_per_sec, python="3.11.7", cpu_count=4,
              machine="x86_64", sparse_speedup=3.0,
              telemetry_ratio=0.99, serving_ratio=0.2,
              affinity_cpus=4, blas_threads=None):
    return {
        "scales": {
            "smoke": {
                "scale": "smoke",
                "rollout": {
                    "vectorized_steps_per_sec": steps_per_sec,
                },
                "ppo_update": {
                    "sec_per_iter": 0.01,
                    "sparse_speedup": sparse_speedup,
                },
                "telemetry": {
                    "enabled_over_disabled": telemetry_ratio,
                },
                "serving": {
                    "served_over_direct": serving_ratio,
                },
                "platform": {
                    "python": python,
                    "numpy": "2.4.6",
                    "machine": machine,
                    "cpu_count": cpu_count,
                    "affinity_cpus": affinity_cpus,
                    "blas_threads": blas_threads,
                },
            }
        }
    }


@pytest.fixture
def gate(tmp_path):
    def run(baseline, current, *extra):
        bp = tmp_path / "baseline.json"
        cp = tmp_path / "current.json"
        bp.write_text(json.dumps(baseline))
        cp.write_text(json.dumps(current))
        return check_regression.main(
            ["--baseline", str(bp), "--current", str(cp), "--scale", "smoke",
             *extra]
        )

    return run


class TestThroughputGate:
    def test_ok_when_within_tolerance(self, gate):
        assert gate(bench_doc(30000), bench_doc(28000)) == 0

    def test_improvement_never_fails(self, gate):
        assert gate(bench_doc(30000), bench_doc(90000)) == 0

    def test_same_platform_drop_fails(self, gate):
        assert gate(bench_doc(30000), bench_doc(15000)) == 1

    def test_python_patch_bump_still_gates(self, gate):
        # 3.11.7 vs 3.11.9 is the same platform for throughput purposes;
        # CI runners bump patch versions constantly.
        base = bench_doc(30000, python="3.11.7")
        cur = bench_doc(15000, python="3.11.9")
        assert gate(base, cur) == 1

    def test_cross_platform_drop_is_advisory(self, gate):
        base = bench_doc(30000, cpu_count=1)
        cur = bench_doc(15000, cpu_count=4)
        assert gate(base, cur) == 0
        assert gate(base, cur, "--strict") == 1

    def test_other_run_conditions_are_cross_platform(self, gate):
        # a baseline taken on one pinned core with one BLAS thread says
        # nothing about an unpinned run on the same box, and vice versa
        pinned = bench_doc(30000, affinity_cpus=1, blas_threads="1")
        assert gate(pinned, bench_doc(15000)) == 0
        assert gate(pinned, bench_doc(15000, affinity_cpus=1)) == 0
        assert gate(pinned, bench_doc(15000, affinity_cpus=1,
                                      blas_threads="1")) == 1

    def test_python_minor_change_is_cross_platform(self, gate):
        base = bench_doc(30000, python="3.11.7")
        cur = bench_doc(15000, python="3.12.1")
        assert gate(base, cur) == 0


class TestSparseSpeedupGate:
    def test_sparse_collapse_fails_even_cross_platform(self, gate):
        base = bench_doc(30000, cpu_count=1, sparse_speedup=3.0)
        cur = bench_doc(29000, cpu_count=4, sparse_speedup=1.1)
        assert gate(base, cur) == 1

    def test_sparse_within_tolerance_passes(self, gate):
        base = bench_doc(30000, sparse_speedup=3.0)
        cur = bench_doc(29000, sparse_speedup=2.0)  # 33% drop < 40%
        assert gate(base, cur) == 0
        assert gate(base, cur, "--ratio-tolerance", "0.2") == 1

    def test_pre_sparse_baseline_skips_check(self, gate):
        # Baselines recorded before the sparse path existed have no
        # ppo_update.sparse_speedup entry — first run seeds it.
        base = bench_doc(30000)
        del base["scales"]["smoke"]["ppo_update"]["sparse_speedup"]
        assert gate(base, bench_doc(29000, sparse_speedup=2.5)) == 0


class TestTelemetryFloorGate:
    """``telemetry.enabled_over_disabled`` gates against an *absolute*
    floor (default 0.95), not the baseline — a telemetry slowdown cannot
    ratchet in one tolerated baseline bump at a time."""

    def test_over_floor_passes(self, gate):
        assert gate(bench_doc(30000),
                    bench_doc(29000, telemetry_ratio=0.97)) == 0

    def test_under_floor_fails_even_cross_platform(self, gate):
        base = bench_doc(30000, cpu_count=1)
        cur = bench_doc(29000, cpu_count=4, telemetry_ratio=0.90)
        assert gate(base, cur) == 1

    def test_floor_is_absolute_not_baseline_relative(self, gate):
        # A degraded baseline must not excuse a degraded current run.
        base = bench_doc(30000, telemetry_ratio=0.80)
        cur = bench_doc(29000, telemetry_ratio=0.90)
        assert gate(base, cur) == 1

    def test_floor_flag_overrides(self, gate):
        base = bench_doc(30000)
        cur = bench_doc(29000, telemetry_ratio=0.90)
        assert gate(base, cur, "--telemetry-floor", "0.85") == 0
        assert gate(base, cur, "--telemetry-floor", "0") == 0  # disabled

    def test_missing_entry_skips_check(self, gate):
        cur = bench_doc(29000)
        del cur["scales"]["smoke"]["telemetry"]
        assert gate(bench_doc(30000), cur) == 0

    def test_improvement_never_fails(self, gate):
        assert gate(bench_doc(30000),
                    bench_doc(29000, telemetry_ratio=1.05)) == 0


class TestServingFloorGate:
    """``serving.served_over_direct`` gates against an *absolute* floor
    (default 0.05) — the daemon's socket front end must deliver a
    bounded fraction of the in-process dispatch throughput, regardless
    of what the baseline recorded."""

    def test_over_floor_passes(self, gate):
        assert gate(bench_doc(30000),
                    bench_doc(29000, serving_ratio=0.2)) == 0

    def test_under_floor_fails_even_cross_platform(self, gate):
        base = bench_doc(30000, cpu_count=1)
        cur = bench_doc(29000, cpu_count=4, serving_ratio=0.01)
        assert gate(base, cur) == 1

    def test_floor_is_absolute_not_baseline_relative(self, gate):
        # A degraded baseline must not excuse a degraded current run.
        base = bench_doc(30000, serving_ratio=0.02)
        cur = bench_doc(29000, serving_ratio=0.03)
        assert gate(base, cur) == 1

    def test_floor_flag_overrides(self, gate):
        base = bench_doc(30000)
        cur = bench_doc(29000, serving_ratio=0.03)
        assert gate(base, cur, "--serving-floor", "0.02") == 0
        assert gate(base, cur, "--serving-floor", "0") == 0  # disabled

    def test_missing_entry_skips_check(self, gate):
        # Runs recorded before the serving layer existed have no serving
        # section — first run seeds it.
        cur = bench_doc(29000)
        del cur["scales"]["smoke"]["serving"]
        assert gate(bench_doc(30000), cur) == 0


class TestInputs:
    def test_missing_baseline_scale_passes(self, gate):
        assert gate({"scales": {}}, bench_doc(30000)) == 0

    def test_missing_current_scale_errors(self, gate):
        assert gate(bench_doc(30000), {"scales": {}}) == 2

    def test_flat_pre_pr2_baseline_supported(self, gate):
        flat = bench_doc(30000)["scales"]["smoke"]
        assert gate(flat, bench_doc(15000)) == 1
