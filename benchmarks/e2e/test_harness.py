"""Self-tests of the benchmark harness (``pytest benchmarks/e2e``).

Not part of tier-1: the smokes start real workloads and take ~1 minute.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from benchmarks.e2e import run as runner  # also puts src/ on sys.path
from benchmarks.e2e import stats
from benchmarks.e2e import trace as tracing

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


# ----------------------------------------------------------------------
# self-time arithmetic
# ----------------------------------------------------------------------
class Clock:
    """A clock the synthetic callables advance by hand."""

    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


CLOCK = Clock()


class Synthetic:
    def outer(self):
        CLOCK.now += 1.0
        self.inner()
        self.inner()
        CLOCK.now += 0.5

    def inner(self):
        CLOCK.now += 2.0

    def recurse(self, depth):
        CLOCK.now += 1.0
        if depth > 1:
            self.recurse(depth - 1)

    def other_layer(self):
        CLOCK.now += 3.0
        self.recurse(2)


HERE = "benchmarks.e2e.test_harness"


@pytest.fixture
def tracer(monkeypatch):
    monkeypatch.setattr(tracing, "perf_counter", CLOCK)
    monkeypatch.setattr(tracing, "thread_time", CLOCK)
    tracer = tracing.Tracer(layers={
        "a": (f"{HERE}:Synthetic.outer", f"{HERE}:Synthetic.inner",
              f"{HERE}:Synthetic.recurse"),
        "b": (f"{HERE}:Synthetic.other_layer",),
    })
    tracer.install()
    yield tracer
    tracer.uninstall()


def test_nested_spans_split_self_time(tracer):
    tracer.begin_unit()
    Synthetic().outer()
    tracer.end_unit(CLOCK.now)
    targets = tracer.targets
    assert targets[f"{HERE}:Synthetic.outer"].total == pytest.approx(5.5)
    assert targets[f"{HERE}:Synthetic.outer"].self_s == pytest.approx(1.5)
    assert targets[f"{HERE}:Synthetic.inner"].self_s == pytest.approx(4.0)
    assert targets[f"{HERE}:Synthetic.inner"].calls == 2
    # one layer's nested spans sum to the outermost duration
    assert tracer.layer_table()["a"]["self_s"] == pytest.approx(5.5)
    # child spans name their parent; spans of a unit share its id
    by_name = {s[1].rpartition(".")[2]: s for s in tracer.spans}
    assert by_name["inner"][4] == by_name["outer"][0]
    assert {s[6] for s in tracer.spans} == {0}


def test_recursive_spans_count_once(tracer):
    tracer.begin_unit()
    Synthetic().recurse(3)
    tracer.end_unit(3.0)
    target = tracer.targets[f"{HERE}:Synthetic.recurse"]
    assert target.calls == 3
    assert target.self_s == pytest.approx(3.0)      # 1 per level
    assert target.total == pytest.approx(6.0)       # 3 + 2 + 1 inclusive


def test_time_in_a_called_layer_is_not_the_callers(tracer):
    tracer.begin_unit()
    Synthetic().other_layer()
    tracer.end_unit(5.0)
    table = tracer.layer_table()
    assert table["b"]["self_s"] == pytest.approx(3.0)
    assert table["a"]["self_s"] == pytest.approx(2.0)


def test_wrappers_pass_through_outside_units(tracer):
    Synthetic().outer()
    assert not tracer.spans
    assert all(t.calls == 0 for t in tracer.targets.values())


def test_uninstall_restores_the_originals():
    original = Synthetic.__dict__["outer"]
    tracer = tracing.Tracer(layers={"a": (f"{HERE}:Synthetic.outer",)})
    tracer.install()
    assert Synthetic.__dict__["outer"] is not original
    tracer.uninstall()
    assert Synthetic.__dict__["outer"] is original


# ----------------------------------------------------------------------
# percentile rule
# ----------------------------------------------------------------------
@pytest.mark.parametrize("n, expected", [
    (10, None), (19, None), (20, 0.5), (99, 0.5), (100, 0.9),
    (999, 0.9), (1000, 0.99), (9_999, 0.99), (10_000, 0.999),
])
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    assert stats.tail_percentile(n) == expected


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert stats.percentile(values, 0.5) == 50
    assert stats.percentile(values, 0.99) == 99
    assert stats.percentile([7.0], 0.99) == 7.0


# ----------------------------------------------------------------------
# missing-target degradation
# ----------------------------------------------------------------------
def test_missing_targets_degrade_to_null_and_a_warning(capsys):
    tracer = tracing.Tracer(layers={
        "gone.module": ("repro.no_such_module:function",),
        "gone.attribute": ("repro.sim.core:EngineCore.no_such_method",
                           "repro.sim.core:no_such_function"),
        "partly": ("repro.sim.core:EngineCore.commit",
                   "repro.sim.core:EngineCore.no_such_method"),
    })
    tracer.install()        # must not raise
    try:
        table = tracer.layer_table()
        assert table["gone.module"] is None
        assert table["gone.attribute"] is None
        assert table["partly"] == {"self_s": 0.0, "calls": 0}
        assert len(tracer.missing) == 4
        warnings = capsys.readouterr().err.splitlines()
        assert len(warnings) == 4
        assert all(line.startswith("warning: trace target") for line in warnings)
    finally:
        tracer.uninstall()


def test_every_declared_target_resolves_today():
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert tracer.missing == []
    finally:
        tracer.uninstall()


def test_prefer_drops_undeclared_fields():
    from benchmarks.e2e.workloads import prefer
    from repro.config import PPOConfig

    config = prefer(PPOConfig, train_pi_iters=3, knob_deleted_by_roadmap=1)
    assert config.train_pi_iters == 3


# ----------------------------------------------------------------------
# smokes: all four workloads, names match BENCHMARK.json
# ----------------------------------------------------------------------
def _smoke(trace: int) -> tuple[str, dict]:
    t0 = time.monotonic()
    done = subprocess.run(
        [sys.executable, str(ROOT / "benchmarks/e2e/run.py"), "--units", "2",
         "--seed", "0", "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=170,
    )
    elapsed = time.monotonic() - t0
    assert done.returncode == 0, done.stderr
    assert elapsed < 60, f"smoke took {elapsed:.0f} s"
    return done.stdout, json.loads(done.stdout.splitlines()[-1])


def _printed(stdout: str, kind: str) -> set[str]:
    return set(re.findall(rf"^\s*{kind} (\S+)", stdout, flags=re.M))


def test_untraced_smoke_prints_the_declared_end_to_end_metrics():
    stdout, results = _smoke(trace=0)
    declared = {m["name"] for m in SPEC["end_to_end"]}
    assert _printed(stdout, "workload") == {w["name"] for w in SPEC["workloads"]}
    assert _printed(stdout, "metric") == declared
    for name, result in results.items():
        assert result["correct"] and result["failed"] == 0, name
        assert result["attempted"] >= 1
        assert set(result["metrics"]) == declared
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_smoke_prints_the_declared_per_layer_metrics():
    stdout, results = _smoke(trace=1)
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert dict(runner.per_layer_spec()) == declared
    assert _printed(stdout, "workload") == {w["name"] for w in SPEC["workloads"]}
    assert _printed(stdout, "metric") == set(declared)
    for name, result in results.items():
        assert result["correct"], name
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        assert set(metrics) == set(declared)
        shares = sum(v for k, v in metrics.items() if k.endswith(".share"))
        total = shares + metrics["trace.untraced_share"]
        assert total == pytest.approx(1.0, abs=0.02), name
        assert metrics["trace.missing_targets"] == 0
        assert metrics["trace_overhead"] > 0


def test_benchmark_json_names_the_runner():
    assert SPEC["command"] == ["python3", "benchmarks/e2e/run.py"]
    assert SPEC["paths"] == ["benchmarks/e2e"]
    assert [m["name"] for m in SPEC["end_to_end"]] == [
        name for name, _ in runner.END_TO_END
    ]
    assert tuple(w["name"] for w in SPEC["workloads"]) == runner.WORKLOAD_NAMES
