"""Telemetry subsystem tests: core algebra, spans, transport, sink, goldens.

Covers the contracts everything else leans on: snapshot merges are
associative and commutative (so worker deltas can arrive in any order),
spans nest and survive exceptions, histogram quantiles are accurate
within a bucket, the disabled path is a true no-op (shared null
singletons), worker snapshots ride the ProcessPoolBackend result
protocol, the JSONL sink round-trips through its validator — and,
the headline guarantee, results are bit-identical with telemetry on
vs off.
"""

import json
import math

import numpy as np
import pytest

from repro.config import EnvConfig, EvalConfig, PPOConfig, TelemetryConfig, TrainConfig
from repro.rl import TrajectoryBuffer, Trainer
from repro.rl import EpochRecord, UpdateStats
from repro.telemetry import core
from repro.telemetry.core import (
    INT_BOUNDS,
    Telemetry,
    TelemetrySnapshot,
    histogram_quantile,
    strip_labels,
)
from repro.telemetry.sink import (
    SCHEMA,
    TelemetrySink,
    render_summary,
    telemetry_run,
    validate_jsonl,
)
from repro.workloads import load_trace


@pytest.fixture(scope="module")
def trace():
    return load_trace("Lublin-1", n_jobs=800, seed=3)


def make_snapshot(seed: int) -> TelemetrySnapshot:
    """A registry exercised with seed-dependent values, snapshotted."""
    rng = np.random.default_rng(seed)
    reg = Telemetry(enabled=True)
    reg.counter("jobs").add(int(rng.integers(1, 50)))
    reg.counter(f"only.{seed}").add(seed + 1)
    for _ in range(int(rng.integers(2, 10))):
        reg.gauge("kl").set(float(rng.uniform(0, 0.1)))
        reg.histogram("depth", bounds=INT_BOUNDS).record(int(rng.integers(0, 64)))
    reg.add_span_time("epoch/rollout", float(rng.uniform(0.1, 2.0)), count=3)
    return reg.snapshot()


class TestSnapshotMerge:
    def test_associative(self):
        a, b, c = make_snapshot(1), make_snapshot(2), make_snapshot(3)
        left = a.merge(b).merge(c)
        right = a.merge(b.merge(c))
        assert left.to_dict() == right.to_dict()

    def test_commutative(self):
        a, b = make_snapshot(4), make_snapshot(5)
        assert a.merge(b).to_dict() == b.merge(a).to_dict()

    def test_merge_with_empty_is_identity(self):
        a = make_snapshot(6)
        assert a.merge(TelemetrySnapshot()).to_dict() == a.to_dict()
        assert TelemetrySnapshot().merge(a).to_dict() == a.to_dict()

    def test_counters_add_and_disjoint_keys_survive(self):
        a, b = make_snapshot(1), make_snapshot(2)
        merged = a.merge(b)
        assert merged.counters["jobs"] == a.counters["jobs"] + b.counters["jobs"]
        assert merged.counters["only.1"] == a.counters["only.1"]
        assert merged.counters["only.2"] == b.counters["only.2"]

    def test_gauge_last_degrades_to_none_on_ambiguity(self):
        # Two workers both set the gauge; no cross-worker ordering exists,
        # so the merged "last" must not invent one.
        a, b = Telemetry(enabled=True), Telemetry(enabled=True)
        a.gauge("kl").set(0.1)
        b.gauge("kl").set(0.2)
        merged = a.snapshot().merge(b.snapshot())
        assert merged.gauges["kl"]["last"] is None
        assert merged.gauges["kl"]["count"] == 2
        assert merged.gauges["kl"]["min"] == 0.1
        assert merged.gauges["kl"]["max"] == 0.2

    def test_gauge_last_survives_unambiguous_merges(self):
        a, b = Telemetry(enabled=True), Telemetry(enabled=True)
        a.gauge("kl").set(0.3)
        b.gauge("kl").set(0.3)  # equal values: unambiguous
        assert a.snapshot().merge(b.snapshot()).gauges["kl"]["last"] == 0.3
        empty = Telemetry(enabled=True)
        empty.gauge("kl")  # registered but never set
        assert a.snapshot().merge(empty.snapshot()).gauges["kl"]["last"] == 0.3

    def test_histogram_bounds_mismatch_refuses(self):
        a, b = Telemetry(enabled=True), Telemetry(enabled=True)
        a.histogram("h", bounds=(1, 2, 3)).record(1)
        b.histogram("h", bounds=(1, 2, 4)).record(1)
        with pytest.raises(ValueError, match="bounds"):
            a.snapshot().merge(b.snapshot())

    def test_labelled_then_aggregated_recovers_totals(self):
        workers = [make_snapshot(s) for s in (7, 8, 9)]
        combined = TelemetrySnapshot()
        for i, snap in enumerate(workers):
            combined = combined.merge(snap.labelled(worker=i))
        assert "jobs{worker=0}" in combined.counters
        agg = combined.aggregated()
        plain = TelemetrySnapshot()
        for snap in workers:
            plain = plain.merge(snap)
        assert agg.to_dict() == plain.to_dict()

    def test_strip_labels(self):
        assert strip_labels("a.b{worker=1}") == "a.b"
        assert strip_labels("a.b") == "a.b"

    def test_snapshot_dict_roundtrip(self):
        a = make_snapshot(10)
        assert TelemetrySnapshot.from_dict(a.to_dict()).to_dict() == a.to_dict()


class TestSpans:
    def test_nesting_builds_slash_paths(self):
        reg = Telemetry(enabled=True)
        with reg.span("epoch"):
            with reg.span("rollout"):
                with reg.span("env_step"):
                    pass
            with reg.span("update"):
                pass
        snap = reg.snapshot()
        assert set(snap.spans) == {
            "epoch", "epoch/rollout", "epoch/rollout/env_step", "epoch/update",
        }
        # a parent span's time includes its children's
        assert snap.spans["epoch"]["sum"] >= snap.spans["epoch/rollout"]["sum"]

    def test_exception_still_records_and_unwinds(self):
        reg = Telemetry(enabled=True)
        with pytest.raises(RuntimeError):
            with reg.span("outer"):
                with reg.span("inner"):
                    raise RuntimeError("boom")
        snap = reg.snapshot()
        assert snap.spans["outer"]["count"] == 1
        assert snap.spans["outer/inner"]["count"] == 1
        assert reg._span_stack == []  # fully unwound
        with reg.span("after"):
            pass
        assert "after" in reg.snapshot().spans  # not "outer/after"

    def test_elapsed_exposed_on_exit(self):
        reg = Telemetry(enabled=True)
        with reg.span("t") as sp:
            pass
        assert sp.elapsed >= 0.0
        assert reg.span_seconds("t") == pytest.approx(sp.elapsed)

    def test_add_span_time_batches(self):
        reg = Telemetry(enabled=True)
        reg.add_span_time("hot", 0.5, count=5)
        reg.add_span_time("hot", 0.3, count=3)
        entry = reg.snapshot().spans["hot"]
        assert entry["count"] == 8
        assert entry["sum"] == pytest.approx(0.8)
        assert reg.span_seconds("hot") == pytest.approx(0.8)
        assert reg.span_seconds("missing") == 0.0


class TestHistogram:
    def test_quantiles_within_bucket_resolution(self):
        reg = Telemetry(enabled=True)
        h = reg.histogram("lat")  # DURATION_BOUNDS_SEC, log-spaced
        rng = np.random.default_rng(0)
        values = rng.lognormal(mean=-5.0, sigma=1.0, size=5000)
        for v in values:
            h.record(v)
        entry = reg.snapshot().histograms["lat"]
        for q in (0.5, 0.9, 0.99):
            est = histogram_quantile(entry, q)
            lo, hi = np.quantile(values, [max(0, q - 0.04), min(1, q + 0.04)])
            # the estimate must land within the neighbouring-quantile band
            # widened by one log-bucket (edges are 2.5x apart)
            assert lo / 2.5 <= est <= hi * 2.5, (q, est, lo, hi)

    def test_exact_on_single_bucket_edges(self):
        reg = Telemetry(enabled=True)
        h = reg.histogram("d", bounds=INT_BOUNDS)
        for v in [2, 2, 2, 2]:
            h.record(v)
        entry = reg.snapshot().histograms["d"]
        assert histogram_quantile(entry, 0.5) == pytest.approx(2.0)
        assert entry["min"] == 2 and entry["max"] == 2

    def test_upper_inclusive_edges_and_overflow(self):
        h = core.Histogram(bounds=(1.0, 2.0))
        for v in (0.5, 1.0, 1.5, 2.0, 99.0):
            h.record(v)
        assert h.counts == [2, 2, 1]  # <=1, (1,2], >2 overflow
        assert h.count == 5

    def test_empty_quantile_is_nan(self):
        h = core.Histogram()
        entry = Telemetry(enabled=True).snapshot()  # unused; build dict directly
        d = {"bounds": list(h.bounds), "counts": list(h.counts),
             "count": 0, "sum": 0.0, "min": math.inf, "max": -math.inf}
        assert math.isnan(histogram_quantile(d, 0.5))

    def test_bad_bounds_rejected(self):
        with pytest.raises(ValueError):
            core.Histogram(bounds=(3, 2, 1))
        with pytest.raises(ValueError):
            core.Histogram(bounds=())
        with pytest.raises(ValueError):
            histogram_quantile({"count": 1}, 1.5)


class TestDisabledNoOp:
    def test_disabled_registry_hands_out_shared_nulls(self):
        reg = Telemetry(enabled=False)
        assert reg.counter("a") is reg.counter("b")
        assert reg.gauge("a") is reg.gauge("b")
        assert reg.histogram("a") is reg.histogram("b")
        assert reg.span("a") is reg.span("b")

    def test_disabled_records_nothing(self):
        reg = Telemetry(enabled=False)
        reg.counter("c").add(5)
        reg.gauge("g").set(1.0)
        reg.histogram("h").record(0.1)
        with reg.span("s"):
            pass
        reg.add_span_time("t", 1.0)
        assert reg.snapshot().empty
        assert not reg.has_data()

    def test_null_span_is_reentrant(self):
        reg = Telemetry(enabled=False)
        sp = reg.span("x")
        with sp:
            with sp:
                pass
        assert sp.elapsed == 0.0

    def test_module_default_is_disabled(self):
        assert core.current().enabled is False or core.current().enabled is True
        # session() restores whatever was active before
        before = core.current()
        with core.session() as reg:
            assert core.current() is reg
            assert reg.enabled
        assert core.current() is before


def _worker_records(state: dict, i: int) -> int:
    """Module-level (picklable) task that records telemetry in the worker."""
    reg = core.current()
    reg.counter("test.tasks").add(1)
    with reg.span("test.work"):
        pass
    reg.histogram("test.size", bounds=INT_BOUNDS).record(i)
    return i * i


class TestCrossProcessTransport:
    def test_worker_snapshots_ride_result_messages(self):
        from repro.runtime.process_pool import ProcessPoolBackend

        with core.session() as reg:
            with ProcessPoolBackend(2) as backend:
                out = backend.map(_worker_records, list(range(8)), chunksize=1)
            assert sorted(out) == [i * i for i in range(8)]
            snap = reg.snapshot()
        # per-worker labelled entries, aggregating to the full totals
        agg = snap.aggregated()
        assert agg.counters["test.tasks"] == 8
        assert agg.spans["test.work"]["count"] == 8
        assert agg.histograms["test.size"]["count"] == 8
        workers = {name for name in snap.counters
                   if strip_labels(name) == "test.tasks"}
        assert workers <= {"test.tasks{worker=0}", "test.tasks{worker=1}"}
        assert len(workers) >= 1  # at least one worker did work
        # the runtime's own IPC instrumentation came along for free
        ipc = [n for n in snap.histograms
               if strip_labels(n) == "runtime.ipc.queue_wait_sec"]
        assert ipc, sorted(snap.histograms)

    def test_disabled_parent_means_dark_workers(self):
        from repro.runtime.process_pool import ProcessPoolBackend

        assert not core.enabled()
        with ProcessPoolBackend(2) as backend:
            out = backend.map(_worker_records, list(range(4)), chunksize=1)
        assert sorted(out) == [i * i for i in range(4)]
        assert not core.current().has_data()


class TestSink:
    def test_roundtrip_validates(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with TelemetrySink(str(path), meta={"command": "test"}) as sink:
            sink.write_event("epoch", epoch=0, kl=0.01, phases=None)
            sink.write_event("heartbeat", cell="lublin-64", seconds=1.0)
            sink.write_snapshot(make_snapshot(11))
        stats = validate_jsonl(str(path))
        assert stats["lines"] == 4
        assert stats["events"] == {"run": 1, "epoch": 1, "heartbeat": 1,
                                   "snapshot": 1}
        restored = TelemetrySnapshot.from_dict(stats["snapshot"])
        assert restored.to_dict() == make_snapshot(11).to_dict()

    def test_first_line_is_run_event_with_schema(self, tmp_path):
        path = tmp_path / "t.jsonl"
        TelemetrySink(str(path)).close()
        first = json.loads(path.read_text().splitlines()[0])
        assert first["event"] == "run"
        assert first["schema"] == SCHEMA

    def test_nonfinite_floats_serialize_as_null(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with TelemetrySink(str(path)) as sink:
            sink.write_event("epoch", epoch=0, val_reward=float("nan"))
            sink.write_snapshot(make_snapshot(12))
        line = json.loads(path.read_text().splitlines()[1])
        assert line["val_reward"] is None
        validate_jsonl(str(path))  # histogram inf min/max handled too

    @pytest.mark.parametrize("mutate, match", [
        (lambda lines: [], "empty"),
        (lambda lines: ["not json"], "not JSON"),
        (lambda lines: lines[1:], "first line must be a run"),
        (lambda lines: lines[:1], "no snapshot"),
        (lambda lines: lines + [json.dumps({"event": "nope", "ts": 0})],
         "unknown event"),
    ])
    def test_rejects_malformed(self, tmp_path, mutate, match):
        path = tmp_path / "t.jsonl"
        with TelemetrySink(str(path)) as sink:
            sink.write_snapshot(make_snapshot(13))
        lines = path.read_text().splitlines()
        path.write_text("\n".join(mutate(lines)) + "\n" if mutate(lines) else "")
        with pytest.raises(ValueError, match=match):
            validate_jsonl(str(path))

    def test_rejects_corrupt_histogram(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with TelemetrySink(str(path)) as sink:
            sink.write_snapshot(make_snapshot(14))
        lines = path.read_text().splitlines()
        snap_line = json.loads(lines[-1])
        hist = next(iter(snap_line["data"]["histograms"].values()))
        hist["counts"][0] += 1  # bucket counts no longer sum to count
        lines[-1] = json.dumps(snap_line)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="do not sum"):
            validate_jsonl(str(path))

    def test_unknown_event_refused_at_write_time(self, tmp_path):
        sink = TelemetrySink(str(tmp_path / "t.jsonl"))
        with pytest.raises(ValueError, match="unknown event"):
            sink.write_event("custom")
        sink.close()

    def test_render_summary_aggregates_workers(self):
        snap = make_snapshot(15).labelled(worker=0).merge(
            make_snapshot(16).labelled(worker=1)
        )
        text = render_summary(snap)
        assert "telemetry summary" in text
        assert "{worker=" not in text  # summary is the aggregated view
        assert "jobs" in text and "depth" in text


class TestTelemetryRun:
    def test_disabled_config_yields_none(self):
        with telemetry_run(None) as sink:
            assert sink is None
        with telemetry_run(TelemetryConfig(enabled=False)) as sink:
            assert sink is None
        assert not core.enabled()

    def test_enabled_config_activates_and_restores(self, tmp_path):
        path = tmp_path / "t.jsonl"
        cfg = TelemetryConfig(enabled=True, path=str(path), summary=False)
        with telemetry_run(cfg, meta={"command": "test"}) as sink:
            assert sink is not None
            assert core.enabled()
            core.current().counter("x").add(1)
        assert not core.enabled()
        stats = validate_jsonl(str(path))
        assert stats["snapshot"]["counters"]["x"] == 1

    def test_nested_run_is_noop(self, tmp_path):
        # A study owns the registry; a trainer's own telemetry_run inside
        # it must record into the study's registry, not open a second sink.
        outer = TelemetryConfig(enabled=True, summary=False)
        inner = TelemetryConfig(
            enabled=True, path=str(tmp_path / "inner.jsonl"), summary=False
        )
        with telemetry_run(outer):
            outer_reg = core.current()
            with telemetry_run(inner) as sink:
                assert sink is None
                assert core.current() is outer_reg
        assert not (tmp_path / "inner.jsonl").exists()


TINY_ENV = EnvConfig(max_obsv_size=16)
TINY_PPO = PPOConfig(train_pi_iters=5, train_v_iters=5)


def _tiny_train(trace, telemetry=None, path=None):
    cfg = TrainConfig(
        epochs=2, trajectories_per_epoch=2, trajectory_length=16, seed=0,
        telemetry=telemetry if telemetry is not None else (
            TelemetryConfig(enabled=True, path=path, summary=False)
            if path is not None else None
        ),
    )
    with Trainer(trace, env_config=TINY_ENV, ppo_config=TINY_PPO,
                 train_config=cfg) as t:
        return t.train()


class TestGoldenBitIdentity:
    """The headline guarantee: telemetry never changes a result bit."""

    def test_train_identical_on_vs_off(self, trace, tmp_path):
        off = _tiny_train(trace)
        on = _tiny_train(trace, path=str(tmp_path / "t.jsonl"))
        np.testing.assert_array_equal(on.metric_curve(), off.metric_curve())
        for rec_on, rec_off in zip(on.curve, off.curve):
            assert rec_on.mean_reward == rec_off.mean_reward
            assert rec_on.val_reward == rec_off.val_reward
            assert rec_on.stats.kl == rec_off.stats.kl
        for key, w_off in off.policy.state_dict().items():
            np.testing.assert_array_equal(on.policy.state_dict()[key], w_off)
        # and the trace it wrote is valid with per-epoch phase breakdowns
        stats = validate_jsonl(str(tmp_path / "t.jsonl"))
        assert stats["events"]["epoch"] == 2
        assert core.enabled() is False  # trainer restored the registry

    def test_evaluate_identical_on_vs_off(self, trace, tmp_path):
        from repro.api import evaluate
        from repro.schedulers import SJF

        def run(telemetry):
            return evaluate(
                SJF(), trace, metric="bsld",
                config=EvalConfig(n_sequences=2, sequence_length=16,
                                  seed=1, telemetry=telemetry),
            )

        off = run(None)
        on = run(TelemetryConfig(
            enabled=True, path=str(tmp_path / "e.jsonl"), summary=False
        ))
        np.testing.assert_array_equal(on.values, off.values)
        snap = TelemetrySnapshot.from_dict(
            validate_jsonl(str(tmp_path / "e.jsonl"))["snapshot"]
        )
        assert snap.histograms["eval.cell_latency_sec"]["count"] > 0
        assert snap.counters["engine.decisions"] > 0


class TestEpochRecordPhaseTimes:
    def test_roundtrip_with_phase_times(self):
        rec = EpochRecord(
            epoch=3, mean_metric=2.5, mean_reward=-2.5,
            stats=UpdateStats(policy_loss=0.1, value_loss=0.2, kl=0.01,
                              entropy=1.0, pi_iters_run=5,
                              early_stopped=False),
            n_rejected=0, wall_time=1.0, filtered_phase=False,
            phase_times={"rollout": 0.5, "update": 0.3, "validate": 0.1},
        )
        restored = EpochRecord.from_dict(rec.to_dict())
        assert restored == rec
        assert restored.phase_times["rollout"] == 0.5

    def test_old_records_without_phase_times_still_load(self):
        # archives written before telemetry existed have no phase_times key
        rec = EpochRecord(
            epoch=0, mean_metric=2.0, mean_reward=-2.0,
            stats=UpdateStats(policy_loss=0.1, value_loss=0.2, kl=0.01,
                              entropy=1.0, pi_iters_run=5,
                              early_stopped=False),
            n_rejected=0, wall_time=1.0, filtered_phase=False,
        )
        old = rec.to_dict()
        del old["phase_times"]
        restored = EpochRecord.from_dict(old)
        assert restored.phase_times is None
        assert restored.epoch == 0

    def test_phase_times_populated_only_when_enabled(self, trace):
        off = _tiny_train(trace)
        assert all(rec.phase_times is None for rec in off.curve)
        on = _tiny_train(trace, telemetry=TelemetryConfig(enabled=True,
                                                          summary=False))
        for rec in on.curve:
            assert set(rec.phase_times) == {"rollout", "update", "validate"}
            assert all(v >= 0 for v in rec.phase_times.values())

    def test_epoch_value_pass_is_one_span_per_epoch(self, trace, tmp_path):
        _tiny_train(trace, path=str(tmp_path / "t.jsonl"))
        snap = TelemetrySnapshot.from_dict(
            validate_jsonl(str(tmp_path / "t.jsonl"))["snapshot"]
        )
        targets = snap.spans["rollout.targets"]
        assert targets["count"] == 2 and targets["sum"] > 0


class TestRolloutPhaseSpans:
    def test_collect_records_each_phase(self, trace):
        cfg = TrainConfig(trajectories_per_epoch=2, trajectory_length=16,
                          n_envs=2, seed=0)
        with Trainer(trace, env_config=TINY_ENV, train_config=cfg) as t:
            with core.session() as reg:
                t._collect(0, TrajectoryBuffer())
            for phase in ("policy_forward", "env_step", "buffer"):
                assert reg.span_seconds(f"rollout.{phase}") > 0, phase
        assert not core.enabled()  # the session restored the registry


class TestTrainerTelemetryOwnership:
    def test_nested_trainer_records_into_the_outer_run(self, trace, tmp_path):
        # an enclosing run owns the registry: the trainer's own config
        # opens no second sink and records into the outer registry
        outer = TelemetryConfig(enabled=True, summary=False)
        with telemetry_run(outer):
            outer_reg = core.current()
            _tiny_train(trace, path=str(tmp_path / "inner.jsonl"))
            assert core.current() is outer_reg
        assert not (tmp_path / "inner.jsonl").exists()
        assert outer_reg.span_seconds("rollout.targets") > 0
        assert not core.enabled()
