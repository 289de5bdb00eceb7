"""Telemetry subsystem tests: core algebra, spans, transport, sink, goldens.

Covers the contracts everything else leans on: worker deltas fold into
the parent's registry (:meth:`Telemetry.absorb`) exactly once, spans
nest and survive exceptions, histogram quantiles are accurate within a
bucket, the disabled path is a true no-op (shared null singletons), the
JSONL sink round-trips through its validator — and, the headline
guarantee, results are bit-identical with telemetry on vs off.
"""

import json
import math

import numpy as np
import pytest

from repro import api
from repro.config import EnvConfig, EvalConfig, PPOConfig, TelemetryConfig, TrainConfig
from repro.rl import Trainer
from repro.rl import EpochRecord, UpdateStats
from repro.schedulers import FCFS, SJF
from repro.telemetry import core
from repro.telemetry.core import (
    INT_BOUNDS,
    Telemetry,
    TelemetrySnapshot,
    histogram_quantile,
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
    """:meth:`Telemetry.absorb` is the one merge: a pool worker's delta
    folding into the parent's registry."""

    def test_merge_with_empty_is_identity(self):
        a = make_snapshot(6)
        reg = Telemetry(enabled=True)
        reg.absorb(a)
        assert reg.snapshot().to_dict() == a.to_dict()
        reg.absorb(TelemetrySnapshot())
        reg.absorb(None)
        assert reg.snapshot().to_dict() == a.to_dict()

    def test_counters_add_and_disjoint_keys_survive(self):
        a, b = make_snapshot(1), make_snapshot(2)
        reg = Telemetry(enabled=True)
        reg.absorb(a)
        reg.absorb(b)
        merged = reg.snapshot()
        assert merged.counters["jobs"] == a.counters["jobs"] + b.counters["jobs"]
        assert merged.counters["only.1"] == a.counters["only.1"]
        assert merged.counters["only.2"] == b.counters["only.2"]
        assert merged.histograms["depth"]["count"] == (
            a.histograms["depth"]["count"] + b.histograms["depth"]["count"]
        )
        assert merged.spans["epoch/rollout"]["count"] == 6

    def test_histogram_bounds_mismatch_refuses(self):
        a, b = Telemetry(enabled=True), Telemetry(enabled=True)
        a.histogram("h", bounds=(1, 2, 3)).record(1)
        b.histogram("h", bounds=(1, 2, 4)).record(1)
        with pytest.raises(ValueError, match="bounds"):
            a.absorb(b.snapshot())

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


class TestCrossProcessTransport:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_worker_telemetry_arrives_exactly_once(self, trace, workers):
        """Pool workers record into fresh registries: the parent's own
        samples are not shipped back, and every task's sample arrives
        once."""
        config = EvalConfig(n_sequences=4, sequence_length=24, workers=workers)
        with core.session() as reg:
            reg.counter("test.parent").add(5)
            reg.histogram("eval.cell_latency_sec").record(0.5)
            api.compare([FCFS(), SJF()], trace, config=config)
            snap = reg.snapshot()
        assert snap.counters["test.parent"] == 5
        assert snap.histograms["eval.cell_latency_sec"]["count"] == 1 + 2 * 4

    @pytest.mark.parametrize("workers", [1, 2])
    def test_lockstep_telemetry_matches_per_sequence(self, trace, workers):
        """An RL policy evaluated in lock-step groups records what the
        per-sequence path records: the engine event, decision and episode
        totals, and one ``eval.cell_latency_sec`` sample per sequence
        whose sum is the groups' wall time."""
        from repro.nn import KernelPolicy
        from repro.schedulers import RLSchedulerPolicy
        from repro.sim import ClusterSpec, run_scheduler
        from repro.workloads import SequenceSampler

        env = EnvConfig(max_obsv_size=16)
        rl = RLSchedulerPolicy(KernelPolicy(env.job_features, seed=0),
                               n_procs=trace.max_procs, env_config=env)
        config = EvalConfig(n_sequences=4, sequence_length=24, seed=6,
                            workers=workers)
        with core.session() as reg:
            api.evaluate(rl, trace, config=config)
            grouped = reg.snapshot()
        sequences = SequenceSampler(trace, 24, seed=6).sample_many(4)
        with core.session() as reg:
            for jobs in sequences:
                run_scheduler(jobs, ClusterSpec(trace.max_procs), rl)
            alone = reg.snapshot()
        for name in ("engine.events", "engine.decisions"):
            assert grouped.counters[name] == alone.counters[name] > 0
        assert grouped.spans["engine.episode"]["count"] == 4
        latency = grouped.histograms["eval.cell_latency_sec"]
        assert latency["count"] == 4
        # a task's latency sample wraps its engines' episodes
        assert latency["sum"] >= grouped.spans["engine.episode"]["sum"] > 0

    def test_disabled_parent_means_dark_workers(self, trace, monkeypatch):
        """With telemetry off in the parent, no task ships a delta."""
        absorbed = []
        monkeypatch.setattr(core.Telemetry, "absorb",
                            lambda self, snap: absorbed.append(snap))
        assert not core.enabled()
        config = EvalConfig(n_sequences=4, sequence_length=24, workers=2)
        out = api.compare([FCFS(), SJF()], trace, config=config)
        assert [r.n for r in out.values()] == [4, 4]
        assert absorbed == [None] * (2 * 4)
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

    def test_render_summary_reads_the_snapshot(self):
        text = render_summary(make_snapshot(15))
        assert "telemetry summary" in text
        for name in ("jobs", "only.15", "kl", "depth", "rollout"):
            assert name in text


class TestTelemetryRun:
    def test_disabled_config_yields_none(self):
        with telemetry_run(None) as sink:
            assert sink is None
        assert not core.enabled()

    def test_enabled_config_activates_and_restores(self, tmp_path):
        path = tmp_path / "t.jsonl"
        cfg = TelemetryConfig(path=str(path))
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
        outer = TelemetryConfig()
        inner = TelemetryConfig(path=str(tmp_path / "inner.jsonl"))
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
            TelemetryConfig(path=path)
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
        # validation deploys the policy through run_lockstep, which records
        # its episodes as evaluation does (the rollout records none): per
        # epoch, 3 held-out episodes of trajectory_length (16) jobs each
        snap = TelemetrySnapshot.from_dict(stats["snapshot"])
        assert snap.spans["engine.episode"]["count"] == 2 * 3
        assert snap.counters["engine.decisions"] == 2 * 3 * 16

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
        on = run(TelemetryConfig(path=str(tmp_path / "e.jsonl")))
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
        on = _tiny_train(trace, telemetry=TelemetryConfig())
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
                          seed=0)
        with Trainer(trace, env_config=TINY_ENV, train_config=cfg) as t:
            with core.session() as reg:
                t._collect(0)
            for phase in ("policy_forward", "env_step", "buffer"):
                assert reg.span_seconds(f"rollout.{phase}") > 0, phase
        assert not core.enabled()  # the session restored the registry


class TestTrainerTelemetryOwnership:
    def test_nested_trainer_records_into_the_outer_run(self, trace, tmp_path):
        # an enclosing run owns the registry: the trainer's own config
        # opens no second sink and records into the outer registry
        outer = TelemetryConfig()
        with telemetry_run(outer):
            outer_reg = core.current()
            _tiny_train(trace, path=str(tmp_path / "inner.jsonl"))
            assert core.current() is outer_reg
        assert not (tmp_path / "inner.jsonl").exists()
        assert outer_reg.span_seconds("rollout.targets") > 0
        assert not core.enabled()
