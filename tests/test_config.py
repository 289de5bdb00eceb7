"""Unit tests for configuration dataclasses (paper defaults + validation)."""

import dataclasses

import pytest

from repro.config import (
    EnvConfig,
    EvalConfig,
    PPOConfig,
    StudyConfig,
    TelemetryConfig,
    TrainConfig,
)


class TestEnvConfig:
    def test_paper_defaults(self):
        cfg = EnvConfig()
        assert cfg.max_obsv_size == 128  # MAX_OBSV_SIZE (§IV-B3)
        assert cfg.observation_shape == (128, cfg.job_features)

    def test_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            EnvConfig().max_obsv_size = 5

    def test_validation(self):
        with pytest.raises(ValueError):
            EnvConfig(max_obsv_size=0)


class TestPPOConfig:
    def test_paper_defaults(self):
        cfg = PPOConfig()
        assert cfg.pi_lr == 1e-3          # "the learning rate is 1e-3"
        assert cfg.train_pi_iters == 80   # "80 iterations to update"
        assert cfg.train_v_iters == 80

    def test_validation(self):
        with pytest.raises(ValueError):
            PPOConfig(clip_ratio=0.0)
        with pytest.raises(ValueError):
            PPOConfig(gamma=1.5)

    @pytest.mark.parametrize("field, bad, smallest", [
        ("train_pi_iters", 0, 1),  # was: IndexError on kls[-1] after the rollout
        ("train_v_iters", 0, 1),   # was: value_loss=nan + RuntimeWarning
        ("minibatch_size", 0, 1),  # was: ValueError from inside the sparse plan
        ("pi_lr", 0.0, 1e-12),
        ("vf_lr", -1e-3, 1e-12),
        ("max_grad_norm", 0.0, 1e-12),
        ("target_kl", float("nan"), 1e-12),
        ("entropy_coef", -0.01, 0.0),
    ])
    def test_rejects_values_the_update_cannot_run_with(self, field, bad, smallest):
        with pytest.raises(ValueError, match=rf"^{field} must be .*, got {bad}$"):
            PPOConfig(**{field: bad})
        assert getattr(PPOConfig(**{field: smallest}), field) == smallest


class TestTrainConfig:
    def test_paper_defaults(self):
        cfg = TrainConfig()
        assert cfg.epochs == 100
        assert cfg.trajectories_per_epoch == 100
        assert cfg.trajectory_length == 256

    def test_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(epochs=0)

    @pytest.mark.parametrize("field, bad, edge", [
        ("filter_probe_samples", 0, 1),  # was: failed inside the filter fit
        ("filter_phase1_fraction", float("nan"), 0.0),  # was: failed in run_epoch
        ("filter_phase1_fraction", -0.5, 0.0),  # was: accepted silently
        ("filter_phase1_fraction", 1.5, 1.0),
    ])
    def test_rejects_filter_settings_training_cannot_use(self, field, bad, edge):
        with pytest.raises(ValueError, match=rf"^{field} must be .*, got {bad}$"):
            TrainConfig(**{field: bad})
        assert getattr(TrainConfig(**{field: edge}), field) == edge

    def test_rollout_mode_validation(self):
        """How rollouts are collected is not configurable; the fields that
        used to select or loosen it are gone."""
        for cls, field in [(TrainConfig, "rollout_mode"),
                           (TrainConfig, "vectorized"),
                           (TrainConfig, "grad_workers"),
                           (TrainConfig, "staleness"),
                           (TrainConfig, "stale_mode"),
                           (StudyConfig, "rollout_mode"),
                           (PPOConfig, "update_path")]:
            with pytest.raises(TypeError):
                cls(**{field: None})

    def test_takes_no_runtime(self):
        """Training rolls out in the trainer's own process, every sequence
        of an epoch in one lock-step: there is no runtime, worker count or
        lock-step width to pass it."""
        for field in ("runtime", "workers", "n_envs"):
            with pytest.raises(TypeError):
                TrainConfig(**{field: 2})
            assert field not in {f.name for f in dataclasses.fields(TrainConfig)}


class TestEvalConfig:
    def test_paper_defaults(self):
        cfg = EvalConfig()
        assert cfg.n_sequences == 10       # "repeated 10 times"
        assert cfg.sequence_length == 1024  # "1,024 continuous jobs"
        assert cfg.workers == 1  # in-process unless asked

    def test_validation(self):
        with pytest.raises(ValueError):
            EvalConfig(n_sequences=0)
        with pytest.raises(ValueError):
            EvalConfig(sequence_length=-1)
        with pytest.raises(TypeError):
            EvalConfig(runtime="process")

    def test_workers_validation(self):
        """Evaluation fans out on one worker count, validated >= 1; the
        backend object it replaced, and telemetry's on/off and summary
        switches (``None`` is off, the summary always logs), are gone."""
        for cls in (EvalConfig, StudyConfig):
            assert cls(workers=3).workers == 3
            for bad in (0, -1):
                with pytest.raises(ValueError, match="workers must be >= 1"):
                    cls(workers=bad)
            with pytest.raises(TypeError):
                cls(runtime=None)
        for field in ("enabled", "summary"):
            with pytest.raises(TypeError):
                TelemetryConfig(**{field: True})
        assert TelemetryConfig(path="t.jsonl").path == "t.jsonl"




class TestFeatureCompat:
    def seven(self):
        from repro.config import EnvConfig

        return EnvConfig()

    def nine(self):
        from repro.config import EnvConfig

        return EnvConfig(memory_features=True)

    def test_same_layout_is_native(self):
        assert self.seven().feature_compat(self.seven()) == "native"
        assert self.nine().feature_compat(self.nine()) == "native"

    def test_plain_policy_on_memory_env_is_blind(self):
        assert self.seven().feature_compat(self.nine()) == "memory-blind"

    def test_memory_policy_on_plain_env_is_neutral(self):
        assert self.nine().feature_compat(self.seven()) == "memory-neutral"
