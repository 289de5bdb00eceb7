"""Unit tests for configuration dataclasses (paper defaults + validation)."""

import dataclasses

import pytest

from repro.config import (
    EnvConfig,
    EvalConfig,
    PPOConfig,
    RuntimeConfig,
    StudyConfig,
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
        with pytest.raises(ValueError):
            EnvConfig(job_features=2)

    @pytest.mark.parametrize("job_features", [5, 6])
    def test_rejects_layouts_the_encoder_cannot_write(self, job_features):
        """The encoder writes columns 0-6 unconditionally; 5 and 6 used to
        pass here and die with an IndexError inside ``SchedGym.reset``."""
        with pytest.raises(ValueError, match=f"job_features.*{job_features}"):
            EnvConfig(job_features=job_features)


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

    def test_rollout_mode_validation(self):
        """How rollouts are collected is not configurable; the fields that
        used to select or loosen it are gone."""
        for cls, field in [(TrainConfig, "rollout_mode"),
                           (TrainConfig, "vectorized"),
                           (TrainConfig, "grad_workers"),
                           (TrainConfig, "staleness"),
                           (TrainConfig, "stale_mode"),
                           (StudyConfig, "rollout_mode"),
                           (PPOConfig, "update_path"),
                           (RuntimeConfig, "transport")]:
            with pytest.raises(TypeError):
                cls(**{field: None})


class TestEvalConfig:
    def test_paper_defaults(self):
        cfg = EvalConfig()
        assert cfg.n_sequences == 10       # "repeated 10 times"
        assert cfg.sequence_length == 1024  # "1,024 continuous jobs"
        assert cfg.runtime == RuntimeConfig()  # serial unless asked

    def test_validation(self):
        with pytest.raises(ValueError):
            EvalConfig(n_sequences=0)
        with pytest.raises(ValueError):
            EvalConfig(sequence_length=-1)
        with pytest.raises(TypeError):
            EvalConfig(runtime="process")


class TestRuntimeConfig:
    def test_defaults_are_serial(self):
        cfg = RuntimeConfig()
        assert cfg.backend == "serial"
        assert cfg.workers == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            RuntimeConfig(backend="threads")
        with pytest.raises(ValueError):
            RuntimeConfig(workers=0)

    def test_from_workers_cli_convention(self):
        assert RuntimeConfig.from_workers(1) == RuntimeConfig()
        multi = RuntimeConfig.from_workers(4)
        assert multi.backend == "process" and multi.workers == 4
        with pytest.raises(ValueError):
            RuntimeConfig.from_workers(0)

    def test_train_config_takes_no_runtime(self):
        """Training rolls out in the trainer's own process: there is no
        runtime to pass it, and neither a map chunk size to configure."""
        with pytest.raises(TypeError):
            TrainConfig(runtime=RuntimeConfig.from_workers(2))
        with pytest.raises(TypeError):
            RuntimeConfig(chunksize=4)
        assert "runtime" not in {f.name for f in dataclasses.fields(TrainConfig)}


class TestFeatureCompat:
    def seven(self):
        from repro.config import EnvConfig

        return EnvConfig()

    def nine(self):
        from repro.config import EnvConfig

        return EnvConfig(job_features=9, memory_features=True)

    def test_same_layout_is_native(self):
        assert self.seven().feature_compat(self.seven()) == "native"
        assert self.nine().feature_compat(self.nine()) == "native"

    def test_plain_policy_on_memory_env_is_blind(self):
        assert self.seven().feature_compat(self.nine()) == "memory-blind"

    def test_memory_policy_on_plain_env_is_neutral(self):
        assert self.nine().feature_compat(self.seven()) == "memory-neutral"
