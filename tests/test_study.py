"""The cross-scenario generalization study (Table VII pipeline).

Covers the study tentpole end to end at miniature scale: zoo training +
checkpoint resume, the generalization-matrix artifact, serial/process
bit-equality, and the JSON-strictness of the artifact.
"""

import dataclasses
import json

import numpy as np
import pytest

from repro.config import StudyConfig, TrainConfig
from repro.study import ARTIFACT_SCHEMA, generalization_matrix, train_matrix

SCENARIOS = ("lublin-64", "lublin-256-mem")
HEURISTICS = ("FCFS", "SJF")


def tiny_study_config(zoo_dir, **kw):
    """Keywords naming a training size go to the embedded TrainConfig."""
    train = dict(seed=0, epochs=1, trajectories_per_epoch=2,
                 trajectory_length=12)
    train.update({k: kw.pop(k) for k in train.keys() & kw.keys()})
    base = dict(
        scenarios=SCENARIOS,
        zoo_dir=str(zoo_dir),
        heuristics=HEURISTICS,
        train=TrainConfig(**train),
        max_obsv_size=8,
        n_jobs=400,
        n_sequences=2,
        sequence_length=24,
    )
    base.update(kw)
    return StudyConfig(**base)


def retrained(config, **train):
    """``config`` with fields of its embedded TrainConfig replaced."""
    return dataclasses.replace(
        config, train=dataclasses.replace(config.train, **train)
    )


@pytest.fixture(scope="module")
def zoo(tmp_path_factory):
    """A trained two-scenario policy zoo, built once for the module."""
    zoo_dir = tmp_path_factory.mktemp("zoo")
    config = tiny_study_config(zoo_dir)
    trained = train_matrix(config)
    return zoo_dir, config, trained


class TestTrainMatrix:
    def test_trains_one_policy_per_scenario(self, zoo):
        zoo_dir, _, trained = zoo
        assert list(trained) == list(SCENARIOS)
        for name, policy in trained.items():
            assert not policy.from_checkpoint
            assert (zoo_dir / f"{name}.npz").exists()
            assert len(policy.result.curve) == 1

    def test_memory_scenario_trains_memory_featured_policy(self, zoo):
        _, _, trained = zoo
        assert not trained["lublin-64"].result.env_config.memory_features
        assert trained["lublin-256-mem"].result.env_config.memory_features
        assert trained["lublin-256-mem"].result.env_config.job_features >= 9

    def test_resume_skips_training_and_restores_weights(self, zoo):
        zoo_dir, config, trained = zoo
        messages = []
        resumed = train_matrix(config, progress=messages.append)
        for name in SCENARIOS:
            assert resumed[name].from_checkpoint
            fresh = trained[name].result.policy.state_dict()
            restored = resumed[name].result.policy.state_dict()
            for key in fresh:
                np.testing.assert_array_equal(fresh[key], restored[key])
            assert (resumed[name].result.best_epoch
                    == trained[name].result.best_epoch)
        assert sum("skipped (checkpoint exists" in m for m in messages) == 2

    def test_unknown_scenario_fails_before_training(self, tmp_path):
        config = tiny_study_config(tmp_path, scenarios=("nope",))
        with pytest.raises(KeyError, match="unknown scenario"):
            train_matrix(config)
        assert not (tmp_path / "nope.npz").exists()

    def test_checkpoint_records_training_provenance(self, zoo):
        _, config, trained = zoo
        meta = trained["lublin-64"].result.train_meta
        assert meta["seed"] == config.train.seed
        assert meta["epochs"] == config.train.epochs
        assert meta["policy_preset"] == config.policy_preset
        # and it survives the npz round trip
        from repro.rl import TrainingResult

        restored = TrainingResult.load(trained["lublin-64"].checkpoint)
        assert restored.train_meta == meta

    def test_resume_with_drifted_config_warns(self, zoo):
        """Restoring a checkpoint trained under different settings must be
        reported — the checkpoint's own provenance stays authoritative."""
        _, config, _ = zoo
        drifted = retrained(config, epochs=5, seed=9)
        messages = []
        resumed = train_matrix(drifted, progress=messages.append)
        warnings = [m for m in messages if "different settings" in m]
        assert len(warnings) == 2
        assert "'epochs': (1, 5)" in warnings[0]
        # the artifact reports how the checkpoint was trained, not the
        # drifted run config
        assert resumed["lublin-64"].result.train_meta["epochs"] == 1

    def test_checkpoint_with_a_retired_key_restores_silently(self, zoo, tmp_path):
        """Regression: the drift table was built from the current config's
        keys only, so a checkpoint carrying a key the config no longer has
        (every zoo file written before ``rollout_mode`` was retired) was
        reported as trained "with different settings {}".  Drift is judged
        on the keys both sides know."""
        _, config, trained = zoo
        result = trained["lublin-64"].result
        old_zoo = tmp_path / "old-zoo"
        old_zoo.mkdir()
        saved_meta = result.train_meta
        try:
            result.train_meta = {**saved_meta, "rollout_mode": "locked"}
            result.save(old_zoo / "lublin-64.npz")
        finally:
            result.train_meta = saved_meta
        old = dataclasses.replace(
            config, zoo_dir=str(old_zoo), scenarios=("lublin-64",)
        )
        messages = []
        train_matrix(old, progress=messages.append)
        assert [m for m in messages if "skipped" in m]
        assert [m for m in messages if "different settings" in m] == []
        # a real mismatch on a shared key still warns, and names only it
        messages.clear()
        train_matrix(retrained(old, epochs=5), progress=messages.append)
        (warning,) = [m for m in messages if "different settings" in m]
        assert "'epochs': (1, 5)" in warning and "rollout_mode" not in warning

    def test_interrupted_save_leaves_no_partial_checkpoint(self, zoo,
                                                           monkeypatch,
                                                           tmp_path):
        """save() is write-then-rename: a crash mid-write must not leave
        a file the zoo's exists() resume check would trust."""
        import numpy as np

        _, _, trained = zoo
        result = trained["lublin-64"].result
        target = tmp_path / "ckpt.npz"

        def partial_write_then_die(path, **kwargs):
            with open(path, "wb") as fh:
                fh.write(b"truncated npz")
            raise KeyboardInterrupt

        monkeypatch.setattr(np, "savez", partial_write_then_die)
        with pytest.raises(KeyboardInterrupt):
            result.save(target)
        # the partial bytes landed in the temp file, never at the final
        # path — a resumed study retrains instead of crashing on garbage
        assert not target.exists()

    def test_checkpoint_with_staleness_provenance_restores_silently(
        self, zoo, tmp_path
    ):
        """Zoo files written while ``staleness`` was a training knob
        record it; the provenance no longer has it, so it is not drift."""
        _, config, trained = zoo
        result = trained["lublin-64"].result
        assert "staleness" not in result.train_meta
        saved_meta = result.train_meta
        try:
            result.train_meta = {**saved_meta, "staleness": 0}
            result.save(tmp_path / "lublin-64.npz")
        finally:
            result.train_meta = saved_meta
        old = dataclasses.replace(
            config, zoo_dir=str(tmp_path), scenarios=("lublin-64",)
        )
        messages = []
        train_matrix(old, progress=messages.append)
        assert [m for m in messages if "skipped" in m]
        assert [m for m in messages if "different settings" in m] == []


class TestCheckpointLoad:
    """``TrainingResult.load`` on a file that is not a checkpoint raises a
    ``ValueError`` naming the file and what is missing — the study's
    resume path hands that to the user instead of a zip traceback."""

    @pytest.fixture
    def saved(self, zoo, tmp_path):
        _, _, trained = zoo
        path = tmp_path / "ckpt.npz"
        trained["lublin-64"].result.save(path)
        return path

    def test_truncated_file(self, saved, zoo, tmp_path):
        from repro.rl import TrainingResult

        data = saved.read_bytes()
        saved.write_bytes(data[: len(data) // 2])
        with pytest.raises(ValueError, match="ckpt.npz.*not a readable"):
            TrainingResult.load(saved)
        # the same error, with the file named, from the study's resume
        _, config, _ = zoo
        zoo_dir = tmp_path / "zoo"
        zoo_dir.mkdir()
        saved.rename(zoo_dir / "lublin-64.npz")
        resume = dataclasses.replace(
            config, zoo_dir=str(zoo_dir), scenarios=("lublin-64",)
        )
        with pytest.raises(ValueError, match="lublin-64.npz"):
            train_matrix(resume)

    def test_foreign_npz(self, tmp_path):
        from repro.rl import TrainingResult

        path = tmp_path / "foreign.npz"
        np.savez(path, weights=np.zeros(3))
        with pytest.raises(ValueError, match="foreign.npz.*'__meta__'"):
            TrainingResult.load(path)

    def test_metadata_missing_a_field(self, saved):
        from repro.rl import TrainingResult

        with np.load(saved) as data:
            arrays = {key: data[key] for key in data.files}
        meta = json.loads(bytes(arrays["__meta__"]).decode())
        del meta["preset"]
        arrays["__meta__"] = np.frombuffer(json.dumps(meta).encode(), np.uint8)
        np.savez(saved, **arrays)
        with pytest.raises(ValueError, match="ckpt.npz.*lacks field.*preset"):
            TrainingResult.load(saved)


class TestGeneralizationMatrix:
    @pytest.fixture(scope="class")
    def doc(self, zoo):
        _, config, trained = zoo
        return generalization_matrix(config, trained=trained)

    def test_artifact_shape(self, doc):
        assert doc["schema"] == ARTIFACT_SCHEMA
        assert set(doc["results"]) == set(SCENARIOS)
        columns = ["FCFS", "SJF", "RL-lublin-64", "RL-lublin-256-mem"]
        for row in doc["results"].values():
            assert list(row) == columns
            for cell in row.values():
                assert cell["n"] == 2
                assert len(cell["values"]) == 2
                np.testing.assert_allclose(
                    cell["mean"], np.mean(cell["values"]))
                np.testing.assert_allclose(
                    cell["std"], np.std(cell["values"]))

    def test_compat_modes_recorded(self, doc):
        compat_64 = doc["policies"]["RL-lublin-64"]["compat"]
        compat_mem = doc["policies"]["RL-lublin-256-mem"]["compat"]
        assert compat_64 == {"lublin-64": "native",
                             "lublin-256-mem": "memory-blind"}
        assert compat_mem == {"lublin-64": "memory-neutral",
                              "lublin-256-mem": "native"}

    def test_provenance(self, doc, zoo):
        zoo_dir, _, _ = zoo
        assert set(doc["scenarios"]) == set(SCENARIOS)
        assert doc["scenarios"]["lublin-256-mem"]["cluster"]["memory"] == 192.0
        info = doc["policies"]["RL-lublin-64"]
        assert info["trained_on"] == "lublin-64"
        assert info["checkpoint"] == str(zoo_dir / "lublin-64.npz")
        assert info["n_procs"] == 64
        assert len(info["curve"]["mean_metric"]) == 1

    def test_artifact_is_strict_json(self, doc):
        text = json.dumps(doc, allow_nan=False)
        assert json.loads(text)["schema"] == ARTIFACT_SCHEMA

    def test_process_backend_bit_identical(self, zoo, doc):
        _, config, trained = zoo
        parallel = dataclasses.replace(config, workers=2)
        doc2 = generalization_matrix(parallel, trained=trained)
        assert doc2["results"] == doc["results"]

    def test_rerun_from_zoo_bit_identical(self, zoo, doc):
        """A resumed study (checkpoints, no retraining) reproduces the
        fresh run's matrix exactly — the resume contract."""
        _, config, _ = zoo
        doc2 = generalization_matrix(config)  # trains nothing: zoo is full
        assert all(p["from_checkpoint"] for p in doc2["policies"].values())
        assert doc2["results"] == doc["results"]


class TestStudyConfig:
    def test_validates_sizes(self, tmp_path):
        with pytest.raises(ValueError):
            tiny_study_config(tmp_path, epochs=0)
        with pytest.raises(TypeError, match="TrainConfig"):
            tiny_study_config(tmp_path, train={"epochs": 1})
        with pytest.raises(ValueError):
            tiny_study_config(tmp_path, n_sequences=0)

    def test_empty_zoo_dir_rejected(self):
        with pytest.raises(ValueError, match="zoo_dir"):
            StudyConfig(zoo_dir="")


class TestStudyCLI:
    def test_study_command_writes_artifact_and_resumes(self, tmp_path, capsys):
        from repro.cli import main

        artifact = tmp_path / "gen.json"
        argv = [
            "study", "--scenarios", "lublin-64,lublin-256-mem",
            "--heuristics", "FCFS,SJF", "--zoo-dir", str(tmp_path / "zoo"),
            "--jobs", "400", "--epochs", "1", "--trajectories", "2",
            "--length", "12", "--obsv", "8", "--sequences", "2",
            "--eval-length", "24", "-o", str(artifact),
        ]
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert "generalization matrix" in captured.out  # table on stdout
        assert "memory-blind" in captured.err           # diagnostics on stderr
        doc = json.loads(artifact.read_text())
        assert doc["schema"] == ARTIFACT_SCHEMA

        # second run: the zoo is populated, training must be skipped and
        # the artifact reproduced bit-for-bit
        artifact2 = tmp_path / "gen2.json"
        assert main(argv[:-1] + [str(artifact2)]) == 0
        second = capsys.readouterr().err
        assert second.count("skipped (checkpoint exists") == 2
        assert json.loads(artifact2.read_text())["results"] == doc["results"]
