"""Unit tests for the command-line interface."""

import io
import logging
import os
import subprocess
import sys
import threading

import pytest

from repro.cli import build_parser, main


def test_no_process_imports_scipy():
    """``scipy.signal`` cost every CLI command, the daemon and each pool
    worker about a second and 70 MiB for one ``lfilter``; in a fresh
    interpreter, nothing the package imports may bring it back."""
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    subprocess.run(
        [sys.executable, "-c",
         "import sys, repro.cli, repro.serve; "
         "assert 'scipy' not in sys.modules"],
        env=env, check=True,
    )


class TestParser:
    def test_train_and_study_share_their_training_flags(self):
        """One helper adds them: same flags, same defaults, and the
        ``--policy`` choices are the registered presets."""
        from repro.nn import POLICY_PRESETS

        parser = build_parser()
        train = vars(parser.parse_args(["train", "Lublin-1", "-o", "m.npz"]))
        study = vars(parser.parse_args(["study"]))
        shared = {"seed": 0, "epochs": 16, "trajectories": 14, "length": 64,
                  "obsv": 32, "policy": "kernel", "filter": False}
        for flag, default in shared.items():
            assert train[flag] == study[flag] == default, flag
        for command in (["train", "Lublin-1", "-o", "m.npz"], ["study"]):
            for preset in POLICY_PRESETS:
                args = parser.parse_args(command + ["--policy", preset])
                assert args.policy == preset

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_generate_requires_output(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["generate", "Lublin-1"])

    def test_unknown_trace_rejected_by_generate(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["generate", "NOPE", "-o", "x.swf"])

    def test_metric_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["evaluate", "Lublin-1", "--metric", "xyz"])

    def test_workers_defaults_to_one(self):
        for argv in (["evaluate", "Lublin-1"], ["compare"], ["study"]):
            assert build_parser().parse_args(argv).workers == 1

    def test_workers_rejects_nonpositive(self):
        for bad in ("0", "-2"):
            for argv in (["evaluate", "Lublin-1"], ["study"]):
                with pytest.raises(SystemExit):
                    build_parser().parse_args(argv + ["--workers", bad])

    def test_rollout_mode_defaults_to_locked(self):
        """No flag names a collector: training always rolls out lock-step
        in this process."""
        for argv in (["train", "Lublin-1", "-o", "m.npz"], ["study"]):
            args = build_parser().parse_args(argv)
            assert not hasattr(args, "staleness")
        assert not hasattr(
            build_parser().parse_args(["train", "Lublin-1", "-o", "m.npz"]),
            "workers",
        )

    def test_rollout_mode_flags(self):
        """The retired path selectors, the staleness knobs and ``train
        --workers`` (there are no rollout actors to place) are gone;
        ``study --workers`` fans out its evaluation cells only."""
        args = build_parser().parse_args(["study", "--workers", "2"])
        assert args.workers == 2
        for command, flag, value in [
            ("train", "--workers", "2"),
            ("train", "--staleness", "1"),
            ("train", "--stale-mode", "reweight"),
            ("study", "--staleness", "1"),
            ("train", "--rollout-mode", "async"),
            ("train", "--update-path", "sparse"),
            ("train", "--grad-workers", "2"),
            ("train", "--transport", "shm"),
            ("study", "--rollout-mode", "async"),
            ("study", "--transport", "shm"),
            ("evaluate", "--transport", "shm"),
            ("compare", "--transport", "shm"),
        ]:
            argv = [command, flag, value]
            if command in ("train", "evaluate"):
                argv[1:1] = ["Lublin-1"]
            if command == "train":
                argv += ["-o", "m.npz"]
            with pytest.raises(SystemExit) as exit_info:
                build_parser().parse_args(argv)
            assert exit_info.value.code == 2  # argparse: unrecognized argument

    def test_verbosity_flags_are_global(self):
        args = build_parser().parse_args(["-v", "evaluate", "Lublin-1"])
        assert args.verbose and not args.quiet
        args = build_parser().parse_args(["--quiet", "traces"])
        assert args.quiet and not args.verbose
        args = build_parser().parse_args(["evaluate", "Lublin-1"])
        assert not args.verbose and not args.quiet

    def test_telemetry_flag_on_run_commands(self):
        for argv in (
            ["evaluate", "Lublin-1", "--telemetry", "t.jsonl"],
            ["train", "Lublin-1", "-o", "m.npz", "--telemetry", "t.jsonl"],
            ["study", "--telemetry", "t.jsonl"],
        ):
            assert build_parser().parse_args(argv).telemetry == "t.jsonl"
        assert build_parser().parse_args(["evaluate", "Lublin-1"]).telemetry is None
        # telemetry is a run-command knob, not a global one
        with pytest.raises(SystemExit):
            build_parser().parse_args(["traces", "--telemetry", "t.jsonl"])


class TestCommands:
    def test_traces(self, capsys):
        assert main(["traces", "--jobs", "200"]) == 0
        out = capsys.readouterr().out
        assert "Lublin-1" in out and "PIK-IPLEX" in out

    def test_generate_writes_swf(self, tmp_path, capsys):
        out_file = tmp_path / "t.swf"
        assert main(["generate", "Lublin-1", "--jobs", "50",
                     "-o", str(out_file)]) == 0
        assert out_file.exists()
        from repro.workloads import read_swf

        assert len(read_swf(out_file)) == 50

    def test_evaluate_prints_all_heuristics(self, capsys):
        code = main(["evaluate", "Lublin-1", "--jobs", "600",
                     "--sequences", "1", "--length", "64"])
        assert code == 0
        out = capsys.readouterr().out
        for name in ("FCFS", "SJF", "WFP3", "UNICEP", "F1"):
            assert name in out
        assert "±" in out  # per-sequence spread is part of the row

    def test_evaluate_with_workers_matches_serial(self, capsys):
        serial_args = ["evaluate", "Lublin-1", "--jobs", "600",
                       "--sequences", "2", "--length", "32"]
        assert main(serial_args) == 0
        serial_out = capsys.readouterr().out
        assert main(serial_args + ["--workers", "2"]) == 0
        workers_out = capsys.readouterr().out
        # identical scores, only the workers= header differs
        assert serial_out.splitlines()[1:] == workers_out.splitlines()[1:]

    def test_train_with_workers(self, tmp_path, capsys):
        """``repro train --workers 2`` is a usage error (exit 2) and trains
        nothing: the rollout runs in the trainer's own process."""
        model = tmp_path / "m.npz"
        with pytest.raises(SystemExit) as exit_info:
            main([
                "train", "Lublin-1", "--jobs", "600", "--epochs", "1",
                "--trajectories", "2", "--length", "16", "--obsv", "8",
                "--workers", "2", "-o", str(model),
            ])
        assert exit_info.value.code == 2
        assert "--workers" in capsys.readouterr().err
        assert not model.exists()

    @pytest.mark.parametrize("policy, path", [("kernel", "sparse"),
                                              ("mlp_v2", "dense")])
    def test_update_path_follows_the_policy(self, tmp_path, capsys,
                                            policy, path):
        """No flag picks the PPO update: the trace shows the kernel preset
        took the sparse step and an MLP preset the dense one."""
        from repro.telemetry.sink import validate_jsonl

        trace = tmp_path / "t.jsonl"
        code = main([
            "train", "Lublin-1", "--jobs", "600", "--epochs", "1",
            "--trajectories", "2", "--length", "16", "--obsv", "8",
            "--policy", policy, "--telemetry", str(trace),
            "-o", str(tmp_path / "m.npz"),
        ])
        assert code == 0
        spans = validate_jsonl(str(trace))["snapshot"]["spans"]
        ran = {name.rsplit(".", 1)[-1] for name in spans
               if "update.policy_iter." in name}
        assert ran == {path}

    def test_train_with_telemetry_writes_valid_trace(self, tmp_path, capsys):
        from repro.telemetry.sink import validate_jsonl

        model = tmp_path / "m.npz"
        trace = tmp_path / "t.jsonl"
        code = main([
            "train", "Lublin-1", "--jobs", "600", "--epochs", "1",
            "--trajectories", "2", "--length", "16", "--obsv", "8",
            "--telemetry", str(trace), "-o", str(model),
        ])
        assert code == 0
        assert model.exists()
        stats = validate_jsonl(str(trace))
        assert stats["events"]["epoch"] == 1
        assert "epoch.rollout" in stats["snapshot"]["spans"]
        # stdout stays machine-parseable: the result line, no diagnostics
        assert "trained" in capsys.readouterr().out

    def test_evaluate_diagnostics_go_to_stderr(self, capsys):
        code = main(["-v", "evaluate", "Lublin-1", "--jobs", "600",
                     "--sequences", "1", "--length", "32"])
        assert code == 0
        out = capsys.readouterr().out
        # stdout holds only the header + table rows, nothing else
        lines = out.splitlines()
        assert " on " in lines[0]  # "bsld on Lublin-1 (...)" header
        assert all("±" in line for line in lines[1:]), lines

    def test_log_handler_outlives_the_stderr_it_was_set_up_under(
        self, monkeypatch
    ):
        """Regression: ``main()`` bound its handler to the ``sys.stderr``
        of the moment; once that stream was swapped and closed (pytest's
        capture between tests) a record logged later from another thread
        printed ``--- Logging error --- ValueError: I/O operation on
        closed file`` into the tier-1 output."""
        errors = []
        monkeypatch.setattr(
            logging.Handler, "handleError",
            lambda self, record: errors.append(sys.exc_info()[1]),
        )
        captured = io.StringIO()
        monkeypatch.setattr(sys, "stderr", captured)
        for flags in ([], ["-q"], []):
            assert main([*flags, "scenarios"]) == 0
        captured.close()
        later = io.StringIO()
        monkeypatch.setattr(sys, "stderr", later)
        thread = threading.Thread(
            target=logging.getLogger("repro.serve.server").warning,
            args=("late record",),
        )
        thread.start()
        thread.join(timeout=10)
        assert not thread.is_alive()
        assert errors == []
        assert later.getvalue() == "repro.serve.server: late record\n"

    def test_train_then_evaluate_with_model(self, tmp_path, capsys):
        model = tmp_path / "m.npz"
        code = main([
            "train", "Lublin-1", "--jobs", "600", "--epochs", "1",
            "--trajectories", "2", "--length", "16", "--obsv", "8",
            "-o", str(model),
        ])
        assert code == 0
        assert model.exists()
        code = main([
            "evaluate", "Lublin-1", "--jobs", "600", "--sequences", "1",
            "--length", "32", "--model", str(model),
        ])
        assert code == 0
        assert "RL" in capsys.readouterr().out

    def test_evaluate_uses_swf_dir(self, tmp_path, capsys):
        out_file = tmp_path / "Custom.swf"
        main(["generate", "Lublin-1", "--jobs", "400", "-o", str(out_file)])
        code = main(["evaluate", "Custom", "--jobs", "300",
                     "--sequences", "1", "--length", "32",
                     "--swf-dir", str(tmp_path)])
        assert code == 0
        assert "Custom" in capsys.readouterr().out


class TestScenarioCommands:
    def test_scenarios_lists_registry(self, capsys):
        from repro.scenarios import available_scenarios

        assert main(["scenarios"]) == 0
        out = capsys.readouterr().out
        for name in available_scenarios():
            assert name in out
        assert "lublin-256-mem" in out

    def test_evaluate_scenario(self, capsys):
        code = main(["evaluate", "--scenario", "lublin-64", "--jobs", "400",
                     "--sequences", "1", "--length", "24"])
        assert code == 0
        out = capsys.readouterr().out
        assert "scenario lublin-64" in out
        assert "FCFS" in out

    def test_evaluate_needs_exactly_one_of_name_and_scenario(self, capsys):
        assert main(["evaluate"]) == 2
        assert main(["evaluate", "Lublin-1", "--scenario", "lublin-64"]) == 2

    def test_evaluate_unknown_scenario_fails_loudly(self):
        with pytest.raises(KeyError, match="unknown scenario"):
            main(["evaluate", "--scenario", "nope", "--jobs", "300"])

    def test_compare_strips_whitespace_in_scenario_list(self, capsys):
        code = main([
            "compare", "--scenarios", "lublin-256, lublin-64",
            "--schedulers", "FCFS", "--jobs", "400",
            "--sequences", "1", "--length", "16",
        ])
        assert code == 0
        assert "lublin-64" in capsys.readouterr().out

    def test_compare_matrix_with_workers_and_artifact(self, tmp_path, capsys):
        out_file = tmp_path / "matrix.json"
        code = main([
            "compare", "--scenarios", "lublin-256,lublin-64",
            "--schedulers", "FCFS,SJF", "--jobs", "400",
            "--sequences", "2", "--length", "24", "--workers", "2",
            "-o", str(out_file),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "lublin-256" in out and "lublin-64" in out

        import json

        doc = json.loads(out_file.read_text())
        assert doc["config"]["schedulers"] == ["FCFS", "SJF"]
        assert set(doc["results"]) == {"lublin-256", "lublin-64"}
        for row in doc["results"].values():
            for cell in row.values():
                assert cell["n"] == 2
                assert len(cell["values"]) == 2

    def test_train_scenario(self, tmp_path, capsys):
        model = tmp_path / "m.npz"
        code = main([
            "train", "--scenario", "lublin-64", "--jobs", "400",
            "--epochs", "1", "--trajectories", "2", "--length", "12",
            "--obsv", "8", "-o", str(model),
        ])
        assert code == 0
        assert model.exists()
        assert "scenario lublin-64" in capsys.readouterr().out


class TestEvaluateBackfillTriState:
    """--backfill/--no-backfill must be able to override the scenario
    protocol in BOTH directions (regression: a backfill-by-default
    scenario could never be evaluated without it from the CLI)."""

    def test_parser_default_is_protocol(self):
        args = build_parser().parse_args(["evaluate", "Lublin-1"])
        assert args.backfill is None
        args = build_parser().parse_args(["evaluate", "Lublin-1", "--backfill"])
        assert args.backfill is True
        args = build_parser().parse_args(["evaluate", "Lublin-1",
                                          "--no-backfill"])
        assert args.backfill is False
        args = build_parser().parse_args(["compare", "--no-backfill"])
        assert args.backfill is False

    def test_backfill_protocol_scenario_can_disable(self, capsys):
        """pik-iplex's protocol enables backfill; --no-backfill wins."""
        base = ["evaluate", "--scenario", "pik-iplex", "--jobs", "300",
                "--sequences", "1", "--length", "12"]
        assert main(base) == 0
        assert "(backfill" in capsys.readouterr().out  # protocol default
        assert main(base + ["--no-backfill"]) == 0
        assert "(no backfill" in capsys.readouterr().out

    def test_plain_trace_default_stays_off(self, capsys):
        assert main(["evaluate", "Lublin-1", "--jobs", "400",
                     "--sequences", "1", "--length", "16"]) == 0
        assert "(no backfill" in capsys.readouterr().out


class TestEvaluateScenarioSeed:
    """--seed must reach the sequence-sampling EvalConfig, not only the
    workload generator (regression: it was pinned to the protocol seed)."""

    @pytest.fixture()
    def captured(self, monkeypatch):
        from repro.api import EvalResult

        calls = {}

        def fake_compare(schedulers, trace, metric=None, backfill=None,
                         config=None):
            calls["config"] = config
            return {"FCFS": EvalResult([1.0])}

        monkeypatch.setattr("repro.cli.compare", fake_compare)
        return calls

    def test_explicit_seed_reaches_sequence_sampling(self, captured, capsys):
        assert main(["evaluate", "--scenario", "lublin-64", "--seed", "7"]) == 0
        assert captured["config"].seed == 7
        assert captured["config"].scenario.seed == 7

    def test_default_keeps_protocol_and_workload_seeds(self, captured, capsys):
        assert main(["evaluate", "--scenario", "lublin-64"]) == 0
        assert captured["config"].seed == 42  # lublin-64 protocol seed
        assert captured["config"].scenario.seed is None  # workload default


class TestTrainSummary:
    """The train report must show the validation-best epoch's curve value
    with direction-aware wording (regression: it printed curve.min(),
    wrong for higher-is-better metrics, next to an unrelated epoch)."""

    @staticmethod
    def result_with_curve(metric, values, best_epoch):
        from repro.rl.ppo import UpdateStats
        from repro.rl import EpochRecord, TrainingResult

        stats = UpdateStats(policy_loss=0.0, value_loss=0.0, kl=0.0,
                            entropy=0.0, pi_iters_run=1, early_stopped=False)
        curve = [
            EpochRecord(epoch=i, mean_metric=v, mean_reward=v, stats=stats,
                        n_rejected=0, wall_time=0.1, filtered_phase=False)
            for i, v in enumerate(values)
        ]
        return TrainingResult(trace_name="t", metric=metric,
                              policy_preset="kernel", curve=curve,
                              best_epoch=best_epoch)

    def test_higher_is_better_metric_reports_best_epoch_value(self):
        from repro.cli import _train_summary

        # util: higher is better; validation picked epoch 2 (0.70), while
        # curve.min() is 0.50 — the old, doubly-wrong report
        summary = _train_summary(
            self.result_with_curve("util", [0.5, 0.9, 0.7], best_epoch=2))
        assert "0.70" in summary
        assert "epoch 2" in summary
        assert "higher is better" in summary
        assert "0.50" in summary  # only as the epoch-0 starting point

    def test_lower_is_better_metric(self):
        from repro.cli import _train_summary

        summary = _train_summary(
            self.result_with_curve("bsld", [40.0, 12.0, 19.0], best_epoch=1))
        assert "12.00" in summary
        assert "epoch 1" in summary
        assert "lower is better" in summary

    def test_no_validated_epoch_falls_back_to_final(self):
        from repro.cli import _train_summary

        summary = _train_summary(
            self.result_with_curve("bsld", [40.0, 19.0], best_epoch=-1))
        assert "final 19.00" in summary


class TestPolicyFiles:
    """What ``train -o`` writes is the whole training checkpoint; a policy
    file that is missing, truncated or foreign stops ``serve`` and
    ``evaluate`` with one line naming it and exit 2, no traceback."""

    def test_train_output_is_a_training_checkpoint(self, tmp_path, capsys):
        from repro.rl import TrainingResult
        from repro.schedulers import RLSchedulerPolicy

        model = tmp_path / "m.npz"
        assert main([
            "train", "Lublin-1", "--jobs", "600", "--epochs", "2",
            "--trajectories", "2", "--length", "16", "--obsv", "8",
            "-o", str(model),
        ]) == 0
        result = TrainingResult.load(model)
        assert len(result.curve) == 2 and result.value is not None
        deployed = RLSchedulerPolicy.load(model)
        assert deployed.name == result.as_scheduler().name == "RL-Lublin-1"

    @pytest.fixture(params=["missing", "truncated", "foreign"])
    def bad_file(self, request, tmp_path):
        import numpy as np
        from repro.nn import KernelPolicy
        from repro.schedulers import RLSchedulerPolicy

        path = tmp_path / f"{request.param}.npz"
        if request.param == "truncated":
            RLSchedulerPolicy(KernelPolicy(7, seed=0), 64).save(path)
            path.write_bytes(path.read_bytes()[:100])
        elif request.param == "foreign":
            np.savez(path, weights=np.zeros(3))
        return path

    @pytest.mark.parametrize("command", ["serve", "evaluate"])
    def test_bad_policy_file_fails_in_one_line(self, command, bad_file,
                                               capsys):
        argv = (
            ["serve", "--port", "0", "--tenant", f"t:{bad_file}:64"]
            if command == "serve" else
            ["evaluate", "Lublin-1", "--jobs", "400", "--sequences", "1",
             "--length", "16", "--model", str(bad_file)]
        )
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith(f"{command}: {bad_file}: ")
        assert "Traceback" not in captured.err


class TestServeParser:
    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.host == "127.0.0.1"
        assert args.port == 7653
        assert args.tenant is None
        assert args.history == 10_000
        assert args.telemetry is None

    def test_tenant_spec_minimal(self):
        from repro.cli import _parse_tenant

        tenant = _parse_tenant("alpha:FCFS:64")
        assert tenant.name == "alpha"
        assert tenant.scheduler == "FCFS"
        assert tenant.n_procs == 64
        assert tenant.backfill is False
        assert tenant.memory is None
        assert tenant.policy_path is None

    def test_tenant_spec_backfill_and_memory(self):
        from repro.cli import _parse_tenant

        assert _parse_tenant("a:SJF:32:easy").backfill == "easy"
        assert _parse_tenant("a:SJF:32:true").backfill is True
        assert _parse_tenant("a:SJF:32:none").backfill is False
        assert _parse_tenant("a:SJF:32:").backfill is False
        tenant = _parse_tenant("a:SJF:32:conservative:4.5")
        assert tenant.backfill == "conservative"
        assert tenant.memory == 4.5

    def test_tenant_spec_policy_path(self):
        import argparse

        from repro.cli import _parse_tenant

        tenant = _parse_tenant("rl:models/best.npz:128")
        assert tenant.scheduler == "RL"
        assert tenant.policy_path == "models/best.npz"
        # a plain heuristic name never becomes a path
        assert _parse_tenant("h:F1:128").policy_path is None

    def test_tenant_spec_rejects_malformed(self):
        import argparse

        from repro.cli import _parse_tenant

        for bad in ("alpha", "alpha:FCFS", "a:FCFS:x", "a:FCFS:0",
                    "a:FCFS:64:bogus", "a:b:c:d:e:f"):
            with pytest.raises(argparse.ArgumentTypeError):
                _parse_tenant(bad)

    def test_submit_defaults(self):
        args = build_parser().parse_args(["submit", "--stats"])
        assert args.port == 7653
        assert args.tenant is None and not args.drain and not args.stop


class TestSubmitCommand:
    def test_no_action_is_an_error(self, capsys):
        assert main(["submit"]) == 2
        assert "nothing to do" in capsys.readouterr().err

    def test_swf_and_single_job_conflict(self, capsys):
        assert main(["submit", "--swf", "x.swf", "--job-id", "1",
                     "--runtime", "5"]) == 2
        assert "mutually exclusive" in capsys.readouterr().err

    def test_single_job_needs_id_and_runtime(self, capsys):
        assert main(["submit", "--job-id", "1"]) == 2
        assert main(["submit", "--runtime", "5"]) == 2
        assert "both --job-id and --runtime" in capsys.readouterr().err

    def test_unreachable_daemon_exits_one(self, capsys):
        # port 1 on loopback: nothing listens there
        assert main(["submit", "--port", "1", "--stats"]) == 1
        assert "cannot reach" in capsys.readouterr().err

    @pytest.fixture()
    def daemon(self):
        import threading
        import time as _time

        from repro.config import ServeConfig, TenantConfig
        from repro.serve import ServeClient, ServeDaemon, ServeError

        config = ServeConfig(port=0, tenants=(
            TenantConfig(name="solo", scheduler="FCFS", n_procs=16),
        ))
        d = ServeDaemon(config)
        thread = threading.Thread(target=d.run, daemon=True)
        thread.start()
        deadline = _time.monotonic() + 15
        while d.address is None and _time.monotonic() < deadline:
            _time.sleep(0.01)
        assert d.address is not None
        # the address is set just before the daemon prints its listening
        # line; a ping is answered only from the loop, after that print,
        # so the line cannot land in a test's captured stdout
        with ServeClient(*d.address) as client:
            client.ping()
        yield d
        if thread.is_alive():
            try:
                with ServeClient(*d.address) as client:
                    client.drain(stop=True)
            except ServeError:
                pass
        thread.join(timeout=15)

    def test_single_job_round_trip(self, daemon, capsys):
        import json as _json

        host, port = daemon.address
        base = ["submit", "--host", host, "--port", str(port)]
        assert main(base + ["--job-id", "1", "--runtime", "30",
                            "--procs", "8"]) == 0
        doc = _json.loads(capsys.readouterr().out)
        assert doc["state"] == "running"
        assert main(base + ["--status", "1"]) == 0
        assert _json.loads(capsys.readouterr().out)["state"] == "running"
        assert main(base + ["--advance", "100", "--stats"]) == 0
        out = capsys.readouterr().out
        assert '"finished": 1' in out

    def test_swf_replay_shares_wire(self, daemon, tmp_path, capsys):
        import json as _json

        from repro.workloads import SWFTrace, load_trace, write_swf

        trace = load_trace("Lublin-1", n_jobs=200, seed=3)
        jobs = [j.copy() for j in trace.jobs[:10]]
        for job in jobs:
            job.requested_procs = min(job.requested_procs, 16)
        write_swf(SWFTrace(jobs=jobs), str(tmp_path / "s.swf"))
        host, port = daemon.address
        assert main(["submit", "--host", host, "--port", str(port),
                     "--swf", str(tmp_path / "s.swf"), "--drain"]) == 0
        doc = _json.loads(capsys.readouterr().out)
        assert doc["submitted"] == 10
        assert doc["stats"]["finished"] == 10
