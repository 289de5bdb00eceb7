"""End-to-end integration tests across the whole stack."""

import numpy as np
import pytest

import repro
from repro.rl import combine_rewards
from repro.schedulers import FCFS, SJF, RLSchedulerPolicy
from repro.sim import SchedGym, run_scheduler
from repro.sim.metrics import average_bounded_slowdown
from repro.workloads import SequenceSampler, write_swf


TINY_ENV = repro.EnvConfig(max_obsv_size=16)
TINY_PPO = repro.PPOConfig(train_pi_iters=20, train_v_iters=20)
TINY_TRAIN = repro.TrainConfig(epochs=2, trajectories_per_epoch=4,
                               trajectory_length=24, seed=0)


class TestTrainDeployRoundTrip:
    def test_full_pipeline(self, tmp_path, lublin_trace):
        """train -> save -> load -> schedule -> metrics, one pass."""
        result = repro.train(lublin_trace, metric="bsld", env_config=TINY_ENV,
                             ppo_config=TINY_PPO, train_config=TINY_TRAIN)
        sched = result.as_scheduler()
        path = tmp_path / "model.npz"
        sched.save(path)
        loaded = RLSchedulerPolicy.load(path)

        seq = [j.copy() for j in lublin_trace.jobs[:40]]
        done_orig = run_scheduler(seq, lublin_trace.max_procs, sched)
        done_load = run_scheduler(seq, lublin_trace.max_procs, loaded)
        assert sorted((j.job_id, j.start_time) for j in done_orig) == sorted(
            (j.job_id, j.start_time) for j in done_load
        )

    def test_best_epoch_checkpoint_used(self, lublin_trace):
        result = repro.train(lublin_trace, metric="bsld", env_config=TINY_ENV,
                             ppo_config=TINY_PPO, train_config=TINY_TRAIN)
        assert result.best_epoch >= 0
        assert result.best_policy_state is not None


class TestTraceFileToTraining:
    def test_swf_file_feeds_training(self, tmp_path, lublin_trace):
        """A trace written to disk trains exactly like the in-memory one."""
        path = tmp_path / "Custom.swf"
        write_swf(lublin_trace.head(500), path)
        trace = repro.load_trace("Custom", n_jobs=400, swf_dir=tmp_path)
        assert trace.max_procs == lublin_trace.max_procs
        result = repro.train(trace, metric="bsld", env_config=TINY_ENV,
                             ppo_config=TINY_PPO, train_config=TINY_TRAIN)
        assert len(result.curve) == TINY_TRAIN.epochs


class TestCombinedRewardTraining:
    def test_combined_reward_in_env(self, lublin_trace):
        """§V-F: a weighted multi-metric reward trains without special
        handling anywhere else in the stack."""
        reward = combine_rewards({"bsld": 1.0, "util": 100.0})
        env = SchedGym(lublin_trace.max_procs, reward, TINY_ENV)
        sampler = SequenceSampler(lublin_trace, 16, seed=0)
        obs, mask = env.reset(sampler.sample())
        done = False
        while not done:
            action = int(np.flatnonzero(mask)[0])
            result = env.step(action)
            mask, done = result.action_mask, result.done
        assert np.isfinite(result.reward)


class TestEnvAgainstReference:
    def test_greedy_sjf_policy_equals_sjf_heuristic(self, lublin_trace):
        """Driving SchedGym with 'pick the shortest requested time among
        visible jobs' must equal run_scheduler(SJF) when the queue never
        overflows the observation window."""
        seq = [j.copy() for j in lublin_trace.jobs[100:160]]
        env = SchedGym(lublin_trace.max_procs,
                       lambda jobs, n: -average_bounded_slowdown(jobs),
                       repro.EnvConfig(max_obsv_size=128))
        obs, mask = env.reset([j.copy() for j in seq])
        done = False
        while not done:
            visible = env.visible
            action = min(range(len(visible)),
                         key=lambda i: (visible[i].requested_time,
                                        visible[i].job_id))
            result = env.step(action)
            mask, done = result.action_mask, result.done
        ref = run_scheduler(seq, lublin_trace.max_procs, SJF())
        assert -result.reward == pytest.approx(average_bounded_slowdown(ref))


class TestEverythingOnEveryTrace:
    @pytest.mark.parametrize("name", ["Lublin-2", "HPC2N", "PIK-IPLEX"])
    def test_heuristics_complete_on_trace(self, name):
        trace = repro.load_trace(name, n_jobs=600, seed=2)
        seq = [j.copy() for j in trace.jobs[:100]]
        for sched in (FCFS(), SJF()):
            for bf in (False, True):
                done = run_scheduler(seq, trace.max_procs, sched, backfill=bf)
                assert len(done) == 100
