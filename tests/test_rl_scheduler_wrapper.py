"""Unit tests for deploying trained policies as schedulers (save/load,
greedy selection, run_scheduler interop, sparse hot path)."""

import pickle

import numpy as np
import pytest

from repro.config import EnvConfig
from repro.nn import KernelPolicy, make_policy, masked_log_softmax, no_grad
from repro.schedulers import RLSchedulerPolicy
from repro.sim import (
    Cluster, FeatureCache, build_observation, observation_rows, run_scheduler,
)
from repro.workloads import Job, load_trace


@pytest.fixture()
def policy_scheduler():
    env_config = EnvConfig(max_obsv_size=16)
    policy = KernelPolicy(env_config.job_features, seed=0)
    return RLSchedulerPolicy(policy, n_procs=8, env_config=env_config)


def job(jid, submit=0.0, run=10.0, procs=2):
    return Job(job_id=jid, submit_time=submit, run_time=run, requested_procs=procs)


class TestSelect:
    def test_selects_from_pending(self, policy_scheduler):
        pending = [job(1), job(2), job(3)]
        cluster = Cluster(8)
        chosen = policy_scheduler.select(pending, 0.0, cluster)
        assert chosen in pending

    def test_deterministic(self, policy_scheduler):
        pending = [job(1), job(2, run=99.0), job(3, procs=4)]
        cluster = Cluster(8)
        picks = {policy_scheduler.select(pending, 0.0, cluster).job_id
                 for _ in range(5)}
        assert len(picks) == 1

    def test_empty_queue_raises(self, policy_scheduler):
        with pytest.raises(ValueError):
            policy_scheduler.select([], 0.0, Cluster(8))

    def test_score_not_supported(self, policy_scheduler):
        with pytest.raises(RuntimeError, match="whole queue"):
            policy_scheduler.score(job(1), 0.0, Cluster(8))

    def test_queue_overflow_handled(self, policy_scheduler):
        """More pending jobs than MAX_OBSV_SIZE: cut-off must not crash."""
        pending = [job(i, submit=float(i)) for i in range(1, 40)]
        chosen = policy_scheduler.select(pending, 50.0, Cluster(8))
        # cut-off keeps the 16 earliest-submitted jobs
        assert chosen.job_id <= 16

    def test_works_inside_run_scheduler(self, policy_scheduler):
        jobs = [job(i, submit=i * 5.0) for i in range(1, 20)]
        done = run_scheduler(jobs, 8, policy_scheduler)
        assert len(done) == 19


def random_pending(rng, n, n_procs=64):
    return [
        Job(
            job_id=int(rng.integers(1, 50_000)) * 64 + i,
            submit_time=float(rng.uniform(0, 1e5)),
            run_time=10.0,
            requested_procs=int(rng.integers(1, n_procs + 1)),
            requested_time=float(rng.uniform(1, 4e5)),
            user_id=int(rng.integers(0, 200)),
        )
        for i in range(n)
    ]


def cluster_with_free(n_procs, free):
    cluster = Cluster(n_procs)
    if free < n_procs:
        cluster.allocate(Job(job_id=10**9, submit_time=0.0, run_time=1.0,
                             requested_procs=n_procs - free,
                             requested_time=1.0))
    return cluster


class TestSparseSelectGolden:
    """``select`` (a fresh window table + score_rows) must pick the same
    job as the reference dense batch-1 forward."""

    def dense_reference(self, policy, cfg, pending, now, cluster, n_procs):
        obs, mask, visible = build_observation(
            pending, now, cluster.free_procs, n_procs, cfg
        )
        with no_grad():
            logits = policy(obs[None], mask[None])
            log_probs = masked_log_softmax(logits, mask[None]).numpy()[0]
        return visible[int(np.argmax(log_probs))]

    @pytest.mark.parametrize("seed", range(3))
    def test_argmax_equivalent_to_dense(self, seed):
        rng = np.random.default_rng(seed)
        cfg = EnvConfig(max_obsv_size=16)
        policy = KernelPolicy(cfg.job_features, seed=0)
        sched = RLSchedulerPolicy(policy, n_procs=64, env_config=cfg)
        for _ in range(60):
            pending = random_pending(rng, int(rng.integers(1, 40)))
            now = max(j.submit_time for j in pending) + float(
                rng.uniform(0, 1e4)
            )
            cluster = cluster_with_free(64, int(rng.integers(0, 65)))
            assert (
                sched.select(pending, now, cluster).job_id
                == self.dense_reference(
                    policy, cfg, pending, now, cluster, 64
                ).job_id
            )

    def test_cache_self_heals_on_reused_job_ids(self):
        """The same job ids with different attributes (a different trace)
        must not leak stale features into the decision."""
        cfg = EnvConfig(max_obsv_size=16)
        policy = KernelPolicy(cfg.job_features, seed=0)
        sched = RLSchedulerPolicy(policy, n_procs=64, env_config=cfg)
        rng = np.random.default_rng(2)
        old = random_pending(rng, 8)
        sched.select(old, 2e5, Cluster(64))
        # same ids, different submit/procs — as a new trace would produce
        renewed = [
            Job(job_id=j.job_id, submit_time=j.submit_time + 7.0,
                run_time=j.run_time, requested_procs=(j.requested_procs % 64) + 1,
                requested_time=j.requested_time * 2.0, user_id=j.user_id)
            for j in old
        ]
        now = max(j.submit_time for j in renewed) + 10.0
        cluster = cluster_with_free(64, 33)
        assert (
            sched.select(renewed, now, cluster).job_id
            == self.dense_reference(
                policy, cfg, renewed, now, cluster, 64
            ).job_id
        )

    def test_cache_self_heals_on_requested_time_only_change(self):
        """Staleness validation must cover every feature-bearing attribute,
        including ones (requested_time, user) that do not change submit or
        processor request."""
        cfg = EnvConfig(max_obsv_size=16)
        policy = KernelPolicy(cfg.job_features, seed=0)
        sched = RLSchedulerPolicy(policy, n_procs=64, env_config=cfg)
        rng = np.random.default_rng(11)
        old = random_pending(rng, 6)
        sched.select(old, 2e5, Cluster(64))
        renewed = [
            Job(job_id=j.job_id, submit_time=j.submit_time,
                run_time=j.run_time, requested_procs=j.requested_procs,
                requested_time=j.requested_time * 3.0, user_id=j.user_id + 1)
            for j in old
        ]
        cluster = cluster_with_free(64, 20)
        assert (
            sched.select(renewed, 2e5, cluster).job_id
            == self.dense_reference(
                policy, cfg, renewed, 2e5, cluster, 64
            ).job_id
        )

    def test_duplicate_ids_in_one_queue_do_not_recurse(self):
        """Conflicting duplicate job ids are pathological but must degrade
        to uncached per-call rows, not infinite rebuild recursion."""
        cfg = EnvConfig(max_obsv_size=16)
        policy = KernelPolicy(cfg.job_features, seed=0)
        sched = RLSchedulerPolicy(policy, n_procs=64, env_config=cfg)
        dup = [
            Job(job_id=7, submit_time=1.0, run_time=5.0, requested_procs=2,
                requested_time=50.0, user_id=1),
            Job(job_id=7, submit_time=2.0, run_time=5.0, requested_procs=9,
                requested_time=80.0, user_id=2),
        ]
        cluster = cluster_with_free(64, 30)
        for _ in range(3):  # revalidates (and rebuilds) every call
            got = sched.select(dup, 10.0, cluster)
            want = self.dense_reference(policy, cfg, dup, 10.0, cluster, 64)
            # ids collide by construction, so compare the distinguishing field
            assert got.requested_procs == want.requested_procs

    def test_mlp_fallback_uses_dense_path(self):
        cfg = EnvConfig(max_obsv_size=16)
        mlp = make_policy("mlp_v1", 16, cfg.job_features, seed=0)
        sched = RLSchedulerPolicy(mlp, n_procs=64, env_config=cfg,
                                  preset="mlp_v1")
        rng = np.random.default_rng(4)
        for _ in range(10):
            pending = random_pending(rng, 12)
            now = max(j.submit_time for j in pending)
            cluster = cluster_with_free(64, int(rng.integers(0, 65)))
            assert (
                sched.select(pending, now, cluster).job_id
                == self.dense_reference(
                    mlp, cfg, pending, now, cluster, 64
                ).job_id
            )


class TestDeployFeatureCache:
    def test_capacity_doubles(self):
        cfg = EnvConfig(max_obsv_size=8)
        cache = FeatureCache((), 64, cfg)
        rng = np.random.default_rng(0)
        cache.rows(random_pending(rng, 70))
        assert cache.size == 70
        assert len(cache.submit) >= 70  # grown past the 64-row floor
        assert cache.static.shape[1] == cfg.job_features


class TestForgetJobs:
    def test_forget_before_any_select_is_noop(self, policy_scheduler):
        assert policy_scheduler.forget_jobs([1, 2]) == 0


class TestCheckedNProcs:
    def test_constructor_validates(self):
        cfg = EnvConfig(max_obsv_size=8)
        policy = KernelPolicy(cfg.job_features, seed=0)
        with pytest.raises(ValueError):
            RLSchedulerPolicy(policy, n_procs=0, env_config=cfg)
        with pytest.raises(ValueError):
            RLSchedulerPolicy(policy, n_procs=-8, env_config=cfg)
        with pytest.raises(TypeError):
            RLSchedulerPolicy(policy, n_procs=8.5, env_config=cfg)
        with pytest.raises(TypeError):
            RLSchedulerPolicy(policy, n_procs=True, env_config=cfg)

    def test_setter_validates_and_resets_cache(self, policy_scheduler):
        """After a retarget ``select`` decides as a policy built for the
        new size: nothing observed at the old size survives."""
        rng = np.random.default_rng(6)
        queues = [random_pending(rng, 12, n_procs=8) for _ in range(20)]
        for queue in queues:
            policy_scheduler.select(queue, 2e5, Cluster(8))
        policy_scheduler.n_procs = 16  # retarget: fractions change
        assert policy_scheduler.n_procs == 16
        fresh = RLSchedulerPolicy(policy_scheduler.policy, n_procs=16,
                                  env_config=policy_scheduler.env_config)
        for queue in queues:
            cluster = cluster_with_free(16, 5)
            assert (policy_scheduler.select(queue, 2e5, cluster)
                    is fresh.select(queue, 2e5, cluster))
        with pytest.raises(ValueError):
            policy_scheduler.n_procs = 0
        with pytest.raises(TypeError):
            policy_scheduler.n_procs = "8"
        assert policy_scheduler.n_procs == 16  # bad writes changed nothing

    def test_numpy_integer_accepted(self, policy_scheduler):
        policy_scheduler.n_procs = np.int64(32)
        assert policy_scheduler.n_procs == 32


class TestPickleBroadcast:
    def test_pickle_round_trip_selects_identically(self, policy_scheduler):
        clone = pickle.loads(pickle.dumps(policy_scheduler))
        assert clone.n_procs == policy_scheduler.n_procs
        assert clone.preset == policy_scheduler.preset
        pending = [job(1), job(2, run=99.0), job(3, procs=4)]
        assert (
            clone.select(pending, 0.0, Cluster(8)).job_id
            == policy_scheduler.select(pending, 0.0, Cluster(8)).job_id
        )


class TestPersistence:
    def test_save_load_round_trip(self, tmp_path, policy_scheduler):
        path = tmp_path / "model.npz"
        policy_scheduler.save(path)
        loaded = RLSchedulerPolicy.load(path)
        assert loaded.n_procs == 8
        assert loaded.env_config.max_obsv_size == 16
        pending = [job(1), job(2, run=99.0), job(3, procs=4)]
        cluster = Cluster(8)
        assert (
            loaded.select(pending, 0.0, cluster).job_id
            == policy_scheduler.select(pending, 0.0, cluster).job_id
        )

    def test_loaded_weights_identical(self, tmp_path, policy_scheduler):
        path = tmp_path / "model.npz"
        policy_scheduler.save(path)
        loaded = RLSchedulerPolicy.load(path)
        for a, b in zip(
            policy_scheduler.policy.parameters(), loaded.policy.parameters()
        ):
            np.testing.assert_allclose(a.data, b.data)

    def test_float64_model_file_loads_float32_and_decides_alike(self, tmp_path):
        """Model files written before networks were float32 hold float64
        weights: they load into the float32 network (the parameter's
        dtype wins, not the file's), make the same greedy decisions on a
        fixed sequence, and are float32 when saved again."""
        env_config = EnvConfig(max_obsv_size=16)
        policy = KernelPolicy(env_config.job_features, seed=3).astype(np.float64)
        rng = np.random.default_rng(3)
        for p in policy.parameters():  # weights float32 cannot hold exactly
            p.data += rng.normal(scale=1e-3, size=p.data.shape)
        trace = load_trace("Lublin-1", n_jobs=400, seed=5)
        old = RLSchedulerPolicy(policy, trace.max_procs, env_config)
        path = tmp_path / "float64.npz"
        old.save(path)
        with np.load(path) as data:
            assert data["p0"].dtype == np.float64
        loaded = RLSchedulerPolicy.load(path)
        assert loaded.policy.dtype == np.float32
        for got, want in zip(loaded.policy.parameters(), policy.parameters()):
            np.testing.assert_array_equal(got.data, want.data.astype(np.float32))

        def starts(scheduler):
            done = run_scheduler(trace.jobs[:300], trace.max_procs, scheduler)
            return sorted((j.start_time, j.job_id) for j in done)

        assert starts(loaded) == starts(old)
        loaded.save(tmp_path / "float32.npz")
        with np.load(tmp_path / "float32.npz") as data:
            assert data["p0"].dtype == np.float32
        assert (tmp_path / "float32.npz").stat().st_size < path.stat().st_size

    def test_name_preserved(self, tmp_path):
        env_config = EnvConfig(max_obsv_size=16)
        policy = KernelPolicy(env_config.job_features, seed=0)
        s = RLSchedulerPolicy(policy, 8, env_config, name="RL-Lublin-1")
        path = tmp_path / "m.npz"
        s.save(path)
        assert RLSchedulerPolicy.load(path).name == "RL-Lublin-1"


class TestFeatureLayoutValidation:
    """Construction-time layout checks: shape mismatches must fail loudly
    at build time, not as tensor errors mid-simulation."""

    def test_feature_width_mismatch_fails_at_construction(self):
        from repro.schedulers import FeatureLayoutError

        policy = make_policy("kernel", 16, 7)
        nine_col = EnvConfig(max_obsv_size=16, job_features=9,
                             memory_features=True)
        with pytest.raises(FeatureLayoutError, match="7 features"):
            RLSchedulerPolicy(policy, n_procs=8, env_config=nine_col)

    def test_obsv_size_mismatch_fails_at_construction(self):
        from repro.schedulers import FeatureLayoutError

        policy = make_policy("mlp_v2", 16, 7)
        wider = EnvConfig(max_obsv_size=32)
        with pytest.raises(FeatureLayoutError, match="16 observable"):
            RLSchedulerPolicy(policy, n_procs=8, env_config=wider)


class TestRetarget:
    """Cross-scenario policy retargeting (generalization-study deploys)."""

    def seven_feature_policy(self):
        env_config = EnvConfig(max_obsv_size=16)
        policy = make_policy("kernel", 16, env_config.job_features, seed=0)
        return RLSchedulerPolicy(policy, n_procs=64, env_config=env_config,
                                 name="RL-7f")

    def nine_feature_policy(self):
        env_config = EnvConfig(max_obsv_size=16, job_features=9,
                               memory_features=True)
        policy = make_policy("kernel", 16, 9, seed=0)
        return RLSchedulerPolicy(policy, n_procs=256, env_config=env_config,
                                 name="RL-9f")

    def test_seven_feature_policy_adapts_to_memory_scenario(self):
        from repro.scenarios import get_scenario

        rl = self.seven_feature_policy()
        scen = get_scenario("lublin-256-mem")
        deployed = rl.retarget(scen)
        assert deployed.compat == "memory-blind"
        assert deployed.n_procs == scen.cluster.n_procs == 256
        # the source policy is untouched (the zoo copy stays pristine)
        assert rl.n_procs == 64 and rl.compat == "native"
        # and the adapted policy actually schedules the memory cluster
        jobs = scen.build_trace(n_jobs=120).jobs[:40]
        done = run_scheduler([j.copy() for j in jobs], scen.cluster, deployed)
        assert len(done) == 40

    def test_nine_feature_policy_adapts_to_unconstrained_scenario(self):
        from repro.scenarios import get_scenario

        rl = self.nine_feature_policy()
        scen = get_scenario("lublin-64")
        deployed = rl.retarget("lublin-64")  # names resolve too
        assert deployed.compat == "memory-neutral"
        assert deployed.n_procs == 64
        assert rl.n_procs == 256
        jobs = scen.build_trace(n_jobs=120).jobs[:40]
        done = run_scheduler([j.copy() for j in jobs], scen.cluster, deployed)
        assert len(done) == 40

    def test_native_retarget_between_unconstrained_scenarios(self):
        rl = self.seven_feature_policy()
        deployed = rl.retarget("lublin-256")
        assert deployed.compat == "native"
        assert deployed.n_procs == 256

    def test_strict_mode_raises_both_directions(self):
        from repro.schedulers import FeatureLayoutError

        with pytest.raises(FeatureLayoutError, match="memory-blind"):
            self.seven_feature_policy().retarget(
                "lublin-256-mem", on_mismatch="fail")
        with pytest.raises(FeatureLayoutError, match="memory-neutral"):
            self.nine_feature_policy().retarget(
                "lublin-64", on_mismatch="fail")

    def test_strict_mode_native_still_works(self):
        deployed = self.seven_feature_policy().retarget(
            "lublin-256", on_mismatch="fail")
        assert deployed.compat == "native"

    def test_cluster_spec_and_bare_int_targets(self):
        from repro.sim import ClusterSpec

        rl = self.seven_feature_policy()
        assert rl.retarget(ClusterSpec(128)).n_procs == 128
        assert rl.retarget(32).n_procs == 32
        mem_cluster = ClusterSpec(128, memory=64.0)
        assert rl.retarget(mem_cluster).compat == "memory-blind"
        with pytest.raises(Exception):
            rl.retarget(0)  # checked n_procs setter fails loudly

    def test_invalid_on_mismatch_rejected(self):
        with pytest.raises(ValueError, match="on_mismatch"):
            self.seven_feature_policy().retarget("lublin-64",
                                                 on_mismatch="maybe")


class TestLockstep:
    """``run_lockstep`` is ``run_scheduler`` per run, decision for decision:
    every run's ``(job_id, start_time)`` list is the one it gets alone."""

    @staticmethod
    def runs(scenario, n, backfill=False, length=64, seed=3):
        from repro.scenarios import get_scenario
        from repro.workloads import SequenceSampler

        scen = get_scenario(scenario)
        sampler = SequenceSampler(scen.build_trace(n_jobs=600), length,
                                  seed=seed)
        return [(jobs, scen.cluster, backfill) for jobs in sampler.sample_many(n)]

    @staticmethod
    def kernel(n_procs=256, max_obsv_size=8, **env):
        cfg = EnvConfig(max_obsv_size=max_obsv_size, **env)
        policy = KernelPolicy(cfg.job_features, seed=0)
        return RLSchedulerPolicy(policy, n_procs=n_procs, env_config=cfg)

    @staticmethod
    def assert_per_sequence(sched, runs):
        got = sched.run_lockstep(runs)
        assert len(got) == len(runs)
        for (jobs, cluster, backfill), done in zip(runs, got):
            want = run_scheduler(jobs, cluster, sched, backfill=backfill)
            assert [(j.job_id, j.start_time) for j in done] == [
                (j.job_id, j.start_time) for j in want
            ]

    @pytest.mark.parametrize("backfill", [False, "easy", "conservative"])
    def test_backfill_modes(self, backfill):
        self.assert_per_sequence(
            self.kernel(), self.runs("lublin-256", 4, backfill)
        )

    def test_adapted_seven_feature_policy_on_memory_cluster(self):
        sched = self.kernel(n_procs=64).retarget("lublin-256-mem")
        assert sched.compat == "memory-blind"
        self.assert_per_sequence(
            sched, self.runs("lublin-256-mem", 3, "easy")
        )

    def test_memory_features_across_clusters_of_different_memory(self):
        """A memory-feature policy scales the free-memory column by each
        cluster's total: runs on both kinds of cluster share one call."""
        sched = self.kernel(job_features=9, memory_features=True)
        self.assert_per_sequence(
            sched,
            self.runs("lublin-256-mem", 2) + self.runs("lublin-256", 2)
            + self.runs("lublin-256-mem", 1, seed=4),
        )

    def test_policy_sized_for_a_larger_cluster(self):
        """A 256-proc policy on bursty-sdsc's 128 procs encodes features
        with its own ``n_procs``, as ``select`` does."""
        sched = self.kernel(n_procs=256)
        runs = self.runs("bursty-sdsc", 3, "easy")
        assert runs[0][1].n_procs == 128
        self.assert_per_sequence(sched, runs)

    def test_queues_deeper_than_the_window(self):
        from repro.telemetry import core

        sched = self.kernel(max_obsv_size=4)
        runs = self.runs("bursty-sdsc", 3, length=96)
        with core.session() as reg:
            sched.run_lockstep(runs)
            deepest = reg.snapshot().histograms["engine.pending_depth"]["max"]
        assert deepest > 4
        self.assert_per_sequence(sched, runs)

    def test_group_of_one(self):
        self.assert_per_sequence(self.kernel(), self.runs("lublin-256", 1))

    def test_dense_policy_runs_one_sequence_at_a_time(self):
        cfg = EnvConfig(max_obsv_size=8)
        for preset in ("mlp_v2", "lenet"):
            policy = make_policy(preset, 8, cfg.job_features, seed=0)
            sched = RLSchedulerPolicy(policy, n_procs=256, env_config=cfg,
                                      preset=preset)
            self.assert_per_sequence(sched, self.runs("lublin-256", 2, "easy"))

    def test_wave_ties_break_on_each_queues_first_row(self):
        """Twin jobs (every feature alike) tie; each queue of a wave picks
        its first twin, as one queue alone does."""
        sched = self.kernel(n_procs=64, max_obsv_size=16)
        twins = [job(i, submit=float(i // 2), run=30.0, procs=4)
                 for i in range(12)]
        cache = FeatureCache(twins, 64, sched.env_config)
        cluster = cluster_with_free(64, 40)
        queues = [[0, 1, 2, 3], [4, 5], [6, 7, 8, 9, 10, 11], [2, 3]]
        feats = observation_rows(
            cache, np.concatenate(queues), 20.0, cluster.free_procs, 64,
            sched.env_config, free_mem=cluster.free_mem,
            total_mem=cluster.total_mem,
        )
        picks = sched._best_rows(feats, [len(q) for q in queues])
        alone = []
        for q in queues:
            queue = [twins[i] for i in q]
            alone.append(queue.index(sched.select(queue, 20.0, cluster)))
        assert list(picks) == alone
        assert all(pick % 2 == 0 for pick in alone)  # the first of a pair
