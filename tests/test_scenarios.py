"""Scenario subsystem: registry, spec serialization, the scenario-matrix
pipeline, and the golden equivalences the refactor must preserve — the
default scenario reproduces the pre-scenario code paths bit-identically."""

import dataclasses

import numpy as np
import pytest

import repro
from repro.config import EnvConfig, EvalConfig, ScenarioConfig
from repro.rl import make_reward
from repro.scenarios import (
    DEFAULT_SCENARIO,
    EvalProtocol,
    Scenario,
    WorkloadSpec,
    attach_memory_demands,
    available_scenarios,
    get_scenario,
    register_scenario,
)
from repro.schedulers import FCFS, SJF
from repro.sim import ClusterSpec, SchedGym, mem_demand
from repro.workloads import load_trace

SMALL = EvalConfig(n_sequences=2, sequence_length=24, seed=1)


def small_variant(scenario: Scenario, n_jobs: int = 300) -> Scenario:
    """A registered scenario shrunk for test speed (not re-registered)."""
    return Scenario(
        name=scenario.name,
        description=scenario.description,
        workload=dataclasses.replace(scenario.workload, n_jobs=n_jobs),
        cluster=scenario.cluster,
        protocol=scenario.protocol,
    )


class TestRegistry:
    def test_at_least_six_builtins(self):
        assert len(available_scenarios()) >= 6

    def test_default_scenario_registered(self):
        assert DEFAULT_SCENARIO in available_scenarios()

    def test_get_scenario_passthrough_and_errors(self):
        s = get_scenario(DEFAULT_SCENARIO)
        assert get_scenario(s) is s
        with pytest.raises(KeyError, match="unknown scenario"):
            get_scenario("no-such-scenario")

    def test_register_rejects_duplicates(self):
        s = get_scenario(DEFAULT_SCENARIO)
        with pytest.raises(ValueError, match="already registered"):
            register_scenario(s)
        assert register_scenario(s, overwrite=True) is s

    def test_every_builtin_builds_a_trace(self):
        for name in available_scenarios():
            scen = get_scenario(name)
            trace = scen.build_trace(n_jobs=120)
            assert len(trace) == 120
            # every job must fit the scenario cluster (engine precondition)
            for j in trace.jobs:
                assert j.requested_procs <= scen.cluster.n_procs
                assert mem_demand(j) <= scen.cluster.total_mem


class TestSerialization:
    def test_scenario_dict_roundtrip(self):
        for name in available_scenarios():
            scen = get_scenario(name)
            assert Scenario.from_dict(scen.to_dict()) == scen

    def test_workload_params_accept_mapping(self):
        a = WorkloadSpec(trace="Lublin-1", params={"n_procs": 64})
        b = WorkloadSpec(trace="Lublin-1", params=(("n_procs", 64),))
        assert a == b

    def test_workload_rejects_overrides_for_unknown_generator(self):
        with pytest.raises(ValueError, match="no generator overrides"):
            WorkloadSpec(trace="NotATrace", params={"x": 1}).build(n_jobs=10)

    def test_scenario_config_validation(self):
        with pytest.raises(ValueError):
            ScenarioConfig(name="")
        with pytest.raises(ValueError):
            ScenarioConfig(name="x", n_jobs=0)
        with pytest.raises(TypeError):
            EvalConfig(scenario="lublin-256")  # must be a ScenarioConfig


class TestWorkloadVariants:
    def test_param_overrides_change_the_trace(self):
        base = WorkloadSpec(trace="Lublin-1", n_jobs=400)
        diurnal = WorkloadSpec(
            trace="Lublin-1", n_jobs=400, params={"daily_cycle_strength": 0.9}
        )
        t0, t1 = base.build(), diurnal.build()
        assert [j.submit_time for j in t0] != [j.submit_time for j in t1]

    def test_default_spec_matches_load_trace_exactly(self):
        """No overrides -> byte-identical to load_trace (golden property)."""
        spec = WorkloadSpec(trace="Lublin-1", n_jobs=300, seed=5)
        a, b = spec.build(), load_trace("Lublin-1", n_jobs=300, seed=5)
        assert [(j.job_id, j.submit_time, j.run_time, j.requested_procs)
                for j in a] == \
               [(j.job_id, j.submit_time, j.run_time, j.requested_procs)
                for j in b]

    def test_memory_demands_are_seeded_and_capped(self):
        trace = load_trace("Lublin-1", n_jobs=200, seed=0)
        a = attach_memory_demands(trace, 1.0, seed=3, cap_total=50.0)
        b = attach_memory_demands(trace, 1.0, seed=3, cap_total=50.0)
        c = attach_memory_demands(trace, 1.0, seed=4, cap_total=50.0)
        assert [j.requested_mem for j in a] == [j.requested_mem for j in b]
        assert [j.requested_mem for j in a] != [j.requested_mem for j in c]
        assert all(mem_demand(j) <= 50.0 + 1e-9 for j in a)
        assert all(j.requested_mem > 0 for j in a)

    def test_mem_scenario_trace_is_memory_constrained(self):
        scen = get_scenario("lublin-256-mem")
        trace = scen.build_trace(n_jobs=300)
        demands = [mem_demand(j) for j in trace.jobs]
        assert all(d > 0 for d in demands)
        assert max(d / scen.cluster.total_mem for d in demands) > 0.1

    def test_mem_demands_fit_capacity_at_full_scenario_size(self):
        """Regression: clamping per-proc memory as cap/procs could round
        so that demand * procs overshot the cap by an ulp, and the engine
        rejected the scenario's own default workload."""
        scen = get_scenario("lublin-256-mem")
        trace = scen.build_trace()  # the full default size, all seeds' jobs
        cap = scen.cluster.total_mem
        assert all(mem_demand(j) <= cap for j in trace.jobs)
        # the clamp actually binds for wide jobs (not vacuously true)
        assert any(mem_demand(j) == cap for j in trace.jobs)


class TestEnvConfigHelper:
    def test_memory_scenario_enables_memory_features(self):
        scen = get_scenario("lublin-256-mem")
        cfg = scen.env_config()
        assert cfg.memory_features and cfg.job_features == 9

    def test_default_scenario_keeps_base_config(self):
        base = EnvConfig(max_obsv_size=16)
        assert get_scenario(DEFAULT_SCENARIO).env_config(base) is base

    def test_protocol_backfill_reaches_training_env(self):
        """Regression: a policy trained via TrainConfig.scenario on a
        backfill scenario must train in the backfilling environment its
        evaluation protocol scores it in."""
        scen = get_scenario("pik-iplex")
        assert scen.env_config().backfill is True
        # an explicit base backfill mode is respected, not overridden
        base = EnvConfig(backfill="conservative")
        assert scen.env_config(base).backfill == "conservative"


class TestGoldenEquivalence:
    """The acceptance pins: the default scenario reproduces the historical
    hard-coded paths bit-for-bit."""

    def test_default_scenario_rollout_bit_identical(self):
        """SchedGym driven through the scenario (ClusterSpec cluster,
        scenario-built trace) == the pre-scenario construction (bare
        n_procs, load_trace) — identical observations, masks, rewards."""
        scen = get_scenario(DEFAULT_SCENARIO)
        trace_new = scen.build_trace(n_jobs=300, seed=7)
        trace_old = load_trace("Lublin-1", n_jobs=300, seed=7)
        jobs_new = trace_new.jobs[:48]
        jobs_old = trace_old.jobs[:48]

        env_new = SchedGym(scen.cluster, make_reward("bsld"),
                           config=EnvConfig(max_obsv_size=16))
        env_old = SchedGym(256, make_reward("bsld"),
                           config=EnvConfig(max_obsv_size=16))
        obs_n, mask_n = env_new.reset([j.copy() for j in jobs_new])
        obs_o, mask_o = env_old.reset([j.copy() for j in jobs_old])
        rng = np.random.default_rng(0)
        while True:
            assert np.array_equal(obs_n, obs_o)
            assert np.array_equal(mask_n, mask_o)
            action = int(rng.choice(np.flatnonzero(mask_n)))
            rn = env_new.step(action)
            ro = env_old.step(action)
            assert rn.reward == ro.reward and rn.done == ro.done
            if rn.done:
                break
            obs_n, mask_n = rn.observation, rn.action_mask
            obs_o, mask_o = ro.observation, ro.action_mask

    def test_default_scenario_evaluate_matches_plain_trace(self):
        """api.evaluate through the scenario config == the historical
        trace-first call, value for value."""
        scen = get_scenario(DEFAULT_SCENARIO)
        trace = load_trace("Lublin-1", n_jobs=300, seed=0)
        plain = repro.evaluate(SJF(), trace, metric="bsld", config=SMALL)
        via_scenario = repro.evaluate(
            SJF(),
            config=EvalConfig(
                n_sequences=SMALL.n_sequences,
                sequence_length=SMALL.sequence_length,
                seed=SMALL.seed,
                scenario=ScenarioConfig(name=scen.name, n_jobs=300, seed=0),
            ),
        )
        assert list(plain.values) == list(via_scenario.values)


class TestScenarioEvaluation:
    def test_evaluate_works_for_every_registered_scenario(self):
        for name in available_scenarios():
            scen = small_variant(get_scenario(name))
            result = repro.evaluate(FCFS(), scen, config=SMALL)
            assert np.isfinite(float(result))
            assert result.n == SMALL.n_sequences

    def test_scenario_protocol_defaults_apply(self):
        """pik-iplex's protocol carries backfill=True; explicit args
        override it."""
        scen = small_variant(get_scenario("pik-iplex"))
        with_proto = repro.evaluate(SJF(), scen, config=SMALL)
        no_backfill = repro.evaluate(SJF(), scen, backfill=False, config=SMALL)
        # Same sequences; only the backfill mode differs.  (Values may
        # coincide on easy windows, so compare against the explicit call.)
        with_backfill = repro.evaluate(SJF(), scen, backfill=True, config=SMALL)
        assert list(with_proto.values) == list(with_backfill.values)
        assert with_proto.n == no_backfill.n

    def test_trace_or_scenario_required(self):
        with pytest.raises(ValueError, match="pass a trace"):
            repro.evaluate(SJF())

    def test_explicit_trace_wins_over_config_scenario(self):
        """Regression: an explicitly passed trace must be evaluated (on
        the scenario's cluster), never silently replaced by the scenario
        workload — the Trainer precedence."""
        trace = load_trace("Lublin-1", n_jobs=300, seed=0)
        combined = repro.evaluate(
            SJF(), trace,
            config=EvalConfig(
                n_sequences=SMALL.n_sequences,
                sequence_length=SMALL.sequence_length,
                seed=SMALL.seed,
                scenario=ScenarioConfig(name="lublin-256-mem", n_jobs=300),
            ),
        )
        # The explicit trace carries no memory demands, so the scenario's
        # 192-unit memory never binds and the values equal a plain eval —
        # proof the caller's trace (not the scenario workload, whose jobs
        # all carry demands) was simulated.
        plain = repro.evaluate(SJF(), trace, config=SMALL)
        assert list(combined.values) == list(plain.values)


class TestScenarioMatrix:
    def _small_matrix(self, workers=1):
        cfg = EvalConfig(n_sequences=2, sequence_length=24, seed=3,
                         workers=workers)
        return repro.scenario_matrix(
            [FCFS(), SJF()],
            ["lublin-256", "lublin-256-mem"],
            config=cfg,
            n_jobs=300,
        )

    def test_shape_and_order(self):
        m = self._small_matrix()
        assert list(m) == ["lublin-256", "lublin-256-mem"]
        for row in m.values():
            assert list(row) == ["FCFS", "SJF"]
            for r in row.values():
                assert r.n == 2 and np.isfinite(float(r))

    def test_matrix_cell_equals_direct_evaluate(self):
        """Each matrix cell must equal an independent evaluate() on the
        same scenario/config — the matrix is a fan-out, not a new
        protocol."""
        m = self._small_matrix()
        cfg = EvalConfig(n_sequences=2, sequence_length=24, seed=3)
        for name in ("lublin-256", "lublin-256-mem"):
            scen = small_variant(get_scenario(name))
            direct = repro.evaluate(FCFS(), scen, config=cfg)
            assert list(m[name]["FCFS"].values) == list(direct.values)

    def test_process_backend_bit_identical(self):
        serial = self._small_matrix()
        process = self._small_matrix(workers=2)
        for name, row in serial.items():
            for sched, r in row.items():
                assert list(r.values) == list(process[name][sched].values)

    def test_duplicate_scenarios_rejected(self):
        with pytest.raises(ValueError, match="unique"):
            repro.scenario_matrix([FCFS()], ["lublin-256", "lublin-256"])

    def test_repeated_matrices_build_each_trace_once(self, monkeypatch):
        """Generated scenario traces are memoised: a second matrix over the
        same scenarios generates nothing and returns equal results."""
        from repro.scenarios import core

        builds = []
        real_build = WorkloadSpec.build

        def counting_build(self, *args, **kwargs):
            builds.append(self.trace)
            return real_build(self, *args, **kwargs)

        core._generated.cache_clear()
        monkeypatch.setattr(WorkloadSpec, "build", counting_build)
        first = self._small_matrix()
        assert len(builds) == 2  # one per scenario
        second = self._small_matrix()
        assert len(builds) == 2
        for name, row in first.items():
            for sched, r in row.items():
                assert list(r.values) == list(second[name][sched].values)
        a = get_scenario("lublin-256").build_trace(n_jobs=300)
        assert get_scenario("lublin-256").build_trace(n_jobs=300) is a

    def test_swf_replays_are_never_memoised(self, tmp_path):
        """A real .swf can change between calls, so it is re-read."""
        from repro.workloads import write_swf

        trace = load_trace("Lublin-1", n_jobs=40, seed=0)
        write_swf(trace, tmp_path / "Lublin-1.swf")
        scen = Scenario(
            name="replay", description="",
            workload=WorkloadSpec("Lublin-1", n_jobs=40, swf_dir=str(tmp_path)),
            cluster=ClusterSpec(256),
        )
        assert len(scen.build_trace()) == 40
        write_swf(trace[:25], tmp_path / "Lublin-1.swf")
        assert len(scen.build_trace()) == 25


class TestMemoryFeatures:
    def test_observation_columns(self):
        """Memory features appear in columns 7/8 and the 7-feature core
        stays bit-identical."""
        scen = get_scenario("lublin-256-mem")
        trace = scen.build_trace(n_jobs=120)
        jobs = trace.jobs[:24]

        base_cfg = EnvConfig(max_obsv_size=8)
        mem_cfg = EnvConfig(max_obsv_size=8, memory_features=True)
        env_base = SchedGym(scen.cluster, make_reward("bsld"), config=base_cfg)
        env_mem = SchedGym(scen.cluster, make_reward("bsld"), config=mem_cfg)
        obs_b, _ = env_base.reset([j.copy() for j in jobs])
        obs_m, mask = env_mem.reset([j.copy() for j in jobs])
        k = int(mask.sum())
        assert np.array_equal(obs_m[:, :7], obs_b)  # core layout unchanged
        assert (obs_m[:k, 7] > 0).all()             # demand fractions
        assert np.allclose(obs_m[:k, 8], 1.0)       # idle cluster: all free
        assert np.all(obs_m[k:] == 0.0)             # padded rows stay zero

    def test_loop_builder_matches_vectorized(self):
        from repro.sim import build_observation

        from .reference import build_observation_loop

        scen = get_scenario("lublin-256-mem")
        trace = scen.build_trace(n_jobs=60)
        cfg = EnvConfig(max_obsv_size=16, memory_features=True)
        pending = trace.jobs[:10]
        a = build_observation(pending, 50.0, 100, 256, cfg,
                              free_mem=120.0, total_mem=192.0)
        b = build_observation_loop(pending, 50.0, 100, 256, cfg,
                                   free_mem=120.0, total_mem=192.0)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_memory_features_need_nine_columns(self):
        """The width follows from the layout: it cannot disagree with it."""
        assert EnvConfig(memory_features=True).job_features == 9
        assert EnvConfig().job_features == 7


class TestScenarioTraining:
    def test_train_config_scenario_end_to_end(self):
        from repro.config import PPOConfig, TrainConfig

        result = repro.train(
            None,
            metric="bsld",
            env_config=EnvConfig(max_obsv_size=8),
            ppo_config=PPOConfig(train_pi_iters=2, train_v_iters=2),
            train_config=TrainConfig(
                epochs=1, trajectories_per_epoch=2, trajectory_length=12,
                seed=0,
                scenario=ScenarioConfig(name="lublin-256-mem", n_jobs=300),
            ),
        )
        assert result.n_procs == 256
        # memory scenario training upgraded the feature config
        assert result.env_config.memory_features
        sched = result.as_scheduler()
        scen = small_variant(get_scenario("lublin-256-mem"))
        score = repro.evaluate(sched, scen, config=SMALL)
        assert np.isfinite(float(score))

    def test_explicit_trace_wins_over_train_config_scenario(self):
        """The Trainer side of the one precedence rule: a passed trace is
        trained on as is, while the scenario supplies the cluster (its
        192 memory units) and the memory-feature layout."""
        from repro.config import TrainConfig

        trace = load_trace("Lublin-1", n_jobs=300, seed=0)
        with repro.Trainer(
            trace,
            env_config=EnvConfig(max_obsv_size=8),
            train_config=TrainConfig(
                scenario=ScenarioConfig("lublin-256-mem", n_jobs=300)
            ),
        ) as trainer:
            assert trainer.trace is trace
            assert trainer.cluster_spec == get_scenario("lublin-256-mem").cluster
            assert trainer.cluster_spec.memory == 192
            assert trainer.env_config.memory_features

    def test_trainer_requires_trace_or_scenario(self):
        with pytest.raises(ValueError, match="needs a trace"):
            repro.Trainer(None)
