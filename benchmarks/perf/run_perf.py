"""Hot-path micro-benchmarks: rollout, engine, and PPO-update throughput.

Measures, in one run:

* ``rollout.vectorized_steps_per_sec`` — bench sequences through the
  collector's ``lockstep_rollout`` over a bare :class:`VecSchedGym`: N
  environments in lock-step, one ragged observation wave and one batched
  policy forward per step (per-episode targets are not in the timing).
* ``rollout.phase_breakdown`` — where the training collector's lock-step
  loop spends its wall-time: env stepping vs policy forwards vs episode
  buffer bookkeeping, read from the ``rollout.*`` telemetry spans the
  trainer's own rollout records.
* ``telemetry.enabled_over_disabled`` — paired alternating-rep probe of
  telemetry's rollout cost; the within-run throughput ratio is
  hardware-independent and gated in CI (floor 0.95).
* ``engine.events_per_sec`` — raw discrete-event engine throughput
  (FCFS schedule, no network in the loop).
* ``scenarios.<name>.events_per_sec`` — the same engine throughput per
  registered scenario (workload × cluster, including the backfilling and
  memory-constrained variants), plus forced-backfill ``<name>+backfill``
  twins, so scenario-dependent slowdowns show up in the measured
  trajectory.
* ``ppo_update.sec_per_iter`` — one PPO minibatch iteration (policy or
  value step) on the batch the vectorised rollout collected.
* ``ppo_update.dense_sec_per_iter`` / ``sparse_sec_per_iter`` /
  ``sparse_speedup`` — one policy step through the dense padded-logits
  oracle (the kernel policy behind the tests' ``DenseOnly`` wrapper) vs
  the segment-batched sparse autograd path the agent picks by itself,
  on identical pre-drawn minibatches; the ratio is hardware-independent
  and gated in CI.
* ``serving.*`` — scheduler-as-a-service throughput: a two-tenant
  daemon on a loopback socket driven closed-loop by the load generator
  (requests/sec, request/decision latency percentiles), next to a
  direct in-process pass over the same streams.  The within-run
  ``serving.served_over_direct`` ratio is hardware-independent and
  gated in CI — it collapses only when the wire layer itself regresses.
* ``runtime.*`` — worker scaling of the execution runtime: evaluation
  throughput through :func:`repro.api.evaluate` on the serial backend
  and at 1/2/4 process workers.  ``runtime.cpu_count`` records how many
  cores the numbers had to share — on a 1-core box process workers can
  only time-slice, so read scaling figures against it.

Results are merged into ``BENCH_perf.json`` (``--out`` overrides) under
``scales.<scale>``, one entry per scale preset, so successive PRs have a
measured trajectory and CI can diff its own scale against the committed
baseline (``check_regression.py``).  Scale presets:

========  =======================================================
scale     meaning
========  =======================================================
smoke     seconds; CI sanity check that the harness runs
tiny      the default; ~a minute on a laptop, stable ratios
paper     paper-protocol sizes (256-job sequences, 128 job slots)
========  =======================================================

Usage::

    PYTHONPATH=src python benchmarks/perf/run_perf.py --scale tiny
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from functools import partial
from pathlib import Path

import numpy as np

from repro.api import evaluate
from repro.config import EnvConfig, EvalConfig, PPOConfig, RuntimeConfig, TrainConfig
from repro.nn import ValueMLP, make_policy
from repro.rl import PPOAgent, TrajectoryBuffer, make_reward
from repro.rl.ppo import _policy_plan
from repro.rl.trainer import Trainer, lockstep_rollout
from repro.telemetry import core as telemetry
from repro.sim import VecSchedGym, run_scheduler
from repro.schedulers import FCFS, SJF
from repro.workloads import SequenceSampler, load_trace

sys.path.insert(0, str(Path(__file__).resolve().parents[2]))
from tests.conftest import DenseOnly  # noqa: E402  (the tests' dense oracle)

SCALES = {
    #         n_jobs  n_seqs  seq_len  max_obsv  n_envs
    "smoke": (400, 8, 24, 16, 8),
    "tiny": (2000, 24, 128, 128, 64),
    "paper": (10_000, 100, 256, 128, 32),
}


def rollout_vectorized(agent, env_cfg, n_procs, sequences, n_envs, seed, buffer=None):
    """Time the collector's own lock-step loop over a bare ``VecSchedGym``;
    optionally (untimed) fills ``buffer`` for the update bench."""
    vec = VecSchedGym(n_envs, n_procs, make_reward("bsld"), config=env_cfg)
    rngs = [np.random.default_rng([seed, t]) for t in range(len(sequences))]
    start = time.perf_counter()
    episodes, rewards = lockstep_rollout(vec, agent, sequences, rngs)
    elapsed = time.perf_counter() - start
    if buffer is not None:
        for (rows, counts, actions), reward in zip(episodes, rewards):
            buffer.add_episode(
                rows, counts, actions,
                agent.episode_log_probs(rows, counts, actions),
                agent.value_batch(rows, counts), reward,
            )
    return sum(len(actions) for _, _, actions in episodes), elapsed


def _phase_trainer(env_cfg, trace, sequences, n_envs):
    """A Trainer that rolls the bench sequences — the same ones every
    pass — through the *training* rollout: the one
    instrumentation source for rollout phase timing
    (``rollout.policy_forward`` / ``env_step`` / ``buffer`` spans)."""
    trainer = Trainer(
        trace,
        metric="bsld",
        env_config=env_cfg,
        train_config=TrainConfig(
            trajectories_per_epoch=len(sequences),
            trajectory_length=len(sequences[0]),
            n_envs=n_envs,
            seed=0,
        ),
    )
    trainer._sample_epoch_sequences = lambda epoch: (sequences, 0)
    return trainer


def rollout_phase_breakdown(env_cfg, trace, sequences, n_envs):
    """Per-phase wall-time split of the collector's lock-step loop.

    Drives the trainer's own ``_collect`` under a telemetry session and
    reads the split from the ``rollout.*`` spans it records — the bench does not hand-time a duplicate of the collection
    loop, so these fractions are, by construction, the ones a
    telemetry-enabled training run reports.
    """
    trainer = _phase_trainer(env_cfg, trace, sequences, n_envs)
    try:
        with telemetry.session() as reg:
            trainer._collect(0, TrajectoryBuffer())
            t_policy = reg.span_seconds("rollout.policy_forward")
            t_env = reg.span_seconds("rollout.env_step")
            t_buffer = reg.span_seconds("rollout.buffer")
    finally:
        trainer.close()
    total = t_env + t_policy + t_buffer
    return {
        "env_step_sec": t_env,
        "policy_forward_sec": t_policy,
        "buffer_sec": t_buffer,
        "env_step_frac": t_env / total,
        "policy_forward_frac": t_policy / total,
        "buffer_frac": t_buffer / total,
    }


def bench_telemetry_overhead(env_cfg, trace, sequences, n_envs, repeat=20):
    """Paired within-run probe of telemetry's rollout cost.

    Telemetry-enabled and -disabled passes of the same instrumented
    collector alternate inside one loop, so the two paths see the same
    machine conditions — hardware-independent like the other gated
    ratios.  The gated ratio compares *total* time across all reps of
    each path: per-rep minima and medians both proved too jittery on a
    loaded 1-core box to resolve a few-percent effect, while the sum
    averages scheduler noise down by ~1/sqrt(repeat) and the alternation
    cancels slow drift.  Returns aggregate throughputs and the
    enabled/disabled ratio (1.0 = free; the CI floor is 0.95).

    Sequences are tiled so one pass is tens of milliseconds even at smoke
    scale: the gated ratio must resolve a few-percent effect, which a
    ~10 ms timing window cannot.
    """
    reps_of = max(1, -(-32 // len(sequences)))
    sequences = list(sequences) * reps_of
    trainer = _phase_trainer(env_cfg, trace, sequences, n_envs)
    reg = telemetry.Telemetry(enabled=True)

    def one_pass():
        # epoch 0 every pass: the same sequences on the same action streams
        start = time.perf_counter()
        trainer._collect(0, TrajectoryBuffer())
        return time.perf_counter() - start

    def enabled_pass():
        prev = telemetry.set_active(reg)
        try:
            return one_pass()
        finally:
            telemetry.set_active(prev)
            reg.drain()  # keep per-rep cost flat across reps

    try:
        one_pass()  # warm both paths outside the measured reps
        enabled_pass()
        steps = sum(len(jobs) for jobs in sequences)
        on_times, off_times = [], []
        for rep in range(repeat):
            # alternate pair order so neither path systematically runs in
            # the fresher half of each pair
            if rep % 2 == 0:
                on_times.append(enabled_pass())
                off_times.append(one_pass())
            else:
                off_times.append(one_pass())
                on_times.append(enabled_pass())
        if os.environ.get("PERF_DEBUG"):
            print(f"[perf-debug] telemetry on: "
                  f"{[f'{t*1e3:.1f}ms' for t in on_times]} off: "
                  f"{[f'{t*1e3:.1f}ms' for t in off_times]}")
        t_on, t_off = sum(on_times), sum(off_times)
        return {
            "enabled_steps_per_sec": repeat * steps / t_on,
            "disabled_steps_per_sec": repeat * steps / t_off,
            "enabled_over_disabled": t_off / t_on,
        }
    finally:
        trainer.close()


def bench_runtime_scaling(trace, eval_seqs, eval_len, workers_list=(1, 2, 4)):
    """Worker scaling of evaluation (``api.evaluate`` fan-out)."""
    report = {"workers": list(workers_list), "cpu_count": os.cpu_count()}

    def eval_once(runtime):
        cfg = EvalConfig(n_sequences=eval_seqs, sequence_length=eval_len,
                         seed=7, runtime=runtime)
        start = time.perf_counter()
        evaluate(SJF(), trace, metric="bsld", config=cfg)
        return eval_seqs / (time.perf_counter() - start)

    serial_eval = eval_once(RuntimeConfig())
    evaluation = {"serial": serial_eval, "process": {}}
    for w in workers_list:
        evaluation["process"][str(w)] = eval_once(
            RuntimeConfig(backend="process", workers=w)
        )
    evaluation["speedup_at_max_workers"] = (
        evaluation["process"][str(workers_list[-1])] / serial_eval
    )
    report["eval_sequences_per_sec"] = evaluation
    return report


def bench_engine(trace, n_jobs):
    """Raw event-engine throughput: FCFS, no network in the loop."""
    jobs = [j.copy() for j in trace.jobs[:n_jobs]]
    start = time.perf_counter()
    run_scheduler(jobs, trace.max_procs, FCFS())
    elapsed = time.perf_counter() - start
    return 2 * len(jobs) / elapsed  # one arrival + one finish per job


#: Scenario spread for the per-scenario engine bench: the default, a
#: different job-shape mix, a bursty-arrival cluster, and the
#: memory-constrained variant (exercises the resource-vector hot path).
BENCH_SCENARIOS = (
    "lublin-256", "lublin-256-wide", "bursty-sdsc", "lublin-256-mem"
)

#: Scenarios additionally benched with backfilling forced on (the
#: expensive engine path: shadow-budget scans per decision), recorded as
#: ``<name>+backfill`` twins next to the protocol-mode entries.
BENCH_BACKFILL_SCENARIOS = ("lublin-256", "lublin-256-mem")


def bench_scenarios(n_jobs):
    """Per-scenario engine throughput (FCFS under each scenario's cluster
    and protocol backfill mode, plus forced-backfill twins)."""
    from repro.scenarios import get_scenario

    out = {}
    runs = [(name, None) for name in BENCH_SCENARIOS]
    runs += [(name, True) for name in BENCH_BACKFILL_SCENARIOS]
    for name, backfill in runs:
        scen = get_scenario(name)
        trace = scen.build_trace(n_jobs=n_jobs)
        if backfill is None:
            backfill = bool(scen.protocol.backfill)
            key = name
        else:
            key = f"{name}+backfill"
        start = time.perf_counter()
        run_scheduler(trace.jobs, scen.cluster, FCFS(), backfill=backfill)
        elapsed = time.perf_counter() - start
        out[key] = {
            "events_per_sec": 2 * len(trace) / elapsed,
            "n_jobs": len(trace),
            "backfill": backfill,
        }
    return out


def bench_serving(trace, n_jobs_each):
    """Closed-loop serving throughput over a live loopback daemon.

    Two tenants (FCFS+easy backfill, SJF) run behind one daemon on an
    ephemeral port; the load generator submits every job over the
    real socket, closed loop.  The same streams are then pushed straight
    into an in-process :class:`SchedulerRouter` — identical decisions,
    no sockets, no JSON — giving a within-run overhead ratio:
    ``served_over_direct`` = socket requests/sec over direct
    requests/sec.  That ratio is hardware-independent and gated in CI
    (floor in ``check_regression.py``): a collapse means the wire layer
    (framing, dispatch, event loop) got expensive relative to the
    scheduling work it fronts, which no runner change can excuse.
    """
    import threading

    from repro.config import ServeConfig, TenantConfig
    from repro.serve import (
        SchedulerRouter,
        ServeClient,
        ServeDaemon,
        run_closed_loop,
        trace_jobs,
    )

    tenants = (
        TenantConfig(name="alpha", scheduler="FCFS",
                     n_procs=trace.max_procs, backfill="easy"),
        TenantConfig(name="beta", scheduler="SJF", n_procs=trace.max_procs),
    )
    streams = {
        "alpha": trace_jobs(trace, n_jobs_each, seed=1,
                            max_procs=trace.max_procs),
        "beta": trace_jobs(trace, n_jobs_each, seed=2,
                           max_procs=trace.max_procs),
    }

    # direct pass: the same decisions with the wire layer removed
    router = SchedulerRouter(ServeConfig(port=0, tenants=tenants))
    from repro.serve.protocol import PROTOCOL_VERSION, job_to_wire
    wire = {
        name: [{"v": PROTOCOL_VERSION, "op": "submit", "tenant": name,
                "job": job_to_wire(job)} for job in jobs]
        for name, jobs in streams.items()
    }
    start = time.perf_counter()
    direct_requests = 0
    for name, messages in wire.items():
        for message in messages:
            router.dispatch(message)
            direct_requests += 1
    router.drain_all()
    direct_elapsed = time.perf_counter() - start
    direct_rps = direct_requests / direct_elapsed

    # served pass: the identical streams through the live socket daemon
    daemon = ServeDaemon(ServeConfig(port=0, tenants=tenants))
    outcome = {}

    def _run():
        outcome["rc"] = daemon.run()

    thread = threading.Thread(target=_run, daemon=True)
    thread.start()
    deadline = time.perf_counter() + 30
    while daemon.address is None and time.perf_counter() < deadline:
        if not thread.is_alive():
            raise RuntimeError("serve daemon died before binding")
        time.sleep(0.01)
    assert daemon.address is not None, "serve daemon never bound"
    try:
        loadgen = run_closed_loop(*daemon.address, streams)
    finally:
        with ServeClient(*daemon.address) as client:
            client.drain(stop=True)
        thread.join(timeout=30)
    assert outcome.get("rc") == 0, "serve daemon did not exit cleanly"

    return {
        "tenants": [t.name for t in tenants],
        "jobs_per_tenant": n_jobs_each,
        "requests": loadgen["requests"],
        "requests_per_sec": loadgen["requests_per_sec"],
        "decisions": loadgen["decisions"],
        "request_latency_sec": loadgen["request_latency_sec"],
        "decision_latency_sec": loadgen["decision_latency_sec"],
        "direct_requests_per_sec": direct_rps,
        "served_over_direct": loadgen["requests_per_sec"] / direct_rps,
        "cpu_count": os.cpu_count(),
    }


def bench_ppo_update(agent, buffer, ppo_cfg, max_obsv, job_features):
    """Full-update timing plus a dense-vs-sparse policy-step comparison.

    The comparison runs two fresh same-seed agents over identical
    pre-drawn minibatch index lists — one on the kernel policy as is
    (the agent picks the sparse step), one with its row scorer hidden
    behind the tests' ``DenseOnly`` wrapper (the dense oracle) — so the
    update arithmetic (padded dense logits vs segment-batched sparse
    autograd) is the only thing that differs between the two timings.
    """
    data = buffer.get()
    start = time.perf_counter()
    stats = agent.update(data)
    elapsed = time.perf_counter() - start
    iters = stats.pi_iters_run + ppo_cfg.train_v_iters
    report = {
        "sec_per_iter": elapsed / iters,
        "batch_steps": len(data["actions"]),
    }

    n = len(data["actions"])
    batch = min(ppo_cfg.minibatch_size, n)
    rng = np.random.default_rng(11)
    idx_lists = [
        rng.choice(n, size=batch, replace=False) if batch < n else np.arange(n)
        for _ in range(ppo_cfg.train_pi_iters)
    ]
    for path in ("dense", "sparse"):
        policy = make_policy("kernel", max_obsv, job_features, seed=0)
        sparse = path == "sparse"
        path_agent = PPOAgent(
            policy if sparse else DenseOnly(policy),
            ValueMLP(max_obsv, job_features, seed=1),
            ppo_cfg,
            seed=0,
        )
        plan = partial(_policy_plan, data, sparse, max_obsv, policy.dtype)
        path_agent._policy_step(plan(idx_lists[0]))  # warm-up
        start = time.perf_counter()
        for idx in idx_lists:
            path_agent._policy_step(plan(idx))
        report[f"{path}_sec_per_iter"] = (
            (time.perf_counter() - start) / len(idx_lists)
        )
    report["sparse_speedup"] = (
        report["dense_sec_per_iter"] / report["sparse_sec_per_iter"]
    )
    return report


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument(
        "--scale",
        choices=sorted(SCALES),
        default=os.environ.get("REPRO_BENCH_SCALE", "tiny"),
    )
    parser.add_argument("--n-envs", type=int, default=None)
    parser.add_argument(
        "--out", type=Path,
        default=Path(__file__).resolve().parents[2] / "BENCH_perf.json",
    )
    args = parser.parse_args(argv)

    n_jobs, n_seqs, seq_len, max_obsv, n_envs = SCALES[args.scale]
    if args.n_envs:
        n_envs = args.n_envs
    env_cfg = EnvConfig(max_obsv_size=max_obsv)
    ppo_cfg = PPOConfig(train_pi_iters=10, train_v_iters=10)

    trace = load_trace("Lublin-1", n_jobs=n_jobs, seed=3)
    sampler = SequenceSampler(trace, seq_len, seed=1)
    sequences = sampler.sample_many(n_seqs)

    policy = make_policy("kernel", max_obsv, env_cfg.job_features, seed=0)
    value = ValueMLP(max_obsv, env_cfg.job_features, seed=1)
    agent = PPOAgent(policy, value, ppo_cfg, seed=0)

    # Warm-up (first-call allocation noise), then measure.
    rollout_vectorized(agent, env_cfg, trace.max_procs, sequences[:1], n_envs, 0)

    print(f"[perf] scale={args.scale}: {n_seqs} sequences x {seq_len} jobs, "
          f"M={max_obsv}, n_envs={n_envs}")

    # Best of three: this number gates CI (check_regression.py), and at
    # smoke scale a single run is a ~10 ms timing window — too noisy.
    vec_steps, vec_time = min(
        (
            rollout_vectorized(
                agent, env_cfg, trace.max_procs, sequences, n_envs, 1
            )
            for _ in range(3)
        ),
        key=lambda run: run[1],
    )
    print(f"[perf] vectorized: {vec_steps} steps in {vec_time:.2f}s "
          f"({vec_steps / vec_time:,.0f} steps/s, best of 3)")

    phase_breakdown = rollout_phase_breakdown(env_cfg, trace, sequences, n_envs)
    print(f"[perf] rollout phases: env {phase_breakdown['env_step_frac']:.0%}, "
          f"policy {phase_breakdown['policy_forward_frac']:.0%}, "
          f"buffer {phase_breakdown['buffer_frac']:.0%}")

    telemetry_report = bench_telemetry_overhead(
        env_cfg, trace, sequences, n_envs
    )
    print(f"[perf] telemetry overhead: enabled/disabled rollout throughput "
          f"{telemetry_report['enabled_over_disabled']:.3f}x")

    events_per_sec = bench_engine(trace, min(n_jobs, 4000))
    print(f"[perf] engine: {events_per_sec:,.0f} events/s")

    scenario_report = bench_scenarios(min(n_jobs, 4000))
    print("[perf] scenarios: " + ", ".join(
        f"{name} {entry['events_per_sec']:,.0f} ev/s"
        for name, entry in scenario_report.items()
    ))

    # Untimed buffered collection feeds the PPO-update bench.
    buffer = TrajectoryBuffer(gamma=ppo_cfg.gamma, lam=ppo_cfg.lam)
    rollout_vectorized(agent, env_cfg, trace.max_procs, sequences, n_envs, 1,
                       buffer=buffer)

    ppo_report = bench_ppo_update(
        agent, buffer, ppo_cfg, max_obsv, env_cfg.job_features
    )
    print(f"[perf] ppo update: {ppo_report['sec_per_iter'] * 1e3:.1f} ms/iter "
          f"(batch of {ppo_report['batch_steps']} steps)")
    print(f"[perf]   policy step: dense "
          f"{ppo_report['dense_sec_per_iter'] * 1e3:.1f} ms vs sparse "
          f"{ppo_report['sparse_sec_per_iter'] * 1e3:.1f} ms "
          f"({ppo_report['sparse_speedup']:.2f}x)")

    runtime_report = bench_runtime_scaling(
        trace, eval_seqs=n_seqs, eval_len=seq_len,
    )
    er = runtime_report["eval_sequences_per_sec"]
    print(f"[perf] runtime scaling over {runtime_report['cpu_count']} cores "
          f"(workers {runtime_report['workers']}):")
    print(f"[perf]   evaluate serial {er['serial']:,.1f} seqs/s; process "
          + ", ".join(f"{w}w {v:,.1f}" for w, v in er["process"].items())
          + f" ({er['speedup_at_max_workers']:.2f}x at max workers)")

    serving_report = bench_serving(trace, max(100, min(500, n_jobs // 4)))
    print(f"[perf] serving: {serving_report['requests_per_sec']:,.0f} req/s "
          f"over the socket vs {serving_report['direct_requests_per_sec']:,.0f} "
          f"direct ({serving_report['served_over_direct']:.3f}x); decision "
          f"p50 {serving_report['decision_latency_sec']['p50'] * 1e6:,.0f} us, "
          f"p99 {serving_report['decision_latency_sec']['p99'] * 1e6:,.0f} us")

    report = {
        "scale": args.scale,
        "policy_preset": "kernel",
        "config": {
            "n_jobs": n_jobs,
            "n_sequences": n_seqs,
            "sequence_length": seq_len,
            "max_obsv_size": max_obsv,
            "n_envs": n_envs,
        },
        "rollout": {
            "vectorized_steps_per_sec": vec_steps / vec_time,
            "vectorized_steps": vec_steps,
            "phase_breakdown": phase_breakdown,
            "cpu_count": os.cpu_count(),
        },
        "engine": {"events_per_sec": events_per_sec},
        "scenarios": scenario_report,
        "ppo_update": ppo_report,
        "telemetry": telemetry_report,
        "runtime": runtime_report,
        "serving": serving_report,
        "platform": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
            "cpu_count": os.cpu_count(),
        },
    }
    merged = merge_report(args.out, args.scale, report)
    args.out.write_text(json.dumps(merged, indent=2) + "\n")
    print(f"[perf] wrote {args.out} (scales: {sorted(merged['scales'])})")
    return report


def merge_report(path: Path, scale: str, report: dict) -> dict:
    """Fold this run into the multi-scale document at ``path``.

    The document keys one report per scale preset under ``scales`` so a
    smoke run in CI never clobbers the committed tiny/paper entries.  A
    pre-PR-2 flat document (single top-level ``scale``) is migrated in
    place.
    """
    merged = {"scales": {}}
    if path.exists():
        try:
            old = json.loads(path.read_text())
        except json.JSONDecodeError:
            old = {}
        if "scales" in old:
            merged = old
        elif "scale" in old:
            merged["scales"][old["scale"]] = old
    merged["scales"][scale] = report
    return merged


if __name__ == "__main__":
    main()
