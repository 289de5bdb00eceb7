"""The four benchmark workloads and the one table that sizes them.

Every workload follows the same life cycle, driven by ``run.py``::

    wl = Workload(seed)
    wl.setup()            # inputs from the seed + system ready (timed as setup_s)
    wl.prepare_unit()     # untimed: build the next unit's inputs
    wl.run_unit()         # TIMED: only calls into the program
    wl.check_unit()       # untimed: verify that unit's outputs, fold the digest
    ...
    wl.teardown()         # untimed: final checks, release everything

``--seed`` reaches input generation only (the trace, the scenario
workloads and sampled windows, the request stream); the program under
test keeps its own default seeds and receives the generated inputs.

Config fields are set through :func:`prefer`, which drops fields a
dataclass no longer declares, so the harness keeps running while the
roadmap deletes knobs (``update_path``, ``rollout_mode``, ``transport``).
Only ``update_path="sparse"`` is a planned-for-deletion knob we need: the
dense update cannot finish a unit in budget.  Everything else stays at
the library default, so a matrix-collapse PR is measured as users meet it.
"""

from __future__ import annotations

import asyncio
import contextlib
import dataclasses
import hashlib
import io
import math
import os
import subprocess
import sys
import threading
import time
from collections import deque
from pathlib import Path
from time import perf_counter

import numpy as np

import repro.api as api
import repro.workloads as workloads_pkg
from repro.config import (
    EnvConfig,
    EvalConfig,
    PPOConfig,
    ServeConfig,
    TenantConfig,
    TrainConfig,
)
from repro.rl.trainer import Trainer
from repro.scenarios import get_scenario
from repro.schedulers import RLSchedulerPolicy, make_scheduler
from repro.serve.client import ServeClient, ServeError
from repro.serve.protocol import PROTOCOL_VERSION, job_to_wire
from repro.serve.server import ServeDaemon
from repro.serve.service import SchedulerRouter
from repro.workloads.job import Job

from .stats import median, percentile, tail_percentile

__all__ = ["SIZES", "WORKLOADS", "prefer", "FIXTURE", "CACHE_DIR"]

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
FIXTURE = HERE / "data" / "policy_kernel_m128.npz"
CACHE_DIR = ROOT / "benchmarks" / ".cache" / "e2e"

#: checked units (warm-up first) folded into ``result_digest``; the number
#: of timed units depends on the host's speed, the digest must not
DIGEST_UNITS = 3

#: The one place that sizes the workloads.  Unit times are for the 2-core
#: VM this was written on; README.md has the measurements behind them.
SIZES = {
    # 768 steps/epoch, paper PPO 80/80 iterations: ~1.0 s/epoch, update
    # ~93 %.  Many short trajectories rather than few long ones: the
    # sparse update's cost follows the number of waiting jobs per step,
    # which 8x128 let swing 1.7-5.0 s between epochs of one run.
    "train-update-bound": dict(
        trace="Lublin-1", trace_jobs=10_000, max_obsv_size=128,
        trajectories=24, length=32, pi_iters=80, v_iters=80, warmup=1,
    ),
    # 8192 steps/epoch, 2/2 iterations: ~0.95 s/epoch, rollout ~62 %.
    "train-rollout-bound": dict(
        trace="Lublin-1", trace_jobs=10_000, max_obsv_size=128,
        trajectories=64, length=128, n_envs=32, pi_iters=2, v_iters=2,
        warmup=1,
    ),
    # 34 cells x 4 sequences x 256 jobs per pass: ~1.1 s/pass.  Several
    # short windows rather than one long one: all schedulers of a scenario
    # share its windows, and a pass resting on 3 windows made the work
    # swing 30 % with the seed.  n_jobs keeps trace generation (10 builds
    # per pass) a minor share.
    "eval-matrix": dict(
        scenarios=("lublin-256", "bursty-sdsc", "lublin-256-mem"),
        rl_scenarios=("lublin-256", "bursty-sdsc"),
        heuristics=("FCFS", "SJF", "WFP3", "UNICEP", "F1"),
        backfill=(False, "easy"),
        n_sequences=4, sequence_length=256, n_jobs=2048,
    ),
    # 2000 requests per unit (~0.35 s); of every 10 requests 8 submit and
    # 2 ask the status of a recently submitted job; one stats per 1000.
    "serve-mixed": dict(
        trace="Lublin-1", trace_jobs=10_000, n_procs=256, backfill="easy",
        tenants=(("fcfs", "FCFS"), ("sjf", "SJF"), ("rl", None)),
        unit_requests=2000, warmup_requests=500, status_slots=(4, 9),
        stats_every=1000, status_lag=4, digest_after_units=2,
        direct_units=3,
    ),
}


def prefer(cls, **fields):
    """``cls(**fields)`` minus the fields ``cls`` no longer declares."""
    declared = {f.name for f in dataclasses.fields(cls)}
    return cls(**{k: v for k, v in fields.items() if k in declared})


class Workload:
    """Life cycle and failure accounting shared by the four workloads."""

    name = ""
    unit = ""           # what one timed unit is
    work_unit = ""      # what ``work_per_unit`` counts
    #: time goes to the interpreter rather than to NumPy kernels: selects
    #: the host probe that scales this workload's times (stats.py)
    interpreter_bound = False
    #: peak resident set (MiB) when it is not this process's own
    peak_rss_mb = None

    def __init__(self, seed: int):
        self.seed = seed
        self.sizes = SIZES[self.name]
        self.attempted = 0
        self.failed = 0
        self._sha = hashlib.sha256()
        self._fold_left = DIGEST_UNITS

    @property
    def work_per_unit(self) -> int:
        raise NotImplementedError

    def setup(self) -> None:
        raise NotImplementedError

    def prepare_unit(self) -> None:
        """Untimed: build the next unit's inputs."""

    def run_unit(self) -> None:
        raise NotImplementedError

    def check_unit(self) -> None:
        raise NotImplementedError

    def teardown(self) -> None:
        """Untimed: final checks; release processes, sockets, pools."""

    def for_trace(self) -> "Workload":
        """The instance the traced units run on (set up, wrappers live)."""
        return self

    def info(self) -> dict[str, float]:
        """Named numbers beyond timing (counts that explain a timing)."""
        return {}

    def untraced_extras(self, unit_s: float) -> dict[str, float]:
        """Named numbers a traced run measures before the wrappers go in;
        ``unit_s`` is the untraced median unit time of that run."""
        return {}

    def derive_layers(self, table: dict, tracer) -> None:
        """Fill the layers no wrapper reaches into ``table`` (in place)."""

    def fail(self, why: str) -> None:
        self.failed += 1
        print(f"check failed [{self.name}]: {why}", file=sys.stderr)

    def fold(self, *values) -> None:
        """Add one checked unit's results to ``result_digest``."""
        if self._fold_left > 0:
            self._fold_left -= 1
            self._sha.update(repr(values).encode())

    @property
    def result_digest(self) -> str:
        return self._sha.hexdigest()


# ----------------------------------------------------------------------
# train-update-bound / train-rollout-bound
# ----------------------------------------------------------------------
class TrainWorkload(Workload):
    """``Trainer.run_epoch`` on a Lublin-1 trace generated from the seed."""

    unit = "epoch"
    work_unit = "env steps"

    @property
    def work_per_unit(self) -> int:
        return self.sizes["trajectories"] * self.sizes["length"]

    def setup(self) -> None:
        s = self.sizes
        trace = workloads_pkg.load_trace(
            s["trace"], n_jobs=s["trace_jobs"], seed=self.seed
        )
        train_fields = dict(
            epochs=10**6,  # never reached: run_epoch is driven from here
            trajectories_per_epoch=s["trajectories"],
            trajectory_length=s["length"],
            # n_envs only where the table sets it: library default otherwise
            **{k: s[k] for k in ("n_envs",) if k in s},
        )
        self.trainer = Trainer(
            trace,
            metric="bsld",
            policy_preset="kernel",
            env_config=prefer(EnvConfig, max_obsv_size=s["max_obsv_size"]),
            ppo_config=prefer(
                PPOConfig, update_path="sparse",
                train_pi_iters=s["pi_iters"], train_v_iters=s["v_iters"],
            ),
            train_config=prefer(TrainConfig, **train_fields),
        )
        self._watch_update_batch()
        self.epoch = 0
        self.pi_iters: list[int] = []
        for _ in range(s["warmup"]):
            self.run_unit()
            self.check_unit()
        self.pi_iters.clear()

    def _watch_update_batch(self) -> None:
        """Record the size of the batch each epoch hands to the update —
        the only outside view of how many steps an epoch consumed.  The
        class attribute is looked up per call so the traced run's wrapper
        around ``PPOAgent.update`` still sees every call."""
        self.steps = None
        agent = getattr(self.trainer, "agent", None)
        if agent is None or not hasattr(type(agent), "update"):
            print("warning: no agent.update to watch; the steps-per-epoch "
                  "check is skipped", file=sys.stderr)
            return
        self.steps = 0

        def update(data):
            self.steps = len(data["actions"])
            return type(agent).update(agent, data)

        agent.update = update

    def run_unit(self) -> None:
        self.record = self.trainer.run_epoch(self.epoch)
        self.epoch += 1

    def check_unit(self) -> None:
        self.attempted += 1
        stats = self.record.stats
        if self.steps is not None and self.steps != self.work_per_unit:
            self.fail(f"epoch {self.epoch - 1} consumed {self.steps} steps, "
                      f"expected {self.work_per_unit}")
        values = (stats.policy_loss, stats.value_loss, stats.kl,
                  self.record.mean_reward)
        if not all(math.isfinite(v) for v in values):
            self.fail(f"epoch {self.epoch - 1} has non-finite stats {values}")
        self.pi_iters.append(stats.pi_iters_run)
        self.fold(self.record.mean_reward, stats.kl, stats.pi_iters_run)

    def teardown(self) -> None:
        self.trainer.close()

    def info(self) -> dict[str, float]:
        return {"rl.ppo.pi_iters": float(np.mean(self.pi_iters))}


class TrainUpdateBound(TrainWorkload):
    name = "train-update-bound"


class TrainRolloutBound(TrainWorkload):
    name = "train-rollout-bound"


# ----------------------------------------------------------------------
# eval-matrix
# ----------------------------------------------------------------------
class EvalMatrix(Workload):
    """Identical passes of the scenario x backfill x scheduler matrix."""

    name = "eval-matrix"
    unit = "matrix pass"
    work_unit = "simulated jobs"
    interpreter_bound = True

    @property
    def n_cells(self) -> int:
        s = self.sizes
        per_mode = (len(s["scenarios"]) * len(s["heuristics"])
                    + len(s["rl_scenarios"]))
        return per_mode * len(s["backfill"])

    @property
    def work_per_unit(self) -> int:
        s = self.sizes
        return self.n_cells * s["n_sequences"] * s["sequence_length"]

    def _scenario(self, name: str):
        """The registered scenario with its workload generated from the
        benchmark seed (scenarios pin their own seed otherwise)."""
        scenario = get_scenario(name)
        return dataclasses.replace(
            scenario,
            workload=dataclasses.replace(scenario.workload, seed=self.seed),
        )

    def setup(self) -> None:
        s = self.sizes
        self.rl = RLSchedulerPolicy.load(FIXTURE)
        self.heuristics = [make_scheduler(n) for n in s["heuristics"]]
        self.scenarios = [self._scenario(n) for n in s["scenarios"]]
        self.rl_scenarios = [self._scenario(n) for n in s["rl_scenarios"]]
        self.config = prefer(
            EvalConfig, n_sequences=s["n_sequences"],
            sequence_length=s["sequence_length"], seed=self.seed,
        )
        self.first_digest = None
        self.run_unit()
        self.check_unit()

    def run_unit(self) -> None:
        s = self.sizes
        self.matrices = []
        for backfill in s["backfill"]:
            for schedulers, scenarios in (
                (self.heuristics, self.scenarios),
                ([self.rl], self.rl_scenarios),
            ):
                self.matrices.append(api.scenario_matrix(
                    schedulers, scenarios, backfill=backfill,
                    config=self.config, n_jobs=s["n_jobs"],
                ))

    def check_unit(self) -> None:
        n_sequences = self.sizes["n_sequences"]
        cells = [
            (scenario, scheduler, result)
            for matrix in self.matrices
            for scenario, row in matrix.items()
            for scheduler, result in row.items()
        ]
        self.attempted += self.n_cells
        if len(cells) != self.n_cells:
            self.fail(f"pass produced {len(cells)} cells, "
                      f"expected {self.n_cells}")
        sha = hashlib.sha256()
        for scenario, scheduler, result in cells:
            values = np.asarray(result.values)
            if result.n != n_sequences or not np.isfinite(values).all():
                self.fail(f"cell {scenario}/{scheduler}: n={result.n}, "
                          f"values={values}")
            sha.update(repr((scenario, scheduler, values.tolist())).encode())
        digest = sha.hexdigest()
        if self.first_digest is None:
            self.first_digest = digest
        elif digest != self.first_digest:
            self.fail("pass digest differs from the first pass")
        self.fold(digest)


# ----------------------------------------------------------------------
# serve-mixed
# ----------------------------------------------------------------------
class RequestStream:
    """The deterministic closed-loop request mix, generated from a trace.

    Request ``i`` goes to tenant ``i mod n``.  Each tenant walks the trace
    from its own offset and wraps around with shifted submit times, so the
    stream never runs out however fast the host is.  Requests are
    ``(op, tenant, argument)``: a :class:`Job` to submit, a job id whose
    status to ask, or ``None`` for stats.
    """

    def __init__(self, trace, tenants: list[str], sizes: dict):
        self.tenants = tenants
        self.sizes = sizes
        jobs = sorted(trace.jobs, key=lambda j: (j.submit_time, j.job_id))
        n = len(jobs)
        submit = np.array([j.submit_time for j in jobs])
        gaps = np.diff(submit, append=submit[-1] + np.diff(submit).mean())
        self._period = float(gaps.sum())
        self._jobs: dict[str, list[Job]] = {}
        self._offsets: dict[str, np.ndarray] = {}
        for k, tenant in enumerate(tenants):
            start = k * n // len(tenants)
            order = list(range(start, n)) + list(range(start))
            self._jobs[tenant] = [jobs[i] for i in order]
            rolled = gaps[order]
            self._offsets[tenant] = np.concatenate([[0.0], np.cumsum(rolled)[:-1]])
        self._cursor = {tenant: 0 for tenant in tenants}
        self._recent = {tenant: deque(maxlen=sizes["status_lag"])
                        for tenant in tenants}
        self._index = 0

    def _next_job(self, tenant: str) -> Job:
        position = self._cursor[tenant]
        self._cursor[tenant] = position + 1
        jobs = self._jobs[tenant]
        lap, at = divmod(position, len(jobs))
        source = jobs[at]
        return Job(
            job_id=position,
            submit_time=lap * self._period + float(self._offsets[tenant][at]),
            run_time=source.run_time,
            requested_procs=source.requested_procs,
            requested_time=source.requested_time,
            user_id=source.user_id,
        )

    def take(self, count: int) -> list[tuple[str, str, object]]:
        s = self.sizes
        requests = []
        for _ in range(count):
            i = self._index
            self._index = i + 1
            tenant = self.tenants[i % len(self.tenants)]
            recent = self._recent[tenant]
            if (i + 1) % s["stats_every"] == 0:
                requests.append(("stats", tenant, None))
            elif i % 10 in s["status_slots"] and recent:
                requests.append(("status", tenant, recent[0]))
            else:
                job = self._next_job(tenant)
                recent.append(job.job_id)
                requests.append(("submit", tenant, job))
        return requests


class ServeMixed(Workload):
    """Closed loop, one request in flight, against ``repro serve``.

    The daemon runs in its own process (two processes on a two-core box);
    ``in_process=True`` hosts it on a thread instead so the tracer's
    wrappers can reach it — that variant's absolute times are not
    comparable with the subprocess one and only its shares are reported.
    """

    name = "serve-mixed"
    unit = "request batch"
    work_unit = "requests"
    interpreter_bound = True

    def __init__(self, seed: int, in_process: bool = False):
        super().__init__(seed)
        self.in_process = in_process
        self.tenants = [name for name, _ in self.sizes["tenants"]]
        self.latency: dict[str, list[float]] = {
            "submit": [], "status": [], "stats": []
        }
        self.decisions = 0
        self.units_run = 0
        self.proc = None
        self.thread = None

    @property
    def work_per_unit(self) -> int:
        return self.sizes["unit_requests"]

    # -- daemon ---------------------------------------------------------
    def _tenant_configs(self) -> tuple:
        s = self.sizes
        return tuple(
            prefer(
                TenantConfig, name=name, scheduler=scheduler or "RL",
                policy_path=None if scheduler else str(FIXTURE),
                n_procs=s["n_procs"], backfill=s["backfill"],
            )
            for name, scheduler in s["tenants"]
        )

    def _spawn(self) -> tuple[str, int]:
        s = self.sizes
        command = [sys.executable, "-m", "repro", "serve", "--port", "0"]
        for name, scheduler in s["tenants"]:
            command += ["--tenant", ":".join(
                (name, scheduler or str(FIXTURE), str(s["n_procs"]),
                 s["backfill"])
            )]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
        )
        CACHE_DIR.mkdir(parents=True, exist_ok=True)
        self.log_path = CACHE_DIR / "serve-daemon.log"
        with open(self.log_path, "w") as log:
            self.proc = subprocess.Popen(
                command, stdout=subprocess.PIPE, stderr=log, env=env,
                text=True, cwd=ROOT,
            )
        line = self.proc.stdout.readline()
        if "listening on" not in line:
            self.proc.kill()
            self.proc.wait()
            raise RuntimeError(
                "serve daemon did not come up:\n" + self.log_path.read_text()
            )
        host, _, port = line.split()[-1].rpartition(":")
        return host, int(port)

    def _host_on_thread(self) -> tuple[str, int]:
        daemon = ServeDaemon(prefer(
            ServeConfig, host="127.0.0.1", port=0,
            tenants=self._tenant_configs(),
        ))
        self.exit_code = None

        def run() -> None:
            self.exit_code = asyncio.run(daemon.run_async())

        self.thread = threading.Thread(target=run, daemon=True)
        # the daemon prints its readiness line; keep it off our stdout
        with contextlib.redirect_stdout(io.StringIO()):
            self.thread.start()
            deadline = time.monotonic() + 30
            while daemon.address is None:
                if not self.thread.is_alive() or time.monotonic() > deadline:
                    raise RuntimeError("in-process serve daemon did not bind")
                time.sleep(0.005)
        return daemon.address

    # -- life cycle -----------------------------------------------------
    def _share_one_cpu(self) -> None:
        """Pin this process — and the daemon it is about to start — to
        one CPU.  With one request in flight client and daemon never run
        at the same time, so nothing is lost; what goes away is the
        cross-CPU wake-up on every message, which on a shared VM costs
        whatever the hypervisor takes to schedule the other vCPU (the
        same probe reading went with unit times 1.6x apart), and the
        host probe now runs on the very CPU the workload uses."""
        self._affinity = None
        if hasattr(os, "sched_setaffinity"):
            self._affinity = os.sched_getaffinity(0)
            os.sched_setaffinity(0, {min(self._affinity)})

    def setup(self) -> None:
        s = self.sizes
        self.trace = workloads_pkg.load_trace(
            s["trace"], n_jobs=s["trace_jobs"], seed=self.seed
        )
        self.stream = RequestStream(self.trace, self.tenants, s)
        self._share_one_cpu()
        host, port = (self._host_on_thread() if self.in_process
                      else self._spawn())
        self.client = ServeClient(host, port)
        self.requests = self.stream.take(s["warmup_requests"])
        self.run_unit()
        self.attempted += len(self.requests)
        for samples in self.latency.values():
            samples.clear()
        self.decisions = 0

    def prepare_unit(self) -> None:
        self.requests = self.stream.take(self.sizes["unit_requests"])

    def run_unit(self) -> None:
        client = self.client
        submit, status, stats = (self.latency[k]
                                 for k in ("submit", "status", "stats"))
        for op, tenant, argument in self.requests:
            t0 = perf_counter()
            try:
                if op == "submit":
                    reply = client.submit(argument, tenant=tenant)
                    submit.append(perf_counter() - t0)
                    self.decisions += reply["decisions"]
                elif op == "status":
                    client.status(argument, tenant=tenant)
                    status.append(perf_counter() - t0)
                else:
                    client.stats(tenant=tenant)
                    stats.append(perf_counter() - t0)
            except ServeError as exc:
                # a refused or failed request has no latency: it is
                # missing from every latency metric and counted as failed
                self.fail(f"{op} on {tenant}: {exc}")

    def check_unit(self) -> None:
        self.attempted += len(self.requests)
        self.units_run += 1
        if self.units_run == self.sizes["digest_after_units"]:
            for tenant in self.tenants:
                stats = self.client.stats(tenant=tenant)
                self.fold(tenant, *(stats[k] for k in (
                    "submitted", "started", "finished", "decisions", "now"
                )))

    def teardown(self) -> None:
        for tenant in self.tenants:
            self.attempted += 1
            final = self.client.drain(tenant=tenant)
            if final["finished"] != final["submitted"]:
                self.fail(f"tenant {tenant} drained with {final['finished']} "
                          f"of {final['submitted']} jobs finished")
        if self.proc is not None:
            self.peak_rss_mb = _vm_hwm_mb(self.proc.pid)
        # The stopping connection is the only one open: the daemon logs a
        # CancelledError traceback when it stops under another live one.
        self.attempted += 1
        try:
            self.client.drain(stop=True)
        except ServeError as exc:
            self.fail(f"drain stop: {exc}")
        self.client.close()
        if self.proc is not None:
            try:
                code = self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                code = self.proc.wait()
            self.proc.stdout.close()
            if code != 0:
                self.fail(f"daemon exited with code {code}")
            if "Traceback" in self.log_path.read_text():
                self.fail(f"daemon logged a traceback, see {self.log_path}")
        else:
            self.thread.join(timeout=30)
            if self.thread.is_alive() or self.exit_code != 0:
                self.fail(f"in-process daemon ended with {self.exit_code}")
        if self._affinity is not None:
            os.sched_setaffinity(0, self._affinity)

    def for_trace(self) -> "ServeMixed":
        traced = ServeMixed(self.seed, in_process=True)
        traced.setup()
        return traced

    # -- numbers --------------------------------------------------------
    def info(self) -> dict[str, float]:
        submit = sorted(self.latency["submit"])
        status = sorted(self.latency["status"])
        tail = tail_percentile(len(submit))
        if tail is None or tail < 0.99:
            print(f"warning: {len(submit)} submit samples leave fewer than "
                  "ten beyond p99", file=sys.stderr)
        return {
            "serve.submit_p50_us": percentile(submit, 0.5) * 1e6,
            "serve.submit_p99_us": percentile(submit, 0.99) * 1e6,
            "serve.status_p50_us": percentile(status, 0.5) * 1e6,
            "serve.decisions_per_submit": self.decisions / len(submit),
        }

    def untraced_extras(self, unit_s: float) -> dict[str, float]:
        direct = self.direct_req_per_s()
        return {
            "serve.direct_req_per_s": direct,
            "serve.served_over_direct": self.work_per_unit / unit_s / direct,
        }

    def derive_layers(self, table: dict, tracer) -> None:
        """``serve.server``: what is left of a round trip.

        With one request in flight the client thread is off-CPU exactly
        while the daemon works, so its root spans' ``wall - cpu``
        (``tracer.wait_s``) is the whole server side of the round trip.
        Removing the daemon thread's own spans (``tracer.side_s``:
        decode, dispatch, encode — already attributed to their layers)
        leaves what no wrapper reaches: socket send/receive, the asyncio
        loop, ``writer.drain()`` and the thread hand-off.  The same wait
        comes out of ``serve.client`` so the shares still sum to one.
        """
        client = table.get("serve.client")
        if client is None:
            table["serve.server"] = None
            return
        client["self_s"] -= tracer.wait_s
        table["serve.server"] = {
            "self_s": max(tracer.wait_s - tracer.side_s, 0.0),
            "calls": self.units_run * self.work_per_unit,
        }

    def direct_req_per_s(self) -> float:
        """The same request stream through ``SchedulerRouter.dispatch``:
        no socket, no JSON — what the engine and policies alone sustain."""
        s = self.sizes
        stream = RequestStream(self.trace, self.tenants, s)
        router = SchedulerRouter(prefer(
            ServeConfig, port=0, tenants=self._tenant_configs()
        ))

        def messages(count: int) -> list[dict]:
            out = []
            for op, tenant, argument in stream.take(count):
                message = {"v": PROTOCOL_VERSION, "op": op, "tenant": tenant}
                if op == "submit":
                    message["job"] = job_to_wire(argument)
                elif op == "status":
                    message["job_id"] = argument
                out.append(message)
            return out

        for message in messages(s["warmup_requests"]):
            router.dispatch(message)
        rates = []
        for _ in range(s["direct_units"]):
            batch = messages(s["unit_requests"])
            t0 = perf_counter()
            for message in batch:
                router.dispatch(message)
            rates.append(len(batch) / (perf_counter() - t0))
        return median(rates)


def _vm_hwm_mb(pid: int) -> float | None:
    """Peak resident set of another process, from procfs (MiB)."""
    try:
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    except OSError:
        pass
    return None


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls
    for cls in (TrainUpdateBound, TrainRolloutBound, EvalMatrix, ServeMixed)
}
