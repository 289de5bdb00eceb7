"""High-level convenience API — the paper's evaluation protocol in four calls.

* :func:`train` — learn a policy on a trace for a metric (§V-A protocol);
* :func:`evaluate` — score one scheduler on a trace: the metric over
  ``n_sequences`` random windows of ``sequence_length`` jobs (§V-C2:
  10 × 1024 by default), with or without backfilling;
* :func:`compare` — evaluate many schedulers on the *same* windows (the
  paper: "across different scheduling algorithms, we used the same 10
  random job sequences to make fair comparisons") — one Table V/VI/X/XI
  cell per scheduler;
* :func:`scenario_matrix` — the full scenario × scheduler evaluation
  matrix over the registered scenarios of :mod:`repro.scenarios`;
* :func:`train_matrix` / :func:`generalization_matrix` — the
  cross-scenario generalization study (Table VII): train one policy per
  scenario into a checkpoint zoo, then evaluate every trained policy on
  every scenario alongside the heuristics (see :mod:`repro.study`).

Results are :class:`EvalResult` — a ``float`` equal to the mean (so all
existing numeric code keeps working) that also carries the per-sequence
values, ``std`` and ``n``, the spread the paper's tables summarise.

Scenarios
---------
Wherever these calls take a trace they also take a *scenario*: a
registered name (``evaluate(SJF(), "lublin-256-mem")``) or a
:class:`repro.scenarios.Scenario` object.  The scenario supplies the
workload, the (possibly memory-constrained) cluster, and protocol
defaults — metric, backfill and sequence sizes — any of which explicit
arguments override.  ``EvalConfig.scenario`` selects one from config
alone (``evaluate(SJF(), config=EvalConfig(scenario=ScenarioConfig(
name="hpc2n")))``).

Worker processes
----------------
Sequences are independent simulations.  ``EvalConfig.workers`` (1 by
default) runs them in a loop in this process; ``workers=N`` fans them
over a :class:`concurrent.futures.ProcessPoolExecutor` of N processes.
Every call builds *cells* (:func:`_cell`: one setting's pre-sampled
sequences, cluster, backfill mode and metric, and the schedulers scored
on it) and hands them to the one dispatcher, :func:`_run_cells`.
Schedulers and sequences reach each worker once per call, through the
pool's initializer (for RL policies this is the policy weights), so each
task ships a few integers: ``(scheduler, ((cell, sequence), ...))`` —
one run, or for an RL scheduler a group of runs in lock-step, one policy
forward per wave.  Per-sequence values are reassembled in sampling
order, and a job's score does not depend on the rows scored beside it,
so scores are bit-identical for any worker count and any grouping.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from typing import Mapping, Sequence

import numpy as np

from .config import EvalConfig
from .rl.trainer import train as _train
from .telemetry import core as _telemetry
from .telemetry.sink import telemetry_run
from .scenarios import Scenario, get_scenario, resolve_scenario_config
from .schedulers.base import Scheduler
from .sim.cluster import ClusterSpec
from .sim.metrics import metric_by_name
from .sim.simulator import run_scheduler
from .workloads.sampler import SequenceSampler, WindowError, check_window
from .workloads.swf import SWFTrace

__all__ = [
    "train",
    "evaluate",
    "compare",
    "scenario_matrix",
    "train_matrix",
    "generalization_matrix",
    "EvalResult",
    "WindowError",
]

train = _train


class EvalResult(float):
    """Mean metric over the test sequences, plus the per-sequence spread.

    Behaves exactly like ``float(mean)`` in comparisons, arithmetic and
    formatting; ``values`` / ``std`` / ``n`` expose the distribution.
    """

    values: np.ndarray

    def __new__(cls, values) -> "EvalResult":
        arr = np.asarray(values, dtype=np.float64)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("EvalResult needs a non-empty 1-D value array")
        self = super().__new__(cls, float(arr.mean()))
        self.values = arr
        return self

    @property
    def mean(self) -> float:
        return float(self)

    @property
    def std(self) -> float:
        """Population standard deviation across sequences."""
        return float(self.values.std())

    @property
    def n(self) -> int:
        return int(self.values.size)

    def to_dict(self) -> dict:
        """``{mean, std, n, values}``: one cell of a JSON artifact."""
        return {"mean": self.mean, "std": self.std, "n": self.n,
                "values": self.values.tolist()}

    def __repr__(self) -> str:
        return f"EvalResult(mean={float(self):.6g}, std={self.std:.6g}, n={self.n})"

    def __reduce__(self):
        return (EvalResult, (self.values,))


# ----------------------------------------------------------------------
# task functions (top-level: picklable by reference)
# ----------------------------------------------------------------------
def _matrix_task(state, task):
    """Score ``task = (si, runs)``: scheduler ``si`` on sequence ``qi`` of
    cell ``ci`` for each ``(ci, qi)`` in ``runs``; returns their values.

    ``state`` is ``(schedulers, cells)`` of a :func:`_run_cells` call.  A
    scheduler that runs lock-step
    (:meth:`repro.schedulers.RLSchedulerPolicy.run_lockstep`) advances its
    runs together; any other has one run per task.  Each run records one
    ``eval.cell_latency_sec`` sample, the task's simulate+score time split
    evenly over its runs; in a pool worker the samples travel back with
    the task's values.
    """
    schedulers, cells = state
    si, runs = task
    scheduler = schedulers[si]
    reg = _telemetry.current()
    t0 = time.perf_counter() if reg.enabled else 0.0
    settings = [(cells[c][0][q], cells[c][1], cells[c][2]) for c, q in runs]
    if hasattr(scheduler, "run_lockstep"):
        completed = scheduler.run_lockstep(settings)
    else:
        [(jobs, cluster, backfill)] = settings
        completed = [run_scheduler(jobs, cluster, scheduler, backfill=backfill)]
    values = [
        float(metric_by_name(cells[c][3])[0](done, cells[c][1].n_procs))
        for (c, _), done in zip(runs, completed)
    ]
    if reg.enabled:
        hist = reg.histogram("eval.cell_latency_sec")
        share = (time.perf_counter() - t0) / len(runs)
        for _ in runs:
            hist.record(share)
    return values


#: a pool worker's ``(schedulers, cells)``, set once by :func:`_pool_init`
_pool_state: tuple = ()


def _pool_init(state, telemetry_enabled):
    """Pool-worker initializer: keep the matrix state, and record into a
    fresh registry when the parent's telemetry is on.  A forked worker
    inherits a copy of the parent's registry; shipping that copy back
    would count the parent's samples twice."""
    global _pool_state
    _pool_state = state
    _telemetry.set_active(_telemetry.Telemetry() if telemetry_enabled else None)


def _pool_task(task):
    """One task in a pool worker: its values and the telemetry it recorded
    (``None`` when there is none)."""
    values = _matrix_task(_pool_state, task)
    reg = _telemetry.current()
    return values, reg.drain() if reg.has_data() else None


def _run_cells(cells, workers, heartbeat=None) -> list[list[np.ndarray]]:
    """Run every (cell, scheduler, sequence) and return ``values[ci][k]``,
    scheduler ``k`` of cell ``ci`` over the cell's sequences in order.

    A cell is ``(sequences, cluster, backfill, metric, schedulers)``
    (:func:`_cell`); one scheduler object named by several cells is one
    scheduler.  Every task is ``(si, runs)`` (:func:`_matrix_task`): a
    scheduler with ``run_lockstep`` takes its runs of the whole call in
    ``workers`` contiguous groups, any other one run per task.  Tasks run
    in the order of the cell their first run is in: in a loop in this
    process on one worker, else through one ``map`` over a
    :class:`ProcessPoolExecutor` of ``workers`` processes, each started
    with the same state.  A sequence's value does not depend on which
    task ran it — a lock-stepped RL run picks exactly what it picks alone
    — so the values are bit-identical for any worker count.  A failing
    task raises its own exception either way; a worker that dies raises
    :class:`concurrent.futures.process.BrokenProcessPool`.

    ``heartbeat(ci, seconds)``, when given, is called in the parent, in
    cell order, once the last task naming cell ``ci`` has been consumed;
    ``seconds`` is the time since the previous call (on one worker, the
    time the cell's tasks took).
    """
    schedulers = list({id(s): s for *_, named in cells for s in named}.values())
    slot = {id(s): si for si, s in enumerate(schedulers)}
    tasks = []
    for si, scheduler in enumerate(schedulers):
        runs = [
            (ci, qi)
            for ci, (sequences, *_, named) in enumerate(cells)
            if any(s is scheduler for s in named)
            for qi in range(len(sequences))
        ]
        if hasattr(scheduler, "run_lockstep"):
            cuts = [len(runs) * k // workers for k in range(workers + 1)]
            tasks.extend((si, tuple(runs[a:b]))
                         for a, b in zip(cuts, cuts[1:]) if a < b)
        else:
            tasks.extend((si, (run,)) for run in runs)
    tasks.sort(key=lambda task: task[1][0][0])
    last = [-1] * len(cells)
    for t, (_, runs) in enumerate(tasks):
        for ci, _ in runs:
            last[ci] = t
    state = (schedulers, cells)
    values: dict[tuple[int, int, int], float] = {}
    pool = None
    try:
        if workers > 1:
            pool = ProcessPoolExecutor(
                workers, initializer=_pool_init,
                initargs=(state, _telemetry.enabled()),
            )
            chunksize = max(1, -(-len(tasks) // (4 * workers)))
            results = pool.map(_pool_task, tasks, chunksize=chunksize)
        else:
            results = ((_matrix_task(state, task), None) for task in tasks)
        reg = _telemetry.current()
        beat, t0 = 0, time.perf_counter()
        for t, ((si, runs), (task_values, delta)) in enumerate(
            zip(tasks, results)
        ):
            reg.absorb(delta)
            for (ci, qi), value in zip(runs, task_values):
                values[ci, si, qi] = value
            while heartbeat and beat < len(cells) and last[beat] <= t:
                now = time.perf_counter()
                heartbeat(beat, now - t0)
                beat, t0 = beat + 1, now
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)
    return [
        [
            np.array([values[ci, slot[id(s)], qi] for qi in range(len(sequences))],
                     dtype=np.float64)
            for s in named
        ]
        for ci, (sequences, *_, named) in enumerate(cells)
    ]


def _cell(schedulers, trace, cluster, backfill, metric, config, name=None):
    """One evaluation cell, ``(sequences, cluster, backfill, metric,
    schedulers)``: ``config.n_sequences`` windows of
    ``config.sequence_length`` jobs sampled from ``trace`` at
    ``config.seed``, the same windows for every scheduler.  An unknown
    metric, or a window longer than the trace (:class:`WindowError`,
    naming the cell ``name`` or else the trace), fails here in the parent,
    before anything runs."""
    metric_by_name(metric)
    check_window(trace, config.sequence_length, "evaluation", name)
    sampler = SequenceSampler(trace, config.sequence_length, seed=config.seed)
    sequences = sampler.sample_many(config.n_sequences)
    return sequences, cluster, backfill, metric, list(schedulers)


# ----------------------------------------------------------------------
def _resolve_setting(
    trace,
    metric: str | None,
    backfill,
    config: EvalConfig | None,
) -> tuple[SWFTrace, ClusterSpec, str, "bool | str", EvalConfig]:
    """Normalise the (trace-or-scenario, metric, backfill, config) surface.

    Scenario protocol values fill whatever the caller left unset; a plain
    trace keeps the historical defaults (bsld, no backfill, EvalConfig()).
    An explicitly passed trace always wins: combined with a
    ``config.scenario`` it is evaluated on the scenario's cluster under
    the scenario's protocol (the :class:`repro.rl.trainer.Trainer`
    precedence), never silently replaced by the scenario's workload.
    """
    scenario = None
    if isinstance(trace, (str, Scenario)):
        scenario = get_scenario(trace)
        trace = None
    if scenario is None and config is not None and config.scenario is not None:
        scenario, trace = resolve_scenario_config(config.scenario, trace)
    if scenario is not None:
        if trace is None:
            trace = scenario.build_trace()
        cluster = scenario.cluster
        metric = metric or scenario.protocol.metric
        backfill = scenario.protocol.backfill if backfill is None else backfill
        config = config or scenario.protocol.eval_config()
    else:
        if trace is None:
            raise ValueError(
                "pass a trace, a scenario name/object, or a config with "
                "a ScenarioConfig"
            )
        cluster = ClusterSpec(trace.max_procs)
        metric = metric or "bsld"
        backfill = False if backfill is None else backfill
        config = config or EvalConfig()
    return trace, cluster, metric, backfill, config


def evaluate(
    scheduler: Scheduler,
    trace: "SWFTrace | str | Scenario" = None,
    metric: str | None = None,
    backfill: "bool | str | None" = None,
    config: EvalConfig | None = None,
) -> EvalResult:
    """Metric of ``scheduler`` over seeded random test sequences.

    ``trace`` is an :class:`SWFTrace`, a registered scenario name, or a
    :class:`repro.scenarios.Scenario`; scenario protocol defaults apply
    to any of ``metric``/``backfill``/``config`` left unset.  Returns an
    :class:`EvalResult`: the mean as a float, with the per-sequence
    values and standard deviation attached.
    """
    trace, cluster, metric, backfill, config = _resolve_setting(
        trace, metric, backfill, config
    )
    cell = _cell([scheduler], trace, cluster, backfill, metric, config)
    with telemetry_run(
        config.telemetry, meta={"command": "evaluate", "metric": metric}
    ):
        [values] = _run_cells([cell], config.workers)[0]
    return EvalResult(values)


def _named_schedulers(
    schedulers: Sequence[Scheduler] | Mapping[str, Scheduler],
) -> list[tuple[str, Scheduler]]:
    if isinstance(schedulers, Mapping):
        items = list(schedulers.items())
    else:
        items = [(s.name, s) for s in schedulers]
    if len({name for name, _ in items}) != len(items):
        raise ValueError("scheduler names must be unique")
    return items


def compare(
    schedulers: Sequence[Scheduler] | Mapping[str, Scheduler],
    trace: "SWFTrace | str | Scenario" = None,
    metric: str | None = None,
    backfill: "bool | str | None" = None,
    config: EvalConfig | None = None,
) -> dict[str, EvalResult]:
    """Evaluate several schedulers on identical sequences; returns
    ``{scheduler name: EvalResult}`` in input order.  Accepts scenarios
    exactly as :func:`evaluate` does."""
    trace, cluster, metric, backfill, config = _resolve_setting(
        trace, metric, backfill, config
    )
    items = _named_schedulers(schedulers)
    cell = _cell([s for _, s in items], trace, cluster, backfill, metric,
                 config)
    with telemetry_run(
        config.telemetry, meta={"command": "compare", "metric": metric}
    ):
        [values] = _run_cells([cell], config.workers)
    return {name: EvalResult(v) for (name, _), v in zip(items, values)}


def scenario_matrix(
    schedulers: Sequence[Scheduler] | Mapping[str, Scheduler],
    scenarios: Sequence["str | Scenario"],
    metric: str | None = None,
    backfill: "bool | str | None" = None,
    config: EvalConfig | None = None,
    n_jobs: int | None = None,
) -> dict[str, dict[str, EvalResult]]:
    """The scenario × scheduler evaluation matrix.

    Every (scenario, scheduler, sequence) simulation is independent and
    fanned over ``config.workers`` processes (an RL scheduler's in
    lock-step groups, see the module docstring), so the whole matrix
    parallelises across workers, each handed the state once.  Per
    scenario, all schedulers see identical pre-sampled sequences.

    ``metric`` / ``backfill`` override every scenario's protocol when
    given; ``config`` (if given) pins the sequence count/length/seed and
    the worker count for the whole matrix, otherwise each scenario
    evaluates under its own protocol in this process.  ``n_jobs`` shrinks
    every scenario's workload (smoke runs).

    Returns ``{scenario name: {scheduler name: EvalResult}}`` in input
    order — the artifact the CLI ``compare`` command serializes.
    """
    resolved = [get_scenario(s) for s in scenarios]
    if len({s.name for s in resolved}) != len(resolved):
        raise ValueError("scenario names must be unique")
    if not resolved:
        raise ValueError("need at least one scenario")
    items = _named_schedulers(schedulers)
    cells = [
        _cell(
            [s for _, s in items],
            scen.build_trace(n_jobs=n_jobs),
            scen.cluster,
            scen.protocol.backfill if backfill is None else backfill,
            metric or scen.protocol.metric,
            config or scen.protocol.eval_config(),
            f"scenario {scen.name}",
        )
        for scen in resolved
    ]
    eval_config = config or EvalConfig()
    with telemetry_run(
        eval_config.telemetry,
        meta={"command": "scenario_matrix", "scenarios": len(resolved)},
    ):
        values = _run_cells(cells, eval_config.workers)
    return {
        scen.name: {
            name: EvalResult(values[ci][si])
            for si, (name, _) in enumerate(items)
        }
        for ci, scen in enumerate(resolved)
    }


# The generalization study (train one policy per scenario, evaluate every
# policy on every scenario) lives in repro.study; re-exported here so the
# whole evaluation surface stays one import.  Imported last — study code
# calls back into this module's internals at run time, not import time.
from .study import generalization_matrix, train_matrix  # noqa: E402
