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
Sequences are pre-sampled in the parent and dispatched by index, and
per-sequence values are reassembled in sampling order — scores are
bit-identical for any worker count.  Schedulers and sequences reach each
worker once per call, through the pool's initializer (for RL policies
this is the policy weights), so each task ships a few integers; the
scenario matrix hands over every scenario's sequences once and ships
``(scenario, scheduler, sequence)`` index triples — for an RL scheduler,
groups of sequences run in lock-step, one policy forward per wave
(:func:`_cell_tasks`); a job's score does not depend on the rows scored
beside it, so no grouping can change a value.
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
from .workloads.sampler import SequenceSampler
from .workloads.swf import SWFTrace

__all__ = [
    "train",
    "evaluate",
    "compare",
    "scenario_matrix",
    "train_matrix",
    "generalization_matrix",
    "EvalResult",
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
def _install_matrix_state(schedulers, cells):
    """Everything a task needs, built once per call: ``cells[ci]`` holds
    one evaluation setting's pre-sampled sequences, cluster spec,
    backfill mode and metric name.  evaluate/compare are the one-cell
    special case of the scenario matrix, so this is the single state
    for all of them."""
    return {
        "schedulers": schedulers,
        "cells": [
            {
                "sequences": sequences,
                "cluster": cluster,
                "backfill": backfill,
                "metric_fn": metric_by_name(metric)[0],
            }
            for sequences, cluster, backfill, metric in cells
        ],
    }


def _task_runs(task) -> list[tuple[int, int]]:
    """The ``(ci, qi)`` runs a :func:`_matrix_task` task names."""
    ci, _, qi = task
    return list(zip(ci, qi)) if isinstance(ci, tuple) else [(ci, qi)]


def _matrix_task(state, task):
    """Score scheduler ``si`` on sequence ``qi`` of cell ``ci``; returns
    the list of values of the task's runs.

    ``task`` is ``(ci, si, qi)``: one run, or, for a scheduler that runs
    lock-step (:meth:`repro.schedulers.RLSchedulerPolicy.run_lockstep`),
    ``ci`` and ``qi`` are parallel tuples naming a group of runs that
    advance together.  Each run records one ``eval.cell_latency_sec``
    sample, the task's simulate+score time split evenly over its runs; in
    a pool worker the samples travel back with the task's values.
    """
    runs = _task_runs(task)
    cells = state["cells"]
    scheduler = state["schedulers"][task[1]]
    reg = _telemetry.current()
    t0 = time.perf_counter() if reg.enabled else 0.0
    settings = [
        (cells[c]["sequences"][q], cells[c]["cluster"], cells[c]["backfill"])
        for c, q in runs
    ]
    if isinstance(task[0], tuple):
        completed = scheduler.run_lockstep(settings)
    else:
        jobs, cluster, backfill = settings[0]
        completed = [run_scheduler(jobs, cluster, scheduler, backfill=backfill)]
    values = [
        float(cells[c]["metric_fn"](done, cells[c]["cluster"].n_procs))
        for (c, _), done in zip(runs, completed)
    ]
    if reg.enabled:
        hist = reg.histogram("eval.cell_latency_sec")
        share = (time.perf_counter() - t0) / len(runs)
        for _ in runs:
            hist.record(share)
    return values


#: a pool worker's matrix state, set once by :func:`_pool_init`
_pool_state: dict = {}


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


def _cell_tasks(schedulers, cells, cell_schedulers, workers, per_cell):
    """The tasks of a :func:`_run_cells` call (see :func:`_matrix_task`).

    A scheduler with ``run_lockstep`` runs in groups: one per cell when
    ``per_cell``, else its runs of the whole call in ``workers``
    contiguous chunks (one group on one worker).  Every other scheduler
    runs one ``(ci, si, qi)`` task per sequence.
    """
    tasks = []
    for si, scheduler in enumerate(schedulers):
        runs = [
            (ci, qi)
            for ci, sched_idx in enumerate(cell_schedulers) if si in sched_idx
            for qi in range(len(cells[ci][0]))
        ]
        if not hasattr(scheduler, "run_lockstep"):
            tasks.extend((ci, si, qi) for ci, qi in runs)
            continue
        if per_cell:
            groups = [[r for r in runs if r[0] == ci] for ci in range(len(cells))]
        else:
            cuts = [len(runs) * k // workers for k in range(workers + 1)]
            groups = [runs[a:b] for a, b in zip(cuts, cuts[1:])]
        tasks.extend(
            (tuple(c for c, _ in g), si, tuple(q for _, q in g))
            for g in groups if g
        )
    return tasks


def _run_cells(
    schedulers, cells, workers, cell_schedulers=None, heartbeat=None
) -> list[list[np.ndarray]]:
    """Run every (cell, scheduler, sequence) and reassemble
    ``values[ci][si]`` in sequence order.  One worker runs the tasks in a
    loop in this process; more map them over a
    :class:`ProcessPoolExecutor` of ``workers`` processes, each started
    with the same state.  A sequence's value does not depend on which
    task ran it — a lock-stepped RL run picks exactly what it picks alone
    — so the values are bit-identical for any worker count.  A failing
    task raises its own exception either way; a worker that dies raises
    :class:`concurrent.futures.process.BrokenProcessPool`.

    ``cell_schedulers`` optionally restricts each cell to a subset of the
    global scheduler list: one list of scheduler indices per cell (the
    generalization study evaluates per-scenario retargeted policy
    instances, so its cells disagree on which schedulers apply).  The
    returned ``values[ci]`` is aligned with ``cell_schedulers[ci]``;
    ``None`` keeps the historical all-schedulers-everywhere behaviour.

    ``heartbeat(ci, seconds)``, when given, is called in the parent after
    each cell's tasks finish (study progress reporting).  Tasks are then
    dispatched cell by cell, and lock-step groups never span two cells.
    """
    if cell_schedulers is None:
        cell_schedulers = [list(range(len(schedulers)))] * len(cells)
    tasks = _cell_tasks(schedulers, cells, cell_schedulers, workers,
                        per_cell=heartbeat is not None)
    batches = (
        [tasks] if heartbeat is None
        else [[t for t in tasks if _task_runs(t)[0][0] == ci]
              for ci in range(len(cells))]
    )
    state = _install_matrix_state(list(schedulers), cells)
    values: dict[tuple[int, int, int], float] = {}
    pool = None
    if workers > 1:
        pool = ProcessPoolExecutor(
            workers, initializer=_pool_init,
            initargs=(state, _telemetry.enabled()),
        )
    try:
        for ci, batch in enumerate(batches):
            t0 = time.perf_counter()
            if pool is None:
                results = [_matrix_task(state, t) for t in batch]
            else:
                reg = _telemetry.current()
                chunksize = max(1, -(-len(batch) // (4 * workers)))
                results = []
                for task_values, delta in pool.map(_pool_task, batch,
                                                   chunksize=chunksize):
                    reg.absorb(delta)
                    results.append(task_values)
            for task, task_values in zip(batch, results):
                for (c, q), value in zip(_task_runs(task), task_values):
                    values[c, task[1], q] = value
            if heartbeat is not None:
                heartbeat(ci, time.perf_counter() - t0)
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)
    return [
        [
            np.array([values[ci, si, qi] for qi in range(len(sequences))],
                     dtype=np.float64)
            for si in sched_idx
        ]
        for ci, ((sequences, *_), sched_idx)
        in enumerate(zip(cells, cell_schedulers))
    ]


# ----------------------------------------------------------------------
TraceOrScenario = "SWFTrace | str | Scenario"


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
        if trace is None:
            scenario, trace = resolve_scenario_config(config.scenario)
        else:
            scenario = get_scenario(config.scenario.name)
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


def _evaluate_matrix(
    schedulers: Sequence[Scheduler],
    trace: SWFTrace,
    metric: str,
    backfill: "bool | str",
    config: EvalConfig,
    cluster: ClusterSpec | None = None,
) -> np.ndarray:
    """Per-(scheduler, sequence) metric values, ``(S, Q)``, over
    ``config.workers`` — the one-cell case of :func:`_run_cells`.  Every
    scheduler sees the identical pre-sampled sequence list, and results
    are assembled in (scheduler, sequence) order regardless of worker
    count."""
    metric_by_name(metric)  # fail fast in the parent on unknown metrics
    cluster = cluster or ClusterSpec(trace.max_procs)
    sampler = SequenceSampler(trace, config.sequence_length, seed=config.seed)
    sequences = sampler.sample_many(config.n_sequences)
    cells = [(sequences, cluster, backfill, metric)]
    values = _run_cells(schedulers, cells, config.workers)
    return np.stack(values[0])


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
    with telemetry_run(
        config.telemetry, meta={"command": "evaluate", "metric": metric}
    ):
        matrix = _evaluate_matrix(
            [scheduler], trace, metric, backfill, config, cluster=cluster
        )
    return EvalResult(matrix[0])


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
    with telemetry_run(
        config.telemetry, meta={"command": "compare", "metric": metric}
    ):
        matrix = _evaluate_matrix(
            [s for _, s in items], trace, metric, backfill, config,
            cluster=cluster,
        )
    return {
        name: EvalResult(matrix[i]) for i, (name, _) in enumerate(items)
    }


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

    cells = []
    for scen in resolved:
        proto = scen.protocol
        cell_metric = metric or proto.metric
        metric_by_name(cell_metric)  # fail fast in the parent
        cell_config = config or proto.eval_config()
        sampler = SequenceSampler(
            scen.build_trace(n_jobs=n_jobs),
            cell_config.sequence_length,
            seed=cell_config.seed,
        )
        cells.append((
            sampler.sample_many(cell_config.n_sequences),
            scen.cluster,
            proto.backfill if backfill is None else backfill,
            cell_metric,
        ))

    eval_config = config or EvalConfig()
    with telemetry_run(
        eval_config.telemetry,
        meta={"command": "scenario_matrix", "scenarios": len(resolved)},
    ):
        values = _run_cells([s for _, s in items], cells, eval_config.workers)
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
