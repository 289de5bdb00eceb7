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

Execution runtime
-----------------
Sequences are independent simulations, so all calls fan them out through
:mod:`repro.runtime`: ``EvalConfig.runtime`` selects the backend
(``RuntimeConfig(backend="process", workers=N)`` for a process pool).
Sequences are pre-sampled in the parent and dispatched by index, and
per-sequence values are reassembled in sampling order — scores are
bit-identical for any backend and worker count.  Schedulers and sequences
are broadcast to workers once per call (for RL policies this is the
policy-weight broadcast), so each task ships a few integers; the
scenario matrix broadcasts every scenario's sequences once and ships
``(scenario, scheduler, sequence)`` index triples.
"""

from __future__ import annotations

import time
from typing import Mapping, Sequence

import numpy as np

from .config import EvalConfig
from .rl.trainer import train as _train
from .telemetry import core as _telemetry
from .telemetry.sink import telemetry_run
from .runtime import make_backend
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

    def __repr__(self) -> str:
        return f"EvalResult(mean={float(self):.6g}, std={self.std:.6g}, n={self.n})"

    def __reduce__(self):
        return (EvalResult, (self.values,))


# ----------------------------------------------------------------------
# worker-side task functions (top-level: picklable by reference)
# ----------------------------------------------------------------------
def _install_matrix_state(state, schedulers, cells):
    """One-shot broadcast of everything a worker needs: ``cells[ci]``
    holds one evaluation setting's pre-sampled sequences, cluster spec,
    backfill mode and metric name.  evaluate/compare are the one-cell
    special case of the scenario matrix, so this is the single worker
    protocol for all of them."""
    state["schedulers"] = schedulers
    state["cells"] = [
        {
            "sequences": sequences,
            "cluster": cluster,
            "backfill": backfill,
            "metric_fn": metric_by_name(metric)[0],
        }
        for sequences, cluster, backfill, metric in cells
    ]


def _matrix_task(state, task):
    """Score scheduler ``si`` on sequence ``qi`` of cell ``ci``.

    Records the full simulate+score latency into the
    ``eval.cell_latency_sec`` histogram; on a process backend the sample
    piggybacks back to the parent worker-labelled.
    """
    ci, si, qi = task
    cell = state["cells"][ci]
    reg = _telemetry.current()
    t0 = time.perf_counter() if reg.enabled else 0.0
    completed = run_scheduler(
        cell["sequences"][qi],
        cell["cluster"],
        state["schedulers"][si],
        backfill=cell["backfill"],
    )
    value = float(cell["metric_fn"](completed, cell["cluster"].n_procs))
    if reg.enabled:
        reg.histogram("eval.cell_latency_sec").record(time.perf_counter() - t0)
    return value


def _run_cells(
    schedulers, cells, runtime, cell_schedulers=None, heartbeat=None
) -> list[list[np.ndarray]]:
    """Fan every (cell, scheduler, sequence) task over ``runtime`` and
    reassemble ``values[ci][si]`` in dispatch order (bit-identical for
    any backend and worker count).

    ``cell_schedulers`` optionally restricts each cell to a subset of the
    global scheduler list: one list of scheduler indices per cell (the
    generalization study evaluates per-scenario retargeted policy
    instances, so its cells disagree on which schedulers apply).  The
    returned ``values[ci]`` is aligned with ``cell_schedulers[ci]``;
    ``None`` keeps the historical all-schedulers-everywhere behaviour.

    ``heartbeat(ci, seconds)``, when given, is called in the parent after
    each cell's tasks finish (study progress reporting).  Tasks are then
    dispatched cell-by-cell — still in the exact global task order, so
    results stay bit-identical with the single-map path.
    """
    if cell_schedulers is None:
        cell_schedulers = [list(range(len(schedulers)))] * len(cells)
    tasks = [
        (ci, si, qi)
        for ci in range(len(cells))
        for si in cell_schedulers[ci]
        for qi in range(len(cells[ci][0]))
    ]
    with make_backend(runtime) as backend:
        backend.broadcast(_install_matrix_state, list(schedulers), cells)
        if heartbeat is None:
            values = backend.map(_matrix_task, tasks)
        else:
            values = []
            for ci in range(len(cells)):
                cell_tasks = [t for t in tasks if t[0] == ci]
                t0 = time.perf_counter()
                values.extend(backend.map(_matrix_task, cell_tasks))
                heartbeat(ci, time.perf_counter() - t0)
    out: list[list[np.ndarray]] = []
    cursor = 0
    for (sequences, *_), sched_idx in zip(cells, cell_schedulers):
        row = []
        for _ in sched_idx:
            row.append(np.array(values[cursor : cursor + len(sequences)],
                                dtype=np.float64))
            cursor += len(sequences)
        out.append(row)
    return out


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
    """Per-(scheduler, sequence) metric values, ``(S, Q)``, on the
    configured runtime — the one-cell case of :func:`_run_cells`.  Every
    scheduler sees the identical pre-sampled sequence list, and results
    are assembled in (scheduler, sequence) order regardless of backend or
    worker count."""
    metric_by_name(metric)  # fail fast in the parent on unknown metrics
    cluster = cluster or ClusterSpec(trace.max_procs)
    sampler = SequenceSampler(trace, config.sequence_length, seed=config.seed)
    sequences = sampler.sample_many(config.n_sequences)
    cells = [(sequences, cluster, backfill, metric)]
    values = _run_cells(schedulers, cells, config.runtime)
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

    Every (scenario, scheduler, sequence) simulation is an independent
    task fanned over ``config.runtime`` (the PR-2 execution backend), so
    the whole matrix parallelises across workers with one broadcast.
    Per scenario, all schedulers see identical pre-sampled sequences.

    ``metric`` / ``backfill`` override every scenario's protocol when
    given; ``config`` (if given) pins the sequence count/length/seed and
    the runtime for the whole matrix, otherwise each scenario evaluates
    under its own protocol on the serial backend.  ``n_jobs`` shrinks
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
        values = _run_cells([s for _, s in items], cells, eval_config.runtime)
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
