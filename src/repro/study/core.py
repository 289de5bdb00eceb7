"""The cross-scenario generalization study — the paper's Table VII.

The paper's hardest evaluation question is *generalization*: how does a
policy trained on one workload × cluster setting perform on every other
setting?  This module orchestrates the answer end to end:

:func:`train_matrix`
    one :class:`~repro.rl.Trainer` run per scenario, each
    checkpointed into a *policy zoo* directory as ``<scenario>.npz``
    (:meth:`~repro.rl.TrainingResult.save` — weights, best-epoch
    snapshot, training curve, provenance).  The zoo makes the study
    resumable: scenarios whose checkpoint already exists skip training
    and restore the saved result instead, which deploys and evaluates
    identically to the fresh one.

:func:`generalization_matrix`
    every trained policy, retargeted at every scenario through
    :meth:`~repro.schedulers.RLSchedulerPolicy.retarget` (checked
    ``n_procs`` rebind; the policy observes through its own feature
    layout and the compatibility mode is recorded), evaluated alongside
    the heuristic baselines on each scenario's own protocol sequences.
    All (scenario, scheduler, sequence) simulations run through the same
    cells and dispatch as :func:`repro.api.scenario_matrix` — each cell
    names the heuristics and the policy instances retargeted at its
    scenario — so results are bit-identical for any worker count.

The returned artifact is one JSON-serializable document: per-cell
mean/std/per-sequence values, per-policy training curves and
compatibility modes, and full provenance (scenario dicts, seeds, study
config).
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from repro.config import EnvConfig, EvalConfig, ScenarioConfig, StudyConfig
from repro.rl import Trainer, TrainingResult
from repro.scenarios import Scenario, available_scenarios, get_scenario
from repro.schedulers import RLSchedulerPolicy, make_scheduler
from repro.telemetry.sink import telemetry_run
from repro.workloads.sampler import check_window

__all__ = [
    "ARTIFACT_SCHEMA",
    "StudyPolicy",
    "train_matrix",
    "generalization_matrix",
]

#: artifact format identifier (bump on incompatible layout changes)
ARTIFACT_SCHEMA = "repro/generalization-matrix@4"


@dataclass
class StudyPolicy:
    """One zoo entry: a policy trained on (or restored for) a scenario."""

    scenario: str            # scenario the policy was trained on
    checkpoint: str          # path of the zoo ``.npz``
    result: TrainingResult
    from_checkpoint: bool    # True = restored, training was skipped

    @property
    def name(self) -> str:
        """Column name in the generalization matrix."""
        return f"RL-{self.scenario}"


def _say(progress: Callable[[str], None] | None, message: str) -> None:
    if progress is not None:
        progress(message)


def _study_scenarios(config: StudyConfig) -> list[Scenario]:
    names = list(config.scenarios) or available_scenarios()
    scenarios = [get_scenario(n) for n in names]  # fail fast on unknowns
    if len({s.name for s in scenarios}) != len(scenarios):
        raise ValueError("study scenario names must be unique")
    return scenarios


def _checkpoint(config: StudyConfig, scenario: Scenario) -> Path:
    """The zoo file of ``scenario``'s policy."""
    return Path(config.zoo_dir) / f"{scenario.name}.npz"


def _train_provenance(config: StudyConfig, metric: str) -> dict:
    """The training knobs a zoo checkpoint records (resume drift check):
    flat keys, whatever the config nests — every zoo file written so far
    carries them that way."""
    return {
        "metric": metric,
        "policy_preset": config.policy_preset,
        "max_obsv_size": config.max_obsv_size,
        "n_jobs": config.n_jobs,
        **{
            knob: getattr(config.train, knob)
            for knob in ("seed", "epochs", "trajectories_per_epoch",
                         "trajectory_length", "use_trajectory_filter")
        },
    }


def train_matrix(
    config: StudyConfig | None = None,
    progress: Callable[[str], None] | None = None,
) -> dict[str, StudyPolicy]:
    """Train (or restore) one policy per scenario into the zoo.

    Returns ``{scenario name: StudyPolicy}`` in scenario order.  A
    scenario whose ``<zoo_dir>/<name>.npz`` exists is *not* retrained:
    the checkpoint is loaded and marked ``from_checkpoint`` — delete the
    file (or point ``zoo_dir`` elsewhere) to force retraining.  Restored
    checkpoints carry their own training provenance (``train_meta``); a
    mismatch against the current config — on the keys both sides know, so
    checkpoints written before a knob was retired restore silently — is
    reported via ``progress`` and the checkpoint's own settings stay
    authoritative in the artifact.
    """
    config = config or StudyConfig()
    Path(config.zoo_dir).mkdir(parents=True, exist_ok=True)
    out: dict[str, StudyPolicy] = {}
    for scenario in _study_scenarios(config):
        checkpoint = _checkpoint(config, scenario)
        metric = config.metric or scenario.protocol.metric
        if checkpoint.exists():
            result = TrainingResult.load(checkpoint)
            out[scenario.name] = StudyPolicy(
                scenario.name, str(checkpoint), result, from_checkpoint=True
            )
            _say(progress,
                 f"{scenario.name}: skipped (checkpoint exists: {checkpoint})")
            recorded = result.train_meta or {}
            drift = {
                k: (recorded[k], v)
                for k, v in _train_provenance(config, metric).items()
                if k in recorded and recorded[k] != v
            }
            if drift:
                _say(progress,
                     f"{scenario.name}: warning — checkpoint was trained "
                     f"with different settings {drift} (checkpoint vs "
                     f"study config); delete {checkpoint} to retrain")
            continue
        train_config = dataclasses.replace(
            config.train,
            # workload size/seed stay the scenario defaults unless the
            # study shrinks them (n_jobs) — the same trace the evaluation
            # cells sample from
            scenario=ScenarioConfig(name=scenario.name, n_jobs=config.n_jobs),
        )
        with Trainer(
            metric=metric,
            policy_preset=config.policy_preset,
            env_config=EnvConfig(max_obsv_size=config.max_obsv_size),
            train_config=train_config,
        ) as trainer:
            result = trainer.train()
        result.train_meta = _train_provenance(config, metric)
        result.save(checkpoint)
        out[scenario.name] = StudyPolicy(
            scenario.name, str(checkpoint), result, from_checkpoint=False
        )
        _say(progress,
             f"{scenario.name}: trained {config.policy_preset} for {metric} "
             f"({config.train.epochs} epochs) -> {checkpoint}")
    return out


def _json_safe(value: float) -> float | None:
    """JSON-strict float: non-finite values map to null."""
    value = float(value)
    return value if math.isfinite(value) else None


def _curve_dict(result: TrainingResult) -> dict:
    return {
        "mean_metric": [_json_safe(r.mean_metric) for r in result.curve],
        "mean_reward": [_json_safe(r.mean_reward) for r in result.curve],
        "val_reward": [_json_safe(r.val_reward) for r in result.curve],
    }


def generalization_matrix(
    config: StudyConfig | None = None,
    trained: dict[str, StudyPolicy] | None = None,
    progress: Callable[[str], None] | None = None,
) -> dict:
    """The full Table-VII artifact: every policy × every scenario.

    Trains (or restores) the zoo via :func:`train_matrix` unless
    ``trained`` is supplied, then evaluates each trained policy —
    retargeted per scenario, its compatibility mode recorded —
    alongside ``config.heuristics`` on every scenario's protocol
    sequences.  Returns a JSON-serializable document::

        {
          "schema": "repro/generalization-matrix@4",
          "config": {... study config; "train" nests the TrainConfig,
                     "workers" is the evaluation's process count ...},
          "scenarios": {name: scenario.to_dict()},
          "policies": {"RL-<scenario>": {checkpoint, curve, compat, ...}},
          "results": {scenario: {scheduler: {mean, std, n, values}}},
        }

    Every scenario's sequences are sampled first, so a metric or an
    evaluation window that does not fit — or the training window of a
    policy still to be trained (:class:`repro.api.WindowError`) — fails
    before any training.  Results are bit-identical for any worker
    count (sequences are pre-sampled in the parent and reassembled in
    sampling order), so in-process and multi-worker runs produce the same
    artifact.  ``progress`` hears one line per cell (and the telemetry
    sink one ``heartbeat`` event) as each cell's last task completes.
    """
    config = config or StudyConfig()
    scenarios = _study_scenarios(config)
    from repro.api import EvalResult, _cell, _run_cells  # local: repro.api re-exports us

    # every scenario's metric and window are checked, and its sequences
    # sampled, before any policy trains
    heuristics = [make_scheduler(n) for n in config.heuristics]
    traces = [s.build_trace(n_jobs=config.n_jobs) for s in scenarios]
    cells = [
        _cell(
            heuristics,
            trace,
            scenario.cluster,
            scenario.protocol.backfill,
            config.metric or scenario.protocol.metric,
            EvalConfig(
                n_sequences=config.n_sequences or scenario.protocol.n_sequences,
                sequence_length=(config.sequence_length
                                 or scenario.protocol.sequence_length),
                seed=scenario.protocol.seed,
            ),
            f"scenario {scenario.name}",
        )
        for scenario, trace in zip(scenarios, traces)
    ]
    if trained is None:
        # ... and so is the training window of every policy to be trained
        for scenario, trace in zip(scenarios, traces):
            if not _checkpoint(config, scenario).exists():
                check_window(trace, config.train.trajectory_length,
                             "training", f"scenario {scenario.name}")
    with telemetry_run(
        config.telemetry,
        meta={"command": "study", "scenarios": [s.name for s in scenarios]},
    ) as sink:
        if trained is None:
            trained = train_matrix(config, progress=progress)
        policies = list(trained.values())
        names = [s.name for s in heuristics] + [p.name for p in policies]
        if len(set(names)) != len(names):
            raise ValueError(f"scheduler names must be unique, got {names}")

        # Each trained policy joins every cell retargeted at its scenario
        # (n_procs and the feature-compat mode differ cell to cell).  The
        # best-epoch deployment is scenario-independent — build it once
        # per policy; retarget() clones per scenario.
        deployed = [p.result.as_scheduler(name=p.name) for p in policies]
        compat: dict[str, dict[str, str]] = {p.name: {} for p in policies}
        for ci, scenario in enumerate(scenarios):
            retargeted = [rl.retarget(scenario) for rl in deployed]
            for policy, rl in zip(policies, retargeted):
                compat[policy.name][scenario.name] = rl.compat
            cells[ci] = (*cells[ci][:4], heuristics + retargeted)
        _say(progress,
             f"evaluating {len(names)} schedulers x {len(scenarios)} "
             f"scenarios on {config.workers} worker(s)")

        def _heartbeat(ci: int, seconds: float) -> None:
            """Per-cell progress: _say line + sink heartbeat event."""
            name = scenarios[ci].name
            _say(progress,
                 f"cell {name}: evaluated in {seconds:.2f}s "
                 f"({ci + 1}/{len(scenarios)})")
            if sink is not None:
                sink.write_event(
                    "heartbeat", cell=name, seconds=seconds,
                    index=ci, total=len(scenarios),
                )

        values = _run_cells(cells, config.workers, heartbeat=_heartbeat)
    results = {
        scenario.name: {
            name: EvalResult(vals).to_dict()
            for name, vals in zip(names, values[ci])
        }
        for ci, scenario in enumerate(scenarios)
    }

    return {
        "schema": ARTIFACT_SCHEMA,
        "config": dataclasses.asdict(config),
        "scenarios": {s.name: s.to_dict() for s in scenarios},
        "policies": {
            p.name: {
                "trained_on": p.scenario,
                "checkpoint": p.checkpoint,
                "from_checkpoint": p.from_checkpoint,
                "metric": p.result.metric,
                "policy_preset": p.result.policy_preset,
                "n_procs": p.result.n_procs,
                "best_epoch": p.result.best_epoch,
                # the checkpoint's own training provenance — for restored
                # policies this reflects how they were actually trained,
                # not the current run's config
                "train_meta": p.result.train_meta,
                "env_config": dataclasses.asdict(p.result.env_config),
                "compat": compat[p.name],
                "curve": _curve_dict(p.result),
            }
            for p in policies
        },
        "results": results,
    }
