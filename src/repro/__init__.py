"""RLScheduler (SC'20) reproduction.

An automated HPC batch job scheduler using reinforcement learning, rebuilt
as a self-contained NumPy library: SWF workloads, a discrete-event cluster
simulator with EASY backfilling (SchedGym), Table III heuristic baselines,
a from-scratch autodiff/NN stack, and PPO training with the paper's
kernel-based policy network and trajectory filtering.

Quickstart::

    import repro

    trace = repro.load_trace("Lublin-1", n_jobs=2000)
    result = repro.train(trace, metric="bsld",
                         train_config=repro.TrainConfig(epochs=20,
                                                        trajectories_per_epoch=20,
                                                        trajectory_length=64))
    scores = repro.compare(
        [repro.schedulers.SJF(), repro.schedulers.F1(), result.as_scheduler()],
        trace,
        metric="bsld",
    )
"""

from . import (
    api,
    config,
    nn,
    rl,
    runtime,
    scenarios,
    schedulers,
    sim,
    study,
    telemetry,
    workloads,
)
from .api import (
    EvalResult,
    compare,
    evaluate,
    generalization_matrix,
    scenario_matrix,
    train,
    train_matrix,
)
from .config import (
    EnvConfig,
    EvalConfig,
    FeatureLayoutError,
    PPOConfig,
    ScenarioConfig,
    ServeConfig,
    StudyConfig,
    TelemetryConfig,
    TenantConfig,
    TrainConfig,
)
from .rl import Trainer, TrainingResult
from .scenarios import Scenario, available_scenarios, get_scenario
from .schedulers import RLSchedulerPolicy
from .sim import ClusterSpec, SchedGym, run_scheduler
from .workloads import load_trace

__version__ = "1.0.0"

__all__ = [
    "api",
    "config",
    "nn",
    "rl",
    "runtime",
    "scenarios",
    "schedulers",
    "sim",
    "study",
    "telemetry",
    "workloads",
    "train",
    "evaluate",
    "compare",
    "scenario_matrix",
    "train_matrix",
    "generalization_matrix",
    "EvalResult",
    "EnvConfig",
    "PPOConfig",
    "TrainConfig",
    "EvalConfig",
    "ScenarioConfig",
    "ServeConfig",
    "TenantConfig",
    "StudyConfig",
    "TelemetryConfig",
    "FeatureLayoutError",
    "Trainer",
    "TrainingResult",
    "RLSchedulerPolicy",
    "Scenario",
    "available_scenarios",
    "get_scenario",
    "ClusterSpec",
    "SchedGym",
    "run_scheduler",
    "load_trace",
    "__version__",
]
