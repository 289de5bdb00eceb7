"""Cluster simulation substrate: resource model, event engine, EASY
backfilling, scheduling metrics, and the SchedGym RL environment."""

from .cluster import Cluster, ClusterSpec, mem_demand
from .backfill import (
    backfill_candidates,
    conservative_backfill_candidates,
    shadow_state,
    shadow_time_and_extra,
)
from .core import EngineCore, OnlineSchedulingEngine
from .simulator import SchedulingEngine, run_scheduler
from .env import (
    FeatureCache,
    SchedGym,
    StepResult,
    build_observation,
    fill_dynamic_features,
    observation_rows,
    stable_user_hash,
)
from .vec_env import VecSchedGym, VecStepResult
from .metrics import (
    BSLD_THRESHOLD,
    METRICS,
    average_bounded_slowdown,
    average_response_time,
    average_slowdown,
    average_waiting_time,
    fairness_aggregate,
    job_bounded_slowdown,
    job_response_time,
    job_slowdown,
    job_waiting_time,
    makespan,
    metric_by_name,
    per_user_metric,
    resource_utilization,
)

__all__ = [
    "Cluster",
    "ClusterSpec",
    "mem_demand",
    "backfill_candidates",
    "conservative_backfill_candidates",
    "shadow_state",
    "shadow_time_and_extra",
    "EngineCore",
    "OnlineSchedulingEngine",
    "SchedulingEngine",
    "run_scheduler",
    "FeatureCache",
    "SchedGym",
    "StepResult",
    "build_observation",
    "fill_dynamic_features",
    "observation_rows",
    "stable_user_hash",
    "VecSchedGym",
    "VecStepResult",
    "BSLD_THRESHOLD",
    "METRICS",
    "average_bounded_slowdown",
    "average_response_time",
    "average_slowdown",
    "average_waiting_time",
    "fairness_aggregate",
    "job_bounded_slowdown",
    "job_response_time",
    "job_slowdown",
    "job_waiting_time",
    "makespan",
    "metric_by_name",
    "per_user_metric",
    "resource_utilization",
]
