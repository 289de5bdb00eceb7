"""What a training run produces: its curve and trained networks."""

from __future__ import annotations

import copy
import dataclasses
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro import checkpoint
from repro.config import EnvConfig
from repro.nn import Module, ValueMLP
from repro.schedulers.rl_scheduler import RLSchedulerPolicy

from .ppo import UpdateStats

__all__ = ["EpochRecord", "TrainingResult"]


@dataclass(frozen=True)
class EpochRecord:
    """One point of a training curve."""

    epoch: int
    mean_metric: float          # raw metric (e.g. average bounded slowdown)
    mean_reward: float          # signed reward the agent maximises
    stats: UpdateStats
    n_rejected: int             # sequences rejected by the trajectory filter
    wall_time: float            # seconds spent in this epoch
    filtered_phase: bool
    val_reward: float = float("nan")  # greedy-policy reward on held-out seqs
    #: telemetry runs only: per-phase wall seconds for this epoch
    #: (``rollout`` / ``update`` / ``validate``), read
    #: from the epoch spans; ``None`` when telemetry is disabled.  Old
    #: records without the field load with the default (the ``kl_last``
    #: compat pattern).
    phase_times: dict | None = None

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    #: keys of retired fields that checkpoints written before their
    #: removal still carry; loading ignores them
    _RETIRED = frozenset({"n_stale_dropped", "n_stale_reweighted"})

    @classmethod
    def from_dict(cls, data: dict) -> "EpochRecord":
        data = {k: v for k, v in data.items() if k not in cls._RETIRED}
        data["stats"] = UpdateStats(**data["stats"])
        return cls(**data)


@dataclass
class TrainingResult:
    """Everything a training run produced."""

    trace_name: str
    metric: str
    policy_preset: str
    curve: list[EpochRecord] = field(default_factory=list)
    policy: Module | None = None
    value: Module | None = None
    n_procs: int = 0
    env_config: EnvConfig | None = None
    best_policy_state: dict | None = None  # snapshot of the best epoch
    best_epoch: int = -1
    #: free-form training provenance (seed, epoch budget, ...) carried
    #: through save/load — callers that checkpoint results (the study
    #: zoo) record how a checkpoint was produced so a restore can detect
    #: config drift instead of silently reporting the current run's
    #: settings as the checkpoint's
    train_meta: dict | None = None

    def metric_curve(self) -> np.ndarray:
        """Per-epoch mean metric values (the Fig. 10-13 y-axis)."""
        return np.array([r.mean_metric for r in self.curve])

    def reward_curve(self) -> np.ndarray:
        """Per-epoch mean rewards (the Fig. 8 y-axis, −bsld)."""
        return np.array([r.mean_reward for r in self.curve])

    def as_scheduler(
        self, name: str | None = None, use_best: bool = True
    ) -> RLSchedulerPolicy:
        """Wrap the trained policy for greedy deployment (Table V-XI).

        ``use_best`` restores the snapshot from the best training epoch
        (by held-out greedy validation reward); per-epoch stochasticity
        means the *final* epoch is not necessarily the strongest policy.
        The snapshot is loaded into a fresh copy of the policy module —
        ``self.policy`` keeps the final-epoch weights, so resumed
        training and a later ``as_scheduler(use_best=False)`` are
        unaffected.
        """
        if self.policy is None:
            raise RuntimeError("training has not run yet")
        policy = self.policy
        if use_best and self.best_policy_state is not None:
            policy = copy.deepcopy(self.policy)
            policy.load_state_dict(self.best_policy_state)
        return RLSchedulerPolicy(
            policy,
            n_procs=self.n_procs,
            env_config=self.env_config,
            preset=self.policy_preset,
            name=name or f"RL-{self.trace_name}",
        )

    # -- checkpointing: the one layout (repro.checkpoint) ----------------
    def save(self, path: str | Path) -> None:
        """The whole result as one checkpoint: :meth:`load` restores it;
        ``RLSchedulerPolicy.load`` deploys :meth:`as_scheduler`'s policy."""
        ckpt = self.as_scheduler().to_checkpoint()
        ckpt.groups["value"] = self.value.state_dict()
        if self.best_policy_state is not None:
            ckpt.groups["final"] = self.policy.state_dict()
        ckpt.meta = {
            "trace_name": self.trace_name, "metric": self.metric,
            "best_epoch": self.best_epoch, "train_meta": self.train_meta,
            "curve": [r.to_dict() for r in self.curve],
        }
        checkpoint.write(path, ckpt)

    @classmethod
    def load(cls, path: str | Path) -> "TrainingResult":
        """Restore a :meth:`save`d result; anything else raises
        :class:`~repro.checkpoint.CheckpointError` naming the file."""

        def build(ckpt: checkpoint.Checkpoint) -> "TrainingResult":
            policy = RLSchedulerPolicy.from_checkpoint(ckpt).policy
            final = ckpt.groups.get("final")
            if final is not None:
                policy.load_state_dict(final)
            env = ckpt.env_config
            value = ValueMLP(env.max_obsv_size, env.job_features)
            value.load_state_dict(ckpt.groups["value"])
            meta = ckpt.meta
            return cls(
                trace_name=meta["trace_name"], metric=meta["metric"],
                policy_preset=ckpt.preset, policy=policy, value=value,
                curve=[EpochRecord.from_dict(r) for r in meta["curve"]],
                n_procs=ckpt.n_procs, env_config=ckpt.env_config,
                best_policy_state=None if final is None else ckpt.weights,
                best_epoch=meta["best_epoch"],
                train_meta=meta.get("train_meta"),
            )

        return checkpoint.read(
            path, build, require=("trace_name", "metric", "best_epoch", "curve")
        )
